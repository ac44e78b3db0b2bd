"""Shared random-expression generators with deterministic seeds."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from jetns.constraints import ReductionContext, Setting, restricted_derivative
from jetns.evolutionary import Characteristic
from jetns.jetalgebra import Expr, NU_VAR, T_VAR, pvar, uvar, xvar
from jetns.multiindex import indices_up_to


def variable_pool(
    m: int = 3,
    max_u_order: int = 2,
    max_p_order: int = 2,
    ctx: ReductionContext | None = None,
    allow_x: bool = True,
    allow_nu: bool = False,
    allow_t: bool = False,
):
    """Jet variables up to the given orders, restricted to ctx coordinates."""
    setting = ctx.setting if ctx is not None else Setting.FREE
    pool = []
    if allow_x:
        pool.extend(xvar(mu) for mu in range(1, m + 1))
    if allow_nu:
        pool.append(NU_VAR)
    if allow_t:
        pool.append(T_VAR)
    for i in indices_up_to(m, max_u_order):
        for mu in range(1, m + 1):
            if setting is not Setting.FREE and mu == 1 and i.first > 0:
                continue
            pool.append(uvar(mu, i))
    for i in indices_up_to(m, max_p_order):
        if setting is Setting.CPE and i.first > 1:
            continue
        pool.append(pvar(i))
    return pool


def random_expr(
    rng: random.Random,
    pool,
    n_terms: int = 3,
    max_factors: int = 2,
    max_exponent: int = 2,
) -> Expr:
    total = Expr.zero()
    for _ in range(n_terms):
        coeff = Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))
        term = Expr.const(coeff)
        for _ in range(rng.randint(1, max_factors)):
            term = term * Expr.var(rng.choice(pool)) ** rng.randint(1, max_exponent)
        total = total + term
    return total


def path_derivatives(ctx: ReductionContext, f: Expr):
    """df with df(path) = D_path f from restricted_derivative alone, the last direction first."""
    def df(path: tuple) -> Expr:
        g = f
        for mu in reversed(path):
            g = restricted_derivative(ctx, mu, g)
        return g
    return df


def random_characteristic(
    rng: random.Random, pool, m: int = 3, n_terms: int = 2, shape=Characteristic
) -> Characteristic:
    """A characteristic, or a tuple of another dense shape, with every entry random."""
    return shape(m, {label: random_expr(rng, pool, n_terms=n_terms) for label in shape.labels(m)})


def random_point(rng: random.Random, variables) -> dict:
    return {v: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for v in variables}


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture(scope="session")
def ce_ctx():
    return ReductionContext(Setting.CE, 3)


@pytest.fixture(scope="session")
def cpe_ctx():
    return ReductionContext(Setting.CPE, 3)


@pytest.fixture(scope="session")
def free_ctx():
    return ReductionContext(Setting.FREE, 3)
