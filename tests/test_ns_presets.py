from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from pathlib import Path

import pytest

from jetns import ns_presets
from jetns.constraints import reduce
from jetns.evolutionary import (
    Characteristic,
    pressure_coupling_residual,
    pressure_shift_characteristic,
    symmetry_residuals,
    translation_characteristic,
)
from jetns.jetalgebra import Expr, NU_VAR, p, u, uvar, x
from jetns.multiindex import unit, zero
from jetns.ns_presets import (
    NsInstance,
    divergence_identity_residual,
    evolution_current,
    evolution_field,
    ns_build,
    ns_integrability_prolongations,
    ns_verify,
    preset_table,
)
from jetns.variational import current_divergence

GOLDEN = Path(__file__).parent / "golden"


def test_build_contains_viscous_term():
    inst = ns_build(3)
    coeff = inst.evolution_velocity[0].diff(uvar(1, (2, 0, 0)))
    assert coeff == Expr.var(NU_VAR)


def test_build_dimension_two_uses_two_components():
    inst = ns_build(2)
    assert len(inst.evolution_velocity) == 2
    for comp in inst.evolution_velocity:
        for v in comp.variables():
            if v.kind in ("u", "p"):
                assert v.index.dim == 2


def test_build_rejects_nonpositive_viscosity():
    with pytest.raises(ValueError):
        ns_build(3, viscosity=-1)
    with pytest.raises(ValueError):
        ns_build(3, viscosity=0)


def test_numeric_viscosity_substitution():
    inst = ns_build(3, viscosity=Fraction(1, 100))
    assert NU_VAR not in inst.evolution_velocity[0].variables()
    report = ns_verify(inst)
    assert report.passed


def test_e1_print_is_golden():
    inst = ns_build(3)
    expected = (GOLDEN / "ns_e1.txt").read_text().rstrip("\n")
    assert str(inst.evolution_velocity[0]) == expected


@pytest.mark.parametrize("m", [2, 3])
def test_velocity_divergence_vanishes(m):
    inst = ns_build(m)
    report = ns_verify(inst)
    assert report.residual("velocity_divergence").is_zero()


def test_free_identity_exact():
    for m in (2, 3):
        assert divergence_identity_residual(ns_build(m)).is_zero()


def test_verify_report_checked_entries_pass():
    report = ns_verify(ns_build(3))
    assert report.passed
    assert report.residual("divergence_identity_free").is_zero()
    assert report.residual("flux_divergence_reduced").is_zero()


def test_verify_computes_the_free_divergence_once(monkeypatch):
    # both divergence entries read one D_mu E^mu; on an evolution that is
    # not the flow's they are nonzero and still the public functions' values
    inst = ns_build(3)
    bent = replace(inst, evolution_velocity=tuple(
        e + x(mu) ** 2 for mu, e in enumerate(inst.evolution_velocity, start=1)
    ))
    expected = {
        "velocity_divergence": reduce(bent.context, ns_presets._free_divergence(bent)),
        "divergence_identity_free": divergence_identity_residual(bent),
    }
    assert not any(v.is_zero() for v in expected.values())
    calls = []
    real = ns_presets._free_divergence
    monkeypatch.setattr(ns_presets, "_free_divergence", lambda i: calls.append(i) or real(i))
    report = ns_verify(bent)
    assert len(calls) == 1
    assert {name: report.residual(name) for name in expected} == expected


def test_poisson_entry_informational_without_candidate():
    report = ns_verify(ns_build(3))
    assert "pressure_poisson" in report.informational
    assert not report.residual("pressure_poisson").is_zero()


def test_poisson_entry_checked_with_candidate():
    report = ns_verify(ns_build(3), pressure_component=Expr.zero())
    assert "pressure_poisson" not in report.informational
    assert not report.residual("pressure_poisson").is_zero()


def test_poisson_source_assembled_independently():
    # without a pressure candidate the informational Poisson entry is
    # exactly the reduced gradient pairing of the evolution components
    from jetns.constraints import (
        reduce as ctx_reduce,
        restricted_derivative,
        velocity_gradient_entry,
    )
    from jetns.jetalgebra import Expr, expr_sum

    inst = ns_build(3)
    ctx = inst.context
    reduced_velocity = [ctx_reduce(ctx, comp) for comp in inst.evolution_velocity]
    pairing = expr_sum(
        2 * velocity_gradient_entry(ctx, la, mu)
        * restricted_derivative(ctx, la, reduced_velocity[mu - 1])
        for la in range(1, 4)
        for mu in range(1, 4)
    )
    source = ns_verify(inst).residual("pressure_poisson")
    assert source == ctx_reduce(ctx, pairing)
    # the viscous part contributes, so the symbol appears in the source
    assert NU_VAR in source.variables()


def test_integrability_prolongations_reduce_to_zero():
    inst = ns_build(3)
    for name, free_form, reduced in ns_integrability_prolongations(inst):
        assert reduced.is_zero(), name
        if name.startswith("space_prolongation"):
            assert not free_form.is_zero()


def test_evolution_current_conserved():
    inst = ns_build(3)
    assert current_divergence(inst.context, evolution_current(inst)).is_zero()


@pytest.mark.parametrize("lam", [1, 2, 3])
def test_translation_symmetries(lam):
    inst = ns_build(3)
    f = translation_characteristic(inst.context, lam)
    assert symmetry_residuals(inst.context, f).passed


def test_pressure_shift_symmetry():
    inst = ns_build(3)
    f = pressure_shift_characteristic(inst.context)
    assert symmetry_residuals(inst.context, f).passed


def test_preset_table_names():
    inst = ns_build(3)
    names = [name for name, _ in preset_table(inst)]
    assert names == ["E1", "E2", "E3", "CE", "PE", "Phi", "quad_source", "quad_source_reduced"]
    table = dict(preset_table(inst))
    assert reduce(inst.context, table["PE"]).is_zero()


# -- one instance per (m, viscosity) --------------------------------------

_CACHED = {"field", "free_divergence", "identity_residuals", "poisson_source"}


def _pressure_part(m: int) -> Expr:
    return p(zero(m)) + Fraction(1, 2) * u(2, unit(1, m)) ** 2 - x(1)


def test_build_interns_one_instance_per_viscosity_value():
    assert ns_build(3, "1/100") is ns_build(3, Fraction(1, 100))
    assert ns_build(3, Fraction(2, 200)) is ns_build(3, "1/100")
    assert ns_build(3) is ns_build(3)
    assert ns_build(3) is not ns_build(3, "1/100")
    assert ns_build(2, "1/100") is not ns_build(3, "1/100")
    assert ns_build(3).viscosity == Expr.var(NU_VAR)
    assert ns_build(3, "1/100").viscosity == Expr.const(Fraction(1, 100))


@pytest.mark.parametrize(
    "m, viscosity, message",
    [
        (3, 0, "viscosity must be positive"),
        (3, "-1/2", "viscosity must be positive"),
        (3, "1/0", "viscosity 1/0 has a zero denominator"),
        (3, "abc", "Invalid literal for Fraction"),
        (1, "1/3", "dimension must be >= 2"),
        (1, None, "dimension must be >= 2"),
    ],
)
def test_a_refused_build_stores_nothing(m, viscosity, message):
    before = dict(NsInstance._interned)
    with pytest.raises(ValueError, match=message):
        ns_build(m, viscosity)
    assert NsInstance._interned == before


def test_build_computes_no_residual(monkeypatch):
    calls = []
    monkeypatch.setattr(ns_presets, "_free_divergence", lambda inst: calls.append(inst))
    inst = ns_build(3, Fraction(1, 977))  # a value no other test builds
    assert calls == []
    assert not _CACHED & vars(inst).keys()


def test_two_verify_calls_compute_the_cached_entries_once(monkeypatch):
    inst = replace(ns_build(3))  # not interned, so nothing is cached yet
    names = ("_free_divergence", "current_divergence", "_pressure_coupling", "reduce")
    calls = dict.fromkeys(names, 0)

    def counted(name):
        real = getattr(ns_presets, name)

        def call(*args):
            calls[name] += 1
            return real(*args)

        return call

    for name in calls:
        monkeypatch.setattr(ns_presets, name, counted(name))
    first, second = ns_verify(inst), ns_verify(inst)
    assert first.entries == second.entries
    once = {"_free_divergence": 1, "current_divergence": 1, "_pressure_coupling": 1, "reduce": 1}
    assert calls == once
    # a pressure part reduces only itself and recomputes only its Poisson entry
    ns_verify(inst, _pressure_part(3))
    assert calls == {**once, "_pressure_coupling": 2, "reduce": 2}


def test_each_report_and_field_is_the_callers_own():
    inst = ns_build(3)
    report = ns_verify(inst)
    report.entries.clear()
    again = ns_verify(inst)
    assert [name for name, _ in again.entries] == [
        "velocity_divergence", "divergence_identity_free", "flux_divergence_reduced",
        "pressure_poisson",
    ]
    assert again.entries is not ns_verify(inst).entries
    with pytest.raises(FrozenInstanceError):
        evolution_field(inst).context = None
    with pytest.raises(FrozenInstanceError):
        inst.m = 4


@pytest.mark.parametrize("pressure", [False, True], ids=["no-pressure", "pressure"])
@pytest.mark.parametrize("viscosity", [None, "1/100"], ids=["nu", "1/100"])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_cached_entries_equal_those_of_a_fresh_instance(m, viscosity, pressure):
    inst = ns_build(m, viscosity)
    part = _pressure_part(m) if pressure else None
    ns_verify(inst, part)  # fills the cache
    cached, fresh = ns_verify(inst, part), ns_verify(replace(inst), part)
    assert cached.entries == fresh.entries
    assert cached.informational == fresh.informational
    # the oracle reduces the whole characteristic at once, sharing no kept value
    ctx = inst.context
    velocity = {("u", mu): comp for mu, comp in enumerate(inst.evolution_velocity, start=1)}
    pressure = part if part is not None else Expr.zero()
    whole = Characteristic(m, {**velocity, ("p",): pressure}).reduce(ctx)
    assert evolution_field(inst, part).characteristic.items() == whole.items()
    assert cached.residual("pressure_poisson") == pressure_coupling_residual(ctx, whole)
