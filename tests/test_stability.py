import math

import numpy as np
import pytest

from pseudotherm import ModelParams
from pseudotherm.errors import ClassificationError, InvalidPointError
from pseudotherm.stability import (
    Isotherm,
    compute_isotherm,
    compute_isotherms,
    heterogeneous_free_energy,
    maxwell_check,
    pressure_alpha,
    pressure_from_f,
    spinodal_analysis,
)
from pseudotherm.thermo import potentials, thermal_table


def synthetic_isotherm(f, lo=-2.0, hi=2.0, n=401, t=1.0):
    alphas = np.linspace(lo, hi, n)
    vals = np.array([f(a) for a in alphas])
    return Isotherm(T=t, alphas=alphas, F=vals, valid=np.ones(n, dtype=bool))


# ------------------------------------------------------------------- pressure


def test_pressure_constant_f_is_zero():
    assert pressure_from_f(lambda a: 3.7, 0.5) == pytest.approx(0.0, abs=1e-10)


def test_pressure_linear_f():
    t = 1.3
    assert pressure_from_f(lambda a: -t * a, 0.8) == pytest.approx(t, rel=1e-9)


def test_pressure_invalid_stencil_raises():
    with pytest.raises(InvalidPointError):
        pressure_from_f(lambda a: math.nan, 0.5)


def test_extrema_of_f_are_zeros_of_pressure():
    # on a real isotherm the pressure vanishes at a refined minimum of F
    p = ModelParams(g=1.73)
    t = 0.05 * p.D
    iso = compute_isotherm(p, t, np.linspace(0.2, 0.45, 151))
    res = spinodal_analysis(iso)
    assert res.minima, "expected structure below the critical temperature"
    a_min = res.minima[0][0]
    p_at_min = pressure_alpha(p, t, a_min, rel_step=2e-3)
    scale = abs(pressure_alpha(p, t, a_min + 0.02, rel_step=2e-3)) + 1e-9
    assert abs(p_at_min) < 0.15 * max(scale, 1.0)


# ------------------------------------------------------------------- spinodal


def test_quartic_double_well_features():
    iso = synthetic_isotherm(lambda a: (a * a - 1.0) ** 2)
    res = spinodal_analysis(iso)
    assert len(res.minima) == 2
    assert res.minima[0][0] == pytest.approx(-1.0, abs=1e-4)
    assert res.minima[1][0] == pytest.approx(1.0, abs=1e-4)
    assert len(res.inflections) == 2
    assert res.inflections[0] == pytest.approx(-1.0 / math.sqrt(3.0), abs=5e-3)
    assert res.inflections[1] == pytest.approx(1.0 / math.sqrt(3.0), abs=5e-3)
    assert res.binodal == ((res.minima[0][0], res.minima[1][0]),)
    assert res.minima_stable


def test_partition_invariant_on_quartic():
    iso = synthetic_isotherm(lambda a: (a * a - 1.0) ** 2)
    res = spinodal_analysis(iso)
    (b_lo, b_hi), = res.binodal
    (s_lo, s_hi), = res.spinodal
    m1, m2 = res.metastable
    assert b_lo == m1[0] and m1[1] == s_lo
    assert s_hi == m2[0] and m2[1] == b_hi
    # chord-slope equilibrium pressure
    (a1, f1), (a2, f2) = res.minima
    assert res.p_eq[0] == pytest.approx(abs((f2 - f1) / (a2 - a1)), rel=1e-12)


def test_single_minimum_means_empty_spinodal():
    iso = synthetic_isotherm(lambda a: a * a)
    res = spinodal_analysis(iso)
    assert len(res.minima) == 1
    assert res.binodal == () and res.spinodal == () and res.metastable == ()


def test_too_few_points_rejected():
    iso = synthetic_isotherm(lambda a: a * a, n=4)
    with pytest.raises(ValueError):
        spinodal_analysis(iso)


def test_invalid_points_make_interval_indeterminate():
    alphas = np.linspace(-2.0, 2.0, 401)
    vals = (alphas**2 - 1.0) ** 2
    valid = np.ones(401, dtype=bool)
    valid[195:206] = False  # poison the barrier between the wells
    iso = Isotherm(T=1.0, alphas=alphas, F=vals, valid=valid)
    res = spinodal_analysis(iso)
    assert len(res.minima) == 2
    assert res.binodal == ()
    assert len(res.indeterminate) == 1


# ----------------------------------------------------------------- lever rule


def test_lever_rule_endpoints_and_midpoint():
    iso = synthetic_isotherm(lambda a: (a * a - 1.0) ** 2)
    res = spinodal_analysis(iso)
    (a1, f1), (a2, f2) = res.minima
    assert heterogeneous_free_energy(res, iso, a1) == pytest.approx(f1, abs=1e-12)
    assert heterogeneous_free_energy(res, iso, a2) == pytest.approx(f2, abs=1e-12)
    mid = 0.5 * (a1 + a2)
    assert heterogeneous_free_energy(res, iso, mid) == pytest.approx(
        0.5 * (f1 + f2), abs=1e-12
    )


def test_lever_rule_chord_below_hump():
    iso = synthetic_isotherm(lambda a: (a * a - 1.0) ** 2)
    res = spinodal_analysis(iso)
    f_het = heterogeneous_free_energy(res, iso, 0.0)
    assert f_het == pytest.approx(0.0, abs=1e-6)
    assert f_het < 1.0  # homogeneous hump value


def test_lever_rule_outside_binodal_raises():
    iso = synthetic_isotherm(lambda a: (a * a - 1.0) ** 2)
    res = spinodal_analysis(iso)
    with pytest.raises(ValueError):
        heterogeneous_free_energy(res, iso, 1.8)


def test_lever_rule_on_model_isotherm():
    # Inside the unstable (spinodal) zone the mixture always beats the
    # homogeneous state; in the tilted metastable stretch next to the lower
    # minimum the chord can cross F, which is exactly the declared
    # classification-error path.
    p = ModelParams(g=1.73)
    t = 0.05 * p.D
    iso = compute_isotherm(p, t, np.linspace(0.2, 0.4, 201))
    res = spinodal_analysis(iso)
    assert len(res.minima) >= 2
    assert res.spinodal
    for (s_lo, s_hi) in res.spinodal:
        for a in np.linspace(s_lo, s_hi, 7):
            f_het = heterogeneous_free_energy(res, iso, float(a))
            f_hom = float(np.interp(a, iso.alphas, iso.F))
            assert f_het <= f_hom + 1e-9 * max(abs(f_hom), 1.0)
    violations = 0
    for (a1, _), (a2, _) in zip(res.minima[:-1], res.minima[1:]):
        if (a1, a2) not in res.binodal:
            continue
        for a in np.linspace(a1, a2, 33):
            try:
                heterogeneous_free_energy(res, iso, float(a))
            except ClassificationError:
                violations += 1
    assert violations > 0  # the tilted staircase does violate it somewhere


# -------------------------------------------------------------------- maxwell


def test_maxwell_synthetic_linear():
    # F = -T*alpha: dS/dalpha = 1 = dp/dT exactly; exercised through the
    # public pressure helper on the synthetic callable
    t0, a0 = 1.1, 0.6
    h = 1e-3

    def entropy(a):
        return a  # S = -dF/dT

    def pressure(t):
        return pressure_from_f(lambda a: -t * a, a0)

    lhs = (entropy(a0 + h) - entropy(a0 - h)) / (2 * h)
    rhs = (pressure(t0 + h) - pressure(t0 - h)) / (2 * h)
    assert lhs == pytest.approx(1.0, rel=1e-9)
    assert rhs == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("t,alpha", [(0.8, 0.8), (1.5, 0.5)])
def test_maxwell_residual_small_without_zeros(t, alpha):
    p = ModelParams(g=1.0)
    out = maxwell_check(p, t, alpha)
    assert not out["crossed_invalid"]
    assert out["residual"] <= 1e-3


def test_maxwell_residual_small_hermitian_limit():
    p = ModelParams(g=1.73, alpha=1.0)
    out = maxwell_check(p, 1.0, 1.0)
    assert out["residual"] <= 1e-3


def test_isotherm_makes_at_most_two_lapack_calls_per_sector_size(monkeypatch):
    # the 15 points of an isotherm are solved as one batch: one eigvalsh and
    # one eigvals call per sector size, not per point
    from pseudotherm.model import fold_plan

    p = ModelParams(g=1.73)
    calls = []

    def counted(fn):
        def call(h):
            calls.append(h.shape[-1])
            return fn(h)

        return call

    monkeypatch.setattr(np.linalg, "eigvals", counted(np.linalg.eigvals))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted(np.linalg.eigvalsh))
    iso = compute_isotherm(p, 0.144, np.linspace(0.2, 0.4, 15))
    assert np.all(iso.valid)
    sizes = {g.slots.shape[1] for g in fold_plan(p).sizes}
    assert len(sizes) == 18 and set(calls) == sizes
    assert max(calls.count(n) for n in sizes) <= 2


def test_shared_tables_give_the_same_isotherm():
    # two isotherms share one solve of the grid; each equals its isotherm
    # alone and the potentials of each point's cached table
    p = ModelParams(g=1.73)
    alphas = np.linspace(0.2, 0.4, 7)
    shared = compute_isotherms(p, [0.1, 0.144], alphas)
    for t, iso in zip((0.1, 0.144), shared):
        alone = compute_isotherm(p, t, alphas)
        cached = [potentials(q, t, thermal_table(q)) for q in (p.with_(alpha=a) for a in alphas)]
        assert iso.T == t
        assert alone.F.tobytes() == iso.F.tobytes() == np.array([pt.F for pt in cached]).tobytes()
        assert np.array_equal(alone.valid, iso.valid)
        assert np.array_equal(iso.valid, [pt.valid for pt in cached])


def test_isotherms_in_sweep_batches_equal_one_batch(monkeypatch):
    # a grid longer than one sweep batch is solved and reduced batch by
    # batch, and gives the isotherms of one batch bit for bit
    from pseudotherm import spectral, thermo
    from pseudotherm.model import fold_plan

    p = ModelParams(g=1.73)
    alphas = np.linspace(0.2, 0.4, 7)
    whole = compute_isotherms(p, [0.1, 0.144], alphas)
    batches = []
    solve = spectral.block_spectra

    def counted(points):
        points = list(points)
        batches.append(len(points))
        return solve(points)

    monkeypatch.setattr(spectral, "block_spectra", counted)
    monkeypatch.setattr(thermo, "SWEEP_SLOTS", 3 * len(fold_plan(p).slot_nqb))
    split = compute_isotherms(p, [0.1, 0.144], alphas)
    assert batches == [3, 3, 1]
    for a, b in zip(whole, split):
        assert a.F.tobytes() == b.F.tobytes()
        assert np.array_equal(a.valid, b.valid)

