import math

import numpy as np
import pytest

from pseudotherm import ModelParams
from pseudotherm.cycles import (
    CycleSpec,
    carnot_cycle,
    efficiency_grid,
    solve_alpha,
    stirling_classical_efficiency,
    stirling_cycle,
)
from pseudotherm.errors import CycleInfeasible, NoSolutionError


@pytest.fixture(scope="module")
def p():
    return ModelParams(g=1.73)


def test_solve_alpha_residual_and_count(p):
    sol = solve_alpha(p, 0.9, 6.0, bracket=(0.05, 1.4))
    assert sol.residual <= 1e-6
    assert sol.root_count >= 1


def test_solve_alpha_root_stable_under_refinement(p):
    a = solve_alpha(p, 0.9, 6.0, bracket=(0.05, 1.4), coarse=64)
    b = solve_alpha(p, 0.9, 6.0, bracket=(0.05, 1.4), coarse=128)
    assert a.root_count == b.root_count
    assert a.alpha == pytest.approx(b.alpha, abs=1e-6)


SMALL = ModelParams(g=1.73, Omega=2.0, Omega1=1, Omega2=1)
# two temperatures, and one entropy no alpha of the bracket reaches
GRID_TARGETS = [(t, s) for t in (0.4, 0.7) for s in (3.5, 4.5, 9.0)]


def _one_target(p, t, s, **kw):
    """solve_alpha's result, or the NoSolutionError it raises."""
    try:
        return solve_alpha(p, t, s, **kw)
    except NoSolutionError as exc:
        return exc


def _same(a, b):
    if isinstance(a, NoSolutionError):
        assert isinstance(b, NoSolutionError)
        assert (str(a), a.attained_min, a.attained_max) == (
            str(b), b.attained_min, b.attained_max
        )
    else:
        assert (a.alpha, a.root_count, a.residual) == (b.alpha, b.root_count, b.residual)


def test_targets_of_two_temperatures_share_one_coarse_batch(monkeypatch):
    from pseudotherm import cycles, spectral

    batches = []
    solve = spectral.block_spectra

    def counted(points):
        points = list(points)
        batches.append(len(points))
        return solve(points)

    monkeypatch.setattr(spectral, "block_spectra", counted)
    targets = [(0.5, 4.0), (0.5, 4.5), (0.9, 5.0)]
    first, second, third = cycles.solve_alphas(SMALL, targets, bracket=(0.05, 1.4), coarse=32)
    assert batches[0] == 32
    # every later batch holds the midpoints (or the roots) of open targets only
    assert all(n <= len(targets) for n in batches[1:])
    assert batches[-1] == len(targets)
    assert first.alpha != second.alpha != third.alpha


def test_coarse_scan_in_sweep_batches_equals_one_batch(monkeypatch):
    # a coarse grid longer than one sweep batch is reduced to S curves batch
    # by batch; every target gets the alpha, count and residual of one batch
    from pseudotherm import cycles, spectral, thermo
    from pseudotherm.model import fold_plan

    whole = cycles.solve_alphas(SMALL, GRID_TARGETS)
    batches = []
    solve = spectral.block_spectra

    def counted(points):
        points = list(points)
        batches.append(len(points))
        return solve(points)

    monkeypatch.setattr(spectral, "block_spectra", counted)
    monkeypatch.setattr(thermo, "SWEEP_SLOTS", 20 * len(fold_plan(SMALL).slot_nqb))
    split = cycles.solve_alphas(SMALL, GRID_TARGETS)
    assert batches[:4] == [20, 20, 20, 4]
    assert all(n <= len(GRID_TARGETS) for n in batches[4:])
    for a, b in zip(whole, split):
        _same(a, b)
        if not isinstance(a, NoSolutionError):
            assert a.state == b.state


def test_lockstep_corners_equal_one_target_solves():
    from pseudotherm import cycles

    cycles._solve_alpha_cached.cache_clear()
    together = cycles.solve_alphas(SMALL, GRID_TARGETS)
    assert sum(isinstance(r, NoSolutionError) for r in together) == 2
    for (t, s), res in zip(GRID_TARGETS, together):
        _same(res, _one_target(SMALL, t, s))
        if not isinstance(res, NoSolutionError):
            assert res.state.alpha == res.alpha and res.state.T == t


def test_root_on_a_coarse_point_is_exact():
    from pseudotherm import cycles, thermo

    grid = np.linspace(0.02, 1.6, 16)
    ((point,),) = thermo.sweep_potentials([SMALL.with_(alpha=float(grid[5]))], [[0.5]])
    s = point.S
    (res,) = cycles.solve_alphas(SMALL, [(0.5, s)], coarse=16)
    assert (res.alpha, res.root_count, res.residual) == (grid[5], 1, 0.0)
    assert res.state.S == s


def test_grid_cells_equal_their_own_carnot_cycles():
    grid = efficiency_grid(SMALL, "carnot", [0.2, 0.4, 0.7], [1.0, 3.5, 5.5])
    assert any(c.feasible for c in grid.cells) and not all(c.feasible for c in grid.cells)
    for cell in grid.cells:
        spec = CycleSpec(kind="carnot", T1=cell.T1, T2=cell.T2, S1=cell.x1, S2=cell.x2)
        try:
            res = carnot_cycle(SMALL, spec)
        except CycleInfeasible as exc:
            assert not cell.feasible
            assert cell.reason == str(exc).splitlines()[0][:120]
        else:
            assert cell.feasible
            assert (cell.eta, cell.degenerate) == (res.eta, res.degenerate)


def test_grid_cells_equal_their_own_stirling_cycles():
    grid = efficiency_grid(SMALL, "stirling", [0.2, 0.4, 0.7], [0.3, 0.6, 1.1])
    assert len(grid.cells) == 9
    for cell in grid.cells:
        spec = CycleSpec(kind="stirling", T1=cell.T1, T2=cell.T2, alpha1=cell.x1, alpha2=cell.x2)
        res = stirling_cycle(SMALL, spec)
        assert cell.feasible
        assert (cell.eta, cell.eta_classical, cell.degenerate) == (
            res.eta, res.eta_classical, res.degenerate
        )


def test_stirling_grid_solves_its_alphas_in_one_batch(monkeypatch):
    from pseudotherm import spectral

    batches = []
    solve = spectral.block_spectra

    def counted(points):
        points = list(points)
        batches.append(len(points))
        return solve(points)

    monkeypatch.setattr(spectral, "block_spectra", counted)
    grid = efficiency_grid(SMALL, "stirling", [0.3, 0.5, 0.9], [0.2, 0.4, 0.7, 1.1, 1.5])
    assert len(grid.cells) == 30
    assert batches == [5]


def _invalid_where(monkeypatch, is_invalid):
    """Make thermo.potentials_batch, through which thermo.sweep_potentials
    gives every cycle its states, report an invalid point at every alpha
    for which is_invalid(alpha) holds; returns the list of alphas it was
    asked, in order."""
    import dataclasses

    from pseudotherm import cycles, thermo

    asked = []
    potentials_batch = thermo.potentials_batch

    def patched(points, t_values, tables=None):
        points = list(points)
        asked.extend(p.alpha for p in points)
        return [
            dataclasses.replace(pt, valid=False, S=math.nan) if is_invalid(p.alpha) else pt
            for p, pt in zip(points, potentials_batch(points, t_values, tables))
        ]

    monkeypatch.setattr(thermo, "potentials_batch", patched)
    cycles._solve_alpha_cached.cache_clear()
    return asked


def test_invalid_midpoint_falls_back_in_lockstep(monkeypatch):
    from pseudotherm import cycles

    t, s = 0.5, 4.0
    asked = _invalid_where(monkeypatch, lambda a: False)
    clean = solve_alpha(SMALL, t, s, coarse=32)
    mid = asked[32]  # the first midpoint, after the 32 coarse points
    grid = np.linspace(0.02, 1.6, 32)
    lo, hi = grid[grid < mid].max(), grid[grid > mid].min()
    assert mid == 0.5 * (lo + hi)

    asked = _invalid_where(monkeypatch, lambda a: a == mid)
    alone = solve_alpha(SMALL, t, s, coarse=32)
    assert lo + 0.25 * (hi - lo) in asked
    together = cycles.solve_alphas(SMALL, [(0.9, 5.0), (t, s), (0.5, 4.5)], coarse=32)
    _same(together[1], alone)
    assert alone.alpha == pytest.approx(clean.alpha, abs=1e-8)

    # the fallback point is invalid too: the bracket is fragmented
    _invalid_where(monkeypatch, lambda a: lo < a < hi)
    with pytest.raises(NoSolutionError) as err:
        solve_alpha(SMALL, t, s, coarse=32)
    assert "fragmented by invalid points" in str(err.value)
    together = cycles.solve_alphas(SMALL, [(0.9, 5.0), (t, s)], coarse=32)
    _same(together[1], err.value)
    assert not isinstance(together[0], NoSolutionError)


def test_rising_entropy_curve_gives_the_same_root(monkeypatch):
    # S falls with alpha on every real bracket; mirrored to -S it rises, and
    # the target -S must land on the same alpha, bit for bit
    import dataclasses

    from pseudotherm import cycles, thermo

    falling = cycles.solve_alphas(SMALL, [(0.4, 3.5), (0.7, 4.5)], tol=0.0)
    potentials_batch = thermo.potentials_batch

    def mirrored(*args):
        return [dataclasses.replace(pt, S=-pt.S) for pt in potentials_batch(*args)]

    monkeypatch.setattr(thermo, "potentials_batch", mirrored)
    rising = cycles.solve_alphas(SMALL, [(0.4, -3.5), (0.7, -4.5)], tol=0.0)
    assert [r.alpha for r in rising] == [r.alpha for r in falling]
    assert [r.root_count for r in rising] == [1, 1]


def test_invalid_stirling_corner_is_recorded(monkeypatch):
    _invalid_where(monkeypatch, lambda a: a == 0.5)
    grid = efficiency_grid(SMALL, "stirling", [0.4, 0.7], [0.5, 0.7, 0.9])
    reasons = {(c.x1, c.x2): c.reason for c in grid.cells}
    assert reasons == {
        (0.5, 0.7): "corner A lies on an invalid point",
        (0.5, 0.9): "corner A lies on an invalid point",
        (0.7, 0.9): "",
    }
    with pytest.raises(CycleInfeasible, match="corner A lies on an invalid point"):
        stirling_cycle(SMALL, CycleSpec(kind="stirling", T1=0.4, T2=0.7, alpha1=0.5, alpha2=0.9))


def test_sub_ulp_tolerance_returns(p):
    exact = solve_alpha(p, 0.7, 5.0, tol=0.0)
    assert exact.alpha == pytest.approx(solve_alpha(p, 0.7, 5.0, tol=1e-8).alpha, abs=1e-8)


def test_solve_alpha_no_solution_reports_range(p):
    with pytest.raises(NoSolutionError) as err:
        solve_alpha(p, 3.0, 1.0, bracket=(0.05, 1.4))
    assert err.value.attained_min is not None
    assert err.value.attained_min > 1.0  # S never that low at this T


def test_spec_validation():
    with pytest.raises(ValueError):
        CycleSpec(kind="otto", T1=0.5, T2=1.0, S1=1, S2=2)
    with pytest.raises(ValueError):
        CycleSpec(kind="carnot", T1=1.0, T2=0.5, S1=1, S2=2)
    with pytest.raises(ValueError):
        CycleSpec(kind="stirling", T1=0.5, T2=1.0, alpha1=0.9, alpha2=0.3)
    with pytest.raises(ValueError, match="alpha1 > 0"):
        CycleSpec(kind="stirling", T1=0.5, T2=1.0, alpha1=0.0, alpha2=0.3)


def test_carnot_recovers_classical_efficiency(p):
    spec = CycleSpec(kind="carnot", T1=0.5, T2=1.0, S1=4.0, S2=8.0)
    res = carnot_cycle(p, spec)
    assert not res.degenerate
    assert res.eta == pytest.approx(1.0 - 0.5 / 1.0, abs=1e-6)
    assert res.energy_residual <= 1e-8
    assert res.entropy_residual <= 1e-8
    assert res.W_T < 0.0  # engine: net work done by the system
    assert res.eta <= 1.0


def test_carnot_first_law(p):
    res = carnot_cycle(p, CycleSpec(kind="carnot", T1=0.5, T2=1.1, S1=4.0, S2=7.0))
    assert abs(res.W_T) == pytest.approx(res.Q_in - abs(res.Q_out), rel=1e-6)


def test_carnot_r_alpha_near_unity(p):
    res = carnot_cycle(p, CycleSpec(kind="carnot", T1=0.5, T2=1.0, S1=4.0, S2=8.0))
    assert res.R_alpha == pytest.approx(1.0, abs=0.3)


def test_carnot_degenerate_zero_area(p):
    res = carnot_cycle(p, CycleSpec(kind="carnot", T1=0.5, T2=1.0, S1=5.0, S2=5.0))
    assert res.degenerate
    assert res.eta == 0.0


def test_carnot_refrigerator_cop(p):
    res = carnot_cycle(p, CycleSpec(kind="carnot", T1=0.5, T2=1.0, S1=4.0, S2=8.0))
    # reversible cycle: cop matches T1/(T2-T1) built from its own heats
    assert res.cop == pytest.approx(0.5 / 0.5, rel=1e-4)


def test_carnot_infeasible_corner_raises(p):
    with pytest.raises(CycleInfeasible):
        carnot_cycle(p, CycleSpec(kind="carnot", T1=2.0, T2=3.0, S1=1.0, S2=2.0))


def test_stirling_energy_books(p):
    spec = CycleSpec(kind="stirling", T1=0.4, T2=1.2, alpha1=0.5, alpha2=0.9)
    res = stirling_cycle(p, spec)
    assert res.energy_residual <= 1e-8
    assert res.entropy_residual <= 1e-8
    assert res.W_T < 0.0
    assert 0.0 < res.eta <= 1.0
    for leg in res.legs:
        if leg.name.startswith("isochoric"):
            assert leg.W == 0.0
            assert leg.Q == pytest.approx(leg.dU, rel=1e-12)


def test_stirling_classical_comparator_formula():
    want = (1.2 - 0.4) / (1.2 + 2.5 * (1.2 - 0.4) / math.log(0.9 / 0.5))
    assert stirling_classical_efficiency(0.4, 1.2, 0.5, 0.9) == pytest.approx(want)
    assert stirling_classical_efficiency(0.7, 0.7, 0.5, 0.9) == 0.0


def test_stirling_leg_reversal_consistency(p):
    spec = CycleSpec(kind="stirling", T1=0.4, T2=1.2, alpha1=0.5, alpha2=0.9)
    res = stirling_cycle(p, spec)
    # traversing backwards negates every leg exactly: rebuild by hand
    total_q = math.fsum(l.Q for l in res.legs)
    assert res.W_T == pytest.approx(-total_q, rel=1e-9)


def test_efficiency_grid_single_cell(p):
    grid = efficiency_grid(p, "stirling", [0.4, 1.2], [0.5, 0.9])
    assert len(grid.cells) == 1
    cell = grid.cells[0]
    assert cell.feasible
    assert cell.delta_eta == pytest.approx(cell.eta - cell.eta_classical)


def test_efficiency_grid_records_infeasible(p):
    grid = efficiency_grid(p, "carnot", [2.0, 3.0], [1.0, 2.0])
    assert len(grid.cells) == 1
    assert not grid.cells[0].feasible
    assert grid.cells[0].reason


def test_efficiency_grid_projections(p):
    grid = efficiency_grid(p, "stirling", [0.4, 0.8, 1.2], [0.5, 0.7, 0.9])
    by_x = grid.max_eta_by_x()
    by_t = grid.max_eta_by_t()
    assert len(by_x) == 3 and len(by_t) == 3
    for (x1, x2), cell in by_x.items():
        assert cell.x1 == x1 and cell.x2 == x2


def test_grid_kind_validation(p):
    with pytest.raises(ValueError):
        efficiency_grid(p, "otto", [0.4, 1.2], [0.5, 0.9])
