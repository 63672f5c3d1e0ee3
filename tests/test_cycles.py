import math

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


def test_targets_of_one_temperature_share_one_coarse_batch(monkeypatch):
    from pseudotherm import cycles, spectral

    p = ModelParams(g=1.73, Omega=2.0, Omega1=1, Omega2=1)
    batches = []
    solve = spectral.block_spectra

    def counted(points):
        points = list(points)
        batches.append(len(points))
        return solve(points)

    monkeypatch.setattr(spectral, "block_spectra", counted)
    cycles._coarse_entropy.cache_clear()
    first = solve_alpha(p, 0.5, 4.0, bracket=(0.05, 1.4), coarse=32)
    assert batches[0] == 32
    del batches[:]
    second = solve_alpha(p, 0.5, 4.5, bracket=(0.05, 1.4), coarse=32)
    # the second target bisects on single points only
    assert set(batches) <= {1}
    assert first.alpha != second.alpha
    assert cycles._coarse_entropy.cache_info().hits == 1


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
