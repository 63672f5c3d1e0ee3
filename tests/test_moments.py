"""The batched moments kernel: exactly rounded row sums, batches against
their points one at a time, metamorphic identities and the chunk budget."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudotherm import ModelParams, thermo
from pseudotherm.model import gap_operator
from pseudotherm.thermo import (
    _exact_sums,
    gap_curve,
    potentials,
    potentials_batch,
    thermal_expectation,
    thermal_table,
    thermal_tables,
)

# the pinned thermo_gap.tsv point and grid, and the chemical-potential point
# of thermo_gap_mu.tsv and tc_map_mu.tsv
GAP_POINT = ModelParams(alpha=0.36, g=1.73)
GAP_GRID = [float(t) for t in np.linspace(0.05, 15, 120)]
BROKEN_MU_POINT = ModelParams(alpha=0.36, g=1.73, muS=0.2, muQb=0.1)
CARNOT_SYSTEM = ModelParams(g=1.73, Omega=2, Omega1=1, Omega2=1)


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


def fsum_outcome(row):
    try:
        return ("value", math.fsum(row))
    except (OverflowError, ValueError) as exc:
        return ("raises", type(exc))


def exact_outcome(row):
    try:
        return ("value", float(_exact_sums(np.array([row], dtype=float))[0]))
    except (OverflowError, ValueError) as exc:
        return ("raises", type(exc))


def assert_same_outcome(row):
    want, got = fsum_outcome(row), exact_outcome(row)
    assert want[0] == got[0], row
    if want[0] == "raises":
        assert want[1] is got[1]
    elif math.isnan(want[1]):
        assert math.isnan(got[1])
    else:
        assert bits(got[1]) == bits(want[1]), (row, got[1], want[1])


def same_point(a, b) -> bool:
    """Every ThermoPoint field equal, NaN equal to NaN."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if not (x == y or (isinstance(x, float) and math.isnan(x) and math.isnan(y))):
            return False
    return True


# ----------------------------------------------------------------- exact sums


@st.composite
def rows_with_cancellation(draw):
    """Rows of one length whose entries span the float range; some rows hold
    the negations of part of their own entries, so they cancel exactly."""
    n = draw(st.integers(1, 40))
    floats = st.floats(min_value=-1e300, max_value=1e300, allow_subnormal=True)
    out = []
    for _ in range(draw(st.integers(1, 6))):
        k = draw(st.integers(0, n // 2))
        head = draw(st.lists(floats, min_size=n - k, max_size=n - k))
        out.append(head + [-x for x in head[:k]])
    return out


@settings(max_examples=300, deadline=None)
@given(rows_with_cancellation())
def test_exact_sums_equal_fsum_bit_for_bit(rows):
    got = _exact_sums(np.array(rows, dtype=float))
    want = [math.fsum(r) for r in rows]
    assert np.array_equal(bits(got), bits(want))


@pytest.mark.parametrize(
    "row",
    [
        [1.0, -1.0, 1e-20],                      # exact cancellation above a remainder
        [1e16, 1.0, -1e16],
        [1.0, -1.0],                             # cancels to zero
        [1.0, 2.0**-53],                         # midpoint ties, to even
        [1.0 + 2.0**-52, 2.0**-53],
        [1.0, 2.0**-53, 2.0**-106],              # just past a tie
        [-1.0, -(2.0**-53)],
        [5e-324, 5e-324, -1e-323, 5e-324],       # subnormals
        [2.2250738585072014e-308, -5e-324],
        [0.0, 0.0],                              # zeros
        [-0.0, -0.0],
        [0.0, -0.0],
        [1e308, 1e308, -1e308],                  # sigma overflows: fsum decides
        [1.7e308, -1.7e308, 1.0],
        [math.inf, 1.0],                         # non-finite
        [math.inf, -math.inf],
        [math.nan, 1.0],
        [3.0],                                   # length 1
        [-0.0],
        [1e-310],
    ],
)
def test_exact_sums_targeted_rows(row):
    assert_same_outcome(row)


def test_exact_sums_long_rows():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((6, 5000)) * 10.0 ** rng.uniform(-40, 40, (6, 5000))
    a[3, 0] = -math.fsum(a[3, 1:].tolist())       # a row that nearly cancels
    assert np.array_equal(bits(_exact_sums(a)), bits([math.fsum(r) for r in a.tolist()]))


def test_real_rows_are_certified_without_fsum(monkeypatch):
    # a helper that always fell back to math.fsum would pass every test
    # above; on the pinned thermo_gap grid the certificate settles every row
    # of potentials and of the gap curve's real moment
    calls = []
    fsum = math.fsum

    def counting(row):
        calls.append(len(row))
        return fsum(row)

    monkeypatch.setattr(math, "fsum", counting)
    _exact_sums(np.array([[1.0, -1.0]]))
    assert calls == [2]                          # the count sees a fallback
    calls.clear()
    potentials_batch([GAP_POINT] * len(GAP_GRID), GAP_GRID)
    gap_curve(GAP_POINT, GAP_GRID)
    assert calls == []


# ------------------------------------------------- batches against their points


def test_batch_equals_points_on_the_pinned_grid():
    table = thermal_table(GAP_POINT)
    batch = potentials_batch([GAP_POINT] * len(GAP_GRID), GAP_GRID, [table] * len(GAP_GRID))
    for t, pt in zip(GAP_GRID, batch):
        assert same_point(pt, potentials(GAP_POINT, t, table=table))


def test_batch_equals_points_beside_zeros_with_chemical_potentials():
    # temperatures at and around the top zeros of Z give invalid and z < 0
    # rows besides the pinned grid's valid ones
    p = BROKEN_MU_POINT
    zeros = thermo.find_zeros(p, np.geomspace(0.01, 0.5, 200), rtol=1e-15)
    near = [
        t for z in zeros[-6:] for t in (z.T_zero, *z.bracket, z.T_zero * 0.999, z.T_zero * 1.001)
    ]
    grid = [float(t) for t in np.linspace(0.05, 15, 40)] + near
    batch = potentials_batch([p] * len(grid), grid)
    assert any(not pt.valid for pt in batch)
    assert any(pt.valid and pt.z_nonpositive for pt in batch)
    for t, pt in zip(grid, batch):
        assert same_point(pt, potentials(p, t))


def test_ragged_batch_equals_points():
    # Carnot-system tables of different lengths, each at its own temperature,
    # padded to one width in the batch
    alphas = np.linspace(0.02, 1.6, 12)
    points = [CARNOT_SYSTEM.with_(alpha=float(a)) for a in alphas]
    tables = thermal_tables(points)
    assert len({len(t) for t in tables}) > 1
    temps = [float(t) for t in np.geomspace(0.05, 3.0, len(points))]
    batch = potentials_batch(points, temps, tables)
    for p, t, table, pt in zip(points, temps, tables, batch):
        assert same_point(pt, potentials(p, t, table=table))


@pytest.mark.parametrize("batch_points", [None, 2])
def test_sweep_potentials_equals_points(monkeypatch, batch_points):
    # per-point temperature lists of unequal length, one of them empty and
    # one repeating a temperature, in one sweep batch and split over four
    from pseudotherm import spectral
    from pseudotherm.model import fold_plan

    points = [CARNOT_SYSTEM.with_(alpha=float(a)) for a in np.linspace(0.02, 1.6, 7)]
    temps = [[0.3], [0.5, 0.5, 1.2], [], [0.05, 0.4], [2.0, 0.7, 0.9, 3.0], [0.6], [0.25, 0.8]]
    if batch_points is not None:
        slots = len(fold_plan(CARNOT_SYSTEM).slot_nqb)
        monkeypatch.setattr(thermo, "SWEEP_SLOTS", batch_points * slots)
    batches = []
    solve = spectral.block_spectra

    def counted(batch):
        batch = list(batch)
        batches.append(len(batch))
        return solve(batch)

    monkeypatch.setattr(spectral, "block_spectra", counted)
    swept = thermo.sweep_potentials(points, temps)
    assert batches == ([7] if batch_points is None else [2, 2, 2, 1])
    assert [len(pts) for pts in swept] == [len(ts) for ts in temps]
    for p, ts, pts in zip(points, temps, swept):
        for t, pt in zip(ts, pts):
            assert same_point(pt, potentials(p, t))


def test_sweep_potentials_refuses_mismatched_lengths():
    with pytest.raises(ValueError, match="differ in length"):
        thermo.sweep_potentials([GAP_POINT], [[1.0], [2.0]])
    assert thermo.sweep_potentials([], []) == []


def test_gap_curve_equals_its_points():
    grid = GAP_GRID[::6]
    curve = gap_curve(GAP_POINT, grid)
    alone = [gap_curve(GAP_POINT, [t])[0] for t in grid]
    assert np.array_equal(bits(curve), bits(alone))


def test_batch_refuses_mismatched_lengths():
    with pytest.raises(ValueError, match="differ in length"):
        potentials_batch([GAP_POINT], [1.0, 2.0])
    assert potentials_batch([], []) == []


@pytest.mark.parametrize("t", [math.nan, 0.0, -1.0])
def test_nonpositive_and_nan_temperatures_are_refused(t):
    with pytest.raises(ValueError, match="must be positive"):
        potentials(GAP_POINT, t)
    with pytest.raises(ValueError, match="must be positive"):
        potentials_batch([GAP_POINT] * 2, [1.0, t])
    with pytest.raises(ValueError, match="must be positive"):
        thermal_expectation(gap_operator, GAP_POINT, t)
    with pytest.raises(ValueError, match="must be positive"):
        gap_curve(GAP_POINT, [1.0, t])


# ---------------------------------------------------------- metamorphic identities

IDENTITY_POINTS = [(0.36, 1.73), (0.8, 1.0), (1.5, 2.5)]
IDENTITY_GRID = [float(t) for t in np.linspace(0.05, 15, 40)]
# ten times the worst relative residual of the transpose duality measured on
# IDENTITY_POINTS x IDENTITY_GRID: 2.2e-15 (F, ln|Z|), 1.3e-13 (U) and
# 4.3e-12 (S, C_V)
DUALITY_RTOL = {"ln_abs_z": 2.2e-14, "F": 2.2e-14, "U": 1.3e-12, "S": 4.3e-11, "Cv": 4.3e-11}


@pytest.mark.parametrize("alpha,g", IDENTITY_POINTS)
def test_potentials_are_even_in_g(alpha, g):
    # H(g) and H(-g) are unitarily equivalent, and their spectra are equal
    # to the bit, so every potential is too
    n = len(IDENTITY_GRID)
    plus = potentials_batch([ModelParams(alpha=alpha, g=g)] * n, IDENTITY_GRID)
    minus = potentials_batch([ModelParams(alpha=alpha, g=-g)] * n, IDENTITY_GRID)
    for a, b in zip(plus, minus):
        assert same_point(a, b)


@pytest.mark.parametrize("alpha,g", IDENTITY_POINTS)
def test_potentials_agree_under_transpose_duality(alpha, g):
    # (alpha, g) and (1/alpha, alpha*g) have the same spectrum up to rounding
    n = len(IDENTITY_GRID)
    pts = potentials_batch([ModelParams(alpha=alpha, g=g)] * n, IDENTITY_GRID)
    dual = potentials_batch([ModelParams(alpha=1.0 / alpha, g=alpha * g)] * n, IDENTITY_GRID)
    for a, b in zip(pts, dual):
        assert (a.z_sign, a.valid, a.z_nonpositive) == (b.z_sign, b.valid, b.z_nonpositive)
        for name, rtol in DUALITY_RTOL.items():
            x, y = getattr(a, name), getattr(b, name)
            assert abs(x - y) <= rtol * abs(x), (name, a.T, x, y)


# ten times the worst relative residual of the level swap measured on
# IDENTITY_POINTS x IDENTITY_GRID at Omega1 2, Omega2 1, muS 0.1, muQb 0.2,
# both couplings: 2.3e-15 (F), 1.4e-13 (U) and 1.4e-12 (S)
SWAP_RTOL = {"F": 2.3e-14, "U": 1.4e-12, "S": 1.4e-11}


@pytest.mark.parametrize("coupling_z", ["difference", "total"])
@pytest.mark.parametrize("alpha,g", IDENTITY_POINTS)
def test_potentials_agree_under_level_swap(alpha, g, coupling_z):
    # (eps1, eps2, Omega1, Omega2) and (eps2, eps1, Omega2, Omega1) are the
    # same system with its two levels relabelled; the difference coupling
    # changes sign with them, which the sign-of-g similarity undoes
    p = ModelParams(alpha=alpha, g=g, Omega1=2, Omega2=1, muS=0.1, muQb=0.2,
                    coupling_z=coupling_z)
    swapped = p.with_(eps1=p.eps2, eps2=p.eps1, Omega1=p.Omega2, Omega2=p.Omega1)
    n = len(IDENTITY_GRID)
    pts = potentials_batch([p] * n, IDENTITY_GRID)
    swap = potentials_batch([swapped] * n, IDENTITY_GRID)
    assert all(a.valid for a in pts)
    for a, b in zip(pts, swap):
        assert (a.z_sign, a.valid, a.z_nonpositive) == (b.z_sign, b.valid, b.z_nonpositive)
        for name, rtol in SWAP_RTOL.items():
            x, y = getattr(a, name), getattr(b, name)
            assert abs(x - y) <= rtol * abs(x), (name, a.T, x, y)


# ------------------------------------------------------------------ memory guard

# MOMENT_BUDGET = 2^14 summed elements make one chunk's summed array 128 KiB;
# the chunk's other buffers are as large or smaller, and 8 of them bound it.
# Unchunked, the 400 temperatures below would take ~55 MiB.
BATCH_PEAK_BYTES = 8 * 2**14 * 8


def test_long_batch_stays_within_the_chunk_budget():
    p = ModelParams()
    table = thermal_table(p)
    grid = [float(t) for t in np.geomspace(0.05, 15, 400)]
    potentials_batch([p] * 2, grid[:2], [table] * 2)   # warm-up, outside the trace
    tracemalloc.start()
    try:
        potentials_batch([p] * len(grid), grid, [table] * len(grid))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < BATCH_PEAK_BYTES, f"peak {peak / 2**20:.2f} MiB"
