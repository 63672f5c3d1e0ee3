import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    dense_operator,
    one_group_fold,
    per_block_spectra,
    per_sector_eigenvalues,
    per_sector_vector_spectrum,
    sector_indices,
    shape_spectra,
)
from pseudotherm import ModelParams
from pseudotherm.model import _shape_of, build_block_hamiltonian, fold_plan, gap_operator
from pseudotherm.spectral import (
    block_eigen_data,
    block_spectra,
    complex_pair_counts,
    diagonalize,
    find_eps,
    first_eps_about_unity,
    ground_state_info,
    vector_spectra,
)
from pseudotherm.thermo import table_from_spectra, thermal_table


@pytest.fixture(scope="module")
def tiny():
    return ModelParams(Omega=0.5, Omega1=1, Omega2=1, alpha=0.4, g=1.73)


@pytest.fixture(scope="module")
def desk_broken():
    return ModelParams(alpha=0.36, g=1.73)


def test_rotation_generator_pure_imaginary_pair():
    w = np.sort_complex(diagonalize(np.array([[[0.0, 2.0], [-2.0, 0.0]]]))[0][0])
    assert np.allclose(w, [-2.0j, 2.0j], atol=1e-12)


def test_symmetric_input_takes_exact_real_path():
    # a stack mixing symmetric and non-symmetric matrices: each matrix is
    # solved on its own, bit for bit as the one-matrix LAPACK call
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 12, 12))
    h = np.stack([a[0] + a[0].T, a[1], a[2] + a[2].T, a[3]])
    vals, left, right, flags = diagonalize(h)
    for i in (0, 2):
        w, v = np.linalg.eigh(h[i])
        assert np.array_equal(vals[i], w) and np.array_equal(right[i], v)
        assert np.array_equal(left[i], right[i])
        assert np.allclose(left[i].T @ right[i], np.eye(12))
        assert not np.any(flags[i])
    for i in (1, 3):
        w, v = np.linalg.eig(h[i])
        assert np.array_equal(vals[i], w) and np.array_equal(right[i], v)
        assert np.array_equal(left[i], np.linalg.inv(v).T)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_nonsymmetric_left_vectors_are_biorthonormal(n, seed):
    h = np.random.default_rng(seed).standard_normal((3, n, n))
    for hk, w, left, right, _ in zip(h, *diagonalize(h)):
        # well-separated levels only: near a coalescence inv(R) loses cond(R) digits
        assume(np.linalg.cond(right) < 1e6)
        assert np.allclose(left.T @ right, np.eye(n), atol=1e-8)
        scale = max(1.0, np.abs(w).max())
        assert np.allclose(left.T @ hk @ right, np.diag(w), atol=1e-8 * scale)
        assert np.allclose(np.sort_complex(w.conj()), np.sort_complex(w), atol=1e-12)


def test_diagonalize_refuses_a_single_matrix():
    with pytest.raises(ValueError, match="stack"):
        diagonalize(np.eye(3))


def test_conjugation_closure_per_block(desk_broken):
    for w, _ in shape_spectra(desk_broken):
        paired = np.sort_complex(w)
        assert np.max(np.abs(np.sort_complex(paired.conj()) - paired)) < 1e-10


def test_biorthogonal_completeness(desk_broken):
    # the sectors of the largest block, one diagonalize call per sector
    # size: sum_n |R_n><L_n| over every sector is the identity on the block
    big = max(desk_broken.blocks(), key=lambda b: b.dim)
    h = build_block_hamiltonian(desk_broken, big)
    ident = np.zeros((big.dim, big.dim), dtype=complex)
    by_size: dict = {}
    for _, idx in sector_indices(desk_broken, big):
        by_size.setdefault(len(idx), []).append(idx)
    for sectors in by_size.values():
        _, lefts, rights, flags = diagonalize(np.stack([h[np.ix_(idx, idx)] for idx in sectors]))
        assert not np.any(flags)
        for idx, left, right in zip(sectors, lefts, rights):
            ident[np.ix_(idx, idx)] += right @ left.T
    assert np.max(np.abs(ident - np.eye(big.dim))) < 1e-8
    # so the coefficients of any operator sum to its trace, shape by shape,
    # also for one that couples the sectors
    plan = fold_plan(desk_broken)
    _, coef, _ = vector_spectra(desk_broken, dense_operator)
    for (lo, hi), first in zip(plan.bounds, plan.first):
        trace = np.trace(dense_operator(desk_broken.blocks()[first]))
        assert abs(np.sum(coef[lo:hi]) - trace) < 1e-8 * max(1.0, abs(trace))


def test_left_right_offdiagonal_orthogonality(desk_broken):
    big = max(desk_broken.blocks(), key=lambda b: b.dim)
    h = build_block_hamiltonian(desk_broken, big)
    _, left, right, _ = diagonalize(h[None])
    overlaps = left[0].T @ right[0]
    off = overlaps - np.diag(np.diag(overlaps))
    # away from EPs the biorthogonal basis is clean
    assert np.max(np.abs(off)) < 1e-7


def test_eigendata_matches_full_matrix_eig(tiny):
    # every block's own matrix against the spectrum of its shape
    for b, (w, _) in per_block_spectra(tiny):
        w_full = np.linalg.eigvals(build_block_hamiltonian(tiny, b))
        assert np.max(
            np.abs(np.sort_complex(w) - np.sort_complex(w_full))
        ) < 1e-8


def _one_block_per_shape(p):
    reps = {}
    for b in p.blocks():
        reps.setdefault(_shape_of(b), b)
    return list(reps.values())


def test_blocks_of_one_shape_share_read_only_spectra(desk_broken):
    # one read-only slot range per (s1, s2, S) shape, whose representative
    # is its first block
    plan = fold_plan(desk_broken)
    assert len(desk_broken.blocks()) == 855 and len(plan.bounds) == 81
    assert [plan.blocks[i] for i in plan.first] == _one_block_per_shape(desk_broken)
    for a in (*block_spectra([desk_broken]), *block_eigen_data(desk_broken),
              *vector_spectra(desk_broken, gap_operator)):
        assert not a.flags.writeable
    # the shared spectrum equals a per-sector solve of any block of the shape
    last = {_shape_of(b): b for b in desk_broken.blocks()}
    spectra = shape_spectra(desk_broken)
    for first, (eigenvalues, labels) in list(zip(plan.first, spectra))[::9]:
        w, nqb = per_sector_eigenvalues(desk_broken, last[_shape_of(plan.blocks[first])])
        assert np.array_equal(eigenvalues, w)
        assert np.array_equal(labels, nqb)


@pytest.mark.parametrize("coupling_z", ["difference", "total"])
@pytest.mark.parametrize("alpha, g", [(0.36, 1.73), (1.0, 1.73), (0.36, 0.0)])
def test_stacked_solve_equals_per_sector_solves(coupling_z, alpha, g):
    # alpha = 1 and g = 0 make every sector symmetric (eigvalsh branch)
    p = ModelParams(alpha=alpha, g=g, coupling_z=coupling_z)
    plan = fold_plan(p)
    reps = _one_block_per_shape(p)
    (stacked,), (labels,) = block_spectra([p])
    assert [plan.blocks[i] for i in plan.first] == reps
    for b, (lo, hi) in zip(reps, plan.bounds):
        w, nqb = per_sector_eigenvalues(p, b)
        assert np.array_equal(stacked[lo:hi], w)
        assert np.array_equal(labels[lo:hi], nqb)
    has_pairs = bool(np.any(stacked.imag != 0))
    assert has_pairs == (alpha != 1.0 and g != 0.0)


# A batch point: alpha exactly 1 (every sector symmetric), or not; g = 0
# (no coupling), or not; chemical potentials zero or not.
BATCH_POINT = st.builds(
    lambda alpha, g, mu_s, mu_qb: ModelParams(alpha=alpha, g=g, muS=mu_s, muQb=mu_qb),
    st.one_of(st.just(1.0), st.floats(0.05, 1.6)),
    st.one_of(st.just(0.0), st.floats(0.1, 2.5)),
    st.one_of(st.just(0.0), st.floats(-0.5, 0.5)),
    st.one_of(st.just(0.0), st.floats(-0.5, 0.5)),
)
MIXED_POINTS = [
    ModelParams(alpha=1.0, g=1.73),
    ModelParams(alpha=0.36, g=0.0),
    ModelParams(alpha=0.36, g=1.73, muS=0.2, muQb=0.1),
]


def _assert_bitwise_equal_spectra(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=10, deadline=None)
@given(data=st.data(), coupling_z=st.sampled_from(["difference", "total"]))
def test_batched_spectra_equal_per_point_spectra(data, coupling_z):
    drawn = data.draw(st.lists(BATCH_POINT, max_size=3))
    points = data.draw(st.permutations(MIXED_POINTS + drawn))
    points = [q.with_(coupling_z=coupling_z) for q in points]
    batch = block_spectra(points)
    assert all(a.shape[0] == len(points) for a in batch)
    for i, q in enumerate(points):
        _assert_bitwise_equal_spectra([a[i] for a in batch], [a[0] for a in block_spectra([q])])


@pytest.mark.parametrize(
    "other",
    [
        ModelParams(Omega=1.0, Omega1=1, Omega2=1),
        ModelParams(Omega1=1),
        ModelParams(coupling_z="total"),
    ],
    ids=["Omega", "Omega1", "coupling_z"],
)
def test_batch_refuses_mixed_sizes_and_couplings(other):
    with pytest.raises(ValueError, match="one system size and one coupling_z"):
        block_spectra([ModelParams(alpha=0.36), other])
    assert [a.shape for a in block_spectra([])] == [(0, 0), (0, 0)]


def test_batch_split_by_the_stack_budget_is_bit_identical(monkeypatch):
    from pseudotherm import spectral

    points = [ModelParams(alpha=a, g=1.73, muQb=0.1) for a in (0.2, 0.36, 1.0, 1.3, 0.7)]
    calls, assembled = [], []

    def counted(fn):
        def call(h):
            calls.append(h.shape[-1])
            return fn(h)

        return call

    monkeypatch.setattr(np.linalg, "eigvals", counted(np.linalg.eigvals))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted(np.linalg.eigvalsh))
    whole = block_spectra(points)
    whole_calls, calls[:] = list(calls), []
    # the budget holds two of the largest size group: groups of at most
    # 2/5 of that are assembled in ranges for all five points, and each
    # larger one alone, for slices of two points, in three steps
    plan = fold_plan(points[0])
    budget = 2 * max(g.span.stop - g.span.start for g in plan.sizes)
    monkeypatch.setattr(spectral, "STACK_ELEMENTS", budget)
    assemble = spectral.assemble_hamiltonian

    def traced(pts, ops):
        h = assemble(pts, ops)
        assembled.append(h.size)
        return h

    monkeypatch.setattr(spectral, "assemble_hamiltonian", traced)
    split = block_spectra(points)
    assert max(assembled) <= budget
    assert sum(assembled) == len(points) * plan.ops["z1"].size
    alone = 0
    for group in plan.sizes:
        n = group.slots.shape[1]
        assert whole_calls.count(n) <= 2
        if len(points) * (group.span.stop - group.span.start) <= budget:
            assert calls.count(n) <= 2
        else:
            alone += 1
            assert 3 <= calls.count(n) <= 6
    assert 0 < alone < len(plan.sizes)
    # ranges hold several groups: fewer steps than groups plus slices
    assert len(assembled) < len(plan.sizes) - alone + 3 * alone
    _assert_bitwise_equal_spectra(split, whole)


def test_vector_ranges_split_by_the_stack_budget_are_bit_identical(monkeypatch, desk_broken):
    # one point's plan assembled in ranges of at most twice the largest size
    # group gives the levels and coefficients of the default budget, bit for
    # bit, for the plan's gap operator and for a callable one
    from pseudotherm import model, spectral

    ops = (model.GAP_OPERATOR, dense_operator)
    whole = [vector_spectra(desk_broken, op) for op in ops]
    plan = fold_plan(desk_broken)
    budget = 2 * max(g.span.stop - g.span.start for g in plan.sizes)
    monkeypatch.setattr(spectral, "STACK_ELEMENTS", budget)
    assemble, assembled = spectral.assemble_hamiltonian, []

    def traced(pts, ops):
        h = assemble(pts, ops)
        assembled.append(h.size)
        return h

    monkeypatch.setattr(spectral, "assemble_hamiltonian", traced)
    for op, want in zip(ops, whole):
        del assembled[:]
        got = vector_spectra(desk_broken, op)
        assert max(assembled) <= budget
        assert sum(assembled) == plan.ops["z1"].size
        assert 1 < len(assembled) < len(plan.sizes)
        assert len(got[0]) == len(want[0]) == len(plan.slot_nqb)
        _assert_bitwise_equal_spectra(got, want)


# STACK_ELEMENTS = 2^16 elements per operator make one assembled range
# 512 KiB of float64; the range, the one temporary of its assembly and a
# group's non-symmetric copy are at most that, and the symmetry mask an
# eighth of it, so 4 of them bound the solve.  The 15 spectra themselves
# take 48 bytes per slot: eigenvalues, sort order, sorted copy and labels.
# Assembled in one piece, the batch's 239k elements take 1.8 MiB per array.
ISOTHERM_SLOTS = 15 * 1620
SOLVE_PEAK_BYTES = 4 * 2**16 * 8 + 48 * ISOTHERM_SLOTS


def test_isotherm_batch_stays_within_the_stack_budget():
    import tracemalloc

    p = ModelParams(g=1.73)
    points = [p.with_(alpha=float(a)) for a in np.linspace(0.2, 0.4, 15)]
    assert len(points) * len(fold_plan(p).slot_nqb) == ISOTHERM_SLOTS
    block_spectra(points[:1])   # warm-up, outside the trace
    tracemalloc.start()
    try:
        block_spectra(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < SOLVE_PEAK_BYTES, f"peak {peak / 2**20:.2f} MiB"


def test_stacked_vectors_equal_per_sector_solves(desk_broken):
    # the stacked solve against one eig and inv per sector of each shape's
    # first block, the vectors embedded in the block and contracted with
    # the whole block operator there; the dense operator couples sectors
    plan = fold_plan(desk_broken)
    assert len(plan.shapes) == 81
    for op in (gap_operator, dense_operator):
        got_w, got_coef, got_flags = vector_spectra(desk_broken, op)
        for first, (lo, hi) in list(zip(plan.first, plan.bounds))[::5]:
            w, nqb, coef, flags = per_sector_vector_spectrum(
                desk_broken, desk_broken.blocks()[first], op
            )
            assert np.array_equal(got_w[lo:hi], w)
            assert np.array_equal(plan.slot_nqb[lo:hi], nqb)
            assert np.array_equal(got_flags[lo:hi], flags)
            assert np.max(np.abs(got_coef[lo:hi] - coef)) <= 1e-13 * max(1.0, np.max(np.abs(coef)))


def test_plan_operator_coefficients_equal_the_gathered_ones(monkeypatch, desk_broken):
    # gap_operator's sector stacks read from the fold plan give the
    # coefficients of its whole-block matrices, gathered sector by sector,
    # bit for bit, and no whole-block operator is built
    from pseudotherm import model

    gathered = vector_spectra(desk_broken, gap_operator)
    monkeypatch.setattr(model, "_block_operators", None)
    read = vector_spectra(desk_broken, model.GAP_OPERATOR)
    assert len(read[0]) == len(gathered[0]) == len(fold_plan(desk_broken).slot_nqb)
    _assert_bitwise_equal_spectra(read, gathered)


def test_vector_spectra_make_one_diagonalize_call_per_sector_size(monkeypatch, desk_broken):
    from pseudotherm import spectral

    calls = []

    def counted(h):
        calls.append(h.shape)
        return diagonalize(h)

    monkeypatch.setattr(spectral, "diagonalize", counted)
    vector_spectra(desk_broken, gap_operator)
    sizes = {
        len(idx) for b in desk_broken.blocks() for _, idx in sector_indices(desk_broken, b)
    }
    assert len(calls) == len(sizes) == 18
    assert sorted(n for _, n, _ in calls) == sorted(sizes)


def test_thermal_table_leaves_numpy_ma_unimported():
    # numpy.ma costs ~17 ms to import; np.unique pulls it in on first use
    import os
    import subprocess
    import sys

    import pseudotherm

    src = os.path.dirname(os.path.dirname(os.path.abspath(pseudotherm.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "from pseudotherm import ModelParams\n"
        "from pseudotherm.thermo import thermal_table\n"
        "thermal_table(ModelParams(alpha=0.36, g=1.73))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# the worst per-shape eigenvalue difference of the transpose duality at
# Omega 8 (Omega1 = Omega2 = 3) on these points, measured: 2.6e-12 (at desk
# size: 2.8e-13); the bound is ten times that
DUALITY_ATOL_OMEGA8 = 2.6e-11


@pytest.mark.parametrize("alpha,g", [(0.36, 1.73), (0.8, 1.0), (1.5, 2.5)])
def test_shape_spectra_agree_under_transpose_duality_at_omega8(alpha, g):
    # H(1/alpha, alpha g) = H(alpha, g)^T: the plan at scale (42 size groups,
    # 1088 sectors) pairs every shape's levels with the same labels
    size = {"Omega": 8.0, "Omega1": 3, "Omega2": 3}
    p = ModelParams(alpha=alpha, g=g, **size)
    q = ModelParams(alpha=1.0 / alpha, g=alpha * g, **size)
    plan = fold_plan(p)
    assert fold_plan(q) is plan and len(plan.bounds) == 272
    (w, nqb), (w_dual, nqb_dual) = (block_eigen_data(x) for x in (p, q))
    assert np.array_equal(nqb, nqb_dual)
    for first, (lo, hi) in zip(plan.first, plan.bounds):
        worst = np.max(np.abs(w[lo:hi] - w_dual[lo:hi]))
        assert worst <= DUALITY_ATOL_OMEGA8, plan.blocks[first]


def test_threads_missing_together_build_one_plan():
    import sys
    import threading

    from pseudotherm import model

    points = [ModelParams(alpha=0.3 + 0.02 * i, g=1.73) for i in range(4)]
    model._build_fold_plan.cache_clear()
    results = [None] * len(points)

    def solve(i):
        results[i] = block_spectra([points[i]])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=solve, args=(i,)) for i in range(len(points))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert model._build_fold_plan.cache_info().misses == 1
    for p, (w, _) in zip(points, results):
        assert np.array_equal(w, block_spectra([p])[0])


# The split of a spectrum into real levels and conjugate pairs (eps, gamma)
# is the one table_from_spectra makes.


def _split(w):
    w = np.asarray(w, dtype=complex)
    table = table_from_spectra(w, np.full(len(w), np.nan), one_group_fold(len(w)))
    return table.eps[~table.pair], np.column_stack([table.eps, table.gam])[table.pair]


def test_classify_all_real():
    real, pairs = _split([1.0 + 0j, 2.0, 3.0])
    assert len(pairs) == 0
    assert np.allclose(real, [1.0, 2.0, 3.0])


def test_classify_single_pair():
    real, pairs = _split([1.0 + 0j, 2.0 + 0.3j, 2.0 - 0.3j])
    assert np.allclose(real, [1.0])
    assert pairs.shape == (1, 2)
    assert pairs[0] == pytest.approx((2.0, 0.3))


def test_classify_unpaired_raises():
    with pytest.raises(AssertionError):
        _split([1.0 + 0.5j, 2.0])


def test_classify_stable_under_tolerance_halving(desk_broken, monkeypatch):
    from pseudotherm import spectral

    spectra = [w for w, _ in shape_spectra(desk_broken)[:50]]
    counts = []
    for im_tol in (1e-9, 5e-10):
        monkeypatch.setattr(spectral, "IM_TOL", im_tol)
        counts.append([len(_split(w)[1]) for w in spectra])
    assert counts[0] == counts[1]


def test_ground_state_single_level():
    p = ModelParams(Omega=0.5, Omega1=1, Omega2=1, g=0.0)
    gs = ground_state_info(thermal_table(p))
    assert not gs.is_complex
    assert gs.g0 >= 1


def test_ground_state_real_below_pair_coupling():
    # coupling below the pair-scattering strength: real ground state
    p = ModelParams(alpha=0.36, g=1.0)
    gs = ground_state_info(thermal_table(p))
    assert not gs.is_complex and gs.gamma0 == 0.0


def test_ground_state_complex_at_strong_coupling(desk_broken):
    gs = ground_state_info(thermal_table(desk_broken))
    assert gs.is_complex and gs.gamma0 > 1.0
    assert gs.eps0 < -14.0


def test_hermitian_point_never_breaks():
    p = ModelParams(alpha=1.0, g=1.73)
    w, _ = block_eigen_data(p)
    assert np.all(w.imag == 0.0)


def test_find_eps_none_in_decoupled_window():
    # g -> 0+: the coupling that generates non-normality is switched off
    p = ModelParams(g=0.02)
    eps = find_eps(p, "alpha", 0.9, 1.1, 12)
    assert eps == []


STRAIN_FREE_SWEEPS = [
    ("g", g, "alpha", lo, hi) for g in (0.5, 1.0, 1.73, 2.5) for lo, hi in ((0.02, 1.6), (1.0, 3.0))
] + [("alpha", 0.4, "g", 0.1, 3.0)]


@pytest.mark.parametrize(
    "fixed, value, param, lo, hi",
    STRAIN_FREE_SWEEPS,
    ids=["{}{}-{}-{}-{}".format(*sweep) for sweep in STRAIN_FREE_SWEEPS],
)
def test_find_eps_none_without_strain(fixed, value, param, lo, hi):
    # at E = 0, diag(alpha^(-M/2)) makes H(alpha, g) similar to the Hermitian
    # H(1, g sqrt(alpha)): every spectrum is real, so there is no EP to find
    p = ModelParams(E=0.0, **{fixed: value})
    assert find_eps(p, param, lo, hi, 40) == []
    # the same sweep at the default strain holds complex pairs
    strained = p.with_(E=ModelParams().E)
    assert any(
        sum(complex_pair_counts(strained.with_(**{param: float(x)})))
        for x in np.linspace(lo, hi, 40)
    )


def test_find_eps_brackets_and_determinism():
    p = ModelParams(g=1.73)
    sweep = ("alpha", 0.39, 0.5, 24)
    eps1 = find_eps(p, *sweep, precision=1e-4)
    eps2 = find_eps(p, *sweep, precision=1e-4)  # rerun: bisection determinism
    assert [e.value for e in eps1] == [e.value for e in eps2]
    assert eps1, "expected at least one EP near the critical window edge"
    for e in eps1:
        lo, hi = e.bracket
        assert hi - lo <= 1e-4
        p_lo = complex_pair_counts(p.with_(alpha=lo))
        p_hi = complex_pair_counts(p.with_(alpha=hi))
        assert p_lo != p_hi


def test_find_eps_finds_low_energy_ep():
    # the pair whose real part undercuts -10 GHz dies just past the
    # critical window; a per-block count scan resolves its coalescence
    p = ModelParams(g=1.73)
    eps = find_eps(p, "alpha", 0.39, 0.5, 60)
    assert min(e.re_coalesce for e in eps) < -10.0


def test_find_eps_weighs_shape_counts_by_blocks(monkeypatch):
    # a pair dies in the shape with the most blocks where another is born in
    # the shape with the fewest: over all blocks the pairs fell, so the EP is
    # the death, located in the shape that held the pair
    from pseudotherm import spectral
    from pseudotherm.model import fold_plan

    p = ModelParams(g=1.73)
    plan = fold_plan(p)
    blocks = np.bincount(plan.shape_index)
    # a pair needs two slots; the shape of the most blocks has one
    slots = np.diff(plan.bounds).ravel()
    many, few = int(np.argmax(np.where(slots >= 2, blocks, 0))), int(np.argmin(blocks))
    assert blocks[many] > blocks[few]

    def fake_eigen_data(q):
        w = np.zeros(len(plan.slot_nqb), dtype=complex)
        si, e = (many, 1.0) if q.alpha < 0.5 else (few, 2.0)
        lo = plan.bounds[si][0]
        w[lo:lo + 2] = [e - 0.5j, e + 0.5j]
        return w, plan.slot_nqb

    monkeypatch.setattr(spectral, "block_eigen_data", fake_eigen_data)
    (ep,) = find_eps(p, "alpha", 0.4, 0.6, 3)
    assert ep.bracket[0] < 0.5 <= ep.bracket[1]
    assert ep.block_key == plan.blocks[plan.first[many]].key()
    assert ep.level_indices == (plan.first[many], 1)
    assert (ep.re_coalesce, ep.gamma) == (1.0, 0.5)


def test_find_eps_validates_sweep():
    p = ModelParams()
    with pytest.raises(ValueError):
        find_eps(p, "beta", 0, 1, 4)
    with pytest.raises(ValueError):
        find_eps(p, "alpha", 1, 0, 4)
    for precision in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="precision"):
            find_eps(p, "alpha", 0, 1, 4, precision)


def test_sub_ulp_precision_bisects_until_the_midpoint_meets_an_end():
    # a precision below float spacing once spun forever: the midpoint of two
    # adjacent floats is one of them
    p = ModelParams(g=1.73)
    sweep = ("alpha", 0.39, 0.5, 6)
    fine = find_eps(p, *sweep, precision=1e-12)
    finest = find_eps(p, *sweep, precision=1e-20)
    assert fine and len(finest) == len(fine)
    for e, f in zip(finest, fine):
        lo, hi = e.bracket
        assert hi - lo <= 2 * np.spacing(hi)
        assert f.bracket[0] <= lo < hi <= f.bracket[1]
    below = [
        first_eps_about_unity(ModelParams(), [1.5], step=0.04, span=2.4, precision=precision)
        .alpha_below[0]
        for precision in (1e-4, 1e-20)
    ]
    assert abs(below[1] - below[0]) <= 1e-4


def test_unity_boundary_is_ground_level_onset_and_step_converged():
    # at g = 1.5 the ground level turns complex near alpha = 0.425 below
    # unity and only beyond alpha = 4 above it, outside this search range
    precision = 1e-4
    coarse = first_eps_about_unity(
        ModelParams(), [1.5], step=0.04, span=2.4, precision=precision
    )
    fine = first_eps_about_unity(
        ModelParams(), [1.5], step=0.02, span=2.4, precision=precision
    )
    (a_below,) = coarse.alpha_below
    assert math.isnan(coarse.alpha_above[0]) and math.isnan(fine.alpha_above[0])
    assert 1 / 2.4 < a_below < 1.0
    assert abs(fine.alpha_below[0] - a_below) <= precision

    def ground_complex(alpha):
        table = thermal_table(ModelParams(g=1.5, alpha=alpha))
        return ground_state_info(table).is_complex

    assert not ground_complex(a_below + precision)
    assert ground_complex(a_below - precision)


def test_first_eps_about_unity_validates_search():
    for bad in ({"step": 0.0}, {"precision": 0.0}, {"span": 1.0}):
        with pytest.raises(ValueError):
            first_eps_about_unity(ModelParams(), [1.0], **bad)


def test_nqb_labels_are_conserved_pair_counts(tiny):
    plan = fold_plan(tiny)
    for first, (w, nqb) in zip(plan.first, shape_spectra(tiny)):
        label = plan.blocks[first]
        assert nqb is not None
        two_s1 = round(2 * label.qb.s1)
        two_s2 = round(2 * label.qb.s2)
        lo = -(two_s1 + two_s2) / 2.0 + 0.5 * (tiny.Omega1 + tiny.Omega2)
        hi = (two_s1 + two_s2) / 2.0 + 0.5 * (tiny.Omega1 + tiny.Omega2)
        assert np.all(nqb >= lo - 1e-12) and np.all(nqb <= hi + 1e-12)
