import math

import numpy as np
import pytest
from conftest import kron_shape_operators

from pseudotherm import model
from pseudotherm.model import (
    ModelParams,
    build_block_hamiltonian,
    fit_rescaling,
    fold_plan,
    gap_operator,
    pair_coupling_factor,
    qubit_sz_diagonal,
    rescale,
    solve_gap_t0,
)


@pytest.fixture(scope="module")
def desk():
    return ModelParams()


def test_default_constants(desk):
    assert desk.D == 2.878
    assert desk.E == 0.26
    assert desk.G == 1.73
    assert desk.eps2 == -desk.eps1 == 1.0
    assert desk.muS == desk.muQb == 0.0
    assert desk.nv_count == 8 and desk.pair_count == 2


def test_param_validation():
    with pytest.raises(ValueError):
        ModelParams(D=-1.0)
    with pytest.raises(ValueError):
        ModelParams(alpha=-0.1)
    with pytest.raises(ValueError):
        ModelParams(g=float("nan"))
    with pytest.raises(ValueError):
        ModelParams(coupling_z="sideways")


def nv_only_block(p):
    for b in p.blocks():
        if b.nv.S == 1.0 and b.qb.s1 == 0.0 and b.qb.s2 == 0.0:
            return b
    raise AssertionError("no S=1 trivial-register block")


def test_nv_triplet_eigenvalues(desk):
    # g=0, trivial register: spectrum of D Sz^2 + E (Sx^2 - Sy^2) on S=1
    p = desk.with_(g=0.0)
    h = build_block_hamiltonian(p, nv_only_block(p))
    w = np.sort(np.linalg.eigvalsh(h))
    assert np.allclose(w, [0.0, p.D - p.E, p.D + p.E], atol=1e-12)


def test_symmetric_iff_alpha_one(desk):
    blocks = desk.blocks()
    big = max(blocks, key=lambda b: b.dim)
    h1 = build_block_hamiltonian(desk.with_(alpha=1.0), big)
    assert np.array_equal(h1, h1.T)
    h0 = build_block_hamiltonian(desk.with_(alpha=0.7), big)
    asym = np.max(np.abs(h0 - h0.T))
    assert asym > 0.0
    # asymmetry scales linearly in |alpha - 1| * g
    h2 = build_block_hamiltonian(desk.with_(alpha=0.4), big)
    assert np.max(np.abs(h2 - h2.T)) == pytest.approx(2.0 * asym, rel=1e-12)


def test_hamiltonian_is_real(desk):
    for b in desk.blocks()[:40]:
        h = build_block_hamiltonian(desk.with_(alpha=0.37), b)
        assert np.isrealobj(h)


def test_pair_scatter_commutes_with_total_sz(desk):
    # [Sz1+Sz2, (S+1+S+2)(S-1+S-2)] = 0, term by term
    for b in desk.blocks():
        if b.dim > 40:
            ztot = np.diag(qubit_sz_diagonal(b))
            pair_scatter = gap_operator(b)
            comm = ztot @ pair_scatter - pair_scatter @ ztot
            assert np.max(np.abs(comm)) < 1e-12
            break


def test_qubit_sz_diagonal_matches_operator(desk):
    b = max(desk.blocks(), key=lambda x: x.dim)
    ref = kron_shape_operators(*model._shape_of(b), desk.coupling_z)
    assert np.array_equal(qubit_sz_diagonal(b), np.diag(ref["z1"] + ref["z2"]))


def _identical(a, ref):
    return a.dtype == ref.dtype and np.array_equal(a, ref)


def _shapes(p):
    reps = {}
    for b in p.blocks():
        reps.setdefault(model._shape_of(b), b)
    return reps


SIZES = [ModelParams(alpha=0.36), ModelParams(alpha=0.36, Omega=1.0, Omega1=1, Omega2=1)]


@pytest.mark.parametrize("coupling_z", ["difference", "total"])
@pytest.mark.parametrize("size", SIZES, ids=["desk", "omega1"])
def test_block_operators_match_kron_reference(size, coupling_z):
    p = size.with_(coupling_z=coupling_z, muS=0.2, muQb=0.1)
    names = model.assembly_operators(coupling_z)
    for shape, b in _shapes(p).items():
        ref = kron_shape_operators(*shape, coupling_z)
        assert _identical(
            build_block_hamiltonian(p, b), model.assemble_hamiltonian([p], ref)[0]
        )
        for name, op in zip(names, model._block_operators(names, shape)):
            assert _identical(op, ref[name]), (shape, name)


@pytest.mark.parametrize("coupling_z", ["difference", "total"])
@pytest.mark.parametrize("size", SIZES, ids=["desk", "omega1"])
def test_sector_stacks_match_kron_reference(size, coupling_z):
    plan = fold_plan(size.with_(coupling_z=coupling_z))
    shapes = tuple(_shapes(size))
    assert plan.shapes == shapes
    # the pair projection m of each slot; N_qb = m + (Omega1 + Omega2) / 2
    slot_m = plan.slot_nqb - 0.5 * (size.Omega1 + size.Omega2)
    refs = [kron_shape_operators(*shape, coupling_z) for shape in shapes]
    seen = [[] for _ in shapes]
    for group in plan.sizes:
        for j, (si, idx) in enumerate(group.sectors):
            ztot = refs[si]["ztot_diag"]
            # one sector: a single pair projection, complete, ascending
            assert np.all(ztot[idx] == ztot[idx[0]]) and np.all(np.diff(idx) > 0)
            assert np.array_equal(idx, np.flatnonzero(ztot == ztot[idx[0]]))
            assert np.all(slot_m[group.slots[j]] == ztot[idx[0]])
            seen[si].append(idx)
            for name, ops in plan.ops.items():
                stack = group.matrices(ops)
                assert _identical(stack[j], refs[si][name][np.ix_(idx, idx)]), (si, name)
    for ref, idxs in zip(refs, seen):
        assert np.array_equal(np.sort(np.concatenate(idxs)), np.arange(len(ref["ztot_diag"])))
    # slots run shape by shape, sector by sector in increasing projection
    for si, (lo, hi) in enumerate(plan.bounds):
        assert np.all(plan.slot_shape[lo:hi] == si)
        assert np.all(np.diff(slot_m[lo:hi]) >= 0)


@pytest.mark.parametrize("size", SIZES, ids=["desk", "omega1"])
def test_coupling_modes_share_the_layout_of_a_size(size):
    # one plan per (size, coupling mode): the two modes share every field
    # bit for bit, and the blocks by identity; only the coupling stacks differ
    diff = fold_plan(size.with_(coupling_z="difference"))
    total = fold_plan(size.with_(coupling_z="total"))
    assert diff is not total
    assert diff.blocks is total.blocks
    for field in ("shapes", "first", "by_shape", "by_n", "bounds"):
        assert getattr(diff, field) == getattr(total, field), field
    for field in ("shape_index", "slot_shape", "slot_nqb"):
        a, b = getattr(diff, field), getattr(total, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
    assert len(diff.sizes) == len(total.sizes)
    for g, h in zip(diff.sizes, total.sizes):
        assert g.span == h.span and g.slots.tobytes() == h.slots.tobytes()
        assert [si for si, _ in g.sectors] == [si for si, _ in h.sectors]
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(g.sectors, h.sectors))
    shared = set(model.assembly_operators("difference")) & set(model.assembly_operators("total"))
    assert shared == {"z1", "z2", "pair_scatter", "zz_nv", "strain"}
    for name in shared:
        assert diff.ops[name].tobytes() == total.ops[name].tobytes(), name
    assert set(diff.ops) - shared == {"couple_plus_difference", "couple_minus_difference"}
    assert set(total.ops) - shared == {"couple_plus_total", "couple_minus_total"}
    for sign in ("plus", "minus"):
        a, b = diff.ops[f"couple_{sign}_difference"], total.ops[f"couple_{sign}_total"]
        assert a.shape == b.shape and not np.array_equal(a, b)


@pytest.mark.parametrize("size", SIZES, ids=["desk", "omega1"])
def test_gap_operators_match_kron_reference(size):
    for shape, b in _shapes(size).items():
        ref = kron_shape_operators(*shape, size.coupling_z)
        assert _identical(gap_operator(b), ref["pair_scatter"])
        assert _identical(qubit_sz_diagonal(b), ref["ztot_diag"])


def test_rescale_scheme(desk):
    r = rescale(desk, 2, 8, 1.0)
    assert r.Gr == pytest.approx(model.G0_REFERENCE * 2.7289 / 4.73029, rel=1e-12)
    assert r.Gr == pytest.approx(1.734, abs=5e-4)  # consistent with G = 1.73
    assert r.gr == pytest.approx(desk.g / math.sqrt(8.0))
    assert r.Er == pytest.approx(desk.E / 8.0)
    assert r.Tr == pytest.approx(1.0 / desk.D)
    r1 = rescale(desk, 2, 1, 2.878)
    assert r1.gr == desk.g and r1.Er == desk.E
    r4 = rescale(desk, 2, 4, 1.0)
    assert r4.gr == pytest.approx(desk.g / 2.0)


def test_pair_coupling_factor_value():
    assert pair_coupling_factor(2) == pytest.approx(0.57690, abs=5e-6)


def test_gap_t0_single_level_closed_form():
    assert solve_gap_t0(1.0, [0.0]) == pytest.approx(0.5, rel=1e-9)


def test_gap_t0_symmetric_two_level():
    g = 1.73
    want = math.sqrt(g * g - 1.0)
    assert solve_gap_t0(g, [1.0, -1.0]) == pytest.approx(want, rel=1e-9)


def test_gap_t0_sub_ulp_tolerance_returns():
    # the bisection stops once its midpoint rounds onto an end
    g = 1.73
    assert solve_gap_t0(g, [-1.0, 1.0], rtol=0.0) == pytest.approx(
        math.sqrt(g * g - 1.0), rel=1e-15
    )


def test_gap_t0_weak_coupling_collapse():
    assert solve_gap_t0(1e-6, [1.0, -1.0, 2.0]) == 0.0


def test_gap_t0_validation():
    with pytest.raises(ValueError):
        solve_gap_t0(1.0, [])
    with pytest.raises(ValueError):
        solve_gap_t0(0.0, [1.0])


def test_fit_rescaling_roundtrip_synthetic(monkeypatch):
    # synthetic gap law Delta = G * sqrt(Np(Np+1))/2 has exact form a/(2Np+b)
    a_true, b_true = 2.9, 0.8

    def fake_gap(p, t):
        return p.G * 0.5 * (2.0 * p.Omega1 + b_true) / a_true

    import pseudotherm.thermo as thermo_mod

    monkeypatch.setattr(thermo_mod, "pairing_gap", fake_gap)
    fit = fit_rescaling([2, 3, 4, 5], g0=3.006, target=1.0)
    # G* = a_true/(2Np+b_true) * 2 * ... ; fitted shape recovers (a, b)
    assert fit.a * 3.006 / 2.0 == pytest.approx(a_true, rel=1e-6)
    assert fit.b == pytest.approx(b_true, rel=1e-6)
    assert max(abs(r) for r in fit.residuals) < 1e-9


def test_fit_rescaling_single_point_interpolates(monkeypatch):
    def fake_gap(p, t):
        return p.G

    import pseudotherm.thermo as thermo_mod

    monkeypatch.setattr(thermo_mod, "pairing_gap", fake_gap)
    fit = fit_rescaling([3], g0=1.0, target=0.25)
    assert fit.factor(3) == pytest.approx(0.25, rel=1e-9)
    assert fit.residuals == (0.0,)


@pytest.mark.parametrize("np_list", [[2.5], [2, 3.5], [2, math.nan], [math.inf]])
def test_fit_rescaling_refuses_non_integer_pair_counts(monkeypatch, np_list):
    # a fractional Np is refused, not truncated, before any gap solve
    def refuse(p, t):
        raise AssertionError("gap solve before the Np check")

    import pseudotherm.thermo as thermo_mod

    monkeypatch.setattr(thermo_mod, "pairing_gap", refuse)
    with pytest.raises(ValueError, match="integer"):
        fit_rescaling(np_list, g0=1.0, target=0.25)


@pytest.mark.slow
def test_fit_rescaling_reproduces_reference_factor():
    fit = fit_rescaling([2, 3, 4])
    assert fit.factor(2) == pytest.approx(0.57690, rel=0.05)
    assert max(abs(r) for r in fit.residuals) < 5e-3


def test_rescaled_params_helper(desk):
    p = model.rescaled_params(desk, 3, 12)
    assert p.Omega == 6.0 and p.Omega1 == p.Omega2 == 3
    assert p.E == pytest.approx(desk.E / 12.0)
    assert p.G == pytest.approx(model.G0_REFERENCE * pair_coupling_factor(3))
