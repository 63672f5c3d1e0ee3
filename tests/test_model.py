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
    for sizes in ({"Omega": 0.0}, {"Omega1": 0}, {"Omega2": 0}):
        with pytest.raises(ValueError, match="positive"):
            ModelParams(**sizes)


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


# ---- the fold plan against the per-block, per-shape, per-sector algorithm it
# replaced, kept here as the reference: every field, bit for bit

def _reference_plan(omega, omega1, omega2, coupling_z):
    from pseudotherm import algebra, blocks

    def register_factors(two_s1, two_s2):
        ops1 = algebra.spin_operators(two_s1 / 2.0)
        ops2 = algebra.spin_operators(two_s2 / 2.0)
        i1, i2 = np.eye(two_s1 + 1), np.eye(two_s2 + 1)
        z1, z2 = np.kron(ops1["Sz"], i2), np.kron(i1, ops2["Sz"])
        p = np.kron(ops1["Splus"], i2) + np.kron(i1, ops2["Splus"])
        return np.stack([np.eye(len(z1)), z1, z2, p @ p.T, z2 - z1, z1 + z2])

    def nv_factors(two_S):
        ops = algebra.spin_operators(two_S / 2.0)
        sz, sp = ops["Sz"], ops["Splus"]
        sm = sp.T
        return np.stack([np.eye(two_S + 1), sz @ sz, sp @ sp + sm @ sm, sp, sm])

    def shape_basis(two_s1, two_s2, two_S):
        two_m1 = two_s1 - 2 * np.arange(two_s1 + 1)
        two_m2 = two_s2 - 2 * np.arange(two_s2 + 1)
        reg_keys = (two_m1[:, None] + two_m2).ravel()
        reg = np.repeat(np.arange(len(reg_keys)), two_S + 1)
        nv = np.tile(np.arange(two_S + 1), len(reg_keys))
        keys = reg_keys[reg]
        order = np.argsort(keys, kind="stable")
        runs = np.split(order, np.flatnonzero(np.diff(keys[order])) + 1)
        return reg, nv, tuple((int(keys[i[0]]), i) for i in runs)

    def sector_stacks(names, shapes, groups):
        reg_keys = list(dict.fromkeys(shape[:2] for shape in shapes))
        nv_keys = list(dict.fromkeys(shape[2] for shape in shapes))
        reg = model._padded([register_factors(*key) for key in reg_keys])
        nv = model._padded([nv_factors(key) for key in nv_keys])
        reg_id = np.array([reg_keys.index(shape[:2]) for shape in shapes])
        nv_id = np.array([nv_keys.index(shape[2]) for shape in shapes])
        bases = [shape_basis(*shape) for shape in shapes]

        def flat(factors, ids, idx):
            d = factors.shape[-1]
            return (ids * d * d)[:, None, None] + idx[:, :, None] * d + idx[:, None, :]

        out = np.empty((len(names), sum(len(g) * len(g[0][1]) ** 2 for g in groups)))
        start = 0
        for sectors in groups:
            si = np.array([i for i, _ in sectors])
            ra = np.stack([bases[i][0][idx] for i, idx in sectors])
            na = np.stack([bases[i][1][idx] for i, idx in sectors])
            at_reg, at_nv = flat(reg, reg_id[si], ra), flat(nv, nv_id[si], na)
            stop = start + at_reg.size
            for row, name in zip(out, names):
                r, v = model._TERMS[name]
                a = row[start:stop].reshape(at_reg.shape)
                reg[r].take(at_reg, out=a)
                a *= nv[v].take(at_nv)
            start = stop
        return out

    nv_labels = blocks.enumerate_nv_labels(omega)
    qb_labels = blocks.enumerate_qubit_labels(omega1, omega2)
    block_list = sorted((blocks.BlockLabel(e, q) for e in nv_labels for q in qb_labels),
                        key=blocks.BlockLabel.key)
    index, first, by_shape, by_n = {}, {}, {}, {}
    shape_index = np.empty(len(block_list), dtype=int)
    for i, b in enumerate(block_list):
        si = shape_index[i] = index.setdefault(model._shape_of(b), len(index))
        first.setdefault(si, i)
        by_shape[si] = by_shape.get(si, 0) + b.mult
        by_n[si, b.nv.N] = by_n.get((si, b.nv.N), 0) + b.mult
    shapes = tuple(index)
    by_size, slot_m, bounds = {}, [], []
    for si, shape in enumerate(shapes):
        start = len(slot_m)
        for key, idx in shape_basis(*shape)[2]:
            slots = np.arange(len(slot_m), len(slot_m) + len(idx))
            by_size.setdefault(len(idx), []).append(((si, idx), slots))
            slot_m.extend([key / 2.0] * len(idx))
        bounds.append((start, len(slot_m)))
    names = model.assembly_operators(coupling_z)
    sectors = [tuple(sector for sector, _ in members) for members in by_size.values()]
    ops = sector_stacks(names, shapes, sectors)
    sizes, stop = [], 0
    for group, members in zip(sectors, by_size.values()):
        slots = np.stack([sl for _, sl in members])
        start, stop = stop, stop + slots.size * slots.shape[1]
        sizes.append((slice(start, stop), slots, group))
    return dict(
        blocks=tuple(block_list), shape_index=shape_index, shapes=shapes,
        first=tuple(first.values()),
        by_shape=tuple((si, None, m) for si, m in by_shape.items()),
        by_n=tuple((si, n, m) for (si, n), m in by_n.items()),
        ops=dict(zip(names, ops)), sizes=sizes,
        slot_shape=np.repeat(np.arange(len(shapes)), [hi - lo for lo, hi in bounds]),
        slot_nqb=np.array(slot_m) + 0.5 * (omega1 + omega2), bounds=tuple(bounds),
    )


def _same_array(a, ref):
    return a.dtype == ref.dtype and a.shape == ref.shape and a.tobytes() == ref.tobytes()


def _same_ints(a, ref):
    # equal, with the exact Python ints (and None) of the reference
    return a == ref and [type(x) for t in a for x in t] == [type(x) for t in ref for x in t]


@pytest.mark.parametrize("coupling_z", ["difference", "total"])
@pytest.mark.parametrize("omega, omega1, omega2", [
    (4.0, 2, 2), (1.0, 1, 1), (2.0, 1, 1), (0.5, 1, 1), (2.5, 2, 1), (8.0, 3, 3),
])
def test_fold_plan_equals_the_per_sector_build(omega, omega1, omega2, coupling_z):
    plan = model._build_fold_plan(omega, omega1, omega2, coupling_z)
    ref = _reference_plan(omega, omega1, omega2, coupling_z)
    assert plan.blocks == ref["blocks"]
    for field in ("shape_index", "slot_shape", "slot_nqb"):
        assert _same_array(getattr(plan, field), ref[field]), field
        assert not getattr(plan, field).flags.writeable, field
    assert plan.shapes == ref["shapes"] and plan.bounds == ref["bounds"]
    for field in ("shapes", "first", "by_shape", "by_n", "bounds"):
        value = getattr(plan, field)
        assert _same_ints([v if isinstance(v, tuple) else (v,) for v in value],
                          [v if isinstance(v, tuple) else (v,) for v in ref[field]]), field
    assert list(plan.ops) == list(ref["ops"])
    for name, op in plan.ops.items():
        assert _same_array(op, ref["ops"][name]) and not op.flags.writeable, name
    assert len(plan.sizes) == len(ref["sizes"])
    for group, (span, slots, sectors) in zip(plan.sizes, ref["sizes"]):
        assert group.span == span and type(group.span.start) is type(span.start) is int
        assert _same_array(group.slots, slots) and not group.slots.flags.writeable
        assert [si for si, _ in group.sectors] == [si for si, _ in sectors]
        assert all(type(si) is int for si, _ in group.sectors)
        for (_, idx), (_, ref_idx) in zip(group.sectors, sectors):
            assert _same_array(idx, ref_idx) and not idx.flags.writeable


def test_fold_plan_refuses_an_empty_register():
    for omega, omega1, omega2 in [(0.0, 1, 1), (1.0, 0, 1), (1.0, 1, 0)]:
        with pytest.raises(ValueError, match="positive"):
            model._build_fold_plan(omega, omega1, omega2, "difference")


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
