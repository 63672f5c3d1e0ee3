import math

import numpy as np
import pytest

from pseudotherm import ModelParams
from pseudotherm.algebra import spin_operators
from pseudotherm.blocks import enumerate_nv_labels, enumerate_qubit_labels
from pseudotherm.errors import ZeroPartitionError
from pseudotherm.model import build_block_hamiltonian, gap_operator
from pseudotherm.spectral import block_eigen_data, block_spectra
from pseudotherm.thermo import (
    SignedLog,
    SpectrumTable,
    critical_temperature,
    dominant_split,
    find_zeros,
    gap_curve,
    log_partition,
    pairing_gap,
    partition_function,
    potentials,
    potentials_fd,
    signed_logsumexp,
    table_from_spectra,
    thermal_expectation,
    thermal_table,
)


def toy_table(entries):
    """entries: (eps, gam, mult). gam > 0 marks a conjugate pair."""
    eps = np.array([e[0] for e in entries], dtype=float)
    gam = np.array([e[1] for e in entries], dtype=float)
    mult = np.array([e[2] for e in entries], dtype=float)
    pair = gam > 0
    dim = int(np.sum(mult * np.where(pair, 2, 1)))
    zero = np.zeros_like(eps)
    return SpectrumTable(
        eps=eps, gam=gam, mult=mult, nS=zero, npair=zero, pair=pair, dim_total=dim
    )


@pytest.fixture(scope="module")
def desk():
    return ModelParams()


@pytest.fixture(scope="module")
def desk_broken():
    return ModelParams(alpha=0.36, g=1.73)


# ------------------------------------------------------------- signed-log sums


def test_signed_logsumexp_cancellation_is_exact():
    out = signed_logsumexp([0.0, 0.0], [1, -1])
    assert out.sign == 0


def test_signed_logsumexp_survives_huge_exponents():
    out = signed_logsumexp([20000.0, 19999.0], [1, -1])
    assert out.sign == 1
    assert out.log_abs == pytest.approx(20000.0 + math.log(1 - math.exp(-1.0)))


def test_signed_log_value_roundtrip():
    assert SignedLog(math.log(2.5), -1).value() == pytest.approx(-2.5)
    assert SignedLog(-math.inf, 0).value() == 0.0


# --------------------------------------------------------- partition function


def test_infinite_temperature_counts_states(desk):
    table = thermal_table(desk)
    z = partition_function(table, 1e-10)
    assert z == pytest.approx(2**24, rel=1e-6)
    assert table.dim_total == 2**24


def test_single_pair_zero_location():
    # one conjugate pair: Z = 2 exp(-beta eps) cos(beta gamma)
    gamma = 0.7
    table = toy_table([(1.0, gamma, 1)])
    beta_zero = math.pi / (2.0 * gamma)
    for beta in (0.3, 1.1, 2.0):
        want = 2.0 * math.exp(-beta * 1.0) * math.cos(beta * gamma)
        assert partition_function(table, beta) == pytest.approx(want, rel=1e-12)
    just_below = log_partition(table, beta_zero * (1 - 1e-9))
    just_above = log_partition(table, beta_zero * (1 + 1e-9))
    assert just_below.sign == 1 and just_above.sign == -1


def test_toy_critical_temperature_closed_form():
    gamma = 0.9
    table = toy_table([(0.0, gamma, 1)])
    zeros = find_zeros(table, np.linspace(0.05, 2.0, 100))
    t_c = max(z.T_zero for z in zeros)
    assert t_c == pytest.approx(2.0 * gamma / math.pi, rel=1e-7)


def test_partition_blockwise_equals_merged(desk_broken):
    spectra = block_spectra(desk_broken)
    table = thermal_table(desk_broken)
    for beta in (0.2, 1.0, 3.0):
        z_blocks = math.fsum(
            partition_function([s], beta) for s in spectra
        )
        z_merged = partition_function(table, beta)
        assert z_blocks == pytest.approx(z_merged, rel=1e-12)


@pytest.mark.parametrize("alpha", [1.0, 0.36])
def test_shape_fold_matches_per_block_fold(alpha):
    # thermal_table folds blocks of one (s1, s2, S) shape into one row set;
    # the per-block fold of the same spectra is the reference
    p = ModelParams(alpha=alpha, g=1.73)
    table = thermal_table(p)
    per_block = table_from_spectra(
        (label.mult, label.nv.N, w, nqb) for label, w, nqb in block_eigen_data(p)
    )
    assert table.dim_total == per_block.dim_total == 2**24
    assert len(table) < len(per_block)
    assert np.all(np.isnan(table.nS))
    for t in (0.05, 0.144, 0.5, 2.0, 5.0):
        got = potentials(p, t, table=table)
        want = potentials(p, t, table=per_block)
        assert got.z_sign == want.z_sign
        assert got.valid == want.valid
        assert abs(got.ln_abs_z - want.ln_abs_z) <= 1e-14 * abs(want.ln_abs_z)
        if want.valid:
            for a, b in ((got.U, want.U), (got.S, want.S), (got.Cv, want.Cv)):
                assert abs(a - b) <= 1e-9 * abs(b)


@pytest.mark.parametrize("muS", [0.0, 0.2])
def test_thermal_table_equals_fold_of_blocks_solved_alone(muS):
    # thermal_table solves all shapes in one stacked pass; solving each
    # representative block alone stacks it with nothing else
    from pseudotherm.thermo import _fold_plan

    p = ModelParams(alpha=0.36, g=1.73, muS=muS)
    reps, groups = _fold_plan(p.Omega, p.Omega1, p.Omega2, muS != 0.0)
    alone = [block_spectra(p, blocks=[b])[0] for b in reps]
    want = table_from_spectra(
        (m, n, alone[i].eigenvalues, alone[i].nqb) for i, n, m in groups
    )
    got = thermal_table(p)
    assert got.dim_total == want.dim_total == 2**24
    for field in ("eps", "gam", "mult", "nS", "npair", "pair"):
        assert np.array_equal(getattr(got, field), getattr(want, field), equal_nan=True)


def test_vectorized_fold_equals_row_by_row_fold(desk_broken):
    from pseudotherm.thermo import _block_rows

    spectra = block_spectra(desk_broken)
    table = table_from_spectra(_block_rows(spectra))
    rows = [table_from_spectra([row]) for row in _block_rows(spectra)]
    assert table.dim_total == sum(r.dim_total for r in rows) == 2**24
    for field in ("eps", "gam", "mult", "nS", "npair", "pair"):
        want = np.concatenate([getattr(r, field) for r in rows])
        assert np.array_equal(getattr(table, field), want)


def test_fold_rejects_unpaired_complex_value():
    real = np.array([1.0 + 0j, 2.0 + 0j])
    unpaired = np.array([1.0 + 0.5j, 2.0 + 0j])
    with pytest.raises(AssertionError, match="N=7"):
        table_from_spectra([(1, 3, real, None), (2, 7, unpaired, None)])


def test_table_folded_over_n_refuses_mu_s(desk_broken):
    table = thermal_table(desk_broken)
    with pytest.raises(ValueError):
        partition_function(table, 1.0, muS=0.4)
    with pytest.raises(ValueError):
        potentials(desk_broken.with_(muS=0.4), 1.0, table=table)
    split = thermal_table(desk_broken.with_(muS=0.4))
    assert np.all(np.isfinite(split.nS)) and len(split) > len(table)


def subsystem_partition(p, beta):
    """Z_NV * Z_register from independently diagonalized subsystems."""
    z_nv = 0.0
    for lbl in enumerate_nv_labels(p.Omega):
        ops = spin_operators(lbl.S)
        h = p.D * ops["Sz"] @ ops["Sz"] + 0.5 * p.E * (
            ops["Splus"] @ ops["Splus"] + ops["Sminus"] @ ops["Sminus"]
        )
        z_nv += lbl.mult * math.fsum(np.exp(-beta * np.linalg.eigvalsh(h)))
    z_qb = 0.0
    for lbl in enumerate_qubit_labels(p.Omega1, p.Omega2):
        o1, o2 = spin_operators(lbl.s1), spin_operators(lbl.s2)
        i1 = np.eye(o1["Sz"].shape[0])
        i2 = np.eye(o2["Sz"].shape[0])
        z1 = np.kron(o1["Sz"], i2)
        z2 = np.kron(i1, o2["Sz"])
        pp = np.kron(o1["Splus"], i2) + np.kron(i1, o2["Splus"])
        h = p.eps1 * z1 + p.eps2 * z2 - p.G * pp @ pp.T
        z_qb += lbl.mult * math.fsum(np.exp(-beta * np.linalg.eigvalsh(h)))
    return z_nv * z_qb


def test_decoupled_partition_factorizes(desk):
    p = desk.with_(g=0.0)
    table = thermal_table(p)
    for beta in np.linspace(0.05, 4.0, 20):
        z = partition_function(table, float(beta))
        z_fact = subsystem_partition(p, float(beta))
        assert z == pytest.approx(z_fact, rel=1e-10)


# ------------------------------------------------------------- dominant split


def test_dominant_split_real_ground(desk):
    z0, zp = dominant_split(thermal_table(desk), 2.0)
    assert z0 > 0.0


def test_dominant_split_is_exact_decomposition():
    table = toy_table([(0.0, 0.5, 1), (1.0, 0.0, 3)])
    for beta in (0.7, 2.0, 4.0):
        z0, zp = dominant_split(table, beta)
        assert z0 + zp == pytest.approx(partition_function(table, beta), rel=1e-10)


def test_dominant_split_negative_below_tc(desk_broken):
    t_c = critical_temperature(desk_broken)
    beta = 1.0 / (0.97 * t_c)
    z0, zp = dominant_split(thermal_table(desk_broken), beta)
    assert z0 < 0.0
    assert z0 + zp == pytest.approx(
        partition_function(thermal_table(desk_broken), beta), rel=1e-8
    )


# ---------------------------------------------------------------------- zeros


def test_no_zeros_for_weak_coupling():
    p = ModelParams(alpha=0.36, g=1.0)
    zeros = find_zeros(p, np.geomspace(5e-3, 2.0, 150))
    assert zeros == []
    assert critical_temperature(p) == 0.0


def test_zero_structure_in_critical_window(desk_broken):
    t_c = critical_temperature(desk_broken)
    assert t_c > 0.0
    assert t_c / desk_broken.D == pytest.approx(0.0426, abs=0.002)
    zeros = find_zeros(desk_broken, np.geomspace(0.02, 0.5, 200))
    assert zeros
    assert max(z.T_zero for z in zeros) == pytest.approx(t_c, rel=1e-6)
    for z in zeros:
        lo, hi = z.bracket
        assert hi - lo <= 1e-8 * max(hi, 1.0) + 1e-12


def test_doubled_grid_signs_equal_full_rescan(desk_broken):
    from pseudotherm.thermo import _doubled, z_signs_on_grid

    table = thermal_table(desk_broken)
    grid = np.geomspace(2e-3, 2.0, 200)
    signs = z_signs_on_grid(table, grid)
    for _ in range(4):
        denser = np.sort(np.concatenate([grid, 0.5 * (grid[:-1] + grid[1:])]))
        grid, signs = _doubled(table, grid, signs, 0.0, 0.0)
        assert np.array_equal(grid, denser)
        assert np.array_equal(signs, z_signs_on_grid(table, denser))
    assert np.any(signs < 0) and np.any(signs > 0)


@pytest.mark.parametrize(
    "p",
    [ModelParams(alpha=0.36, g=1.73), ModelParams(alpha=0.24, g=1.73, muS=0.2, muQb=0.1)],
    ids=["canonical", "grand-canonical"],
)
def test_fast_z_signs_equal_exact_signs_away_from_zeros(p):
    # within rounding distance of a zero the float64 scan may err: there the
    # exact sum has lost more than 10 of its ~16 digits to cancellation
    from pseudotherm.thermo import _z_sign, z_signs_on_grid

    table = thermal_table(p)
    grid = np.geomspace(2e-3, 2.0, 400)
    fast = z_signs_on_grid(table, grid, p.muS, p.muQb)
    assert np.sum(fast[:-1] != fast[1:]) >= 50
    checked = 0
    for t, s in zip(grid, fast):
        if log_partition(table, 1.0 / t, p.muS, p.muQb).cancellation > 10.0:
            continue
        assert s == _z_sign(table, t, p.muS, p.muQb)
        checked += 1
    assert checked >= 390


def test_find_zeros_validates_grid(desk):
    with pytest.raises(ValueError):
        find_zeros(desk, [0.5])
    with pytest.raises(ValueError):
        find_zeros(desk, [-1.0, 0.5])


# ----------------------------------------------------------------- potentials


def test_two_level_toy_closed_form():
    table = toy_table([(-1.0, 0.0, 1), (1.0, 0.0, 1)])
    zero = np.zeros(2)
    p = ModelParams()  # mu = 0; only the table matters below

    for t in (0.3, 1.0, 4.0):
        beta = 1.0 / t
        m0 = log_partition(table, beta)
        assert m0.value() == pytest.approx(2.0 * math.cosh(beta), rel=1e-12)
    pt = potentials(p, 0.8, table=table)
    beta = 1.25
    assert pt.U == pytest.approx(-math.tanh(beta), rel=1e-10)
    want_s = math.log(2.0 * math.cosh(beta)) - beta * math.tanh(beta)
    assert pt.S == pytest.approx(want_s, rel=1e-10)
    want_cv = beta * beta * (1.0 - math.tanh(beta) ** 2)
    assert pt.Cv == pytest.approx(want_cv, rel=1e-10)


def test_high_temperature_entropy_saturates(desk):
    pt = potentials(desk, 5.0 * desk.D)
    s_max = 24.0 * math.log(2.0)
    assert pt.S == pytest.approx(s_max, rel=0.01)


def test_free_energy_linear_at_high_temperature(desk):
    t1, t2 = 4.0 * desk.D, 5.0 * desk.D
    f1, f2 = potentials(desk, t1).F, potentials(desk, t2).F
    slope = (f2 - f1) / (t2 - t1)
    assert slope == pytest.approx(-24.0 * math.log(2.0), rel=0.01)


def test_legendre_identity_everywhere(desk_broken):
    for t in (0.2, 0.7, 3.0, 11.0):
        pt = potentials(desk_broken, t)
        assert pt.valid
        assert pt.F == pytest.approx(pt.U - t * pt.S, rel=1e-6)


def test_fd_cross_checks(desk):
    p = desk.with_(alpha=0.8)
    for t in (0.6, 1.7, 6.0):
        pt = potentials(p, t)
        fd = potentials_fd(p, t)
        assert pt.U == pytest.approx(fd["U_fd"], rel=1e-4)
        assert pt.S == pytest.approx(fd["S_fd"], rel=1e-4)
        assert pt.Cv == pytest.approx(fd["Cv_fd"], rel=1e-4)


def test_z_nonpositive_flagged_below_tc(desk_broken):
    t_c = critical_temperature(desk_broken)
    pt = potentials(desk_broken, 0.97 * t_c)
    assert pt.z_nonpositive
    assert math.isfinite(pt.F)


def test_hermitian_limit_matches_reference(desk):
    from pseudotherm.oracle import hermitian_reference

    for t in (0.4, 1.3, 6.0):
        pt = potentials(desk, t)
        ref = hermitian_reference(desk, t)
        assert pt.F == pytest.approx(ref["F"], rel=1e-10)
        assert pt.U == pytest.approx(ref["U"], rel=1e-10)
        assert pt.S == pytest.approx(ref["S"], rel=1e-10)
        assert pt.Cv == pytest.approx(ref["Cv"], rel=1e-10)


def test_chemical_potential_shifts_are_exact(desk):
    # muS shifts every sector energy by -muS*N: Z picks up known factors
    p = desk.with_(g=0.0, muS=0.3)
    beta = 1.5
    z_shifted = partition_function(thermal_table(p), beta, muS=p.muS)
    table = thermal_table(p)
    by_hand = math.fsum(
        m * (2.0 if pr else 1.0) * math.exp(-beta * (e - p.muS * n)) * math.cos(beta * g)
        for e, g, m, n, pr in zip(table.eps, table.gam, table.mult, table.nS, table.pair)
    )
    assert z_shifted == pytest.approx(by_hand, rel=1e-10)


# --------------------------------------------------------------- expectations


def test_identity_expectation_is_one(desk_broken):
    out = thermal_expectation(
        lambda b: np.eye(b.dim), desk_broken, 0.9
    )
    assert out.value == pytest.approx(1.0, rel=1e-10)
    assert out.imag_residue < 1e-10


def test_hermitian_expectation_matches_direct(desk):
    spectra = block_spectra(desk, want_vectors=True)
    out = thermal_expectation(lambda b: gap_operator(b), desk, 1.1, spectra=spectra)
    decomp = [
        (b, *np.linalg.eigh(build_block_hamiltonian(desk, b))) for b in desk.blocks()
    ]
    shift = min(w.min() for _, w, _ in decomp)
    num = 0.0
    den = 0.0
    for b, w, v in decomp:
        o_diag = np.einsum("in,ij,jn->n", v, gap_operator(b), v)
        boltz = np.exp(-(w - shift) / 1.1)
        num += b.mult * float(np.sum(o_diag * boltz))
        den += b.mult * float(np.sum(boltz))
    assert out.value == pytest.approx(num / den, rel=1e-10)


def test_expectation_raises_at_partition_zero():
    # one conjugate pair: Z vanishes at beta*gamma = pi/2 exactly
    from pseudotherm.blocks import BlockLabel, NvBlockLabel, QubitBlockLabel
    from pseudotherm.spectral import BlockSpectrum

    label = BlockLabel(
        NvBlockLabel(N=1, tau=0.5, k=0, S=0.5, mult=1),
        QubitBlockLabel(s1=0.0, s2=0.0, mult=1),
    )
    gamma = 0.5
    spec = BlockSpectrum(
        label=label,
        eigenvalues=np.array([-1.0 - 1j * gamma, -1.0 + 1j * gamma]),
        right_vectors=np.eye(2, dtype=complex),
        left_vectors=np.eye(2, dtype=complex),
        near_defective=np.zeros(2, dtype=bool),
    )
    t_zero = 2.0 * gamma / math.pi
    with pytest.raises(ZeroPartitionError):
        thermal_expectation(lambda b: np.eye(2), ModelParams(), t_zero, spectra=[spec])


# ------------------------------------------------------------------------ gap


def test_gap_zero_for_zero_pair_coupling():
    p = ModelParams(G=0.0, g=0.0, Omega=0.5, Omega1=2, Omega2=2)
    assert pairing_gap(p, 0.5) == 0.0


def test_gap_curve_monotone_decay():
    p = ModelParams(G=1.7342, g=0.0, alpha=1.0, Omega=0.5, Omega1=2, Omega2=2)
    t_grid = np.linspace(0.02, 0.75, 12) * 2.878
    gaps = gap_curve(p, t_grid)
    assert np.all(np.diff(gaps) <= 1e-3 * gaps[0])
    assert gaps[0] > gaps[-1]


def test_gap_against_fock_trace():
    from pseudotherm.oracle import FockSpace, fock_expectation, fock_operators

    p = ModelParams(G=1.5, g=0.0, alpha=1.0, Omega=0.5, Omega1=2, Omega2=2)
    ops = fock_operators(FockSpace(0.5, 2, 2))
    pair_plus = ops.s_plus_qb1 + ops.s_plus_qb2
    o_mat = pair_plus @ pair_plus.T
    for t in (0.2, 1.0):
        corr = fock_expectation(o_mat, p, 1.0 / t)
        want = 0.5 * p.G * math.sqrt(max(corr, 0.0))
        assert pairing_gap(p, t) == pytest.approx(want, rel=1e-10)


def test_gap_is_grand_canonical():
    from pseudotherm.oracle import FockSpace, fock_expectation, fock_operators

    p = ModelParams(Omega=1.0, Omega1=1, Omega2=1, alpha=0.5, g=1.2, muS=0.4, muQb=0.3)
    ops = fock_operators(FockSpace(1.0, 1, 1))
    pair_plus = ops.s_plus_qb1 + ops.s_plus_qb2
    o_mat = pair_plus @ pair_plus.T
    gaps = gap_curve(p, [0.3, 1.0])
    for t, gap, want in zip((0.3, 1.0), gaps, (1.18819, 1.07655)):
        corr = fock_expectation(o_mat, p, 1.0 / t)
        assert 0.5 * p.G * math.sqrt(corr) == pytest.approx(want, abs=5e-6)
        assert gap == pytest.approx(0.5 * p.G * math.sqrt(corr), rel=1e-10)
        out = thermal_expectation(gap_operator, p, t)
        assert out.value == pytest.approx(corr, rel=1e-10)


def test_gap_collapse_at_low_temperature():
    from pseudotherm.model import G0_REFERENCE, pair_coupling_factor

    values = []
    for npair in (2, 3, 4):
        gr = G0_REFERENCE * pair_coupling_factor(npair)
        p = ModelParams(G=gr, g=0.0, alpha=1.0, Omega=0.5, Omega1=npair, Omega2=npair)
        values.append(pairing_gap(p, 0.05))
    spread = (max(values) - min(values)) / min(values)
    assert spread < 0.05
