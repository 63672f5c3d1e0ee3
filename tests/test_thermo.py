import math

import numpy as np
import pytest

from conftest import (
    dense_operator,
    fold_rows,
    per_block_spectra,
    per_sector_eigenvalues,
    per_sector_vector_spectrum,
    plan_fold_rows,
)
from pseudotherm import ModelParams
from pseudotherm.algebra import spin_operators
from pseudotherm.blocks import enumerate_nv_labels, enumerate_qubit_labels
from pseudotherm.errors import ZeroPartitionError
from pseudotherm.model import Fold, build_block_hamiltonian, fold_plan, gap_operator
from pseudotherm.thermo import (
    TC_T_MIN,
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
    thermal_tables,
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
    zeros = find_zeros(ModelParams(), np.linspace(0.05, 2.0, 100), table=table)
    t_c = max(z.T_zero for z in zeros)
    assert t_c == pytest.approx(2.0 * gamma / math.pi, rel=1e-7)


def test_partition_blockwise_equals_merged(desk_broken):
    blocks = [
        fold_rows([(b.mult, b.nv.N, w, nqb)]) for b, (w, nqb) in per_block_spectra(desk_broken)
    ]
    table = thermal_table(desk_broken)
    for beta in (0.2, 1.0, 3.0):
        z_blocks = math.fsum(partition_function(b, beta) for b in blocks)
        z_merged = partition_function(table, beta)
        assert z_blocks == pytest.approx(z_merged, rel=1e-12)


@pytest.mark.parametrize("alpha", [1.0, 0.36])
def test_shape_fold_matches_per_block_fold(alpha):
    # thermal_table folds blocks of one (s1, s2, S) shape into one row set;
    # the per-block fold of the same spectra is the reference
    p = ModelParams(alpha=alpha, g=1.73)
    table = thermal_table(p)
    per_block = fold_rows((b.mult, b.nv.N, w, nqb) for b, (w, nqb) in per_block_spectra(p))
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


@pytest.mark.parametrize(
    "muS, muQb", [(0.0, 0.0), (0.2, 0.0), (0.0, 0.1)], ids=["0.0", "0.2", "muQb-0.1"]
)
def test_thermal_table_equals_fold_of_blocks_solved_alone(muS, muQb):
    # thermal_table solves all shapes in one stacked pass; the reference
    # solves each sector of each representative block on its own
    p = ModelParams(alpha=0.36, g=1.73, muS=muS, muQb=muQb)
    plan = fold_plan(p)
    alone = [per_sector_eigenvalues(p, plan.blocks[i]) for i in plan.first]
    by_group = plan.by_n if muS != 0.0 else plan.by_shape
    want = fold_rows((m, n, *alone[i]) for i, n, m in by_group)
    got = thermal_table(p)
    assert got.dim_total == want.dim_total == 2**24
    for field in ("eps", "gam", "mult", "nS", "npair", "pair"):
        assert np.array_equal(getattr(got, field), getattr(want, field), equal_nan=True)


GATHER_POINTS = {
    "desk-mu0": ModelParams(alpha=0.36, g=1.73),
    "desk-muS": ModelParams(alpha=0.36, g=1.73, muS=0.2),
    "desk-muQb": ModelParams(alpha=0.36, g=1.73, muQb=0.1),
    "omega8-muS-muQb": ModelParams(alpha=0.36, g=1.73, muS=0.2, muQb=0.1,
                                   Omega=8.0, Omega1=3, Omega2=3),
}


@pytest.mark.parametrize("key", sorted(GATHER_POINTS))
def test_gather_fold_equals_the_per_group_fold(key):
    # the fold plan's one gather against a fold of the shapes' slices
    # group by group, bit for bit, with dim_total the same exact int
    p = GATHER_POINTS[key]
    got = thermal_table(p)
    want = fold_rows(plan_fold_rows(p, p.muS != 0.0))
    assert got.dim_total == want.dim_total and type(got.dim_total) is int
    for field in ("eps", "gam", "mult", "nS", "npair", "pair"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
    plan = fold_plan(p)
    fold = plan.fold(p.muS != 0.0)
    assert all(not a.flags.writeable for a in fold[:4])
    # every row lies in its own group's shape
    shapes = np.array([si for si, _, _ in (plan.by_n if p.muS != 0.0 else plan.by_shape)])
    assert np.array_equal(plan.slot_shape[fold.slots], shapes[fold.group])
    if p.muS == 0.0:
        assert np.array_equal(fold.slots, np.arange(len(plan.slot_nqb)))


def test_batched_tables_equal_single_point_tables():
    # one thermal_tables batch folds each point by its own muS: per shape,
    # or per (shape, N)
    points = [
        ModelParams(alpha=0.36, g=1.73),
        ModelParams(alpha=1.0, g=1.73, muS=0.2),
        ModelParams(alpha=0.24, g=1.73, muQb=0.1),
    ]
    for q, got in zip(points, thermal_tables(points)):
        want = thermal_table(q)
        assert got.dim_total == want.dim_total
        for field in ("eps", "gam", "mult", "nS", "npair", "pair"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()


def test_threads_missing_together_enumerate_blocks_once(monkeypatch):
    # the workers of a parallel sweep all start on a cold process
    import sys
    import threading

    from pseudotherm import blocks, model, thermo

    calls = []
    enumerate_blocks = model.enumerate_blocks

    def counted(*args):
        calls.append(args)
        return enumerate_blocks(*args)

    monkeypatch.setattr(model, "enumerate_blocks", counted)
    points = [ModelParams(alpha=0.3 + 0.02 * i, g=1.73) for i in range(4)]
    blocks._enumerate_blocks.cache_clear()
    model._build_fold_plan.cache_clear()
    results = [None] * len(points)

    def solve(i):
        results[i] = (points[i].blocks(), thermo.thermal_table.__wrapped__(points[i]))

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
    # one lookup per thread, one more for the one fold plan
    assert calls == [(4.0, 2, 2)] * (len(points) + 1)
    assert blocks._enumerate_blocks.cache_info().misses == 1
    assert model._build_fold_plan.cache_info().misses == 1
    for p, (labels, table) in zip(points, results):
        assert labels is results[0][0]
        assert np.array_equal(table.eps, thermal_table(p).eps)


def test_vectorized_fold_equals_row_by_row_fold(desk_broken):
    # a fold with one group per block, gathered from the shapes' slots,
    # against the per-group fold of each block alone
    from pseudotherm.spectral import block_eigen_data

    plan = fold_plan(desk_broken)
    lo, hi = np.array(plan.bounds).T[:, plan.shape_index]
    k = hi - lo
    fold = Fold(
        slots=np.concatenate([np.arange(a, b) for a, b in zip(lo, hi)]),
        mult=np.repeat([float(b.mult) for b in plan.blocks], k),
        n=np.repeat([float(b.nv.N) for b in plan.blocks], k),
        group=np.repeat(np.arange(len(k)), k),
        dim_total=sum(b.mult * n for b, n in zip(plan.blocks, k.tolist())),
    )
    table = table_from_spectra(*block_eigen_data(desk_broken), fold)
    block_rows = [(b.mult, b.nv.N, w, nqb) for b, (w, nqb) in per_block_spectra(desk_broken)]
    rows = [fold_rows([row]) for row in block_rows]
    assert table.dim_total == sum(r.dim_total for r in rows) == 2**24
    for field in ("eps", "gam", "mult", "nS", "npair", "pair"):
        want = np.concatenate([getattr(r, field) for r in rows])
        assert np.array_equal(getattr(table, field), want)


def test_fold_rejects_unpaired_complex_value():
    real = np.array([1.0 + 0j, 2.0 + 0j])
    unpaired = np.array([1.0 + 0.5j, 2.0 + 0j])
    fold = Fold(
        slots=np.arange(4), mult=np.array([1.0, 1.0, 2.0, 2.0]),
        n=np.array([3.0, 3.0, 7.0, 7.0]), group=np.array([0, 0, 1, 1]), dim_total=6,
    )
    with pytest.raises(AssertionError, match="N=7"):
        table_from_spectra(np.concatenate([real, unpaired]), np.full(4, np.nan), fold)


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


# ------------------------------------------------- per-moment reference sums
# The formula every thermal sum used before the one-pass kernel: each
# moment is its own signed-log sum, with its own amplitudes, logs, shift
# and exponentials, and a mean is exp(ln|num| - ln|Z|).


def reference_sum(table, beta, coef_re, coef_im, eps_eff):
    """Signed-log of sum_n mult_n * factor_n * (c_re cos(beta gamma_n) +
    c_im sin(beta gamma_n)) * exp(-beta eps_n), factor 2 on pair rows."""
    x = beta * table.gam
    amp = np.where(table.pair, 2.0, 1.0) * (coef_re * np.cos(x) + coef_im * np.sin(x))
    with np.errstate(divide="ignore"):
        log_mag = np.log(table.mult) + np.log(np.abs(amp)) - beta * eps_eff
    return signed_logsumexp(log_mag, np.sign(amp))


def reference_ratio(num, den):
    if den.sign == 0:
        return math.nan
    if num.sign == 0:
        return 0.0
    return num.sign * den.sign * math.exp(num.log_abs - den.log_abs)


def reference_potentials(p, t, table):
    """(ln|Z|, sign, F, U, S, Cv, valid, z_nonpositive) from per-moment sums."""
    from pseudotherm.thermo import CANCEL_FLOOR, Z_FLOOR_LOG, _eps_eff

    beta = 1.0 / t
    eps_eff = _eps_eff(table, p.muS, p.muQb)
    m0 = reference_sum(table, beta, 1.0, 0.0, eps_eff)
    if (
        m0.sign == 0
        or m0.log_abs < Z_FLOOR_LOG
        or (m0.log_abs - m0.log_abs_sum) < math.log(CANCEL_FLOOR)
    ):
        nan = math.nan
        return m0.log_abs, m0.sign, nan, nan, nan, nan, False, m0.sign <= 0
    u_eff = reference_ratio(reference_sum(table, beta, eps_eff, table.gam, eps_eff), m0)
    mu_term = 0.0
    if p.muS != 0.0:
        mu_term += p.muS * reference_ratio(reference_sum(table, beta, table.nS, 0.0, eps_eff), m0)
    if p.muQb != 0.0:
        mu_term += p.muQb * reference_ratio(
            reference_sum(table, beta, table.npair, 0.0, eps_eff), m0
        )
    e_re = table.eps if (p.muS != 0.0 or p.muQb != 0.0) else eps_eff
    u = u_eff + mu_term
    f = -t * m0.log_abs + mu_term
    ee_re = e_re * eps_eff - table.gam * table.gam
    ee_im = table.gam * (e_re + eps_eff)
    ee = reference_ratio(reference_sum(table, beta, ee_re, ee_im, eps_eff), m0)
    e_bare = reference_ratio(reference_sum(table, beta, e_re, table.gam, eps_eff), m0)
    cv = beta * beta * (ee - e_bare * u_eff)
    return m0.log_abs, m0.sign, f, u, (u - f) / t, cv, True, m0.sign < 0


def reference_biorthogonal_mean(table, coef, beta, eps_eff):
    """None where |Z| <= CANCEL_FLOOR * sum_n mult_n |e^{-beta E_n}|."""
    from pseudotherm.thermo import CANCEL_FLOOR

    z = reference_sum(table, beta, 1.0, 0.0, eps_eff)
    modulus = signed_logsumexp(np.log(table.mult) - beta * eps_eff, np.ones(len(table)))
    if z.sign == 0 or z.log_abs - modulus.log_abs <= math.log(CANCEL_FLOOR):
        return None
    re = reference_ratio(reference_sum(table, beta, coef.real, coef.imag, eps_eff), z)
    im = reference_ratio(reference_sum(table, beta, coef.imag, -coef.real, eps_eff), z)
    return complex(re, im)


def biorthogonal_mean(table, coef, beta, eps_eff):
    """The biorthogonal mean of one temperature from thermo's batch, as a
    complex number; None where Z counts as zero."""
    from pseudotherm.thermo import _biorthogonal_means

    (re, im), = _biorthogonal_means(table, coef, [beta], eps_eff, imag=True).tolist()
    return None if math.isnan(re) else complex(re, im)


REFERENCE_GRID = np.geomspace(0.05, 15.0, 80)


def assert_matches_reference(p, t, table):
    """The kernel's potentials against the per-moment reference.

    Flags and the sign of Z are identical.  Each value agrees within 1e-14
    (ln|Z|, F) or 1e-12 (U, S, Cv) of its scale, times 10^c where c is the
    number of digits Z loses to cancellation: the reference takes each mean
    as exp(ln|num| - ln|Z|), with a relative error of about |ln Z| * 2e-16
    (<= 1.2e-13 on this grid), and near a zero of Z both sides lose c
    digits.  Scales: max(1, |x|) for ln|Z|, F and U; max(1, |U|, |F|)/T
    for S = (U - F)/T; max(1, U^2)/T^2 for Cv = (<E Etilde> - <E><Etilde>)/T^2.
    """
    got = potentials(p, t, table=table)
    ln_z, sign, f, u, s, cv, valid, z_nonpositive = reference_potentials(p, t, table)
    assert (got.z_sign, got.valid, got.z_nonpositive) == (sign, valid, z_nonpositive)
    digits = 10.0 ** log_partition(table, 1.0 / t, p.muS, p.muQb).cancellation
    assert abs(got.ln_abs_z - ln_z) <= 1e-14 * max(1.0, abs(ln_z)) * digits
    if not valid:
        return
    assert abs(got.F - f) <= 1e-14 * max(1.0, abs(f)) * digits
    assert abs(got.U - u) <= 1e-12 * max(1.0, abs(u)) * digits
    assert abs(got.S - s) <= 1e-12 * max(1.0, abs(u), abs(f)) / t * digits
    assert abs(got.Cv - cv) <= 1e-12 * max(1.0, u * u) / t**2 * digits


@pytest.mark.parametrize(
    "p",
    [
        ModelParams(),
        ModelParams(alpha=0.36, g=1.73),
        ModelParams(alpha=0.36, g=1.73, muS=0.2, muQb=0.1),
    ],
    ids=["desk", "desk_broken", "muS-muQb"],
)
def test_potentials_match_per_moment_reference(p):
    table = thermal_table(p)
    for t in REFERENCE_GRID:
        assert_matches_reference(p, float(t), table)


@pytest.mark.parametrize(
    "entries",
    [[(1.0, 0.7, 1)], [(-1.0, 0.0, 1), (1.0, 0.0, 1)], [(0.0, 0.5, 1), (1.0, 0.0, 3)]],
    ids=["pair", "two-level", "pair-and-level"],
)
def test_toy_potentials_match_per_moment_reference(entries):
    table = toy_table(entries)
    for t in REFERENCE_GRID:
        assert_matches_reference(ModelParams(), float(t), table)


def test_flags_match_reference_beside_every_zero(desk_broken):
    table = thermal_table(desk_broken)
    zeros = find_zeros(desk_broken, np.geomspace(0.02, 0.5, 200))
    assert len(zeros) >= 10
    for z in zeros:
        for t in (z.T_zero * (1 - 1e-6), z.T_zero * (1 + 1e-6)):
            assert_matches_reference(desk_broken, t, table)


def test_biorthogonal_mean_vanishes_where_reference_does(desk_broken):
    # zeros bisected to 1e-15 put T within a few ulps of a zero, where
    # |Z| drops below CANCEL_FLOOR times the modulus sum
    from pseudotherm.thermo import _vector_table

    table, coef, _ = _vector_table(desk_broken, gap_operator)
    zeros = find_zeros(desk_broken, np.geomspace(0.02, 0.5, 200), rtol=1e-15)
    vanished = 0
    for t in [t for z in zeros for t in (z.T_zero, *z.bracket)]:
        got = biorthogonal_mean(table, coef, 1.0 / t, table.eps)
        want = reference_biorthogonal_mean(table, coef, 1.0 / t, table.eps)
        assert (got is None) == (want is None)
        vanished += got is None
    assert vanished >= 10
    for t in REFERENCE_GRID:
        got = biorthogonal_mean(table, coef, 1.0 / t, table.eps)
        want = reference_biorthogonal_mean(table, coef, 1.0 / t, table.eps)
        digits = 10.0 ** log_partition(table, 1.0 / t).cancellation
        assert abs(got - want) <= 1e-12 * abs(want) * digits
    # one conjugate pair, one row per eigenvalue: Z vanishes at beta*gamma = pi/2
    pair = SpectrumTable(
        eps=np.array([1.0, 1.0]), gam=np.array([0.5, -0.5]), mult=np.ones(2),
        nS=np.zeros(2), npair=np.zeros(2), pair=np.zeros(2, dtype=bool), dim_total=2,
    )
    one = np.ones(2, dtype=complex)
    beta_zero = math.pi / (2.0 * 0.5)
    assert biorthogonal_mean(pair, one, beta_zero, pair.eps) is None
    assert reference_biorthogonal_mean(pair, one, beta_zero, pair.eps) is None
    got = biorthogonal_mean(pair, one, 0.5 * beta_zero, pair.eps)
    assert got == pytest.approx(reference_biorthogonal_mean(pair, one, 0.5 * beta_zero, pair.eps))


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
    # every sign is the exact one, near zeros of Z too
    from pseudotherm.thermo import z_signs_on_grid

    table = thermal_table(p)
    grid = np.geomspace(2e-3, 2.0, 400)
    fast = z_signs_on_grid(table, grid, p.muS, p.muQb)
    assert np.sum(fast[:-1] != fast[1:]) >= 50
    for t, s in zip(grid, fast):
        assert s == log_partition(table, 1.0 / t, p.muS, p.muQb).sign


def test_signs_near_zeros_fall_back_to_the_exact_sum(monkeypatch):
    # bisecting to adjacent floats brings temperatures within rounding
    # distance of a zero, where the float sum cannot settle the sign: those
    # go to the moments kernel, and every sign equals the exact one
    from pseudotherm import thermo

    p = ModelParams(alpha=0.242, g=1.73)
    table = thermal_table(p)
    grid = np.geomspace(0.02, 0.5, 200)
    seen, scanned, exact = [], [], []
    signs, scan, moments = thermo.z_signs_on_grid, thermo._scan_signs, thermo._moments

    def recorded(table, t_values, mu_s=0.0, mu_qb=0.0):
        t_values = list(t_values)
        got = signs(table, t_values, mu_s, mu_qb)
        seen.extend(zip(t_values, got.tolist()))
        return got

    # the bisection takes its signs from the scan without the certificate
    def scanned_signs(table, betas, eps_eff):
        got = scan(table, betas, eps_eff)
        scanned.extend(zip(betas.tolist(), got.tolist()))
        return got

    def counted(items, z_minus_one=False):
        items = list(items)
        exact.extend(beta for _, beta in items)
        return moments(items, z_minus_one)

    monkeypatch.setattr(thermo, "z_signs_on_grid", recorded)
    monkeypatch.setattr(thermo, "_scan_signs", scanned_signs)
    monkeypatch.setattr(thermo, "_moments", counted)
    zeros = find_zeros(p, grid, rtol=0.0)
    monkeypatch.undo()
    assert len(zeros) >= 10 and exact and len(scanned) > len(seen)
    assert all(s == log_partition(table, 1.0 / t).sign for t, s in seen)
    assert all(s == log_partition(table, beta).sign for beta, s in scanned)


def test_z_signs_resolve_a_cancellation_the_float_sum_misses():
    # at T = 1 the terms are e^-46, 1 and 2 * 0.5 * cos(pi) = -1: summed in
    # row order in float64 they give 0, the exact sum gives e^-46 > 0
    from pseudotherm.thermo import z_signs_on_grid

    table = toy_table([(46.0, 0.0, 1), (0.0, 0.0, 1), (0.0, math.pi, 0.5)])
    assert log_partition(table, 1.0).sign == 1
    assert z_signs_on_grid(table, [1.0]).tolist() == [1]


def test_zero_finders_read_chemical_potentials_from_the_point():
    # a table given beside the point stands for thermal_table(p): muS and
    # muQb still come from p, so T_c and the zeros are those of p alone
    p = ModelParams(alpha=0.24, g=1.73, muS=0.2, muQb=0.1)
    table = thermal_table(p)
    t_c = critical_temperature(p, table=table)
    assert t_c == critical_temperature(p) > 0.0
    assert t_c != critical_temperature(p.with_(muS=0.0, muQb=0.0))
    grid = np.geomspace(0.02, 0.5, 60)
    assert find_zeros(p, grid, table=table) == find_zeros(p, grid)
    assert max(z.T_zero for z in find_zeros(p, grid, table=table)) == pytest.approx(
        t_c, rel=1e-7
    )


def test_zero_bisection_stops_where_the_midpoint_meets_an_end(desk_broken):
    # rtol = 0 once spun forever on a bracket of two adjacent floats
    grid = np.geomspace(0.02, 0.5, 200)
    coarse = find_zeros(desk_broken, grid)
    exact = find_zeros(desk_broken, grid, rtol=0.0)
    assert len(exact) == len(coarse) >= 10
    for z, c in zip(exact, coarse):
        assert z.bracket[0] <= z.T_zero <= z.bracket[1]
        assert abs(z.T_zero - c.T_zero) <= 1e-8 * c.T_zero


def test_find_zeros_validates_grid(desk):
    with pytest.raises(ValueError):
        find_zeros(desk, [0.5])
    with pytest.raises(ValueError):
        find_zeros(desk, [-1.0, 0.5])


# ------------------------------------------------------- z > 0 certificate


def reference_z_signs(table, t_values, muS=0.0, muQb=0.0):
    """The float64 sign scan over every temperature, with no certificate:
    the signs z_signs_on_grid must reproduce bit for bit."""
    from pseudotherm.thermo import _eps_eff

    betas = 1.0 / np.asarray(list(t_values), dtype=float)
    eps_eff = _eps_eff(table, muS, muQb)
    factor = np.where(table.pair, 2.0, 1.0)
    log_base = np.log(table.mult) + np.log(factor)
    trig = np.flatnonzero(table.gam != 0.0)
    buf = np.multiply.outer(betas, eps_eff)
    np.subtract(log_base, buf, out=buf)
    amp = factor[trig] * np.cos(np.multiply.outer(betas, table.gam[trig]))
    with np.errstate(divide="ignore"):
        buf[:, trig] = (
            np.log(table.mult[trig]) + np.log(np.abs(amp))
        ) - np.multiply.outer(betas, eps_eff[trig])
    buf -= np.max(buf, axis=1, keepdims=True)
    np.exp(buf, out=buf)
    buf[:, trig] *= np.sign(amp)
    return np.sign(np.sum(buf, axis=1)).astype(int)


_CERT_GRID = np.geomspace(2e-3, 2.0, 200)
CERT_GRIDS = {
    "geom": _CERT_GRID,
    "midpoints": 0.5 * (_CERT_GRID[:-1] + _CERT_GRID[1:]),
    "linear": np.linspace(0.05, 15.0, 300),
}
CERT_POINTS = {
    **{
        f"a{alpha}-g{g}": ModelParams(alpha=alpha, g=g)
        for alpha in (0.006, 0.246, 0.486, 0.966, 1.206)
        for g in (1.0, 1.73)
    },
    "a0.24-mu": ModelParams(alpha=0.24, g=1.73, muS=0.2, muQb=0.1),
    "hermitian": ModelParams(alpha=1.0, g=1.73),
}
# the lowest row is a pair, so only Q = 0 can pass a temperature
PAIR_GROUND_TOY = [(0.0, 0.8, 1), (0.3, 0.0, 2), (0.5, 2.5, 3), (1.2, 0.0, 6)]


def cert_table(key):
    if key == "pair-ground-toy":
        return toy_table(PAIR_GROUND_TOY), 0.0, 0.0
    p = CERT_POINTS[key]
    return thermal_table(p), p.muS, p.muQb


@pytest.mark.parametrize("grid", list(CERT_GRIDS))
@pytest.mark.parametrize("key", [*CERT_POINTS, "pair-ground-toy"])
def test_z_signs_equal_unpruned_scan(key, grid):
    from pseudotherm.thermo import z_signs_on_grid

    table, mu_s, mu_qb = cert_table(key)
    got = z_signs_on_grid(table, CERT_GRIDS[grid], mu_s, mu_qb)
    want = reference_z_signs(table, CERT_GRIDS[grid], mu_s, mu_qb)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def certified(table, t_values, mu_s=0.0, mu_qb=0.0):
    from pseudotherm.thermo import _certified_positive, _eps_eff

    t = np.asarray(t_values, dtype=float)
    return _certified_positive(table, 1.0 / t, _eps_eff(table, mu_s, mu_qb))


@pytest.mark.parametrize("key", list(CERT_POINTS))
def test_certificate_passes_only_where_exact_z_is_positive(key):
    table, mu_s, mu_qb = cert_table(key)
    t = np.concatenate(list(CERT_GRIDS.values()))
    ok = certified(table, t, mu_s, mu_qb)
    assert all(log_partition(table, 1 / x, mu_s, mu_qb).sign == 1 for x in t[ok])


def test_certificate_covers_real_ground_levels():
    # the tc-map points whose ground level is real are passed on most of the
    # grid, and a table without complex rows on all of it
    from pseudotherm.spectral import ground_state_info

    for key in CERT_POINTS:
        table, mu_s, mu_qb = cert_table(key)
        share = certified(table, _CERT_GRID, mu_s, mu_qb).mean()
        if not np.any(table.pair):
            assert share == 1.0, key
        elif not ground_state_info(table).is_complex:
            assert share >= 0.7, key


@pytest.mark.parametrize("offset", [-0.4, 0.0, 0.05, 0.6])
def test_certificate_on_pair_and_level_toys(offset):
    # a level of multiplicity g0 = 4 at 0 and a pair of multiplicity m at
    # offset, 2m/g0 from 0.4 to 3: wherever the certificate passes, exact
    # Z > 0, and it passes while the pair's cosine is still positive
    gamma, g0 = 1.3, 4
    t = np.geomspace(0.01, 20.0, 300)
    for ratio in np.linspace(0.4, 3.0, 14):
        table = toy_table([(0.0, 0.0, g0), (offset, gamma, ratio * g0 / 2.0)])
        ok = certified(table, t)
        assert all(log_partition(table, 1 / x, 0.0, 0.0).sign == 1 for x in t[ok]), ratio
        assert np.all(ok[gamma / t < 0.5 * math.pi]), ratio
        if offset > 0.0 and ratio < 0.5:
            # 2m exp(-beta*offset) < g0/2: the level outweighs the pair twice over
            assert np.all(ok)


def test_z_signs_refuse_nonpositive_temperatures(desk):
    from pseudotherm.thermo import z_signs_on_grid

    table = thermal_table(desk)
    for bad in ([0.0, 0.5], [-0.1, 0.5], [math.nan, 0.5]):
        with pytest.raises(ValueError):
            z_signs_on_grid(table, bad)
    assert len(z_signs_on_grid(table, [])) == 0


# where 1/T or beta*E overflows, the kernel's terms are NaN and Z is not finite
UNDERFLOW_TEMPERATURES = {"subnormal-t": 1e-320, "beta-e-overflows": 1e-308}


@pytest.mark.parametrize("t", UNDERFLOW_TEMPERATURES.values(), ids=UNDERFLOW_TEMPERATURES)
def test_z_signs_refuse_temperatures_where_z_is_not_finite(desk_broken, t):
    from pseudotherm.thermo import z_signs_on_grid

    with pytest.raises(ValueError, match="beta\\*E is finite"):
        z_signs_on_grid(thermal_table(desk_broken), [0.5, t])


@pytest.mark.parametrize("t", UNDERFLOW_TEMPERATURES.values(), ids=UNDERFLOW_TEMPERATURES)
def test_potentials_where_z_is_not_finite_are_invalid(desk_broken, t):
    with np.errstate(all="ignore"):
        pt = potentials(desk_broken, t)
    assert (pt.valid, pt.z_sign) == (False, 0)
    assert all(math.isnan(x) for x in (pt.ln_abs_z, pt.F, pt.U, pt.S, pt.Cv))


# where beta*max|gamma| passes PHASE_LIMIT, cos(beta*gamma) has no correct
# digit: the complex rows of desk_broken reach |gamma| 2.61, and these points
# once read valid with S 1.8e21, 3.3e100 and -1.4e300
UNRESOLVED_PHASE_TEMPERATURES = {"t-1e-20": 1e-20, "t-1e-100": 1e-100, "t-1e-300": 1e-300}


@pytest.mark.parametrize(
    "t", UNRESOLVED_PHASE_TEMPERATURES.values(), ids=UNRESOLVED_PHASE_TEMPERATURES
)
def test_potentials_where_the_phase_is_unresolved_are_invalid(desk_broken, t):
    pt = potentials(desk_broken, t)
    assert not pt.valid
    assert all(math.isnan(x) for x in (pt.F, pt.U, pt.S, pt.Cv))


def test_potentials_without_complex_rows_have_no_phase_limit():
    p = ModelParams(alpha=1.0, g=1.73)
    assert not np.any(thermal_table(p).gam)
    assert potentials(p, 1e-100).valid


def test_z_signs_refuse_temperatures_where_the_phase_is_unresolved(desk_broken):
    from pseudotherm.thermo import PHASE_LIMIT, z_signs_on_grid

    table = thermal_table(desk_broken)
    edge = float(np.max(np.abs(table.gam))) / PHASE_LIMIT   # beta*max|gamma| = PHASE_LIMIT
    assert len(z_signs_on_grid(table, [0.5, 1.01 * edge])) == 2
    with pytest.raises(ValueError, match="phase beta\\*gamma is resolved"):
        z_signs_on_grid(table, [0.5, 0.99 * edge])


@pytest.mark.parametrize(
    "kwargs",
    [{"t_max": TC_T_MIN}, {"t_max": -1.0}, {"t_max": 1e-3}, {"t_max": 0.0},
     {"t_max": math.inf}, {"steps": 1}],
    ids=["max-at-min", "negative-max", "max-below-min", "zero-max", "infinite-max",
         "one-step"],
)
def test_critical_temperature_validates_range(kwargs):
    with pytest.raises(ValueError):
        critical_temperature(ModelParams(alpha=0.246, g=1.73), **kwargs)


def full_grid_critical_temperature(p, table, t_max=2.0, steps=200, max_doublings=4):
    """critical_temperature as it was before the top-down scan: every
    doubling rescans the whole grid, and the loop stops when the doubled
    grid's highest bracket does not lie below the last one."""
    from pseudotherm.thermo import _brackets, _doubled, _refine_bracket, z_signs_on_grid

    grid = np.geomspace(TC_T_MIN, t_max, steps)
    signs = z_signs_on_grid(table, grid, p.muS, p.muQb)

    def top_bracket():
        found = _brackets(grid, signs)
        return found[-1] if found else None

    top = top_bracket()
    for _ in range(max_doublings):
        grid, signs = _doubled(table, grid, signs, p.muS, p.muQb)
        denser = top_bracket()
        if top is None and denser is None:
            return 0.0
        if top is not None and denser is not None and denser[0] >= top[0]:
            top = denser
            break
        top = denser
    if top is None:
        return 0.0
    t_lo, t_hi, s_lo = top
    if s_lo == 0:
        return t_lo
    return _refine_bracket(table, t_lo, t_hi, s_lo, p.muS, p.muQb, 1e-8).T_zero


# zeros below T = 2 at g 1.73 for alpha 0.2-0.36 and at g 2.5 for alpha
# 0.02-0.242; none at g 1.0.  t_max 0.16 puts alpha 0.242's T_c, 0.15699,
# on the last pair of the grid, and 7 steps leave brackets to the doublings.
TC_POINTS = [
    ModelParams(alpha=a, g=g) for g in (1.0, 1.73, 2.5) for a in (0.02, 0.2, 0.242, 0.36, 1.2)
] + [ModelParams(alpha=0.24, g=1.73, muS=0.2, muQb=0.1)]
TC_SCANS = {
    "default": {},
    "top-pair": {"t_max": 0.16},
    "coarse": {"steps": 7},
    "coarse-one-doubling": {"steps": 7, "max_doublings": 1},
    "no-doubling": {"max_doublings": 0},
}


@pytest.mark.parametrize("chunk_temps", [None, 1, 3])
@pytest.mark.parametrize("scan", list(TC_SCANS))
def test_top_down_critical_temperature_equals_full_grid_scan(monkeypatch, scan, chunk_temps):
    # each sign depends on its own temperature alone, so scanning from the
    # top down, in chunks of any size, returns the full scan's T_c bit for bit
    from pseudotherm import thermo

    tables = thermal_tables(TC_POINTS)
    kwargs = TC_SCANS[scan]
    want = [full_grid_critical_temperature(p, tb, **kwargs) for p, tb in zip(TC_POINTS, tables)]
    if chunk_temps is not None:
        monkeypatch.setattr(thermo, "SCAN_ELEMENTS", chunk_temps * max(map(len, tables)))
    got = [critical_temperature(p, table=tb, **kwargs) for p, tb in zip(TC_POINTS, tables)]
    assert [(x, type(x)) for x in got] == [(x, type(x)) for x in want]
    if scan == "default":
        assert sum(x > 0 for x in want) == 7 and sum(x == 0 for x in want) == 9


def test_top_down_scan_stops_at_the_highest_bracket(monkeypatch):
    # at alpha 0.242, g 1.73, where the certificate passes nowhere, only the
    # temperatures above the top bracket's chunk, the midpoints at or above
    # its low end and the bisection's are scanned
    from pseudotherm import thermo

    p = ModelParams(alpha=0.242, g=1.73)
    table = thermal_table(p)
    want = full_grid_critical_temperature(p, table)
    scanned = []
    scan = thermo._scan_signs

    def counted(table, betas, eps_eff):
        scanned.extend(betas.tolist())
        return scan(table, betas, eps_eff)

    monkeypatch.setattr(thermo, "_scan_signs", counted)
    tc = critical_temperature(p, table=table)
    assert tc == want
    # the coarse grid down to the chunk that completes the top bracket,
    # then the midpoints above its low end: 162 of the full scan's 399
    chunk = thermo._scan_chunk(table)
    grid = np.geomspace(thermo.TC_T_MIN, 2.0, 200)
    lowest = grid[200 - chunk * math.ceil(np.count_nonzero(grid > tc) / chunk)]
    assert max(scanned) == 1.0 / lowest
    assert len(set(scanned)) == len(scanned) < 200


# T x rows of one chunk is at most SCAN_ELEMENTS = 2^15 elements, 256 KiB of
# float64; the scan's weights and the phase, cosine and gathered copy of its
# complex rows, or the certificate's weights, are each at most that, and
# four such arrays bound a chunk.  Unchunked, the 200 coarse temperatures at
# this point's 1462 rows take 2.2 MiB per array.
SCAN_PEAK_BYTES = 4 * 2**15 * 8


def test_critical_temperature_stays_within_the_scan_budget():
    import tracemalloc

    p = ModelParams(alpha=0.242, g=1.73)
    table = thermal_table(p)
    critical_temperature(p, table=table)   # warm-up, outside the trace
    tracemalloc.start()
    try:
        critical_temperature(p, table=table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < SCAN_PEAK_BYTES, f"peak {peak / 2**20:.2f} MiB"


def per_chunk_critical_temperature(p, table, t_max=2.0, steps=200, max_doublings=4):
    """critical_temperature before its whole-grid certificate: the coarse
    grid scanned from the top down, one chunk per z_signs_on_grid call (each
    running the certificate on its own temperatures), and the top bracket
    bisected on the signs of z_signs_on_grid."""
    from pseudotherm.roots import bisect
    from pseudotherm.thermo import _brackets, _doubled, _scan_chunk, z_signs_on_grid

    mu = (p.muS, p.muQb)
    grid = np.geomspace(TC_T_MIN, t_max, steps)
    signs = np.empty(len(grid), dtype=int)
    top, hi = None, len(grid)
    while hi > 0 and top is None:
        lo = max(0, hi - _scan_chunk(table))
        signs[lo:hi] = z_signs_on_grid(table, grid[lo:hi], *mu)
        found = _brackets(grid[lo : hi + 1], signs[lo : hi + 1])
        if found:
            top, grid, signs = found[-1], grid[lo:], signs[lo:]
        hi = lo
    doublings = max_doublings
    if top is None:
        if not doublings:
            return 0.0
        grid, signs = _doubled(table, grid, signs, *mu)
        found = _brackets(grid, signs)
        if not found:
            return 0.0
        top, doublings = found[-1], doublings - 1
    if doublings:
        k = int(np.searchsorted(grid, top[0]))
        grid, signs = _doubled(table, grid[k:], signs[k:], *mu)
        top = _brackets(grid, signs)[-1]
    t_lo, t_hi, s_lo = top
    if s_lo == 0:
        return t_lo

    def side(points):
        return dict(zip(points, (z_signs_on_grid(table, points.values(), *mu) * s_lo).tolist()))

    return bisect({0: (t_lo, t_hi)}, side, rtol=1e-8)[0][0]


# TC_POINTS, a zero-free point without complex rows and one at nonzero mu
WHOLE_GRID_POINTS = TC_POINTS + [
    ModelParams(alpha=1.0, g=1.73), ModelParams(alpha=0.7, g=1.73, muS=0.2, muQb=0.1)
]


def _certificate(kind):
    """_certified_positive as it is, passing nowhere, or passing on every
    other temperature only (each sound: they only narrow where it passes)."""
    from pseudotherm.thermo import _certified_positive

    if kind == "nowhere":
        return lambda table, betas, eps_eff: np.zeros(len(betas), dtype=bool)
    if kind == "every-other":
        return lambda table, betas, eps_eff: (
            _certified_positive(table, betas, eps_eff) & (np.arange(len(betas)) % 2 == 0)
        )
    return _certified_positive


@pytest.mark.parametrize("certificate", ["as-is", "nowhere", "every-other"])
@pytest.mark.parametrize("scan", ["default", "coarse", "no-doubling"])
def test_whole_grid_certificate_equals_the_per_chunk_scan(monkeypatch, scan, certificate):
    # the certificate runs once per table and settles zero-free points; the
    # T_c of every point equals that of the per-chunk scan, bit for bit
    from pseudotherm import thermo

    tables = thermal_tables(WHOLE_GRID_POINTS)
    assert not np.any(tables[-2].gam) and np.any(tables[-1].gam)
    kwargs = TC_SCANS[scan]
    monkeypatch.setattr(thermo, "_certified_positive", _certificate(certificate))
    want = [
        per_chunk_critical_temperature(p, tb, **kwargs) for p, tb in zip(WHOLE_GRID_POINTS, tables)
    ]
    got = [critical_temperature(p, table=tb, **kwargs) for p, tb in zip(WHOLE_GRID_POINTS, tables)]
    assert [(x, type(x)) for x in got] == [(x, type(x)) for x in want]
    if scan == "default":
        assert sum(x > 0 for x in want) == 7 and sum(x == 0 for x in want) == 11


def test_zero_free_points_are_settled_without_a_scan(monkeypatch):
    # where the certificate passes on the whole grid and its midpoints, T_c
    # is 0 and no sign is scanned; a point with a zero is left open
    from pseudotherm import thermo
    from pseudotherm.thermo import zero_free_on_grid

    def refuse(*args):
        raise AssertionError("scanned a zero-free point")

    zero_free = [ModelParams(alpha=1.0, g=1.73), ModelParams(alpha=0.486, g=1.73),
                 ModelParams(alpha=0.7, g=1.73, muS=0.2, muQb=0.1)]
    tables = thermal_tables(zero_free)
    assert all(np.any(tb.gam) for tb in tables[1:])
    monkeypatch.setattr(thermo, "_scan_signs", refuse)
    monkeypatch.setattr(thermo, "z_signs_on_grid", refuse)
    for p, tb in zip(zero_free, tables):
        assert zero_free_on_grid(p, table=tb)
        assert critical_temperature(p, table=tb) == 0.0
    monkeypatch.undo()
    broken = ModelParams(alpha=0.36, g=1.73)
    assert not zero_free_on_grid(broken)
    assert critical_temperature(broken) > 0.0


def test_a_zero_between_certified_grid_points_is_found():
    # a level at 0 and a pair of multiplicity 20 at 2.4 (gamma 2.4): Z < 0
    # around T 1 only, between the grid points 2e-3 and 2, where the
    # certificate passes; it leaves their midpoint open, so the one doubling
    # finds the zero
    from pseudotherm import thermo

    table = toy_table([(0.0, 0.0, 1), (2.4, 2.4, 20)])
    p = ModelParams()
    grid = np.geomspace(thermo.TC_T_MIN, 2.0, 2)
    assert certified(table, grid).tolist() == [True, True]
    assert not certified(table, [grid.mean()])[0]
    assert not thermo.zero_free_on_grid(p, steps=2, table=table)
    tc = critical_temperature(p, steps=2, table=table)
    assert tc == per_chunk_critical_temperature(p, table, steps=2) > 1.0


@pytest.mark.parametrize("rtol", [1e-8, 0.0])
def test_find_zeros_equals_the_bisection_on_grid_signs(monkeypatch, rtol):
    # a bisection takes its signs from the scan alone, without the
    # certificate, and finds the zero records of the bisection on the signs
    # of z_signs_on_grid, equal under ==
    from pseudotherm import thermo
    from pseudotherm.roots import bisect

    def refine_on_grid_signs(table, t_lo, t_hi, s_lo, mu_s, mu_qb, rtol):
        def side(points):
            signs = thermo.z_signs_on_grid(table, points.values(), mu_s, mu_qb)
            return dict(zip(points, (signs * s_lo).tolist()))

        t_zero, lo, hi = bisect({0: (t_lo, t_hi)}, side, rtol=rtol)[0]
        return thermo.ZeroRecord(t_zero, (lo, hi))

    grid = np.geomspace(0.05, 0.5, 30)
    points = [ModelParams(alpha=0.242, g=1.73), ModelParams(alpha=0.24, g=1.73, muS=0.2, muQb=0.1)]
    got = [find_zeros(p, grid, rtol=rtol) for p in points]
    monkeypatch.setattr(thermo, "_refine_bracket", refine_on_grid_signs)
    want = [find_zeros(p, grid, rtol=rtol) for p in points]
    assert [len(zeros) for zeros in want] == [20, 12]
    assert got == want


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


@pytest.mark.parametrize("mu_s, mu_qb", [(0.2, 0.0), (0.0, 0.3), (0.2, 0.1)])
def test_fd_cross_checks_with_chemical_potentials(desk, mu_s, mu_qb):
    p = desk.with_(alpha=0.8, muS=mu_s, muQb=mu_qb)
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
    out = thermal_expectation(lambda b: gap_operator(b), desk, 1.1)
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


def test_expectation_raises_at_partition_zero(desk_broken):
    # zeros bisected to 1e-15 put T within a few ulps of a zero of Z, where
    # the biorthogonal mean is undefined
    from pseudotherm.thermo import _vector_table

    table, coef, _ = _vector_table(desk_broken, gap_operator)
    zeros = find_zeros(desk_broken, np.geomspace(0.02, 0.5, 200), rtol=1e-15)
    t_zero = next(
        t
        for z in zeros
        for t in (z.T_zero, *z.bracket)
        if biorthogonal_mean(table, coef, 1.0 / t, table.eps) is None
    )
    with pytest.raises(ZeroPartitionError):
        thermal_expectation(gap_operator, desk_broken, t_zero)


def per_block_spectra_with_vectors(p, op) -> list:
    """(block, per_sector_vector_spectrum of the block) for every block of
    p, in block order; blocks with equal spins share one solve."""
    solved = {}
    out = []
    for b in p.blocks():
        spins = (b.qb.s1, b.qb.s2, b.nv.S)
        if spins not in solved:
            solved[spins] = per_sector_vector_spectrum(p, b, op)
        out.append((b, solved[spins]))
    return out


def per_block_vector_table(p, op):
    """Every block as its own row set: one row per eigenvalue with the
    block's multiplicity and N, and the coefficients <L_n|O|R_n> of the
    block from per-sector solves: the fold-free reference."""
    blocks, spectra = zip(*per_block_spectra_with_vectors(p, op))
    sizes = [len(w) for w, _, _, _ in spectra]
    w = np.concatenate([w for w, _, _, _ in spectra])
    table = SpectrumTable(
        eps=w.real,
        gam=w.imag,
        mult=np.repeat([float(b.mult) for b in blocks], sizes),
        nS=np.repeat([float(b.nv.N) for b in blocks], sizes),
        npair=np.concatenate([nqb for _, nqb, _, _ in spectra]),
        pair=np.zeros(len(w), dtype=bool),
        dim_total=sum(b.mult * k for b, k in zip(blocks, sizes)),
    )
    return table, np.concatenate([coef for _, _, coef, _ in spectra])


FOLD_POINTS = {
    "mu0": ModelParams(alpha=0.36, g=1.73),
    "muS-muQb": ModelParams(alpha=0.36, g=1.73, muS=0.2, muQb=0.1),
}
OPERATORS = {"collective": gap_operator, "dense": dense_operator}


@pytest.mark.parametrize("operator", sorted(OPERATORS))
@pytest.mark.parametrize("key", sorted(FOLD_POINTS))
def test_vector_averages_match_per_block_reference(key, operator):
    # gap_curve and thermal_expectation fold blocks by the fold plan; the
    # per-block row sets summed by the per-moment reference must agree
    # within 1e-12 relative, times 10^(digits Z loses to cancellation).
    # The dense operator couples the sectors, which the stacked solve
    # never reads: its coefficients need only the sector blocks of O.
    from pseudotherm.thermo import _eps_eff

    p = FOLD_POINTS[key]
    op = OPERATORS[operator]
    table, coef = per_block_vector_table(p, op)
    assert table.dim_total == 2**24
    eps_eff = _eps_eff(table, p.muS, p.muQb)
    folded = thermal_table(p)

    def reference(t):
        want = reference_biorthogonal_mean(table, coef, 1.0 / t, eps_eff)
        digits = 10.0 ** log_partition(folded, 1.0 / t, p.muS, p.muQb).cancellation
        return want, 1e-12 * abs(want) * digits

    if op is gap_operator:
        t_gap = np.geomspace(0.2, 15.0, 30)
        for t, gap in zip(t_gap, gap_curve(p, t_gap)):
            want, tol = reference(t)
            assert abs((2.0 * gap / p.G) ** 2 - want.real) <= tol
    for t in (0.2, 0.7, 3.0):
        out = thermal_expectation(op, p, t)
        want, tol = reference(t)
        assert abs(out.value - want.real) <= tol
        assert abs(out.imag_residue - abs(want.imag)) <= tol


@pytest.mark.parametrize("alpha, count", [(0.36, 560), (1.0, 0)])
def test_defective_blocks_are_the_per_block_keys(monkeypatch, alpha, count):
    # with the tolerance at 1, every level of phase rigidity below 1 counts;
    # the keys reported through the fold plan are those of every block that
    # per-sector solves flag
    from pseudotherm import spectral

    monkeypatch.setattr(spectral, "DEFECT_TOL", 1.0)
    p = ModelParams(alpha=alpha, g=1.73)
    want = tuple(
        b.key()
        for b, (_, _, _, flags) in per_block_spectra_with_vectors(p, gap_operator)
        if np.any(flags)
    )
    got = thermal_expectation(gap_operator, p, 1.0).defective_blocks
    assert got == want
    assert len(got) == count


# ------------------------------------------------------------------------ gap


@pytest.mark.parametrize("t_values", [[-0.5, 1.0], [0.0], [-1.0], [math.nan, 1.0]])
def test_gap_refuses_non_positive_temperatures(desk_broken, t_values):
    with pytest.raises(ValueError, match="positive"):
        gap_curve(desk_broken, t_values)
    with pytest.raises(ValueError, match="positive"):
        pairing_gap(desk_broken, t_values[0])


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


def test_gap_is_nan_where_the_correlator_is_negative():
    # at alpha 0.24 the biorthogonal pair correlator dips far below zero at a
    # few low temperatures, where |Z| is still 4-19% of the sum of moduli:
    # Delta is NaN exactly there, and one warning counts them
    from pseudotherm.thermo import _vector_table

    p = ModelParams(alpha=0.24, g=1.73)
    t_values = np.linspace(0.05, 0.3, 200)
    table, coef, _ = _vector_table(p, gap_operator)
    means = [biorthogonal_mean(table, coef, 1.0 / t, table.eps) for t in t_values]
    negative = [m is not None and m.real < -1e-8 for m in means]
    assert sum(negative) == 7 and min(m.real for m in means if m is not None) < -0.4
    first = t_values[negative.index(True)]
    with pytest.warns(UserWarning, match=f"at 7 of 200 .* first at T={first:.6g}"):
        gaps = gap_curve(p, t_values)
    for gap, mean, neg in zip(gaps, means, negative):
        assert math.isnan(gap) == (mean is None or neg)
        if not math.isnan(gap):
            assert gap == 0.5 * p.G * math.sqrt(max(0.0, mean.real))


def test_gap_collapse_at_low_temperature():
    from pseudotherm.model import G0_REFERENCE, pair_coupling_factor

    values = []
    for npair in (2, 3, 4):
        gr = G0_REFERENCE * pair_coupling_factor(npair)
        p = ModelParams(G=gr, g=0.0, alpha=1.0, Omega=0.5, Omega1=npair, Omega2=npair)
        values.append(pairing_gap(p, 0.05))
    spread = (max(values) - min(values)) / min(values)
    assert spread < 0.05


def mp_reference(mp, table, t, mu_qb):
    """(S, C_V) of a table at temperature t, summed with 60 digits."""
    with mp.workdps(60):
        beta = 1 / mp.mpf(t)
        z = u = e = ee = mp.mpf(0)
        for eps, gam, mult, npair, pair in zip(
            table.eps, table.gam, table.mult, table.npair, table.pair
        ):
            eps, gam = mp.mpf(eps), mp.mpf(gam)
            eps_eff = eps - mp.mpf(mu_qb) * mp.mpf(npair)
            amp = mp.mpf(mult) * (2 if pair else 1) * mp.exp(-beta * eps_eff)
            c, s = mp.cos(beta * gam), mp.sin(beta * gam)
            z += amp * c
            u += amp * (eps_eff * c + gam * s)
            e += amp * (eps * c + gam * s)
            ee += amp * ((eps * eps_eff - gam * gam) * c + gam * (eps + eps_eff) * s)
        s_ref = float(mp.log(abs(z)) + beta * u / z)
        cv_ref = float(beta**2 * (ee / z - (e / z) * (u / z)))
    return s_ref, cv_ref


@pytest.mark.parametrize("mu_qb", [0.0, 0.3])
def test_entropy_and_heat_capacity_far_below_the_gap(mu_qb):
    # at T = 0.05, S ~ 4e-15 and C_V ~ 1e-13 sit far below the rounding of
    # the ground energy (~ -15 GHz, beta*E0 ~ -300); the reference sums the
    # same table with 60 digits
    mp = pytest.importorskip("mpmath")
    p = ModelParams(alpha=0.8, g=1.73, muQb=mu_qb)
    t = 0.05
    table = thermal_table(p)
    s_ref, cv_ref = mp_reference(mp, table, t, mu_qb)
    pt = potentials(p, t, table=table)
    assert pt.valid and 1e-15 < s_ref < 1e-14 and 1e-14 < cv_ref < 1e-12
    assert abs(pt.S - s_ref) <= 1e-15
    assert abs(pt.Cv - cv_ref) <= 1e-15


@pytest.mark.parametrize("t", [0.03, 0.05, 0.1])
@pytest.mark.parametrize("mu_qb", [0.0, 0.3])
def test_entropy_keeps_its_relative_digits_far_below_the_gap(mu_qb, t):
    # Z scaled by its top term is 1 + x with x down to ~1e-40 here; ln Z
    # must come from x itself, not from the rounded 1 + x
    mp = pytest.importorskip("mpmath")
    p = ModelParams(alpha=0.8, g=1.73, muQb=mu_qb)
    table = thermal_table(p)
    s_ref, _ = mp_reference(mp, table, t, mu_qb)
    pt = potentials(p, t, table=table)
    assert pt.valid and s_ref > 0.0
    assert abs(pt.S - s_ref) <= 1e-13 * s_ref
