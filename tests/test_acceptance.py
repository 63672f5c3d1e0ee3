"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here, not deferred; shared heavy artifacts
(spectra, critical-temperature maps, cycle grids) live in module fixtures.
"""

import math

import numpy as np
import pytest

from conftest import subsystem_partition_product
from pseudotherm import ModelParams
from pseudotherm.blocks import enumerate_blocks, total_dimension
from pseudotherm.cycles import efficiency_grid
from pseudotherm.model import G0_REFERENCE, pair_coupling_factor
from pseudotherm.oracle import (
    block_union_spectrum,
    fock_partition,
    fock_spectrum,
    hermitian_reference,
)
from pseudotherm.spectral import (
    block_eigen_data,
    find_eps,
    first_eps_about_unity,
    ground_state_info,
)
from pseudotherm.stability import (
    compute_isotherm,
    heterogeneous_free_energy,
    spinodal_analysis,
)
from pseudotherm.thermo import (
    critical_temperature,
    gap_curve,
    partition_function,
    potentials,
    potentials_fd,
    thermal_table,
)

DESK = ModelParams()  # N_S = 8, N_p = 2, working constants


def report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status}  [{detail}]")
    assert ok, f"criterion {num} ({name}): {detail}"


# ------------------------------------------------------------------ 1


def test_criterion_01_completeness():
    import time

    t0 = time.time()
    ok = True
    details = []
    for (omega, o1, o2) in [(0.5, 1, 1), (1.0, 1, 1), (2.0, 2, 2), (4.0, 2, 2)]:
        total = total_dimension(enumerate_blocks(omega, o1, o2))
        want = 2 ** (round(4 * omega) + 2 * (o1 + o2))
        ok &= total == want
        details.append(f"{total}=={want}")
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    report(1, "completeness identity", ok, f"{'; '.join(details)}; {elapsed:.2f}s")


# ------------------------------------------------------------------ 2


def test_criterion_02_oracle_equivalence():
    import time

    t0 = time.time()
    worst_spec = 0.0
    worst_z = 0.0
    for (alpha, g) in [(1.0, 1.0), (0.4, 1.73)]:
        p = ModelParams(Omega=0.5, Omega1=1, Omega2=1, alpha=alpha, g=g)
        w = fock_spectrum(p)
        worst_spec = max(worst_spec, float(np.max(np.abs(w - block_union_spectrum(p)))))
        table = thermal_table(p)
        for beta in (0.1, 1.0, 5.0, 20.0):
            zf = fock_partition(w, beta)
            zb = partition_function(table, beta)
            worst_z = max(worst_z, abs(zf - zb) / abs(zf))
    elapsed = time.time() - t0
    ok = worst_spec <= 1e-8 and worst_z <= 1e-8 and elapsed < 30.0
    report(
        2,
        "oracle equivalence",
        ok,
        f"spectrum {worst_spec:.2e}, Z {worst_z:.2e}, {elapsed:.1f}s",
    )


# ------------------------------------------------------------------ 3


def test_criterion_03_hermitian_limit():
    p = DESK.with_(alpha=1.0)
    w, _ = block_eigen_data(p)
    max_im = float(np.max(np.abs(w.imag)))
    worst = 0.0
    for t in (0.4, 1.3, 6.0, 5.0 * p.D):
        pt = potentials(p, t)
        ref = hermitian_reference(p, t)
        for a, b in ((pt.F, ref["F"]), (pt.U, ref["U"]), (pt.S, ref["S"]),
                     (pt.Cv, ref["Cv"])):
            worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
    ok = max_im <= 1e-9 and worst <= 1e-10
    report(3, "hermitian limit", ok, f"max|Im E| {max_im:.2e}, potentials {worst:.2e}")


# ------------------------------------------------------------------ 4


def test_criterion_04_decoupling_factorization():
    p = DESK.with_(g=0.0)
    table = thermal_table(p)
    worst = 0.0
    for beta in np.linspace(0.05, 4.0, 20):
        z = partition_function(table, float(beta))
        z_fact = subsystem_partition_product(p, float(beta))
        worst = max(worst, abs(z - z_fact) / abs(z_fact))
    ok = worst <= 1e-10
    report(4, "decoupling factorization", ok, f"worst rel {worst:.2e} over 20 betas")


# ------------------------------------------------------------------ 5


def test_criterion_05_high_temperature_asymptote():
    s_max = 24.0 * math.log(2.0)
    pt = potentials(DESK, 5.0 * DESK.D)
    s_dev = abs(pt.S - s_max) / s_max
    f4 = potentials(DESK, 4.0 * DESK.D).F
    f5 = potentials(DESK, 5.0 * DESK.D).F
    slope = (f5 - f4) / (DESK.D)
    slope_dev = abs(slope + s_max) / s_max
    ok = s_dev <= 0.01 and slope_dev <= 0.01
    report(
        5,
        "high-T asymptote",
        ok,
        f"S(Tr=5) dev {s_dev:.3%}, F-slope dev {slope_dev:.3%} vs 24ln2",
    )


# ------------------------------------------------------------------ 6


@pytest.fixture(scope="module")
def alpha_grid_6():
    grid = np.linspace(0.0, 1.2, 100)
    return np.unique(np.append(grid, 0.36))


def test_criterion_06_zero_structure(alpha_grid_6):
    t_c_weak = []
    for a in alpha_grid_6:
        p = ModelParams(alpha=float(a), g=1.0)
        t_c_weak.append(critical_temperature(p, t_max=1.5, steps=120))
    weak_ok = max(t_c_weak) == 0.0

    window = []
    for a in alpha_grid_6:
        p = ModelParams(alpha=float(a), g=1.73)
        tc = critical_temperature(p, t_max=1.5, steps=120)
        window.append((float(a), tc))
    tc_036 = dict(window)[0.36]
    in_window = [a for a, tc in window if tc > 0.0]
    complex_ok = True
    for a in in_window:
        gs = ground_state_info(thermal_table(ModelParams(alpha=a, g=1.73)))
        complex_ok &= gs.gamma0 > 1e-3
    window_ok = tc_036 > 0.0 and len(in_window) >= 3 and complex_ok
    ok = weak_ok and window_ok
    report(
        6,
        "zero structure",
        ok,
        f"g=1: max T_c {max(t_c_weak):.2e}; g=1.73: T_c(0.36)={tc_036:.4f}, "
        f"window {min(in_window):.3f}..{max(in_window):.3f}, "
        f"complex ground throughout: {complex_ok}",
    )


# ------------------------------------------------------------------ 7


def test_criterion_07_ep_phenomenology():
    tab = first_eps_about_unity(DESK, np.linspace(0.8, 1.7, 10))
    spread_ok = tab.below_relative_spread < 0.10
    r2_ok = tab.above_r2 > 0.95
    ok = spread_ok and r2_ok
    report(
        7,
        "EP phenomenology",
        ok,
        f"below spread {tab.below_relative_spread:.3f} (<0.10: {spread_ok}), "
        f"above R2 {tab.above_r2:.3f} (>0.95: {r2_ok}), slope {tab.above_slope:.4f}",
    )


# ------------------------------------------------------------------ 8


def test_criterion_08_carnot_recovery():
    grid = efficiency_grid(
        DESK, "carnot", [0.4, 0.7, 1.0, 1.3], [3.0, 5.0, 7.0, 9.0],
        bracket=(0.02, 1.6),
    )
    clean = [c for c in grid.cells if c.feasible and not c.degenerate]
    devs = [abs(c.eta - c.eta_classical) for c in clean]
    # closure residuals re-checked on a few explicit cycles
    from pseudotherm.cycles import CycleSpec, cycle

    residuals = []
    for c in clean[:5]:
        res = cycle(DESK, CycleSpec(kind="carnot", T1=c.T1, T2=c.T2, x1=c.x1, x2=c.x2))
        residuals.append(max(res.energy_residual, res.entropy_residual))
    ok = len(clean) >= 20 and max(devs) <= 1e-3 and max(residuals) <= 1e-8
    report(
        8,
        "carnot recovery",
        ok,
        f"{len(clean)} clean cycles, max|eta-etaC| {max(devs):.2e}, "
        f"max closure {max(residuals):.2e}",
    )


# ------------------------------------------------------------------ 9


def test_criterion_09_stirling_enhancement():
    eps = find_eps(DESK, "alpha", 0.39, 0.5, 60, precision=1e-4)
    ep_star = min(eps, key=lambda e: e.re_coalesce)
    a_ep = round(ep_star.value, 4)

    alpha_values = sorted({0.2, 0.3, a_ep, 0.55, 0.7, 0.85, 1.0, 1.15})
    t_values = [0.1, 0.35, 0.8, 1.6, 3.0]
    grid = efficiency_grid(DESK, "stirling", t_values, alpha_values)
    clean = [c for c in grid.cells if c.feasible and not c.degenerate]

    # The maximum-efficiency claim is about cycles that begin at low
    # temperature: on the lowest-T1 slice, among cycles whose corners stay
    # outside the zero region (T above T_c at every corner alpha), the best
    # cell starts exactly at the lowest-Re exceptional point.
    tc_of = {
        a: critical_temperature(DESK.with_(alpha=float(a)), t_max=1.0, steps=120)
        for a in alpha_values
    }
    t1_min = min(t_values)
    slice_cells = [
        c
        for c in clean
        if c.T1 == t1_min and c.T1 > tc_of[c.x1] and c.T1 > tc_of[c.x2]
    ]
    best = max(slice_cells, key=lambda c: c.eta)
    cluster_ok = abs(best.x1 - a_ep) < 1e-6

    low_t = [c for c in clean if c.T1 <= 0.35]
    frac = float(np.mean([c.eta > c.eta_classical for c in low_t]))
    frac_ok = frac > 0.5
    ok = cluster_ok and frac_ok
    report(
        9,
        "stirling enhancement",
        ok,
        f"lowest-Re EP alpha={a_ep} (Re {ep_star.re_coalesce:.2f}); "
        f"argmax-eta on the T1={t1_min} outside-zero slice: alpha1={best.x1} "
        f"(eta {best.eta:.3f}); low-T1 fraction eta>etaS {frac:.3f} "
        f"over {len(low_t)} cells",
    )


# ------------------------------------------------------------------ 10


def test_criterion_10_rescaled_gap_collapse():
    d0 = DESK.D
    t_r = np.linspace(0.02, 0.75, 16)
    curves = {}
    for npair in (2, 3, 4):
        gr = G0_REFERENCE * pair_coupling_factor(npair)
        p = ModelParams(G=gr, g=0.0, alpha=1.0, Omega=0.5, Omega1=npair, Omega2=npair)
        curves[npair] = gap_curve(p, t_r * d0) / d0
    c = np.array([curves[n] for n in (2, 3, 4)])
    pairwise = float(np.max(np.abs(c[:, None, :] - c[None, :, :]) / c[None, :, :]))
    agree_ok = pairwise <= 0.05
    mono_ok = all(
        bool(np.all(np.diff(curves[n]) <= 1e-3 * curves[n][0])) for n in (2, 3, 4)
    )
    low_t_spread = float((c[:, 0].max() - c[:, 0].min()) / c[:, 0].min())
    ok = agree_ok and mono_ok
    report(
        10,
        "rescaled gap collapse",
        ok,
        f"pairwise dev {pairwise:.3f} (<=0.05: {agree_ok}); "
        f"T->0 spread {low_t_spread:.3f}; non-increasing: {mono_ok}",
    )


# ------------------------------------------------------------------ 11


def test_criterion_11_spinodal_region():
    alphas = np.linspace(0.2, 0.4, 201)
    iso = compute_isotherm(DESK, 0.05 * DESK.D, alphas)
    res = spinodal_analysis(iso)
    minima_ok = len(res.minima) >= 2 and res.minima_stable

    lever_ok = bool(res.spinodal)
    for (s_lo, s_hi) in res.spinodal:
        for a in np.linspace(s_lo, s_hi, 7):
            f_het = heterogeneous_free_energy(res, iso, float(a))
            f_hom = float(np.interp(a, iso.alphas, iso.F))
            lever_ok &= f_het <= f_hom + 1e-9 * max(abs(f_hom), 1.0)

    partition_ok = True
    for (b_lo, b_hi) in res.binodal:
        meta = [iv for iv in res.metastable if b_lo <= iv[0] and iv[1] <= b_hi]
        spin = [iv for iv in res.spinodal if b_lo < iv[0] and iv[1] < b_hi]
        pieces = sorted(meta + spin)
        partition_ok &= pieces[0][0] == b_lo and pieces[-1][1] == b_hi
        partition_ok &= all(
            a[1] == pytest.approx(b[0], abs=1e-12)
            for a, b in zip(pieces[:-1], pieces[1:])
        )

    iso_hi = compute_isotherm(DESK, 0.072 * DESK.D, alphas)
    res_hi = spinodal_analysis(iso_hi)
    merge_ok = len(res_hi.minima) <= 1 and res_hi.spinodal == ()

    ok = minima_ok and lever_ok and partition_ok and merge_ok
    report(
        11,
        "spinodal region",
        ok,
        f"T_r=0.05: {len(res.minima)} minima (stable {res.minima_stable}); "
        f"lever holds in unstable zones: {lever_ok}; partition: {partition_ok}; "
        f"T_r=0.072: {len(res_hi.minima)} minimum, spinodal empty: {merge_ok}",
    )


# ------------------------------------------------------------------ 12


def test_criterion_12_numerical_self_consistency():
    rng = np.random.default_rng(20260810)
    worst_leg = 0.0
    worst_u = 0.0
    worst_cv = 0.0
    checked = 0
    while checked < 50:
        t = float(rng.uniform(0.3, 5.0 * DESK.D))
        alpha = float(rng.uniform(0.0, 1.2))
        p = DESK.with_(alpha=alpha)
        pt = potentials(p, t)
        if not pt.valid:
            continue
        worst_leg = max(worst_leg, abs(pt.F - (pt.U - t * pt.S)) / max(abs(pt.F), 1.0))
        fd = potentials_fd(p, t)
        worst_u = max(worst_u, abs(pt.U - fd["U_fd"]) / max(abs(pt.U), 1e-6))
        worst_cv = max(worst_cv, abs(pt.Cv - fd["Cv_fd"]) / max(abs(pt.Cv), 1e-6))
        checked += 1
    ok = worst_leg <= 1e-6 and worst_u <= 1e-4 and worst_cv <= 1e-4
    report(
        12,
        "numerical self-consistency",
        ok,
        f"50 points: Legendre {worst_leg:.2e}, U fd {worst_u:.2e}, Cv fd {worst_cv:.2e}",
    )
