"""Model parameters, per-block Hamiltonian assembly, and rescaling.

The Hamiltonian has three contributions: a two-level pairing register
(level energies eps1, eps2 and pair scattering strength G), a collective
ensemble spin with axial splitting D and a quadrupole-like strain term E,
and an asymmetric coupling g * (Sz1 + Sz2) * (alpha * S+ + S-) between
them.  For alpha != 1 the matrix is real but non-symmetric; alpha = 1 is
the symmetric (Hermitian) limit.

Energies are in GHz with k_B = 1, so temperatures are in GHz too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import algebra
from .blocks import BlockLabel, enumerate_blocks
from .errors import SolverFailure

__all__ = [
    "ModelParams",
    "RescaledParams",
    "build_block_hamiltonian",
    "qubit_sz_diagonal",
    "pair_number_diagonal",
    "gap_operator",
    "rescale",
    "rescaled_params",
    "pair_coupling_factor",
    "solve_gap_t0",
    "fit_rescaling",
    "G0_REFERENCE",
]

# Reference coupling and fit constants of the pair-register rescaling scheme
# f(Np) = FIT_A / (2 Np + FIT_B), G0 = 3.006 GHz.
G0_REFERENCE = 3.006
FIT_A = 2.7289
FIT_B = 0.73029
# Holds every (s1, s2, S) shape of the sizes in use (81 at Omega = 4,
# Omega1 = 2; 272 at Omega = 8, Omega1 = 3; 525 at Omega = 10, Omega1 = 4),
# so a parameter sweep reassembles from cached operators at every point.
SHAPE_CACHE_SIZE = 1024


@dataclass(frozen=True)
class ModelParams:
    """All Hamiltonian constants, chemical potentials and register sizes (GHz).

    coupling_z selects the register z-operator entering the asymmetric
    coupling: "difference" (Sz2 - Sz1, the population-imbalance quasispin
    conjugate to the level splitting; default) or "total" (Sz1 + Sz2).
    Only the difference reading leaves the ground state real for couplings
    below the pair-scattering strength, as the physics requires.
    """

    D: float = 2.878
    E: float = 0.26
    G: float = 1.73
    g: float = 1.73
    alpha: float = 1.0
    eps1: float = -1.0
    eps2: float = 1.0
    muS: float = 0.0
    muQb: float = 0.0
    Omega: float = 4.0
    Omega1: int = 2
    Omega2: int = 2
    coupling_z: str = "difference"

    def __post_init__(self):
        for name in ("D", "E", "G", "g", "alpha", "eps1", "eps2", "muS", "muQb"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if self.D < 0 or self.G < 0 or self.alpha < 0:
            raise ValueError("D, G and alpha must be non-negative")
        algebra.require_half_integer(self.Omega, "Omega")
        if self.Omega1 < 1 or self.Omega2 < 1:
            raise ValueError("Omega1 and Omega2 must be positive integers")
        if self.coupling_z not in ("difference", "total"):
            raise ValueError("coupling_z must be 'difference' or 'total'")

    def with_(self, **kw) -> "ModelParams":
        return replace(self, **kw)

    def blocks(self) -> tuple[BlockLabel, ...]:
        return enumerate_blocks(self.Omega, self.Omega1, self.Omega2)

    @property
    def nv_count(self) -> int:
        """Nominal ensemble size N_S = 2*Omega."""
        return round(2 * self.Omega)

    @property
    def pair_count(self) -> int:
        """Nominal pair number N_p = Omega1."""
        return self.Omega1

    @property
    def total_log2_dim(self) -> int:
        return round(4 * self.Omega) + 2 * (self.Omega1 + self.Omega2)


@dataclass(frozen=True)
class RescaledParams:
    """Size-rescaled couplings and reduced temperature."""

    Gr: float
    gr: float
    Er: float
    Tr: float
    Delta0: float


@lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _shape_operators(two_s1: int, two_s2: int, two_S: int) -> dict:
    """Embedded operator combinations for one (s1, s2, S) shape.

    Blocks with equal spins share these read-only matrices; assembly then
    reduces to scaled sums.
    """
    s1, s2, s_nv = two_s1 / 2.0, two_s2 / 2.0, two_S / 2.0
    ops1 = algebra.spin_operators(s1)
    ops2 = algebra.spin_operators(s2)
    ops_nv = algebra.spin_operators(s_nv)
    i1, i2, inv = algebra.identity(s1), algebra.identity(s2), algebra.identity(s_nv)

    z1 = algebra.embed3(ops1["Sz"], i2, inv)
    z2 = algebra.embed3(i1, ops2["Sz"], inv)
    p_qb = algebra.embed3(ops1["Splus"], i2, inv) + algebra.embed3(i1, ops2["Splus"], inv)
    z_nv = algebra.embed3(i1, i2, ops_nv["Sz"])
    p_nv = algebra.embed3(i1, i2, ops_nv["Splus"])
    m_nv = p_nv.T
    ztot = z1 + z2
    zdiff = z2 - z1
    out = {
        "z1": z1,
        "z2": z2,
        "pair_scatter": p_qb @ p_qb.T,
        "zz_nv": z_nv @ z_nv,
        "strain": p_nv @ p_nv + m_nv @ m_nv,
        "couple_plus_difference": zdiff @ p_nv,
        "couple_minus_difference": zdiff @ m_nv,
        "couple_plus_total": ztot @ p_nv,
        "couple_minus_total": ztot @ m_nv,
        "ztot_diag": np.diag(ztot).copy(),
    }
    for a in out.values():
        a.setflags(write=False)
    return out


def _shape_of(b: BlockLabel) -> tuple:
    return (round(2 * b.qb.s1), round(2 * b.qb.s2), round(2 * b.nv.S))


def build_block_hamiltonian(p: ModelParams, b: BlockLabel) -> np.ndarray:
    """Real Hamiltonian matrix on the (2s1+1)(2s2+1)(2S+1) product space.

    H = eps1*Sz1 + eps2*Sz2 - G*(S+1 + S+2)(S-1 + S-2)
        + D*Sz_nv^2 + (E/2)*(S+nv^2 + S-nv^2)
        + g*s_z*(alpha*S+nv + S-nv)

    with s_z the register z-operator selected by p.coupling_z.  The strain
    term is assembled in its real ladder form so the matrix stays real; it
    is symmetric exactly at alpha = 1.
    """
    ops = _shape_operators(*_shape_of(b))
    h = p.eps1 * ops["z1"] + p.eps2 * ops["z2"]
    h -= p.G * ops["pair_scatter"]
    h += p.D * ops["zz_nv"]
    h += 0.5 * p.E * ops["strain"]
    h += p.g * (
        p.alpha * ops[f"couple_plus_{p.coupling_z}"]
        + ops[f"couple_minus_{p.coupling_z}"]
    )
    return h


def qubit_sz_diagonal(b: BlockLabel) -> np.ndarray:
    """Diagonal of Sz1 + Sz2 in the product basis (conserved by every term)."""
    return _shape_operators(*_shape_of(b))["ztot_diag"]


def pair_number_diagonal(p: ModelParams, b: BlockLabel) -> np.ndarray:
    """Pair-count diagonal N_qb = Sz1 + Sz2 + (Omega1 + Omega2)/2."""
    return qubit_sz_diagonal(b) + 0.5 * (p.Omega1 + p.Omega2)


def gap_operator(b: BlockLabel, operator: str = "collective") -> np.ndarray:
    """Blockwise pair-correlation operator entering the gap estimate.

    "collective": S+ S- with S+- summed over the two levels (default; the
    BCS-like reading).  "diagonal": the pair-number form
    Sz1 + Sz2 + (s1 + s2), i.e. pairs counted from the quasispin floor of
    the block.
    """
    ops = _shape_operators(*_shape_of(b))
    if operator == "collective":
        return ops["pair_scatter"]
    if operator == "diagonal":
        return np.diag(ops["ztot_diag"] + (b.qb.s1 + b.qb.s2))
    raise ValueError(f"unknown gap operator {operator!r} (use collective|diagonal)")


def pair_coupling_factor(np_pairs: int) -> float:
    """Fitted size factor f(Np) = 2.7289 / (2 Np + 0.73029)."""
    return FIT_A / (2.0 * np_pairs + FIT_B)


def rescale(
    p: ModelParams, np_pairs: int, ns: int, t: float, delta0: float | None = None
) -> RescaledParams:
    """Dimension-agnostic parameter scheme.

    Gr = G0 * f(Np), gr = g / sqrt(Ns), Er = E / Ns, Tr = T / Delta0 with
    Delta0 = D unless overridden.
    """
    if np_pairs < 1 or ns < 1:
        raise ValueError("Np and Ns must be at least 1")
    d0 = p.D if delta0 is None else delta0
    if d0 <= 0:
        raise ValueError("Delta0 must be positive")
    return RescaledParams(
        Gr=G0_REFERENCE * pair_coupling_factor(np_pairs),
        gr=p.g / math.sqrt(ns),
        Er=p.E / ns,
        Tr=t / d0,
        Delta0=d0,
    )


def rescaled_params(p: ModelParams, np_pairs: int, ns: int) -> ModelParams:
    """ModelParams for a system of ns ensemble spins and np_pairs pairs,
    with the rescaled couplings substituted in."""
    r = rescale(p, np_pairs, ns, 0.0)
    if ns % 2:
        raise ValueError("ns must be even (Omega = ns / 2 sublevels per level)")
    return p.with_(
        G=r.Gr, g=r.gr, E=r.Er, Omega=ns / 2.0, Omega1=np_pairs, Omega2=np_pairs
    )


def solve_gap_t0(g_const: float, levels, rtol: float = 1e-10) -> float:
    """Zero-temperature mean-field gap from 1 = G sum_k 1/(2 E_k),
    E_k = sqrt(Delta^2 + eps_k^2).

    Bracketing plus bisection to relative tolerance rtol; returns 0 when the
    coupling is below critical (no positive solution).
    """
    if g_const <= 0:
        raise ValueError("G must be positive")
    eps = np.asarray(list(levels), dtype=float)
    if eps.size == 0:
        raise ValueError("level list must be non-empty")

    def f(delta: float) -> float:
        return g_const * np.sum(0.5 / np.sqrt(delta * delta + eps * eps)) - 1.0

    # f is strictly decreasing in delta; f(0+) = +inf if any eps vanishes
    if np.all(np.abs(eps) > 0) and f(0.0) <= 0.0:
        return 0.0
    hi = 0.5 * g_const * eps.size + np.max(np.abs(eps)) + 1.0
    while f(hi) > 0.0:
        hi *= 2.0
        if hi > 1e12:
            raise SolverFailure("gap equation bracket expansion failed")
    lo = 0.0
    while hi - lo > rtol * max(hi, 1e-30):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class RescaleFit:
    """Result of fitting f(Np) = a / (2 Np + b) to per-size critical couplings."""

    a: float
    b: float
    np_values: tuple
    g_values: tuple
    residuals: tuple

    def factor(self, np_pairs: int) -> float:
        return self.a / (2.0 * np_pairs + self.b)


def fit_rescaling(
    np_list,
    g0: float = G0_REFERENCE,
    target: float | None = None,
    t_low: float = 0.02,
    gap_kind: str = "collective",
) -> RescaleFit:
    """Fit the pair-register size factor f(Np) = a / (2 Np + b).

    For each Np the coupling G is solved (bisection) such that the model's
    low-temperature pairing gap, evaluated through the exact thermal
    machinery at temperature t_low with the ensemble decoupled (g = 0),
    equals `target`.  G/g0 is then least-squares fitted against
    1/(2 Np + b).  With target=None the gap attained at G = g0 * f(Np) for
    the smallest Np is used, which makes the fit a pure shape test.
    """
    from scipy.optimize import least_squares

    from .thermo import pairing_gap

    np_values = sorted(set(int(n) for n in np_list))
    if not np_values:
        raise ValueError("np_list must be non-empty")

    def gap_at(g_pair: float, n_pairs: int) -> float:
        # ensemble factor cancels exactly in the thermal ratio; keep it minimal
        p = ModelParams(
            G=g_pair, g=0.0, alpha=1.0, Omega=0.5, Omega1=n_pairs, Omega2=n_pairs
        )
        return pairing_gap(p, t_low, operator=gap_kind)

    if target is None:
        target = gap_at(g0 * pair_coupling_factor(np_values[0]), np_values[0])
    if target <= 0:
        raise ValueError("target gap must be positive")

    g_stars = []
    for n_pairs in np_values:
        lo, hi = 1e-6, 4.0 * target
        while gap_at(hi, n_pairs) < target:
            hi *= 2.0
            if hi > 1e6:
                raise SolverFailure(f"gap target unreachable for Np={n_pairs}")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if gap_at(mid, n_pairs) < target:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-10 * hi:
                break
        else:
            raise SolverFailure(f"gap inversion did not converge for Np={n_pairs}")
        g_stars.append(0.5 * (lo + hi))

    f_data = np.array(g_stars) / g0
    nps = np.array(np_values, dtype=float)

    if len(np_values) == 1:
        # exact interpolation through the single point with the reference shape
        b = FIT_B
        a = f_data[0] * (2.0 * nps[0] + b)
        resid = (0.0,)
    else:
        def model(ab):
            return ab[0] / (2.0 * nps + ab[1]) - f_data

        sol = least_squares(model, x0=[FIT_A, FIT_B])
        if not sol.success:
            raise SolverFailure("least-squares fit of f(Np) failed")
        a, b = sol.x
        resid = tuple(float(r) for r in model(sol.x))

    return RescaleFit(
        a=float(a),
        b=float(b),
        np_values=tuple(np_values),
        g_values=tuple(float(v) for v in g_stars),
        residuals=tuple(resid),
    )
