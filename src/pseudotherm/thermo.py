"""Exact grand partition function over blocks and everything derived from it.

Conjugate eigenvalue pairs eps +- i*gamma are folded into real Boltzmann
terms 2*exp(-beta*eps)*cos(beta*gamma), so Z is real by construction but
may vanish in the broken-symmetry phase.  All accumulations run in
signed-log form (log magnitude plus sign) with exact compensated summation
(math.fsum) after a common shift, which survives beta up to 1e3/GHz and
resolves the cancellations that produce zeros.

Thermal averages use the biorthogonal resolution sum_n |R_n><L_n| / <L_n|R_n>.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import model, spectral
from .errors import ZeroPartitionError
from .model import ModelParams, _shape_of, gap_operator

__all__ = [
    "SpectrumTable",
    "SignedLog",
    "signed_logsumexp",
    "thermal_table",
    "table_from_spectra",
    "partition_function",
    "log_partition",
    "dominant_split",
    "ZeroRecord",
    "find_zeros",
    "critical_temperature",
    "ThermoPoint",
    "potentials",
    "potentials_fd",
    "thermal_expectation",
    "ExpectationResult",
    "pairing_gap",
    "gap_curve",
]

Z_FLOOR_LOG = math.log(1e-300)   # absolute |Z| floor in signed-log form
CANCEL_FLOOR = 1e-14             # |sum| / sum|terms| below this: sign unreliable
TABLE_CACHE_SIZE = 128


@dataclass(frozen=True)
class SpectrumTable:
    """Flattened eigenvalue data for thermal sums.

    One row per real level or conjugate pair (the +i*gamma member) of each
    fold row; `pair` marks rows that stand for two eigenvalues and `mult`
    the summed multiplicity of the blocks behind them.  nS and npair carry
    the conserved-number labels used by the chemical-potential shifts; nS
    is NaN where the table was folded over N.
    """

    eps: np.ndarray
    gam: np.ndarray
    mult: np.ndarray
    nS: np.ndarray
    npair: np.ndarray
    pair: np.ndarray
    dim_total: int

    def __len__(self):
        return len(self.eps)


def table_from_spectra(rows, im_tol: float = spectral.IM_TOL) -> SpectrumTable:
    """Fold spectra into a table.

    Each row is (mult, N, eigenvalues, nqb): the exact integer multiplicity
    behind the eigenvalues, their ensemble-number label (None when the row
    spans several N), and their pair-number labels (None when unknown).
    """
    eps, gam, mult, ns, npair, pair = [], [], [], [], [], []
    dim_total = 0
    for m, n, w, nqb in rows:
        if nqb is None:
            nqb = np.full(len(w), np.nan)
        dim_total += m * len(w)
        thresh = im_tol * np.maximum(1.0, np.abs(w))
        is_real = np.abs(w.imag) <= thresh
        n_pos = int(np.sum(~is_real & (w.imag > 0)))
        n_neg = int(np.sum(~is_real & (w.imag < 0)))
        if n_pos != n_neg:
            raise AssertionError(f"conjugation symmetry violated in a row with N={n}")
        keep = is_real | (w.imag > thresh)
        kept = int(np.sum(keep))
        eps.append(w.real[keep])
        gam.append(np.where(is_real[keep], 0.0, w.imag[keep]))
        mult.append(np.full(kept, float(m)))
        ns.append(np.full(kept, np.nan if n is None else float(n)))
        npair.append(nqb[keep])
        pair.append(~is_real[keep])
    return SpectrumTable(
        eps=np.concatenate(eps),
        gam=np.concatenate(gam),
        mult=np.concatenate(mult),
        nS=np.concatenate(ns),
        npair=np.concatenate(npair),
        pair=np.concatenate(pair),
        dim_total=dim_total,
    )


def _block_rows(spectra):
    """Fold rows of per-block spectra: BlockSpectrum objects or
    (label, eigenvalues, nqb) triples as block_eigen_data gives them."""
    for item in spectra:
        if isinstance(item, spectral.BlockSpectrum):
            label, w, nqb = item.label, item.eigenvalues, item.nqb
        else:
            label, w, nqb = item
        yield label.mult, label.nv.N, w, nqb


@lru_cache(maxsize=32)
def _fold_plan(omega: float, omega1: int, omega2: int, split_n: bool) -> tuple:
    """One representative block per (s1, s2, S) shape, and the fold groups.

    Blocks of one shape share their spectrum, so they fold into one group
    (one per (shape, N) with split_n).  Groups are (representative index,
    N or None, exact summed multiplicity), in block order.
    """
    reps, groups = {}, {}
    for b in model.enumerate_blocks(omega, omega1, omega2):
        shape = _shape_of(b)
        reps.setdefault(shape, b)
        key = (shape, b.nv.N if split_n else None)
        groups[key] = groups.get(key, 0) + b.mult
    index = {shape: i for i, shape in enumerate(reps)}
    return tuple(reps.values()), tuple(
        (index[shape], n, m) for (shape, n), m in groups.items()
    )


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def thermal_table(p: ModelParams, im_tol: float = spectral.IM_TOL) -> SpectrumTable:
    """Cached spectrum table for a parameter point.

    Built from one eigensolve per (s1, s2, S) shape, with one fold row per
    shape, or per (shape, N) when p.muS != 0 so the muS shift stays exact.
    A table folded over N has NaN nS and refuses muS != 0.
    """
    reps, groups = _fold_plan(p.Omega, p.Omega1, p.Omega2, p.muS != 0.0)
    spectra = spectral.block_spectra(p, blocks=reps)
    return table_from_spectra(
        ((m, n, spectra[i].eigenvalues, spectra[i].nqb) for i, n, m in groups),
        im_tol=im_tol,
    )


def _as_table(spectra) -> SpectrumTable:
    if isinstance(spectra, SpectrumTable):
        return spectra
    if isinstance(spectra, ModelParams):
        return thermal_table(spectra)
    return table_from_spectra(_block_rows(spectra))


class SignedLog(NamedTuple):
    """A real number stored as (log|x|, sign); log_abs_sum tracks sum|terms|
    so catastrophic cancellation is detectable."""

    log_abs: float
    sign: int
    log_abs_sum: float = -math.inf

    def value(self) -> float:
        if self.sign == 0:
            return 0.0
        try:
            return self.sign * math.exp(self.log_abs)
        except OverflowError:
            return self.sign * math.inf

    @property
    def cancellation(self) -> float:
        """log10 of the magnitude lost to cancellation (0 = none)."""
        if self.sign == 0 or not math.isfinite(self.log_abs_sum):
            return math.inf if self.sign == 0 else 0.0
        return (self.log_abs_sum - self.log_abs) / math.log(10.0)


def signed_logsumexp(log_mag, sign) -> SignedLog:
    """Exact-compensated signed sum of terms given as (log|t|, sign(t))."""
    log_mag = np.asarray(log_mag, dtype=float)
    sign = np.asarray(sign, dtype=float)
    finite = np.isfinite(log_mag) & (sign != 0.0)
    if not np.any(finite):
        return SignedLog(-math.inf, 0, -math.inf)
    lm = log_mag[finite]
    sg = sign[finite]
    m = float(np.max(lm))
    scaled = np.exp(lm - m)
    total = math.fsum(scaled * sg)
    total_abs = math.fsum(scaled)
    log_abs_sum = m + math.log(total_abs)
    if total == 0.0:
        return SignedLog(-math.inf, 0, log_abs_sum)
    return SignedLog(m + math.log(abs(total)), 1 if total > 0 else -1, log_abs_sum)


def _weighted_sum(
    table: SpectrumTable,
    beta: float,
    coef_re,
    coef_im,
    eps_eff: np.ndarray,
) -> SignedLog:
    """Signed-log of sum_n mult_n * Re[c_n * exp(-beta * E_n)] over the table.

    c_n = coef_re + i*coef_im is the per-entry analytic weight; conjugate
    pairs contribute twice their real part, i.e. an amplitude
    2*(Re c * cos(beta*gamma) + Im c * sin(beta*gamma)).
    """
    x = beta * table.gam
    amp = np.where(table.pair, 2.0, 1.0) * (coef_re * np.cos(x) + coef_im * np.sin(x))
    with np.errstate(divide="ignore"):
        log_mag = np.log(table.mult) + np.log(np.abs(amp)) - beta * eps_eff
    return signed_logsumexp(log_mag, np.sign(amp))


def _labels(values: np.ndarray, what: str, mu: str) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} labels unavailable for {mu} != 0")
    return values


def _eps_eff(table: SpectrumTable, muS: float, muQb: float) -> np.ndarray:
    """Grand-canonical energies eps - muS*N - muQb*N_qb.

    Each term is applied only when its chemical potential is nonzero, so a
    table without N labels (NaN nS) serves every muS = 0 point.
    """
    if muS == 0.0 and muQb == 0.0:
        return table.eps
    shift = 0.0
    if muS != 0.0:
        shift = muS * _labels(table.nS, "ensemble-number", "muS")
    if muQb != 0.0:
        shift = shift + muQb * _labels(table.npair, "pair-number", "muQb")
    return table.eps - shift


def log_partition(
    spectra, beta: float, muS: float = 0.0, muQb: float = 0.0
) -> SignedLog:
    """Grand partition function in signed-log form (never overflows)."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    table = _as_table(spectra)
    return _weighted_sum(table, beta, 1.0, 0.0, _eps_eff(table, muS, muQb))


def partition_function(
    spectra, beta: float, muS: float = 0.0, muQb: float = 0.0
) -> float:
    """Z as a plain float; raises OverflowError when not representable."""
    z = log_partition(spectra, beta, muS, muQb)
    if z.sign != 0 and z.log_abs > 709.0:
        raise OverflowError(
            f"|ln Z| = {z.log_abs:.1f} exceeds float range; use log_partition"
        )
    return z.value()


def dominant_split(spectra, beta: float) -> tuple[float, float]:
    """(Z0, Z') with Z0 the ground-level term: g0*exp(-beta*E0) for a real
    ground state, 2*g0*exp(-beta*eps)*cos(beta*gamma) for a complex one."""
    table = _as_table(spectra)
    gs = spectral.ground_state_info(table)
    z = _weighted_sum(table, beta, 1.0, 0.0, table.eps)
    if gs.is_complex:
        amp = 2.0 * gs.g0 * math.cos(beta * gs.gamma0)
    else:
        amp = gs.g0
    if amp == 0.0:
        z0 = SignedLog(-math.inf, 0)
    else:
        z0 = SignedLog(math.log(abs(amp)) - beta * gs.eps0, 1 if amp > 0 else -1)
    zp = signed_logsumexp([z.log_abs, z0.log_abs], [z.sign, -z0.sign])
    return z0.value(), zp.value()


@dataclass(frozen=True)
class ZeroRecord:
    """One zero of Z(T), bracketed to relative precision."""

    T_zero: float
    bracket: tuple
    sign_pattern: tuple


def _z_sign(table: SpectrumTable, t: float, muS: float, muQb: float) -> int:
    return log_partition(table, 1.0 / t, muS, muQb).sign


def z_signs_on_grid(table: SpectrumTable, t_values, muS: float = 0.0, muQb: float = 0.0):
    """Vectorized sign of Z over a temperature grid (fast scan path).

    Uses a per-temperature max-shift and plain float64 summation, which
    resolves signs everywhere except within rounding distance of a zero;
    brackets found here are refined with the exact-summation evaluator.
    """
    betas = 1.0 / np.asarray(list(t_values), dtype=float)
    eps_eff = _eps_eff(table, muS, muQb)
    factor = np.where(table.pair, 2.0, 1.0)
    x = np.outer(betas, table.gam)
    amp = factor[None, :] * np.cos(x)
    with np.errstate(divide="ignore"):
        log_mag = np.log(table.mult)[None, :] + np.log(np.abs(amp)) - np.outer(betas, eps_eff)
    shift = np.max(log_mag, axis=1, keepdims=True)
    total = np.sum(np.sign(amp) * np.exp(log_mag - shift), axis=1)
    return np.sign(total).astype(int)


def _refine_bracket(table, t_lo, t_hi, s_lo, muS, muQb, rtol):
    lo, hi = t_lo, t_hi
    while hi - lo > rtol * hi:
        mid = 0.5 * (lo + hi)
        s_mid = _z_sign(table, mid, muS, muQb)
        if s_mid == 0:
            return ZeroRecord(mid, (lo, hi), (s_lo, -s_lo))
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
    return ZeroRecord(0.5 * (lo + hi), (lo, hi), (s_lo, -s_lo))


def _brackets(grid, signs):
    out = []
    for t_lo, t_hi, s_lo, s_hi in zip(grid[:-1], grid[1:], signs[:-1], signs[1:]):
        if s_lo == 0:
            out.append((t_lo, t_lo, 0))
        elif s_lo * s_hi < 0:
            out.append((t_lo, t_hi, s_lo))
    return out


def find_zeros(
    p: ModelParams,
    t_grid,
    rtol: float = 1e-8,
    max_doublings: int = 4,
) -> list[ZeroRecord]:
    """All sign changes of Z(T) over the grid, bisected to relative rtol.

    The grid is midpoint-doubled until the zero count stabilizes, then each
    bracket is refined; a warning recommends refinement if the count never
    settles.  An empty list means Z > 0 throughout.
    """
    table = _as_table(p)
    muS, muQb = (p.muS, p.muQb) if isinstance(p, ModelParams) else (0.0, 0.0)
    grid = np.asarray(sorted(t_grid), dtype=float)
    if len(grid) < 2 or grid[0] <= 0:
        raise ValueError("t_grid must hold at least two positive temperatures")
    brackets = _brackets(grid, z_signs_on_grid(table, grid, muS, muQb))
    for _ in range(max_doublings):
        denser = np.sort(np.concatenate([grid, 0.5 * (grid[:-1] + grid[1:])]))
        denser_brackets = _brackets(denser, z_signs_on_grid(table, denser, muS, muQb))
        if len(denser_brackets) == len(brackets):
            brackets = denser_brackets
            break
        grid, brackets = denser, denser_brackets
    else:
        warnings.warn(
            f"zero count still changing after {max_doublings} grid doublings "
            f"({len(brackets)} zeros found); refine the temperature grid"
        )
    records = []
    for t_lo, t_hi, s_lo in brackets:
        if s_lo == 0:
            records.append(ZeroRecord(t_lo, (t_lo, t_lo), (0, 0)))
        else:
            records.append(_refine_bracket(table, t_lo, t_hi, s_lo, muS, muQb, rtol))
    return records


def critical_temperature(
    p: ModelParams,
    t_min: float = 2e-3,
    t_max: float = 2.0,
    steps: int = 200,
    rtol: float = 1e-8,
    max_doublings: int = 4,
) -> float:
    """Largest zero of Z(T); 0 when Z > 0 on the whole range.

    Only the highest sign change matters, so the scan stabilizes the
    location of the topmost bracket under grid doubling instead of the
    full zero count (zeros pile up towards T = 0 when the ground state is
    complex).
    """
    table = _as_table(p)
    muS, muQb = (p.muS, p.muQb) if isinstance(p, ModelParams) else (0.0, 0.0)
    grid = np.geomspace(t_min, t_max, steps)

    def top_bracket(g):
        br = _brackets(g, z_signs_on_grid(table, g, muS, muQb))
        return br[-1] if br else None

    top = top_bracket(grid)
    for _ in range(max_doublings):
        grid = np.sort(np.concatenate([grid, 0.5 * (grid[:-1] + grid[1:])]))
        denser_top = top_bracket(grid)
        if top is None and denser_top is None:
            return 0.0
        if top is not None and denser_top is not None and denser_top[0] >= top[0]:
            top = denser_top
            break
        top = denser_top
    if top is None:
        return 0.0
    t_lo, t_hi, s_lo = top
    if s_lo == 0:
        return t_lo
    return _refine_bracket(table, t_lo, t_hi, s_lo, muS, muQb, rtol).T_zero


@dataclass(frozen=True)
class ThermoPoint:
    """Thermodynamic state at one (parameters, T) point; k_B = 1."""

    T: float
    ln_abs_z: float
    z_sign: int
    F: float
    U: float
    S: float
    Cv: float
    Delta: float | None = None
    valid: bool = True
    z_nonpositive: bool = False

    @property
    def Z(self) -> float:
        return SignedLog(self.ln_abs_z, self.z_sign).value()


def _ratio(num: SignedLog, den: SignedLog) -> float:
    if den.sign == 0:
        return math.nan
    if num.sign == 0:
        return 0.0
    try:
        return num.sign * den.sign * math.exp(num.log_abs - den.log_abs)
    except OverflowError:
        return num.sign * den.sign * math.inf


def potentials(p: ModelParams, t: float, table: SpectrumTable | None = None) -> ThermoPoint:
    """F, U, S, C_V from the exact partition function at temperature t.

    U is the analytic weighted sum; F = -T ln Z (plus chemical-potential
    terms); S = (U - F)/T; C_V from the analytic covariance form
    beta^2 (<E Etilde> - <E><Etilde>), which equals dU/dT.  Where Z <= 0
    the potentials are continued through ln|Z| and flagged z_nonpositive;
    where |Z| sinks below the floor (or is pure cancellation noise) the
    point is flagged invalid and carries NaN potentials.
    """
    if t <= 0:
        raise ValueError("temperature must be positive")
    beta = 1.0 / t
    if table is None:
        table = thermal_table(p)
    eps_eff = _eps_eff(table, p.muS, p.muQb)

    m0 = _weighted_sum(table, beta, 1.0, 0.0, eps_eff)
    invalid = (
        m0.sign == 0
        or m0.log_abs < Z_FLOOR_LOG
        or (m0.log_abs - m0.log_abs_sum) < math.log(CANCEL_FLOOR)
    )
    if invalid:
        return ThermoPoint(
            T=t,
            ln_abs_z=m0.log_abs,
            z_sign=m0.sign,
            F=math.nan,
            U=math.nan,
            S=math.nan,
            Cv=math.nan,
            valid=False,
            z_nonpositive=m0.sign <= 0,
        )

    m_eff = _weighted_sum(table, beta, eps_eff, table.gam, eps_eff)
    u_eff = _ratio(m_eff, m0)

    mu_term = 0.0
    if p.muS != 0.0 or p.muQb != 0.0:
        # a term only at a nonzero potential: a table folded over N has no N labels
        if p.muS != 0.0:
            n_s = _ratio(_weighted_sum(table, beta, table.nS, 0.0, eps_eff), m0)
            mu_term += p.muS * n_s
        if p.muQb != 0.0:
            n_p = _ratio(_weighted_sum(table, beta, table.npair, 0.0, eps_eff), m0)
            mu_term += p.muQb * n_p
        e_re, e_im = table.eps, table.gam
    else:
        e_re, e_im = eps_eff, table.gam

    u = u_eff + mu_term
    f = -t * m0.log_abs + mu_term
    s = (u - f) / t

    # covariance <E Etilde> - <E><Etilde> with E the bare energy
    ee_re = e_re * eps_eff - e_im * table.gam
    ee_im = table.gam * (e_re + eps_eff)
    m_ee = _weighted_sum(table, beta, ee_re, ee_im, eps_eff)
    e_bare = _ratio(_weighted_sum(table, beta, e_re, e_im, eps_eff), m0)
    cv = beta * beta * (_ratio(m_ee, m0) - e_bare * u_eff)

    return ThermoPoint(
        T=t,
        ln_abs_z=m0.log_abs,
        z_sign=m0.sign,
        F=f,
        U=u,
        S=s,
        Cv=cv,
        valid=True,
        z_nonpositive=m0.sign < 0,
    )


def potentials_fd(p: ModelParams, t: float, rel_step: float = 1e-3) -> dict:
    """Finite-difference cross-checks of the analytic potentials.

    Central differences: U from -d(ln Z)/d(beta), S from -dF/dT, C_V from
    dU/dT.  Meaningful away from zeros of Z.
    """
    h = rel_step * t
    lo, hi = potentials(p, t - h), potentials(p, t + h)
    if not (lo.valid and hi.valid):
        raise ZeroPartitionError("finite-difference stencil crosses an invalid point")
    beta_lo, beta_hi = 1.0 / (t - h), 1.0 / (t + h)
    u_fd = -(hi.ln_abs_z - lo.ln_abs_z) / (beta_hi - beta_lo)
    return {
        "U_fd": u_fd,
        "S_fd": -(hi.F - lo.F) / (2.0 * h),
        "Cv_fd": (hi.U - lo.U) / (2.0 * h),
    }


class ExpectationResult(NamedTuple):
    value: float
    imag_residue: float
    defective_blocks: tuple


def thermal_expectation(
    op,
    p: ModelParams,
    t: float,
    spectra: list | None = None,
) -> ExpectationResult:
    """Thermal mean of a blockwise operator via biorthogonal weights.

    op maps a BlockLabel to the operator matrix on that block.  The value
    is (1/Z) sum mult_n e^{-beta Etilde_n} <L_n|O|R_n>/<L_n|R_n>, returned
    as its real part with the imaginary residue as a quality metric.
    Near-defective blocks are reported, not fatal.
    """
    if t <= 0:
        raise ValueError("temperature must be positive")
    beta = 1.0 / t
    if spectra is None:
        spectra = spectral.block_spectra(p, want_vectors=True)

    shift = min(float(np.min(s.eigenvalues.real)) for s in spectra)
    num = 0.0 + 0.0j
    den = 0.0 + 0.0j
    den_abs = 0.0
    defective = []
    for s in spectra:
        o_mat = op(s.label)
        w = np.einsum(
            "in,ij,jn->n", s.left_vectors, o_mat.astype(complex), s.right_vectors
        )
        w = w / s.biorth_norms
        boltz = np.exp(-beta * (s.eigenvalues - shift))
        num += s.mult * complex(np.sum(w * boltz))
        den += s.mult * complex(np.sum(boltz))
        den_abs += s.mult * float(np.sum(np.abs(boltz)))
        if s.near_defective is not None and np.any(s.near_defective):
            defective.append(s.label.key())
    if abs(den.real) <= CANCEL_FLOOR * den_abs:
        raise ZeroPartitionError(
            f"partition function vanishes at T={t:.6g}; expectation undefined"
        )
    val = num / den.real
    return ExpectationResult(
        value=float(val.real),
        imag_residue=abs(float(val.imag)),
        defective_blocks=tuple(defective),
    )


def gap_curve(
    p: ModelParams,
    t_values,
    operator: str = "collective",
    spectra: list | None = None,
) -> np.ndarray:
    """Pairing gap Delta(T) = (G/2) sqrt(<pair correlator>) on a T grid.

    The eigenbasis and operator matrix elements are computed once and
    reused across temperatures.
    """
    if spectra is None:
        spectra = spectral.block_spectra(p, want_vectors=True)
    weights, eigs, mults = [], [], []
    for s in spectra:
        o_mat = gap_operator(s.label, operator=operator)
        w = np.einsum(
            "in,ij,jn->n", s.left_vectors, o_mat.astype(complex), s.right_vectors
        )
        weights.append(w / s.biorth_norms)
        eigs.append(s.eigenvalues)
        mults.append(s.mult)

    out = np.empty(len(list(t_values)))
    tv = np.asarray(list(t_values), dtype=float)
    shift = min(float(np.min(e.real)) for e in eigs)
    for i, t in enumerate(tv):
        beta = 1.0 / t
        num = 0.0 + 0.0j
        den = 0.0 + 0.0j
        for w, e, m in zip(weights, eigs, mults):
            boltz = np.exp(-beta * (e - shift))
            num += m * complex(np.sum(w * boltz))
            den += m * complex(np.sum(boltz))
        if den.real == 0.0:
            out[i] = math.nan
            continue
        corr = (num / den.real).real
        if corr < -1e-8:
            raise ArithmeticError(
                f"pair correlator {corr:.3e} is negative beyond tolerance at T={t:.6g}"
            )
        out[i] = 0.5 * p.G * math.sqrt(max(0.0, corr))
    return out


def pairing_gap(p: ModelParams, t: float, operator: str = "collective") -> float:
    """Gap estimate at a single temperature (see gap_curve)."""
    return float(gap_curve(p, [t], operator=operator)[0])
