"""Exact grand partition function over blocks and everything derived from it.

Every sum over blocks follows model.fold_plan, the one block -> shape map:
one gather of a point's flat slot row by the plan's Fold, one row set per
shape, or per (shape, N) when muS != 0, with the exact summed multiplicity
of its blocks.  The spectrum table and the vector table of thermal
averages share that Fold; blocks appear only in the keys of
defective_blocks.

A sweep over parameter points takes its tables from sweep_tables: batches
of at most SWEEP_SLOTS eigenvalue slots, each from one thermal_tables call
(one stacked eigensolve per sector size for all its points, uncached) and
each reduced to what the sweep keeps before the next is solved, so a sweep
holds one batch's tables however long it is.  A state sweep in (alpha, T)
(an isotherm, the S(alpha) scans and corners of a cycle) goes through
sweep_potentials, one potentials_batch call per batch.  thermal_table
caches the tables of points visited one at a time (bisections, single
commands).
potentials, critical_temperature and find_zeros take such a table beside
the point, whose chemical potentials they always use.

Conjugate eigenvalue pairs eps +- i*gamma are folded into real Boltzmann
terms 2*exp(-beta*eps)*cos(beta*gamma), so Z is real by construction but
may vanish in the broken-symmetry phase.

Every thermal sum goes through one moments kernel (_moments), which takes a
batch of (table, beta) items: a temperature grid on one table, the coarse
S(alpha) curves of a cycle on many tables, or one item.  Per item it takes
the log-weights lw = ln(mult * factor) - beta*eps, with factor 2 on pair
rows, and their maximum m, and forms w = exp(lw - m), w*cos(beta*gamma) and
w*sin(beta*gamma) once.  Z e^{-m} is the exactly rounded sum of w*cos, and
each moment, the numerator of U, <E Etilde>, <N> or a biorthogonal mean, is
one more exactly rounded sum of a coefficient column against w*cos and
w*sin, so a ratio of two moments needs no exponential.  The items are
worked as 2-D arrays, tables of different lengths padded with zero-weight
rows, in chunks of at most MOMENT_BUDGET summed elements, so memory stays
flat however long the grid.  All the exactly rounded sums of a chunk come
from _exact_sums: one error-free extraction of every row against a power of
two, certified row by row, with math.fsum only for the rows the certificate
does not settle, so each sum equals math.fsum of its row, bit for bit.
potentials measures the energies of its moments from the ground row and
takes ln Z near 1 as log1p of the exactly rounded Z - 1, one more row of
the batch, so S and C_V keep their relative digits far below the gap.  The
shift survives beta up to 1e3/GHz, and the exact sums resolve the
cancellations that produce zeros; the sum of |terms| is kept to detect
where they do.

Zeros of Z(T) are bracketed on the signs of z_signs_on_grid, each the
sign of the kernel's exactly rounded Z.  Where the real levels below every
complex row outweigh, twice over, the moduli of the complex terms whose
cosine can be negative, a certificate proves Z > 0; elsewhere a float64 sum
of the kernel's own terms (_scan_signs) keeps its sign beyond its rounding
bound, and only the temperatures within rounding distance of a zero go to
_moments.  Both work in chunks of at most SCAN_ELEMENTS (T x rows)
elements.  A bisection takes its signs from _scan_signs alone: next to a
zero the certificate cannot pass.  critical_temperature runs the
certificate once, over every temperature that a grid with no sign change
is scanned at (zero_free_on_grid); where it passes at all of them, T_c is 0
and nothing is scanned.  Otherwise only the temperatures it leaves open are
scanned, from the top down, chunk by chunk, until the highest sign change,
and only the grid above that bracket's low end is doubled; each sign
depends on its own temperature alone, so every T_c equals that of the
whole-grid scan bit for bit.

Thermal averages use the biorthogonal resolution sum_n |R_n><L_n| with
<L_m|R_n> = delta_mn: <O> = (1/Z) sum_n mult_n e^{-beta E_n} <L_n|O|R_n> goes
through the same kernel as Z, one row per eigenvalue with signed gamma.  The
coefficients come from spectral.vector_spectra, one stacked solve per sector
size, each contracted within its pair-projection sector.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import spectral
from .errors import ZeroPartitionError
from .model import GAP_OPERATOR, Fold, ModelParams, fold_plan
from .roots import bisect

__all__ = [
    "SpectrumTable",
    "SignedLog",
    "signed_logsumexp",
    "thermal_table",
    "thermal_tables",
    "sweep_tables",
    "sweep_potentials",
    "table_from_spectra",
    "partition_function",
    "log_partition",
    "dominant_split",
    "ZeroRecord",
    "find_zeros",
    "critical_temperature",
    "zero_free_on_grid",
    "ThermoPoint",
    "potentials",
    "potentials_batch",
    "potentials_fd",
    "thermal_expectation",
    "ExpectationResult",
    "pairing_gap",
    "gap_curve",
]

Z_FLOOR_LOG = math.log(1e-300)   # absolute |Z| floor in signed-log form
CANCEL_FLOOR = 1e-14             # |sum| / sum|terms| below this: sign unreliable
TABLE_CACHE_SIZE = 128
SWEEP_SLOTS = 1 << 15            # eigenvalue slots of one sweep batch's tables
TC_T_MIN = 2e-3                  # lowest temperature critical_temperature scans
CERT_ROWS = 16                   # lowest real rows in the Z > 0 certificate
MOMENT_BUDGET = 1 << 14          # summed elements in one chunk of _moments
SCAN_ELEMENTS = 1 << 15          # (T x rows) elements in one chunk of a z-sign scan
_U = 2.0**-53                    # unit roundoff of float64


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


def table_from_spectra(w: np.ndarray, nqb: np.ndarray, fold: Fold) -> SpectrumTable:
    """Fold one point's slot arrays, eigenvalues w and pair-number labels
    nqb, into a table with one gather.

    Table rows keep the order of the fold's rows; a conjugate pair keeps
    only its +i*gamma member, and every fold group must hold as many
    +i*gamma members as -i*gamma ones.
    """
    w, npair = w[fold.slots], nqb[fold.slots]
    thresh = spectral.IM_TOL * np.maximum(1.0, np.abs(w))
    is_real = np.abs(w.imag) <= thresh
    balance = np.bincount(fold.group, weights=np.where(is_real, 0.0, np.sign(w.imag)))
    if balance.any():
        n = fold.n[fold.group == np.flatnonzero(balance)[0]][0]
        raise AssertionError(f"conjugation symmetry violated in a row with N={n:g}")
    keep = is_real | (w.imag > thresh)
    return SpectrumTable(
        eps=w.real[keep],
        gam=np.where(is_real, 0.0, w.imag)[keep],
        mult=fold.mult[keep],
        nS=fold.n[keep],
        npair=npair[keep],
        pair=~is_real[keep],
        dim_total=fold.dim_total,
    )


def thermal_tables(points) -> list[SpectrumTable]:
    """Spectrum tables of a batch of points of one system size and coupling
    mode, uncached.

    The spectra of all points come from one spectral.block_spectra call, one
    stacked solve per sector size, and each point's table is one gather by
    the fold plan: one row set per shape, or per (shape, N) when its muS != 0.
    A table folded over N has NaN nS and refuses muS != 0.  Sweeps (an
    isotherm, a T_c map, a coarse S(alpha) scan) take their tables here.
    """
    points = tuple(points)
    return [
        table_from_spectra(w, nqb, fold_plan(p).fold(p.muS != 0.0))
        for p, w, nqb in zip(points, *spectral.block_spectra(points))
    ]


def sweep_tables(points, reduce) -> list:
    """reduce(batch, tables) over consecutive batches of a sweep's points,
    the results concatenated.

    Each batch's tables come from one thermal_tables call and hold at most
    SWEEP_SLOTS eigenvalue slots, at least one point.  reduce returns one
    result per point of its batch, the part of the tables the sweep keeps,
    and a batch's tables are dropped before the next batch is solved, so a
    sweep holds one batch's tables however long it is.
    """
    points = tuple(points)
    if not points:
        return []
    size = max(1, SWEEP_SLOTS // len(fold_plan(points[0]).slot_nqb))
    out = []
    for lo in range(0, len(points), size):
        batch = points[lo : lo + size]
        out.extend(reduce(batch, thermal_tables(batch)))
    return out


def sweep_potentials(points, temperatures) -> list:
    """Per point, the ThermoPoint at each temperature of its own sequence
    in temperatures, the one potentials gives that item alone.  Each
    sweep_tables batch goes through one potentials_batch call, point by
    point, before the next batch is solved."""
    points, temps = list(points), [list(ts) for ts in temperatures]
    if len(points) != len(temps):
        raise ValueError("points and temperature sequences differ in length")
    pending = iter(temps)

    def reduce(batch, tables):
        ts = [next(pending) for _ in batch]
        items = [(q, t, table) for q, table, tq in zip(batch, tables, ts) for t in tq]
        pts = iter(potentials_batch(*zip(*items)) if items else ())
        return [[next(pts) for _ in tq] for tq in ts]

    return sweep_tables(points, reduce)


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def thermal_table(p: ModelParams) -> SpectrumTable:
    """Cached spectrum table of one point (see thermal_tables); points that
    are revisited one at a time, such as bisections, take it here."""
    return thermal_tables([p])[0]


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


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and a + b = s + e exactly (Knuth's TwoSum)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _exact_sums(a: np.ndarray) -> np.ndarray:
    """math.fsum of each row of the 2-D array a, bit for bit.

    One error-free extraction per row (Rump, Ogita & Oishi, SIAM J. Sci.
    Comput. 31(1), 2008): against a power of two sigma >= 2^ceil(log2(n+2))
    * max|a|, the high parts (a + sigma) - sigma are multiples of one ulp of
    sigma/2^53 whose partial sums stay below sigma, so they sum exactly in
    any order, and the low parts a - high are exact.  The float sum of the
    low parts errs by at most gamma_n * sum|low|; a row's result r is the
    rounded sum of the two, and it is certified when that bound plus the
    TwoSum residual of r stays below half the gap from r to its nearer
    neighbouring float, so that r is the exactly rounded sum.  Rows that
    fail, being zero, non-finite, overflowing sigma or near a tie, go to
    math.fsum.
    """
    n = a.shape[1]
    big = np.maximum(np.max(a, axis=1), -np.min(a, axis=1))
    e = np.frexp(big)[1] + (n + 1).bit_length()
    ok = np.isfinite(big) & (e < 1024)
    sigma = np.ldexp(1.0, np.minimum(e, 1023))[:, None]
    # rows holding inf or NaN produce NaN here and go to math.fsum; one
    # buffer holds the high parts, then the low parts, then their moduli
    with np.errstate(invalid="ignore", over="ignore"):
        part = a + sigma
        part -= sigma
        high_sum = np.sum(part, axis=1)
        np.subtract(a, part, out=part)
        r, residual = _two_sum(high_sum, np.sum(part, axis=1))
        # a subnormal bound rounding to 0 is harmless: below the smallest
        # subnormal the low sum's rounding errors, multiples of it, are 0
        bound = (2.0 * n * _U / (1.0 - n * _U)) * np.sum(np.abs(part, out=part), axis=1)
        gap = np.abs(np.spacing(r))
        gap[np.abs(np.frexp(r)[0]) == 0.5] *= 0.5   # at a power of two the lower gap is half
        ok &= (r != 0.0) & (2.0 * (np.abs(residual) + bound) < gap)
    for i in np.flatnonzero(~ok):
        r[i] = math.fsum(a[i].tolist())
    return r


class _Terms(NamedTuple):
    """One table's terms, ready for _moments: log_base = ln(mult * factor)
    with factor 2 on pair rows, the energies eps (grand-canonical or bare),
    gam, and the coefficient columns (c_re, c_im) (either may be a scalar)."""

    log_base: np.ndarray
    eps: np.ndarray
    gam: np.ndarray
    columns: tuple = ()


def _terms(table: SpectrumTable, eps: np.ndarray, columns=()) -> _Terms:
    log_base = np.log(np.where(table.pair, 2.0 * table.mult, table.mult))
    return _Terms(log_base, eps, table.gam, tuple(columns))


class _Moments(NamedTuple):
    """Sums over a batch of items, one entry per item, each scaled by
    exp(-shift) of its item.

    z is Z and z_minus_one the exactly rounded Z - 1 (NaN unless asked
    for); abs_sum is sum |w cos|, the sum of |terms| of Z, and w_sum is
    sum w, the sum of the moduli of the complex terms of a per-eigenvalue
    table; each is a cancellation reference for z.  sums[i, k] is item i's
    k-th coefficient column's moment, so sums[i, k] / z[i] is its thermal
    mean; an item with fewer columns than the batch has zeros beyond them.
    """

    shift: np.ndarray
    top: np.ndarray     # the row whose log-weight is the shift
    z: np.ndarray
    z_minus_one: np.ndarray
    abs_sum: np.ndarray
    w_sum: np.ndarray
    sums: np.ndarray


def _padded(rows, width: int, fill: float) -> np.ndarray:
    if len(rows) == 1 and len(rows[0]) == width:
        return rows[0][None]
    out = np.full((len(rows), width), fill)
    for i, row in enumerate(rows):
        out[i, : len(row)] = row
    return out


def _moments(items, z_minus_one: bool = False) -> _Moments:
    """One amplitude pass and one _exact_sums call per chunk of a batch of
    (_Terms, beta) items.

    The term of row n is w_n = mult_n * factor_n * exp(-beta*eps_n) times
    cos(beta*gamma_n) for Z, and times c_re*cos(beta*gamma_n) +
    c_im*sin(beta*gamma_n) for a column (c_re, c_im).  A chunk holds at
    most MOMENT_BUDGET elements of summed rows (at least one item); the
    items of a chunk that share a _Terms object share its stacked arrays,
    and shorter tables are padded with zero-weight rows (log-weight -inf),
    whose zero terms leave every exact sum as it is.  Z - 1 is the row of Z
    with its top term cos(beta*gamma_top) split exactly into fl(cos - 1)
    and its TwoSum residual, so a Z near 1 keeps the digits of Z - 1.  A
    sum of non-negative terms loses nothing to cancellation, so abs_sum and
    w_sum take a plain float64 sum.
    """
    items = list(items)
    width = max(len(terms.eps) for terms, _ in items)
    ncol = max(len(terms.columns) for terms, _ in items)
    per_item = ((2 if z_minus_one else 1) + ncol) * (width + 1)
    size = max(1, MOMENT_BUDGET // per_item)
    chunks = [
        _chunk_moments(items[i : i + size], width, ncol, z_minus_one)
        for i in range(0, len(items), size)
    ]
    if len(chunks) == 1:
        return chunks[0]
    return _Moments(*(np.concatenate(field) for field in zip(*chunks)))


def _weights(log_base, eps, b):
    """(w, top, shift) per row of the column b of betas: the log-weights
    lw = log_base - b*eps, their maximum shift at column top, and
    w = exp(lw - shift), formed in one buffer; the one weight step of
    _moments and of the z-sign scan."""
    lw = b * eps
    np.subtract(log_base, lw, out=lw)
    top = np.argmax(lw, axis=1)
    shift = lw[np.arange(len(lw)), top]
    lw -= shift[:, None]
    return np.exp(lw, out=lw), top, shift


def _chunk_moments(items, width: int, ncol: int, z_minus_one: bool) -> _Moments:
    """_moments of one chunk, every table padded to width and ncol columns."""
    index, stack = {}, []
    for terms, _ in items:
        if id(terms) not in index:
            index[id(terms)] = len(stack)
            stack.append(terms)
    # one shared table broadcasts instead of being gathered per item
    sel = slice(0, 1) if len(stack) == 1 else [index[id(terms)] for terms, _ in items]
    log_base = _padded([t.log_base for t in stack], width, -math.inf)[sel]
    eps = _padded([t.eps for t in stack], width, 0.0)[sel]
    gam = _padded([t.gam for t in stack], width, 0.0)[sel]
    b = np.array([beta for _, beta in items], dtype=float)[:, None]

    w, top, shift = _weights(log_base, eps, b)
    rows = np.arange(len(items))
    x = b * gam
    wc = np.cos(x)
    wc *= w
    first = 2 if z_minus_one else 1      # the summed row of the first column
    a = np.zeros((len(items), first + ncol, width + 1))
    a[:, 0, :width] = wc
    if z_minus_one:
        a[:, 1, :width] = wc
        a[rows, 1, top], a[:, 1, width] = _two_sum(wc[rows, top], -1.0)
    if ncol:
        ws = np.sin(x, out=x)
        ws *= w
        cols = np.zeros((len(stack), ncol, 2, width))
        for i, t in enumerate(stack):
            for k, (re, im) in enumerate(t.columns):
                cols[i, k, 0, : len(t.eps)] = re
                cols[i, k, 1, : len(t.eps)] = im
        cols = cols[sel]
        for k in range(ncol):
            dest = a[:, first + k, :width]
            np.multiply(cols[:, k, 0], wc, out=dest)
            dest += cols[:, k, 1] * ws
    sums = _exact_sums(a.reshape(-1, width + 1)).reshape(len(items), -1)
    return _Moments(
        shift=shift,
        top=top,
        z=sums[:, 0],
        z_minus_one=sums[:, 1] if z_minus_one else np.full(len(items), math.nan),
        abs_sum=np.sum(np.abs(wc), axis=1),
        w_sum=np.sum(w, axis=1),
        sums=sums[:, first:],
    )


def _signed_log(x: float, shift: float, abs_sum: float = 0.0) -> SignedLog:
    """x * e^shift in signed-log form; abs_sum * e^shift is its sum of |terms|."""
    log_abs_sum = shift + math.log(abs_sum) if abs_sum > 0.0 else -math.inf
    if x == 0.0:
        return SignedLog(-math.inf, 0, log_abs_sum)
    # a NaN x, a Z that is not finite, gets sign 0
    return SignedLog(shift + math.log(abs(x)), (x > 0) - (x < 0), log_abs_sum)


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
    table: SpectrumTable, beta: float, muS: float = 0.0, muQb: float = 0.0
) -> SignedLog:
    """Grand partition function of a spectrum table (thermal_table) in
    signed-log form (never overflows)."""
    if not beta > 0:
        raise ValueError("beta must be positive")
    mom = _moments([(_terms(table, _eps_eff(table, muS, muQb)), beta)])
    return _signed_log(float(mom.z[0]), float(mom.shift[0]), float(mom.abs_sum[0]))


def partition_function(
    table: SpectrumTable, beta: float, muS: float = 0.0, muQb: float = 0.0
) -> float:
    """Z as a plain float; raises OverflowError when not representable."""
    z = log_partition(table, beta, muS, muQb)
    if z.sign != 0 and z.log_abs > 709.0:
        raise OverflowError(
            f"|ln Z| = {z.log_abs:.1f} exceeds float range; use log_partition"
        )
    return z.value()


def dominant_split(table: SpectrumTable, beta: float) -> tuple[float, float]:
    """(Z0, Z') of a spectrum table (thermal_table), with Z0 the ground-level
    term: g0*exp(-beta*E0) for a real ground state,
    2*g0*exp(-beta*eps)*cos(beta*gamma) for a complex one."""
    gs = spectral.ground_state_info(table)
    mom = _moments([(_terms(table, table.eps), beta)])
    shift, z = float(mom.shift[0]), float(mom.z[0])
    if gs.is_complex:
        amp = 2.0 * gs.g0 * math.cos(beta * gs.gamma0)
    else:
        amp = gs.g0
    # the ground row's log-weight is at least -beta*eps0 and at most the
    # shift, so the scaled ground term cannot overflow
    z0 = amp * math.exp(-beta * gs.eps0 - shift)
    return _signed_log(z0, shift).value(), _signed_log(z - z0, shift).value()


@dataclass(frozen=True)
class ZeroRecord:
    """One zero of Z(T), bracketed to relative precision."""

    T_zero: float
    bracket: tuple
    sign_pattern: tuple


def _certified_positive(table: SpectrumTable, betas: np.ndarray, eps_eff: np.ndarray):
    """Mask over betas (all > 0) where a ground-level bound proves Z > 0.

    P sums the real rows (gamma = 0) whose eps_eff lies below that of every
    complex row, the lowest CERT_ROWS of them; Q sums the moduli
    mult * factor * exp(-beta * eps_eff) of the complex rows whose cosine
    can be negative, beta*|gamma| >= pi/2 (below it cos > 0).  Both are
    scaled by exp(beta * min eps_eff), so no term exceeds mult * factor.
    Every other term of Z is positive, so Z >= P - Q, and a temperature
    passes where Q = 0 or P > 2Q: there the negative terms are at most half
    the positive ones.  A table without complex rows passes everywhere.
    The (T x rows) weights are formed SCAN_ELEMENTS at a time.
    """
    ok = np.ones(len(betas), dtype=bool)
    trig = np.flatnonzero(table.gam != 0.0)
    if len(trig) == 0:
        return ok
    e0 = float(np.min(eps_eff))
    low = np.flatnonzero((table.gam == 0.0) & (eps_eff < np.min(eps_eff[trig])))
    if len(low) > CERT_ROWS:
        low = low[np.argpartition(eps_eff[low], CERT_ROWS)[:CERT_ROWS]]
    de_low, de_trig = e0 - eps_eff[low], e0 - eps_eff[trig]
    gam = np.abs(table.gam[trig])
    amp = np.where(table.pair[trig], 2.0, 1.0) * table.mult[trig]
    chunk = max(1, SCAN_ELEMENTS // (len(trig) + len(low)))
    for lo in range(0, len(betas), chunk):
        b = betas[lo : lo + chunk]
        p = np.exp(np.multiply.outer(b, de_low)) @ table.mult[low]
        w = np.multiply.outer(b, gam)
        negative = w >= 0.5 * math.pi
        np.multiply.outer(b, de_trig, out=w)
        np.exp(w, out=w)
        w *= negative
        q = w @ amp
        ok[lo : lo + chunk] = (q == 0.0) | (p > 2.0 * q)
    return ok


def _scan_signs(table: SpectrumTable, betas: np.ndarray, eps_eff: np.ndarray):
    """The sign of _moments' Z at each beta.

    Each chunk of _scan_chunk temperatures forms the kernel's own terms,
    _weights times cos(beta*gamma) on the complex rows (cos 0 = 1), and sums
    them in float64, which errs by at most gamma_(n-1) * sum|terms| in any
    order (Higham, Accuracy and Stability, 2nd ed., 4.2); sum w bounds
    sum|terms|, so a sum beyond 2*n*u * sum w has the exact sum's sign.
    The temperatures left go to one _moments batch.
    """
    terms = _terms(table, eps_eff)
    trig = np.flatnonzero(table.gam != 0.0)
    bound = 2.0 * len(eps_eff) * _U
    signs = np.empty(len(betas), dtype=int)
    sure = np.empty(len(betas), dtype=bool)
    chunk = _scan_chunk(table)
    for lo in range(0, len(betas), chunk):
        b = betas[lo : lo + chunk, None]
        w = _weights(terms.log_base, eps_eff, b)[0]
        margin = bound * np.sum(w, axis=1)
        w[:, trig] *= np.cos(b * table.gam[trig])
        total = np.sum(w, axis=1)
        signs[lo : lo + chunk] = np.sign(total)
        sure[lo : lo + chunk] = np.abs(total) > margin
    exact = np.flatnonzero(~sure)
    if len(exact):
        signs[exact] = np.sign(_moments([(terms, beta) for beta in betas[exact]]).z)
    return signs


def _scan_chunk(table: SpectrumTable) -> int:
    """Temperatures per chunk of a z-sign scan: SCAN_ELEMENTS (T x rows)
    elements, at least one temperature."""
    return max(1, SCAN_ELEMENTS // max(1, len(table)))


def _open_signs(table: SpectrumTable, betas: np.ndarray, certified: np.ndarray, eps_eff):
    """The sign of Z at each beta: +1 where certified, from _scan_signs
    elsewhere."""
    signs = np.ones(len(betas), dtype=int)
    scan = np.flatnonzero(~certified)
    if len(scan):
        signs[scan] = _scan_signs(table, betas[scan], eps_eff)
    return signs


def z_signs_on_grid(table: SpectrumTable, t_values, muS: float = 0.0, muQb: float = 0.0):
    """The sign of Z at each positive temperature, that of log_partition.

    The grid scans and doublings of find_zeros take their signs here.
    Where _certified_positive proves Z > 0 (the negative terms are at most
    half the positive ones, a margin no rounding can close) the sign is +1
    at once; _scan_signs gives the rest.  Both work in temperature chunks of
    at most SCAN_ELEMENTS (T x rows) elements, and each sign depends on its
    own temperature alone.  A temperature so low that beta*E overflows, so
    that Z is not finite, is refused like one that is not positive.
    """
    t = np.asarray(list(t_values), dtype=float)
    if not np.all(t > 0.0):
        raise ValueError("temperatures must be positive")
    eps_eff = _eps_eff(table, muS, muQb)
    scale = max(np.max(np.abs(eps_eff)), np.max(np.abs(table.gam)))
    with np.errstate(over="ignore", invalid="ignore"):
        betas = 1.0 / t
        if not np.all(np.isfinite(betas * scale)):
            raise ValueError("temperatures must be high enough that beta*E is finite")
    return _open_signs(table, betas, _certified_positive(table, betas, eps_eff), eps_eff)


def _refine_bracket(table, t_lo, t_hi, s_lo, muS, muQb, rtol):
    """The zero of Z in [t_lo, t_hi], Z having sign s_lo at t_lo, bisected
    by roots.bisect to relative rtol (a T where Z is exactly 0 is the zero).

    Each step's sign is that of z_signs_on_grid, taken from _scan_signs
    alone: next to a zero the certificate cannot pass.
    """
    eps_eff = _eps_eff(table, muS, muQb)

    def side(points):
        betas = 1.0 / np.fromiter(points.values(), dtype=float, count=len(points))
        return dict(zip(points, (_scan_signs(table, betas, eps_eff) * s_lo).tolist()))

    t_zero, lo, hi = bisect({0: (t_lo, t_hi)}, side, rtol=rtol)[0]
    return ZeroRecord(t_zero, (lo, hi), (s_lo, -s_lo))


def _interleaved(grid: np.ndarray) -> np.ndarray:
    """The sorted grid with its midpoints interleaved."""
    denser = np.empty(2 * len(grid) - 1)
    denser[0::2] = grid
    denser[1::2] = 0.5 * (grid[:-1] + grid[1:])
    return denser


def _doubled(table, grid, signs, muS, muQb):
    """_interleaved(grid) and the sign of Z on it.  Only the midpoints are
    evaluated: each sign of z_signs_on_grid depends on its own temperature
    alone, so the known ones are reused."""
    denser = _interleaved(grid)
    denser_signs = np.empty(len(denser), dtype=int)
    denser_signs[0::2] = signs
    denser_signs[1::2] = z_signs_on_grid(table, denser[1::2], muS, muQb)
    return denser, denser_signs


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
    table: SpectrumTable | None = None,
) -> list[ZeroRecord]:
    """All sign changes of Z(T) over the grid, bisected to relative rtol,
    or until the midpoint rounds onto an end of its bracket.

    The grid is midpoint-doubled until the zero count stabilizes, then each
    bracket is refined; a warning recommends refinement if the count never
    settles.  An empty list means Z > 0 throughout.  table, when given,
    stands for thermal_table(p); the chemical potentials are always p's.
    """
    if table is None:
        table = thermal_table(p)
    muS, muQb = p.muS, p.muQb
    grid = np.asarray(sorted(t_grid), dtype=float)
    if len(grid) < 2 or grid[0] <= 0:
        raise ValueError("t_grid must hold at least two positive temperatures")
    signs = z_signs_on_grid(table, grid, muS, muQb)
    brackets = _brackets(grid, signs)
    for _ in range(max_doublings):
        grid, signs = _doubled(table, grid, signs, muS, muQb)
        denser_brackets = _brackets(grid, signs)
        if len(denser_brackets) == len(brackets):
            brackets = denser_brackets
            break
        brackets = denser_brackets
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


def _tc_certificate(p, t_max, steps, max_doublings, table):
    """(table, grid, betas, eps_eff, certified): the certificate of
    critical_temperature, run once per table over the temperatures that a
    grid with no sign change is scanned at, the geometric grid from
    TC_T_MIN to t_max and, when max_doublings > 0, the midpoints of its one
    doubling interleaved (the coarse grid is then every other temperature);
    certified is where _certified_positive proves Z > 0."""
    if not TC_T_MIN < t_max < math.inf or steps < 2:
        raise ValueError(
            f"need {TC_T_MIN} < t_max < inf and steps >= 2, got t_max {t_max}, steps {steps}"
        )
    if table is None:
        table = thermal_table(p)
    grid = np.geomspace(TC_T_MIN, t_max, steps)
    if max_doublings:
        grid = _interleaved(grid)
    betas = 1.0 / grid
    eps_eff = _eps_eff(table, p.muS, p.muQb)
    return table, grid, betas, eps_eff, _certified_positive(table, betas, eps_eff)


def zero_free_on_grid(
    p: ModelParams,
    t_max: float = 2.0,
    steps: int = 200,
    max_doublings: int = 4,
    table: SpectrumTable | None = None,
) -> bool:
    """Whether critical_temperature, given the same arguments, returns 0 on
    its certificate alone: _certified_positive proves Z > 0 at every
    temperature that a grid from TC_T_MIN to t_max with no sign change is
    scanned at.  A T_c map settles such points without a scan."""
    certified = _tc_certificate(p, t_max, steps, max_doublings, table)[-1]
    return bool(np.all(certified))


def _top_down(table, grid, betas, certified, eps_eff):
    """(signs, k, highest bracket or None) of Z on the sorted grid: +1 where
    certified, elsewhere from _scan_signs, one _scan_chunk of the open
    temperatures at a time from the top down, until a chunk completes a
    bracket (see _brackets), whose low end is grid[k]; the signs are set
    from grid[k] up.  With no bracket every open temperature is scanned and
    k = 0.  No bracket above the returned one exists."""
    signs = np.ones(len(grid), dtype=int)
    scan = np.flatnonzero(~certified)
    chunk = _scan_chunk(table)
    top = len(grid)
    for hi in range(len(scan), 0, -chunk):
        idx = scan[max(0, hi - chunk) : hi]
        signs[idx] = _scan_signs(table, betas[idx], eps_eff)
        # the pairs from the lowest temperature scanned, or from the bottom
        # once no open one is left below, up to those checked before
        lo = idx[0] if hi > chunk else 0
        found = _brackets(grid[lo : top + 1], signs[lo : top + 1])
        if found:
            return signs, int(np.searchsorted(grid, found[-1][0])), found[-1]
        top = lo
    return signs, 0, None


def critical_temperature(
    p: ModelParams,
    t_max: float = 2.0,
    steps: int = 200,
    rtol: float = 1e-8,
    max_doublings: int = 4,
    table: SpectrumTable | None = None,
) -> float:
    """Largest zero of Z(T) in [TC_T_MIN, t_max]; 0 when Z > 0 on it.

    Only the highest sign change matters (zeros pile up towards T = 0 when
    the ground state is complex), so grid doubling stabilizes that
    bracket's location, not the zero count.  A doubled grid's highest
    bracket never lies below the one it refines, so once a bracket exists
    one doubling settles it.  A grid with no sign change is doubled once;
    if the doubled grid has none either, the result is 0.

    The certificate runs once, over the geometric grid and the midpoints of
    that one doubling (see zero_free_on_grid); where it passes at all of
    them the result is 0 and nothing is scanned.  Otherwise the open
    temperatures of the grid are scanned from the top down until its
    highest bracket, and the doubling evaluates only the open midpoints at
    or above that bracket's low end; a bracket that only the doubled grid
    shows takes one more doubling (z_signs_on_grid) above its low end.
    Each sign depends on its own temperature alone, so this equals the scan
    of the whole grid at every doubling, bit for bit.  The grid runs from
    TC_T_MIN to t_max, which must satisfy TC_T_MIN < t_max < inf, with
    steps >= 2.  table, when given, stands for thermal_table(p) (a T_c map
    takes its tables from sweep_tables batches); the chemical potentials
    are always p's.
    """
    table, grid, betas, eps_eff, certified = _tc_certificate(
        p, t_max, steps, max_doublings, table
    )
    if certified.all():
        return 0.0
    coarse = slice(None, None, 2 if max_doublings else 1)
    signs, k, top = _top_down(table, grid[coarse], betas[coarse], certified[coarse], eps_eff)
    if max_doublings:
        # the one doubling of the coarse grid from its k-th point: its
        # midpoints are the certificate's odd temperatures
        mids = slice(2 * k + 1, None, 2)
        grid = grid[2 * k :]
        denser_signs = np.empty(len(grid), dtype=int)
        denser_signs[0::2] = signs[k:]
        denser_signs[1::2] = _open_signs(table, betas[mids], certified[mids], eps_eff)
        found = _brackets(grid, denser_signs)
        if top is None and found and max_doublings > 1:
            j = int(np.searchsorted(grid, found[-1][0]))
            grid, denser_signs = _doubled(table, grid[j:], denser_signs[j:], p.muS, p.muQb)
            found = _brackets(grid, denser_signs)
        top = found[-1] if found else None
    if top is None:
        return 0.0
    t_lo, t_hi, s_lo = top
    if s_lo == 0:
        return t_lo
    return _refine_bracket(table, t_lo, t_hi, s_lo, p.muS, p.muQb, rtol).T_zero


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
    valid: bool = True
    z_nonpositive: bool = False


class _PotentialTerms(NamedTuple):
    """The terms of one (table, muS, muQb) for potentials: the moment
    columns by name, the ground row's grand-canonical energy e0 and the
    energies de_eff measured from it."""

    table: SpectrumTable
    terms: _Terms
    names: tuple
    e0: float
    de_eff: np.ndarray


def _potential_terms(table: SpectrumTable, muS: float, muQb: float) -> _PotentialTerms:
    eps_eff = _eps_eff(table, muS, muQb)
    # E is the bare energy, Etilde = eps_eff the grand-canonical one; they
    # coincide at mu = 0.  A chemical-potential mean is taken only at a
    # nonzero potential: a table folded over N has no N labels.
    mu = muS != 0.0 or muQb != 0.0
    ground = int(np.argmin(eps_eff))
    e0 = float(eps_eff[ground])
    de_eff = eps_eff - e0
    de = table.eps - table.eps[ground] if mu else de_eff
    columns = {
        "u": (de_eff, table.gam),
        "ee": (de * de_eff - table.gam * table.gam, table.gam * (de + de_eff)),
    }
    if mu:
        columns["e"] = (de, table.gam)
    if muS != 0.0:
        columns["n_s"] = (table.nS, 0.0)
    if muQb != 0.0:
        columns["n_qb"] = (table.npair, 0.0)
    terms = _terms(table, eps_eff, columns.values())
    return _PotentialTerms(table, terms, tuple(columns), e0, de_eff)


def potentials_batch(points, t_values, tables=None) -> list[ThermoPoint]:
    """potentials at every (point, temperature, table) item of a batch.

    tables, or any entry of it, may be None for thermal_table(point).  All
    items go through one _moments call; items that share a table object and
    chemical potentials share its moment columns.  Each item gets the
    ThermoPoint that potentials gives it alone, bit for bit: its sums are
    exactly rounded, and only the plain float sum of |terms| behind the
    validity threshold may move by an ulp where a shorter table is padded.
    """
    points, t_values = list(points), list(t_values)
    tables = [None] * len(points) if tables is None else list(tables)
    if not len(points) == len(t_values) == len(tables):
        raise ValueError("points, temperatures and tables differ in length")
    if not all(t > 0 for t in t_values):
        raise ValueError("temperatures must be positive")
    if not points:
        return []
    shared, preps = {}, []
    for p, table in zip(points, tables):
        table = thermal_table(p) if table is None else table
        key = (id(table), p.muS, p.muQb)
        if key not in shared:
            shared[key] = _potential_terms(table, p.muS, p.muQb)
        preps.append(shared[key])
    betas = [1.0 / t for t in t_values]
    mom = _moments([(prep.terms, beta) for prep, beta in zip(preps, betas)], z_minus_one=True)
    return [
        _thermo_point(p, t, beta, prep, *moments)
        for p, t, beta, prep, *moments in zip(
            points,
            t_values,
            betas,
            preps,
            mom.shift.tolist(),
            mom.top.tolist(),
            mom.z.tolist(),
            mom.z_minus_one.tolist(),
            mom.abs_sum.tolist(),
            mom.sums.tolist(),
        )
    ]


def _thermo_point(p, t, beta, prep, shift, top, z, z_minus_one, abs_sum, sums) -> ThermoPoint:
    """The ThermoPoint of one item from its moments (see potentials)."""
    m0 = _signed_log(z, shift)
    # NaN fails too: a Z that is not finite (beta*E overflowed) is invalid
    valid = Z_FLOOR_LOG <= m0.log_abs < math.inf and abs(z) >= CANCEL_FLOOR * abs_sum
    if not valid:
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

    mean = dict(zip(prep.names, (s / z for s in sums)))
    du = mean["u"]
    mu_term = p.muS * mean.get("n_s", 0.0) + p.muQb * mean.get("n_qb", 0.0)

    u = prep.e0 + du + mu_term
    f = -t * m0.log_abs + mu_term
    # (U - F)/T = beta <Etilde> + ln|Z|; the weights' shift, measured from
    # the ground row, is the top row's log-weight with its energy so measured
    factor = 2.0 if prep.table.pair[top] else 1.0
    lead = math.log(prep.table.mult[top] * factor) - beta * float(prep.de_eff[top])
    # far below the gap Z = 1 + x with x exponentially small, and log(Z)
    # would round x away; log1p of the exactly rounded Z - 1 keeps it.  Away
    # from 1, log(Z) is already exact to an ulp and Z - 1 may round Z away
    ln_z = math.log(abs(z))
    if 0.5 < z < 2.0:
        ln_z = math.log1p(z_minus_one)
    s = beta * du + lead + ln_z
    # covariance form <E Etilde> - <E><Etilde>, shift-invariant
    cv = beta * beta * (mean["ee"] - mean.get("e", du) * du)

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


def potentials(p: ModelParams, t: float, table: SpectrumTable | None = None) -> ThermoPoint:
    """F, U, S, C_V from the exact partition function at temperature t; the
    one-item call of potentials_batch.

    U is the analytic weighted sum; F = -T ln Z (plus chemical-potential
    terms); S = (U - F)/T; C_V from the analytic covariance form
    beta^2 (<E Etilde> - <E><Etilde>), which equals dU/dT.  Energies in the
    means are measured from the ground row (lowest Etilde), so the ground
    energy's digits cannot swamp S and C_V far below the gap.  Where Z <= 0
    the potentials are continued through ln|Z| and flagged z_nonpositive;
    where |Z| sinks below the floor (or is pure cancellation noise) the
    point is flagged invalid and carries NaN potentials.
    """
    return potentials_batch([p], [t], [table])[0]


def potentials_fd(p: ModelParams, t: float, rel_step: float = 1e-3) -> dict:
    """Finite-difference cross-checks of the analytic potentials.

    Central differences with step h = rel_step * t: S from -dOmega/dT with
    the grand potential Omega = -T ln|Z|, C_V from dU/dT, and U from
    -d(ln|Z|)/d(beta) = <H - muS N - muQb N_qb> plus muS <N> + muQb <N_qb>,
    where <N> = T d(ln|Z|)/d(muS) (likewise N_qb) is differenced in the
    potential with the same step h.  Meaningful away from zeros of Z.
    """
    h = rel_step * t
    lo, hi = potentials_batch([p, p], [t - h, t + h])
    if not (lo.valid and hi.valid):
        raise ZeroPartitionError("finite-difference stencil crosses an invalid point")
    beta_lo, beta_hi = 1.0 / (t - h), 1.0 / (t + h)
    u_fd = -(hi.ln_abs_z - lo.ln_abs_z) / (beta_hi - beta_lo)
    if p.muS != 0.0 or p.muQb != 0.0:
        table = thermal_table(p)

        def ln_z(d_mu_s, d_mu_qb):
            return log_partition(table, 1.0 / t, p.muS + d_mu_s, p.muQb + d_mu_qb).log_abs

        if p.muS != 0.0:
            u_fd += p.muS * t * (ln_z(h, 0.0) - ln_z(-h, 0.0)) / (2.0 * h)
        if p.muQb != 0.0:
            u_fd += p.muQb * t * (ln_z(0.0, h) - ln_z(0.0, -h)) / (2.0 * h)
    omega_lo, omega_hi = -lo.T * lo.ln_abs_z, -hi.T * hi.ln_abs_z
    return {
        "U_fd": u_fd,
        "S_fd": -(omega_hi - omega_lo) / (2.0 * h),
        "Cv_fd": (hi.U - lo.U) / (2.0 * h),
    }


class ExpectationResult(NamedTuple):
    value: float
    imag_residue: float
    defective_blocks: tuple


def _vector_table(p: ModelParams, op) -> tuple[SpectrumTable, np.ndarray, np.ndarray]:
    """Per-eigenvalue table of the vector spectra of p, the coefficients
    <L_n|O|R_n>, and a mask of the shapes with a near-defective level.

    Gathered by the fold plan, as thermal_table is; op is a fold-plan
    operator's name or a callable that maps a BlockLabel to its operator
    matrix and depends on the block shape alone (see vector_spectra).
    Every eigenvalue has its own row (pair False, signed gam) and carries
    its pair-number label; nS is the group's N when p.muS != 0, NaN otherwise.
    """
    w, coef, flags = spectral.vector_spectra(p, op)
    plan = fold_plan(p)
    fold = plan.fold(p.muS != 0.0)
    w = w[fold.slots]
    table = SpectrumTable(
        eps=w.real,
        gam=w.imag,
        mult=fold.mult,
        nS=fold.n,
        npair=plan.slot_nqb[fold.slots],
        pair=np.zeros(len(w), dtype=bool),
        dim_total=fold.dim_total,
    )
    defective = np.zeros(len(plan.shapes), dtype=bool)
    defective[plan.slot_shape[flags]] = True
    return table, coef[fold.slots], defective


def _biorthogonal_means(table: SpectrumTable, coef: np.ndarray, betas, eps_eff, imag: bool):
    """(1/Z) sum_n mult_n e^{-beta E_n} c_n over a per-eigenvalue table at
    each beta, with Re E_n = eps_eff (the grand-canonical energies), from
    one _moments batch: one row (real part), or two (real, imaginary) when
    imag.  A row is NaN where Z counts as zero, that is where
    |Z| <= CANCEL_FLOOR * sum_n mult_n |e^{-beta E_n}|."""
    columns = [(coef.real, coef.imag)]
    if imag:
        columns.append((coef.imag, -coef.real))
    terms = _terms(table, eps_eff, columns)
    mom = _moments([(terms, beta) for beta in betas])
    zero = (mom.z == 0.0) | (np.abs(mom.z) <= CANCEL_FLOOR * mom.w_sum)
    means = np.full(mom.sums.shape, math.nan)
    means[~zero] = mom.sums[~zero] / mom.z[~zero, None]
    return means


def thermal_expectation(op, p: ModelParams, t: float) -> ExpectationResult:
    """Thermal mean of a blockwise operator via biorthogonal weights.

    op maps a BlockLabel to the operator matrix on that block and must
    depend on the block shape alone (np.eye(b.dim) and gap_operator do).
    The value is the real part of (1/Z) sum mult_n e^{-beta E_n}
    <L_n|O|R_n>, with the modulus of its imaginary part as a quality
    metric.  The weights are grand-canonical: E_n is shifted by
    -muS*N - muQb*N_qb, as in Z.  Near-defective levels are not fatal:
    defective_blocks lists the keys, in block order, of every block whose
    shape has one.
    """
    if not t > 0:
        raise ValueError("temperature must be positive")
    table, coef, defective = _vector_table(p, op)
    eps_eff = _eps_eff(table, p.muS, p.muQb)
    (re, im), = _biorthogonal_means(table, coef, [1.0 / t], eps_eff, imag=True).tolist()
    if math.isnan(re):
        raise ZeroPartitionError(
            f"partition function vanishes at T={t:.6g}; expectation undefined"
        )
    plan = fold_plan(p)
    keys = tuple(plan.blocks[i].key() for i in np.flatnonzero(defective[plan.shape_index]))
    return ExpectationResult(re, abs(im), keys)


def gap_curve(p: ModelParams, t_values) -> np.ndarray:
    """Pairing gap Delta(T) = (G/2) sqrt(<pair correlator>) on a grid of T > 0.

    The correlator is the thermal mean of gap_operator, whose sector stacks
    the fold plan holds, from coefficients computed once for all
    temperatures and one _moments batch over the grid; only its real part
    is formed.  The weights are grand-canonical, as in
    thermal_expectation.  Delta is NaN where Z vanishes and where the
    correlator is negative beyond 1e-8 (a biorthogonal mean need not be
    positive in the broken phase); one warning per curve counts the latter.
    """
    tv = np.asarray(list(t_values), dtype=float)
    if not np.all(tv > 0.0):
        raise ValueError("temperatures must be positive")
    table, coef, _ = _vector_table(p, GAP_OPERATOR)
    eps_eff = _eps_eff(table, p.muS, p.muQb)
    mean = _biorthogonal_means(table, coef, (1.0 / tv).tolist(), eps_eff, imag=False)[:, 0]
    negative = mean < -1e-8
    out = np.where(negative, math.nan, 0.5 * p.G * np.sqrt(np.maximum(0.0, mean)))
    if np.any(negative):
        warnings.warn(
            f"pair correlator negative beyond 1e-8 at {np.count_nonzero(negative)} of "
            f"{len(tv)} temperatures, first at T={tv[negative][0]:.6g}; Delta is NaN there"
        )
    return out


def pairing_gap(p: ModelParams, t: float) -> float:
    """Gap estimate at a single temperature (see gap_curve)."""
    return float(gap_curve(p, [t])[0])
