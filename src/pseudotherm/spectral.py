"""Non-symmetric block eigendecomposition and exceptional-point location.

Blocks are real matrices, so eigenvalues are real or come in exact
complex-conjugate pairs.  Right eigenvectors come from H, left ones from
H^T, matched by eigenvalue; the biorthogonal overlap <L_n|R_n> (a bilinear
product, no conjugation) is recorded so thermal averages can divide by it.
Vanishing overlap marks a near-defective level (the fingerprint of an
exceptional point); such levels are flagged, never fatal.

Every term of the Hamiltonian conserves the total quasispin projection of
the pairing register, so each block is diagonalized sector by sector in
that projection.  This keeps the eigenproblem small, tags every eigenvalue
with its exact pair-number label, and keeps accidental cross-sector
degeneracies out of the eigensolver.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .blocks import BlockLabel
from .errors import SolverFailure
from .model import (
    SHAPE_CACHE_SIZE,
    ModelParams,
    _shape_of,
    _shape_operators,
    build_block_hamiltonian,
)

__all__ = [
    "BlockSpectrum",
    "EpLocation",
    "diagonalize",
    "classify",
    "Classification",
    "block_spectra",
    "block_eigen_data",
    "ground_state_info",
    "GroundStateInfo",
    "max_imag_eigenvalue",
    "find_eps",
    "first_eps_about_unity",
    "EpUnityTable",
]

DEFECT_TOL = 1e-8          # |<L|R>| below this (unit vectors) flags near-defective
TIE_TOL = 1e-7             # GHz; eigenvalue matching and degeneracy counting
IM_TOL = 1e-9              # GHz-relative floor for treating Im E as zero
# EP indicator threshold: must sit above the non-symmetric eigensolver's
# noise at near-degenerate real levels (~1e-5 GHz for ~60 GHz matrices)
# and below every physical coalescence's gamma growth (>= 1e-3 within any
# resolvable parameter step).
EP_IM_FLOOR = 1e-4
EIGEN_CACHE_SIZE = 768


@dataclass
class BlockSpectrum:
    """Eigendecomposition of one block.

    eigenvalues are sorted by (Re, Im) so conjugate partners sit adjacent;
    nqb holds the exact pair-number label of each eigenvector's sector.
    Vector fields are None when only eigenvalues were requested.
    """

    label: BlockLabel
    eigenvalues: np.ndarray
    right_vectors: np.ndarray | None = None
    left_vectors: np.ndarray | None = None
    biorth_norms: np.ndarray | None = None
    nqb: np.ndarray | None = None
    near_defective: np.ndarray | None = None

    @property
    def mult(self) -> int:
        return self.label.mult


def _sorted_order(w: np.ndarray) -> np.ndarray:
    return np.lexsort((w.imag, w.real))


def diagonalize(
    h: np.ndarray,
    label: BlockLabel | None = None,
    defect_tol: float = DEFECT_TOL,
    tie_tol: float = TIE_TOL,
) -> BlockSpectrum:
    """Full eigendecomposition of a real square matrix.

    Exactly symmetric input takes the symmetric solver (real spectrum,
    orthonormal vectors, unit biorthogonal norms).  Otherwise right and
    left eigenvectors are matched greedily by eigenvalue; the match must
    close to within tie_tol or a SolverFailure is raised.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("matrix must be square")

    if np.array_equal(h, h.T):
        w, v = np.linalg.eigh(h)
        order = np.argsort(w)
        w = w[order].astype(complex)
        v = v[:, order].astype(complex)
        norms = np.ones(len(w), dtype=complex)
        return BlockSpectrum(
            label=label,
            eigenvalues=w,
            right_vectors=v,
            left_vectors=v.copy(),
            biorth_norms=norms,
            near_defective=np.zeros(len(w), dtype=bool),
        )

    try:
        w, vr = np.linalg.eig(h)
        wl, vl = np.linalg.eig(h.T)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"eigensolver failed for block {label!r}") from exc

    order = _sorted_order(w)
    w, vr = w[order], vr[:, order]

    # greedy eigenvalue matching of left partners (conjugate-aware: both
    # lists carry the full conjugate-closed multiset)
    used = np.zeros(len(wl), dtype=bool)
    left = np.empty_like(vr)
    scale = max(1.0, float(np.max(np.abs(w))) if len(w) else 1.0)
    for i, lam in enumerate(w):
        dist = np.abs(wl - lam)
        dist[used] = np.inf
        j = int(np.argmin(dist))
        if dist[j] > 1e3 * tie_tol * scale:
            raise SolverFailure(
                f"left/right eigenvalue match failed for block {label!r}: "
                f"residual {dist[j]:.3e}"
            )
        used[j] = True
        left[:, i] = vl[:, j]

    norms = np.einsum("ij,ij->j", left, vr)
    flags = np.abs(norms) < defect_tol
    return BlockSpectrum(
        label=label,
        eigenvalues=w,
        right_vectors=vr,
        left_vectors=left,
        biorth_norms=norms,
        near_defective=flags,
    )


@lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _shape_sectors(shape: tuple) -> tuple:
    """(pair projection m, basis indices, np.ix_ submatrix index) of each
    pair-projection sector of one (s1, s2, S) shape."""
    keys = np.round(2 * _shape_operators(*shape)["ztot_diag"]).astype(int)
    sectors = []
    for key in np.unique(keys):
        idx = np.nonzero(keys == key)[0]
        idx.setflags(write=False)
        sectors.append((key / 2.0, idx, np.ix_(idx, idx)))
    return tuple(sectors)


def _batched_eigvals(tasks):
    """Eigenvalues for a list of (key, matrix) with same-size matrices stacked
    into single LAPACK calls; returns {key: eigenvalues}."""
    by_shape: dict = {}
    for key, h in tasks:
        sym = np.array_equal(h, h.T)
        by_shape.setdefault((h.shape[0], sym), []).append((key, h))
    out = {}
    for (n, sym), group in by_shape.items():
        stack = np.stack([h for _, h in group])
        w = np.linalg.eigvalsh(stack) if sym else np.linalg.eigvals(stack)
        for (key, _), wi in zip(group, w):
            out[key] = wi.astype(complex)
    return out


def block_spectra(
    p: ModelParams,
    blocks=None,
    want_vectors: bool = False,
) -> list[BlockSpectrum]:
    """Diagonalize every block of the model, once per (s1, s2, S) shape.

    The Hamiltonian reads only the shape of a block, so one representative
    per distinct shape among `blocks` is solved and every block of that
    shape gets the same read-only arrays.  Eigenvalues are merged across
    pair-projection sectors and sorted by (Re, Im); eigenvectors, when
    requested, are embedded back into the full block basis.
    """
    if blocks is None:
        blocks = p.blocks()
    shapes = [_shape_of(b) for b in blocks]
    reps = {}
    for shape, b in zip(shapes, blocks):
        reps.setdefault(shape, b)
    shift = 0.5 * (p.Omega1 + p.Omega2)
    plan = [
        (shape, b, build_block_hamiltonian(p, b), _shape_sectors(shape))
        for shape, b in reps.items()
    ]

    eig_cache = None
    if not want_vectors:
        tasks = [
            ((shape, si), h[sub])
            for shape, _, h, sectors in plan
            for si, (_, _, sub) in enumerate(sectors)
        ]
        eig_cache = _batched_eigvals(tasks)

    solved = {}
    for shape, b, h, sectors in plan:
        vals, nqbs = [], []
        rights, lefts, norms, flags = [], [], [], []
        for si, (m, idx, sub) in enumerate(sectors):
            if want_vectors:
                dec = diagonalize(h[sub], label=b)
                vals.append(dec.eigenvalues)
                r_full = np.zeros((h.shape[0], len(idx)), dtype=complex)
                l_full = np.zeros_like(r_full)
                r_full[idx, :] = dec.right_vectors
                l_full[idx, :] = dec.left_vectors
                rights.append(r_full)
                lefts.append(l_full)
                norms.append(dec.biorth_norms)
                flags.append(dec.near_defective)
            else:
                vals.append(eig_cache[(shape, si)])
            nqbs.append(np.full(len(idx), m + shift))
        w = np.concatenate(vals)
        order = _sorted_order(w)
        fields = {"eigenvalues": w[order], "nqb": np.concatenate(nqbs)[order]}
        if want_vectors:
            fields["right_vectors"] = np.concatenate(rights, axis=1)[:, order]
            fields["left_vectors"] = np.concatenate(lefts, axis=1)[:, order]
            fields["biorth_norms"] = np.concatenate(norms)[order]
            fields["near_defective"] = np.concatenate(flags)[order]
        for a in fields.values():
            a.setflags(write=False)
        solved[shape] = fields
    return [BlockSpectrum(label=b, **solved[shape]) for shape, b in zip(shapes, blocks)]


@lru_cache(maxsize=EIGEN_CACHE_SIZE)
def block_eigen_data(p: ModelParams) -> tuple:
    """Cached eigenvalue-only spectra (label, eigenvalues, nqb) per block.

    The per-block view behind the spectrum table, the block union spectrum
    and exceptional-point sweeps; blocks of one shape share read-only
    arrays.  Sweeps that revisit the same point (bisections) hit the cache.
    """
    return tuple(
        (s.label, s.eigenvalues, s.nqb) for s in block_spectra(p, want_vectors=False)
    )


@dataclass(frozen=True)
class Classification:
    real_levels: np.ndarray
    complex_pairs: np.ndarray  # rows (eps, gamma > 0)


def classify(spec: BlockSpectrum | np.ndarray, im_tol: float = IM_TOL) -> Classification:
    """Split a spectrum into real levels and conjugate pairs (eps, gamma).

    An eigenvalue counts as real iff |Im E| <= im_tol * max(1, |E|).  The
    remaining values must pair up under conjugation (the matrix is real);
    an unpairable leftover raises.
    """
    w = spec.eigenvalues if isinstance(spec, BlockSpectrum) else np.asarray(spec)
    w = np.atleast_1d(w.astype(complex))
    thresh = im_tol * np.maximum(1.0, np.abs(w))
    real_mask = np.abs(w.imag) <= thresh
    real_levels = np.sort(w[real_mask].real)

    cplx = w[~real_mask]
    pos = np.sort_complex(cplx[cplx.imag > 0])
    neg = np.sort_complex(cplx[cplx.imag < 0].conj())
    if len(pos) != len(neg):
        raise AssertionError("conjugation symmetry violated: unpaired complex value")
    pair_tol = np.maximum(1e-8, 1e-8 * np.abs(pos)) if len(pos) else 0.0
    if len(pos) and np.any(np.abs(pos - neg) > pair_tol):
        raise AssertionError("conjugation symmetry violated beyond tolerance")
    pairs = np.column_stack([pos.real, pos.imag]) if len(pos) else np.empty((0, 2))
    return Classification(real_levels=real_levels, complex_pairs=pairs)


@dataclass(frozen=True)
class GroundStateInfo:
    E0: complex
    is_complex: bool
    gamma0: float
    g0: float
    eps0: float


def _entry_arrays(spectra):
    """(eps, gam>=0, mult) rows, one per eigenvalue with Im >= 0.

    Blocks that share one eigenvalue array (one shape, see block_spectra)
    give one set of rows with their summed multiplicity.
    """
    if hasattr(spectra, "eps"):  # thermal table
        return spectra.eps, spectra.gam, spectra.mult
    folded = {}
    for s in spectra:
        w, m = folded.get(id(s.eigenvalues), (s.eigenvalues, 0))
        folded[id(s.eigenvalues)] = (w, m + s.mult)
    eps, gam, mult = [], [], []
    for w, m in folded.values():
        keep = w.imag >= 0.0
        eps.append(w.real[keep])
        gam.append(w.imag[keep])
        mult.append(np.full(int(np.sum(keep)), float(m)))
    return np.concatenate(eps), np.concatenate(gam), np.concatenate(mult)


def ground_state_info(
    spectra, tie_tol: float = TIE_TOL, im_tol: float = IM_TOL
) -> GroundStateInfo:
    """Lowest-Re(E) level across all blocks with its degeneracy.

    Degeneracy g0 aggregates multiplicities over levels tying in both Re
    and Im within tie_tol; a conjugate pair counts once (its +i gamma
    member).
    """
    eps, gam, mult = _entry_arrays(spectra)
    if len(eps) == 0:
        raise ValueError("empty spectra")
    gam = np.where(gam <= im_tol * np.maximum(1.0, np.abs(eps)), 0.0, gam)
    e_min = float(np.min(eps))
    ties = np.abs(eps - e_min) <= tie_tol
    gamma0 = float(np.max(gam[ties]))
    members = ties & (np.abs(gam - gamma0) <= tie_tol)
    g0 = float(np.sum(mult[members]))
    return GroundStateInfo(
        E0=complex(e_min, gamma0),
        is_complex=gamma0 > 0.0,
        gamma0=gamma0,
        g0=g0,
        eps0=e_min,
    )


def max_imag_eigenvalue(p: ModelParams) -> float:
    """Broken-phase indicator: max |Im E| over every block eigenvalue."""
    return max(
        (float(np.max(np.abs(w.imag))) if len(w) else 0.0)
        for _, w, _ in block_eigen_data(p)
    )


def complex_pair_count(p: ModelParams, im_floor: float = EP_IM_FLOOR) -> int:
    """Number of conjugate pairs with Im E above the floor, over all blocks.

    Unlike the max-|Im| indicator this changes at every pair's exceptional
    point, including those inside an already-broken region.
    """
    return int(sum(complex_pair_counts(p, im_floor)))


def complex_pair_counts(p: ModelParams, im_floor: float = EP_IM_FLOOR) -> tuple:
    """Per-block conjugate-pair counts; a change in any component marks an
    EP even when births and deaths in different blocks coincide."""
    return tuple(
        int(np.sum(w.imag > im_floor)) for _, w, _ in block_eigen_data(p)
    )


@dataclass(frozen=True)
class EpLocation:
    """One exceptional point refined to the requested bracketing precision."""

    param: str
    value: float
    bracket: tuple
    re_coalesce: float
    gamma: float
    block_key: tuple
    level_indices: tuple


def _with_param(p: ModelParams, param: str, x: float) -> ModelParams:
    if param not in ("alpha", "g"):
        raise ValueError(f"sweep parameter must be alpha or g, got {param!r}")
    return p.with_(**{param: float(x)})


def _newborn_pair(p: ModelParams, im_floor: float):
    """Smallest-gamma complex pair at a broken-phase point."""
    best = None
    for i, (label, w, _) in enumerate(block_eigen_data(p)):
        mask = w.imag > im_floor
        if not np.any(mask):
            continue
        j = int(np.argmin(w.imag[mask]))
        cand = w[mask][j]
        if best is None or cand.imag < best[2]:
            idx = np.nonzero(mask)[0][j]
            best = (label, float(cand.real), float(cand.imag), i, int(idx))
    return best


def _newborn_at(p_hi_count, p_lo_count, im_floor):
    """Pair present on the higher-count side with the smallest gamma and no
    close counterpart on the lower-count side."""
    lo_pairs = []
    for _, w, _ in block_eigen_data(p_lo_count):
        lo_pairs.extend(w[w.imag > im_floor])
    best = None
    for i, (label, w, _) in enumerate(block_eigen_data(p_hi_count)):
        mask = w.imag > im_floor
        for idx in np.nonzero(mask)[0]:
            cand = w[idx]
            if any(abs(cand - q) < 10 * im_floor for q in lo_pairs):
                continue
            if best is None or cand.imag < best[2]:
                best = (label, float(cand.real), float(cand.imag), i, int(idx))
    if best is None:
        return _newborn_pair(p_hi_count, im_floor)
    return best


def find_eps(
    p: ModelParams,
    sweep,
    precision: float = 1e-4,
    im_floor: float = EP_IM_FLOOR,
) -> list[EpLocation]:
    """Locate exceptional points along a one-parameter sweep.

    sweep is a mapping with keys param ("alpha"|"g"), lo, hi, coarse_steps.
    The number of complex pairs is scanned on the coarse grid; every count
    change (a pair being born or dying, which is exactly a coalescence for
    a real matrix) is bisected to a bracket no wider than `precision` and
    the newborn pair's Re(E) is recorded.  An empty result just means no
    EP in range; windows narrower than the coarse step are invisible.
    """
    param = sweep["param"]
    lo, hi = float(sweep["lo"]), float(sweep["hi"])
    steps = int(sweep["coarse_steps"])
    if not lo < hi:
        raise ValueError("sweep requires lo < hi")
    if steps < 2:
        raise ValueError("coarse_steps must be at least 2")

    grid = np.linspace(lo, hi, steps)
    counts = [complex_pair_counts(_with_param(p, param, x), im_floor) for x in grid]

    eps_found = []
    for a, b, ca, cb in zip(grid[:-1], grid[1:], counts[:-1], counts[1:]):
        if ca == cb:
            continue
        x_lo, x_hi, c_lo = a, b, ca
        while x_hi - x_lo > precision:
            mid = 0.5 * (x_lo + x_hi)
            if complex_pair_counts(_with_param(p, param, mid), im_floor) == c_lo:
                x_lo = mid
            else:
                x_hi = mid
        born = sum(complex_pair_counts(_with_param(p, param, x_hi), im_floor)) >= sum(
            complex_pair_counts(_with_param(p, param, x_lo), im_floor)
        )
        if born:
            p_hi, p_lo = _with_param(p, param, x_hi), _with_param(p, param, x_lo)
        else:
            p_hi, p_lo = _with_param(p, param, x_lo), _with_param(p, param, x_hi)
        pair = _newborn_at(p_hi, p_lo, im_floor)
        if pair is None:
            warnings.warn(f"EP near {param}={x_lo:.6g} has no resolvable pair")
            continue
        label, re_c, gam, bi, idx = pair
        eps_found.append(
            EpLocation(
                param=param,
                value=0.5 * (x_lo + x_hi),
                bracket=(x_lo, x_hi),
                re_coalesce=re_c,
                gamma=gam,
                block_key=label.key(),
                level_indices=(bi, idx),
            )
        )
    eps_found.sort(key=lambda e: e.value)
    return eps_found


@dataclass(frozen=True)
class EpUnityTable:
    """Broken-phase boundaries on either side of the symmetric point, per g.

    alpha_below / alpha_above hold, for each g, the alpha nearest 1 at which
    the ground level (lowest Re E over all blocks) becomes a complex pair;
    NaN means the ground level stays real over the whole search range.
    below_relative_spread is (max - min) / mean of the finite below-unity
    boundaries over the upper half of the g grid; above_r2 and above_slope
    describe the linear fit of the finite above-unity boundaries against g.
    """

    g_values: tuple
    alpha_below: tuple
    alpha_above: tuple
    below_relative_spread: float
    above_r2: float
    above_slope: float


def _march_to_ep(
    p: ModelParams,
    direction: int,
    step: float,
    span: float,
    precision: float,
) -> float:
    """Ground-level broken-phase boundary nearest alpha = 1 on one side.

    Marches from alpha = 1 (direction +1 upward, -1 downward) in equal
    steps of ln(alpha) up to alpha = span**direction, stopping at the first
    alpha where the ground level is a complex pair, as ground_state_info
    marks it; the last step is then bisected until the bracket is no wider
    than `precision`, and its midpoint is returned.  The ground level is
    real just inside the result and complex just outside it.  Returns NaN
    when the ground level stays real over the whole range.

    At this boundary the pair is already complex: it is where a pair's real
    part drops below the lowest real level.  The pair itself was born at an
    exceptional point further from alpha = 1.
    """
    def broken(x: float) -> bool:
        return ground_state_info(block_spectra(p.with_(alpha=x))).is_complex

    ln_span = math.log(span)
    inner = 1.0
    for k in range(1, math.ceil(ln_span / step) + 1):
        outer = math.exp(direction * min(k * step, ln_span))
        if broken(outer):
            while abs(outer - inner) > precision:
                mid = 0.5 * (inner + outer)
                if broken(mid):
                    outer = mid
                else:
                    inner = mid
            return 0.5 * (inner + outer)
        inner = outer
    return math.nan


def first_eps_about_unity(
    p: ModelParams,
    g_grid,
    step: float = 0.02,
    span: float = 8.0,
    precision: float = 1e-4,
) -> EpUnityTable:
    """For each g, the broken-phase boundary nearest alpha = 1 on each side.

    The boundary is where the ground level becomes a complex pair, the
    marker of the broken-symmetry phase that also carries the zeros of Z.
    Each side is searched over 1/span <= alpha <= span by a march in steps
    of `step` in ln(alpha) and a bisection to `precision` in alpha (see
    _march_to_ep); NaN marks a side with no boundary in that range.  Also
    summarizes the trends: relative spread of the below-unity boundary over
    the upper half of the g grid, and the linear-fit quality (R^2, slope)
    of the above-unity boundary against g.
    """
    if step <= 0 or precision <= 0:
        raise ValueError("step and precision must be positive")
    if span <= 1:
        raise ValueError("span must exceed 1")
    g_values, below, above = [], [], []
    for g in g_grid:
        pg = p.with_(g=float(g))
        g_values.append(float(g))
        below.append(_march_to_ep(pg, -1, step, span, precision))
        above.append(_march_to_ep(pg, +1, step, span, precision))

    n = len(g_values)
    upper = np.asarray(below[n // 2 :], dtype=float)
    upper = upper[np.isfinite(upper)]
    spread = float((upper.max() - upper.min()) / np.mean(upper)) if len(upper) else np.nan

    ga = np.asarray(g_values, dtype=float)
    ab = np.asarray(above, dtype=float)
    ok = np.isfinite(ab)
    if np.sum(ok) >= 2:
        slope, intercept = np.polyfit(ga[ok], ab[ok], 1)
        fit = slope * ga[ok] + intercept
        ss_res = float(np.sum((ab[ok] - fit) ** 2))
        ss_tot = float(np.sum((ab[ok] - np.mean(ab[ok])) ** 2))
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    else:
        slope, r2 = np.nan, np.nan

    return EpUnityTable(
        g_values=tuple(g_values),
        alpha_below=tuple(float(x) for x in below),
        alpha_above=tuple(float(x) for x in above),
        below_relative_spread=spread,
        above_r2=float(r2),
        above_slope=float(slope),
    )
