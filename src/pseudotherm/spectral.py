"""Non-symmetric block eigendecomposition and exceptional-point location.

Blocks are real matrices, so eigenvalues are real or come in exact
complex-conjugate pairs.  Right eigenvectors R come from one eigensolve of
H; the left ones are the rows of inv(R), so <L_m|R_n> = delta_mn (a
bilinear product, no conjugation) holds by construction and the
resolution of the identity is sum_n |R_n><L_n|.  With unit right vectors,
the phase rigidity 1/|L_n| vanishes as a level nears an exceptional point;
such near-defective levels are flagged, never fatal.

Every term of the Hamiltonian conserves the total quasispin projection of
the pairing register, so each block is diagonalized sector by sector in
that projection.  This keeps the eigenproblem small, tags every eigenvalue
with its exact pair-number label, and keeps accidental cross-sector
degeneracies out of the eigensolver.

This module only assembles and solves; the layout is model.fold_plan's:
the sectors of all shapes grouped by size, with their restricted operators
stacked once per size and laid end to end, so model.assemble_hamiltonian,
the linear combination build_block_hamiltonian uses on the whole block,
assembles any contiguous range of them for a batch of parameter points in
one call, one leading axis per point.  block_spectra takes a batch of
points together (one system size, one coupling mode) and assembles it one
range of size groups at a time, at most STACK_ELEMENTS elements per
operator, so its working memory is bounded however many points it takes;
each (size, symmetric) group of all points is solved with one batched
eigenvalue call (a group too large for the budget alone is split over the
points), and one lexsort orders every point's and shape's eigenvalues; a
single point is a batch of one.

vector_spectra, behind thermal averages, assembles one point in the same
bounded ranges, makes one batched diagonalize call per size and contracts
each level's <L_n|O|R_n> within its sector, against the operator's sector
stack (read from the plan for a plan operator such as the gap operator), so
no eigenvector is ever laid out in a block basis.
Each matrix of a batch is solved on its own, so the result equals a
per-sector, per-point solve bit for bit.

The spectral layer is flat: its arrays run in the fold plan's slot order,
a shape is its slot range (plan.bounds), and the EP sweep counts and
matches pairs per shape through plan.slot_shape.  Blocks appear only at
the output edge, through the plan's one block -> shape map: the spectrum
table's rows, the Fock-oracle multiset, EP block keys and the
defective-block keys of thermal averages.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SolverFailure
# build_block_hamiltonian is not called in this module; perfbench/spans.py wraps
# it under this module's name.
from .model import ModelParams, assemble_hamiltonian, build_block_hamiltonian, fold_plan
from .roots import bisect

__all__ = [
    "EpLocation",
    "diagonalize",
    "block_spectra",
    "vector_spectra",
    "block_eigen_data",
    "ground_state_info",
    "GroundStateInfo",
    "find_eps",
    "first_eps_about_unity",
    "EpUnityTable",
]

DEFECT_TOL = 1e-8          # phase rigidity 1/|L| (unit R) below this: near-defective
TIE_TOL = 1e-7             # GHz; degeneracy counting of the ground level
IM_TOL = 1e-9              # GHz-relative floor for treating Im E as zero
# EP indicator threshold: must sit above the non-symmetric eigensolver's
# noise at near-degenerate real levels (~1e-5 GHz for ~60 GHz matrices)
# and below every physical coalescence's gamma growth (>= 1e-3 within any
# resolvable parameter step).
EP_IM_FLOOR = 1e-4
EIGEN_CACHE_SIZE = 768
# Matrix elements assembled per operator in one step of block_spectra or
# vector_spectra: a range of consecutive size groups for every point of a
# batch, or a slice of the points for a group whose stacks alone exceed it.
# One point's stacks hold 16k elements at Omega = 4 and 1.7M at Omega = 10,
# the largest group 2.6k and 99k; so a range holds 512 KiB of float64 per
# array, and a desk batch of up to 25 points keeps one eigenvalue call per
# (size, symmetric) group.  Speed depends on how a batch is cut: chunks of whole points
# multiply the eigenvalue calls as the budget shrinks (a 15-point desk
# batch took 68-70 ms at 2^18 and 81-83 ms at 2^15 elements per chunk),
# while ranges of groups keep them (57-69 ms at 2^16; medians of 8, BLAS
# on 1 thread, 2-core VM).
STACK_ELEMENTS = 1 << 16


def diagonalize(h: np.ndarray) -> tuple:
    """Eigenvalues w (k, n), biorthonormal left and right columns (k, n, n)
    and near-defective flags (k, n) of each matrix of a real (k, n, n) stack.

    The exactly symmetric matrices take one symmetric solve (real spectrum,
    orthonormal vectors, left = right, never near-defective).  The others
    take one eig and one inv: the left vectors are the rows of inv(R), so
    left[i].T @ right[i] = I with unit right vectors, and a level whose
    phase rigidity 1/|L_n| falls below DEFECT_TOL is flagged.  Each matrix
    is solved on its own, in the eigensolver's order; nothing is sorted.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 3 or h.shape[1] != h.shape[2]:
        raise ValueError("expected a (k, n, n) stack of square matrices")
    sym = (h == h.transpose(0, 2, 1)).all(axis=(1, 2))
    w = np.empty(h.shape[:2], dtype=complex)
    right, inv = np.empty(h.shape, dtype=complex), np.empty(h.shape, dtype=complex)
    if sym.any():
        w[sym], right[sym] = np.linalg.eigh(h[sym])
        inv[sym] = right[sym].transpose(0, 2, 1)
    if not sym.all():
        try:
            w[~sym], right[~sym] = np.linalg.eig(h[~sym])
            inv[~sym] = np.linalg.inv(right[~sym])
        except np.linalg.LinAlgError as exc:
            raise SolverFailure("eigensolver failed on a sector stack") from exc
    flags = ~sym[:, None] & (1.0 / np.linalg.norm(inv, axis=2) < DEFECT_TOL)
    return w, inv.transpose(0, 2, 1), right, flags


def _assembly_steps(sizes, n: int) -> list:
    """(points, groups) steps that assemble the size groups of a batch of n
    points at most STACK_ELEMENTS elements per operator at a time.

    A step is a range of consecutive groups for every point, or one group
    whose stacks alone exceed the budget for a slice of the points; only
    such a group is solved in more than one eigenvalue call per symmetry.
    """
    steps, run, elements = [], [], 0
    for group in sizes:
        k = group.span.stop - group.span.start
        if run and n * (elements + k) > STACK_ELEMENTS:
            steps.append((slice(None), run))
            run, elements = [], 0
        if n * k > STACK_ELEMENTS:
            per = max(1, STACK_ELEMENTS // k)
            steps.extend((slice(lo, lo + per), [group]) for lo in range(0, n, per))
        else:
            run.append(group)
            elements += k
    if run:
        steps.append((slice(None), run))
    return steps


def block_spectra(points) -> tuple:
    """Read-only (points, slots) arrays (w, nqb): the eigenvalues of each
    point of a batch in the fold plan's slot order, and their pair-number
    labels.

    The points share one system size and one coupling_z (ValueError
    otherwise).  The Hamiltonian reads only the shape of a block, so each
    point holds one spectrum per (s1, s2, S) shape, the shape's slot range
    (plan.bounds); model.fold_plan maps every block to its shape.  The
    sector stacks are assembled for all points one range of consecutive
    size groups at a time, at most STACK_ELEMENTS elements per operator
    (see _assembly_steps), and each (size, symmetric) group is solved with
    one eigenvalue call; one lexsort by (shape, Re, Im) then orders every
    shape's eigenvalues across its sectors, so conjugate partners sit
    adjacent.  Every matrix is solved on its own, so a point's row equals
    that of a batch of that point alone bit for bit.
    """
    points = tuple(points)
    if not points:
        return np.empty((0, 0), dtype=complex), np.empty((0, 0))
    p = points[0]
    for q in points:
        if (q.Omega, q.Omega1, q.Omega2, q.coupling_z) != (
            p.Omega, p.Omega1, p.Omega2, p.coupling_z
        ):
            raise ValueError("a batch needs one system size and one coupling_z")
    plan = fold_plan(p)
    w = np.empty((len(points), len(plan.slot_nqb)), dtype=complex)
    for at, groups in _assembly_steps(plan.sizes, len(points)):
        start, stop = groups[0].span.start, groups[-1].span.stop
        h = assemble_hamiltonian(
            points[at], {name: op[start:stop] for name, op in plan.ops.items()}
        )
        for group in groups:
            hg = group.matrices(h, start)
            sym = (hg == hg.swapaxes(2, 3)).all(axis=(2, 3))
            vals = np.empty(hg.shape[:-1], dtype=complex)
            if sym.any():
                vals[sym] = np.linalg.eigvalsh(hg[sym])
            if not sym.all():
                vals[~sym] = np.linalg.eigvals(hg[~sym])
            w[at, group.slots] = vals
        del h, hg   # the next range is assembled without this one alive

    order = np.lexsort((w.imag, w.real, np.broadcast_to(plan.slot_shape, w.shape)))
    w = np.take_along_axis(w, order, axis=1)
    nqb = plan.slot_nqb[order]
    for a in (w, nqb):
        a.setflags(write=False)
    return w, nqb


def vector_spectra(p: ModelParams, op) -> tuple:
    """Read-only slot arrays (w, coef, near_defective) of one point: its
    levels in the fold plan's slot order, the coefficients coef[n] =
    <L_n|O|R_n> of op and the near-defective flag of each level; the pair
    labels are plan.slot_nqb.

    op is the name of a fold-plan operator (model.assembly_operators), whose
    sector stacks are read from the plan as they are, or a callable that
    maps a BlockLabel to its operator matrix on the whole block; a callable
    is called once per shape, on the shape's first block, so it must depend
    on the shape alone, and its sectors are gathered from that matrix.
    The plan is assembled one range of size groups at a time, at most
    STACK_ELEMENTS elements per operator, as in block_spectra, and each
    sector-size group is decomposed with one diagonalize call and
    contracted against the group's (k, n, n) operator stack.  Every
    eigenvector lies in one pair-projection sector (H conserves the
    projection), so <L_n|O|R_n> reads only the sector's rows and columns of
    O: the contraction is exact for any op, also one that mixes sectors.
    Within a shape, levels run sector by sector in increasing pair
    projection, each sector in the eigensolver's order.
    """
    plan = fold_plan(p)
    if callable(op):
        ops = [op(plan.blocks[first]) for first in plan.first]
    w = np.empty(len(plan.slot_nqb), dtype=complex)
    coef = np.empty(len(plan.slot_nqb), dtype=complex)
    flags = np.empty(len(plan.slot_nqb), dtype=bool)
    for _, groups in _assembly_steps(plan.sizes, 1):
        start, stop = groups[0].span.start, groups[-1].span.stop
        h = assemble_hamiltonian([p], {name: o[start:stop] for name, o in plan.ops.items()})[0]
        for group in groups:
            vals, left, right, bad = diagonalize(group.matrices(h, start))
            if callable(op):
                o = np.stack([ops[si][np.ix_(idx, idx)] for si, idx in group.sectors])
            else:
                o = group.matrices(plan.ops[op])
            w[group.slots], flags[group.slots] = vals, bad
            coef[group.slots] = np.einsum("kin,kij,kjn->kn", left, o, right)
    for a in (w, coef, flags):
        a.setflags(write=False)
    return w, coef, flags


@lru_cache(maxsize=EIGEN_CACHE_SIZE)
def block_eigen_data(p: ModelParams) -> tuple:
    """Cached read-only slot arrays (w, nqb) of one point, its row of
    block_spectra.

    Behind the spectrum table, the block union spectrum and
    exceptional-point sweeps; sweeps that revisit the same point
    (bisections) hit the cache.
    """
    w, nqb = block_spectra([p])
    return w[0], nqb[0]


@dataclass(frozen=True)
class GroundStateInfo:
    is_complex: bool
    gamma0: float
    g0: float
    eps0: float


def ground_state_info(table) -> GroundStateInfo:
    """Lowest-Re(E) level of a spectrum table (thermo.thermal_table) with its
    degeneracy g0: the summed multiplicity of the rows (levels, and pairs by
    their +i gamma member) that tie in both Re and Im within TIE_TOL."""
    eps, gam = table.eps, table.gam
    e_min = float(np.min(eps))
    ties = np.abs(eps - e_min) <= TIE_TOL
    gamma0 = float(np.max(gam[ties]))
    members = ties & (np.abs(gam - gamma0) <= TIE_TOL)
    g0 = float(np.sum(table.mult[members]))
    return GroundStateInfo(
        is_complex=gamma0 > 0.0,
        gamma0=gamma0,
        g0=g0,
        eps0=e_min,
    )


def complex_pair_counts(p: ModelParams) -> tuple:
    """Conjugate-pair count of each shape, eigenvalues with Im E >
    EP_IM_FLOOR; a change in any component marks an EP even when births
    and deaths in different shapes coincide."""
    plan = fold_plan(p)
    w, _ = block_eigen_data(p)
    return tuple(
        np.bincount(plan.slot_shape[w.imag > EP_IM_FLOOR], minlength=len(plan.shapes)).tolist()
    )


@dataclass(frozen=True)
class EpLocation:
    """One exceptional point refined to the requested bracketing precision.

    block_key and level_indices[0] name the first block of the pair's shape
    and its index among the blocks; level_indices[1] is the pair's index in
    the shape's spectrum.
    """

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


def _pairs(p: ModelParams):
    """Every eigenvalue with Im E > EP_IM_FLOOR, with its shape and its
    index in the shape's spectrum, in slot order."""
    slot_shape = fold_plan(p).slot_shape
    w, _ = block_eigen_data(p)
    at = np.flatnonzero(w.imag > EP_IM_FLOOR)
    shape = slot_shape[at]
    return w[at], shape, at - np.searchsorted(slot_shape, shape)


def _near(points: np.ndarray, others: np.ndarray, radius: float) -> np.ndarray:
    """Mask of the points with some q of others at |point - q| < radius;
    a binary search on sorted real parts finds the q worth comparing."""
    q = others[np.argsort(others.real, kind="stable")]
    start = np.searchsorted(q.real, points.real - 2 * radius, side="left")
    count = np.searchsorted(q.real, points.real + 2 * radius, side="right") - start
    owner = np.repeat(np.arange(len(points)), count)
    k = np.arange(len(owner)) - np.repeat(np.cumsum(count) - count - start, count)
    near = np.zeros(len(points), dtype=bool)
    near[owner[np.abs(points[owner] - q[k]) < radius]] = True
    return near


def _newborn_at(p_hi_count, p_lo_count):
    """(shape index, eigenvalue, index in the shape's spectrum) of the
    smallest-gamma pair of the higher-count side with no counterpart within
    10 EP_IM_FLOOR on the lower-count side, or failing that of its
    smallest-gamma pair; None where that side has no pair."""
    pairs, shape, level = _pairs(p_hi_count)
    if not len(pairs):
        return None
    fresh = ~_near(pairs, _pairs(p_lo_count)[0], 10 * EP_IM_FLOOR)
    pool = np.flatnonzero(fresh) if fresh.any() else np.arange(len(pairs))
    j = pool[np.argmin(pairs.imag[pool])]
    return shape[j], pairs[j], int(level[j])


def find_eps(
    p: ModelParams,
    param: str,
    lo: float,
    hi: float,
    steps: int,
    precision: float = 1e-4,
) -> list[EpLocation]:
    """Locate exceptional points along a sweep of param ("alpha" or "g")
    over [lo, hi].

    The number of complex pairs, eigenvalues with Im E > EP_IM_FLOOR
    (complex_pair_counts), is scanned on a coarse grid of `steps` points,
    at least 2; every count change (a pair being born or dying, which is
    exactly a coalescence for a real matrix) is bisected in lockstep by
    roots.bisect, a point with the counts of the low end lying on its side,
    to a bracket no wider than `precision` or until its midpoint rounds onto
    an end, and the newborn pair's Re(E) is recorded.  An empty result just
    means no EP in range; windows narrower than the coarse step are
    invisible.
    """
    if not lo < hi:
        raise ValueError("sweep requires lo < hi")
    if steps < 2:
        raise ValueError("steps must be at least 2")
    if not precision > 0:
        raise ValueError(f"precision must be positive, got {precision!r}")

    plan = fold_plan(p)
    blocks = np.bincount(plan.shape_index)

    def counts_at(x):
        return complex_pair_counts(_with_param(p, param, x))

    grid = np.linspace(lo, hi, steps)
    counts = [counts_at(x) for x in grid]
    changes = {
        i: (a, b)
        for i, (a, b, ca, cb) in enumerate(zip(grid[:-1], grid[1:], counts[:-1], counts[1:]))
        if ca != cb
    }

    def side(points):
        return {i: 1 if counts_at(x) == counts[i] else -1 for i, x in points.items()}

    eps_found = []
    for value, x_lo, x_hi in bisect(changes, side, tol=precision).values():
        # born if the pairs over all blocks did not fall: each shape's
        # count weighted by its number of blocks
        born = np.dot(blocks, counts_at(x_hi)) >= np.dot(blocks, counts_at(x_lo))
        if born:
            p_hi, p_lo = _with_param(p, param, x_hi), _with_param(p, param, x_lo)
        else:
            p_hi, p_lo = _with_param(p, param, x_lo), _with_param(p, param, x_hi)
        newborn = _newborn_at(p_hi, p_lo)
        if newborn is None:
            warnings.warn(f"EP near {param}={x_lo:.6g} has no resolvable pair")
            continue
        si, pair, level = newborn
        first = plan.first[si]
        eps_found.append(
            EpLocation(
                param=param,
                value=value,
                bracket=(x_lo, x_hi),
                re_coalesce=float(pair.real),
                gamma=float(pair.imag),
                block_key=plan.blocks[first].key(),
                level_indices=(first, level),
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
    marks it; the last step, from its inner to its outer end, is then
    bisected by roots.bisect until the bracket is no wider than
    `precision`, or its midpoint rounds onto an end, and its midpoint is
    returned.  The ground level is real just inside the result and
    complex just outside it.  Returns NaN when the ground level stays real
    over the whole range.

    At this boundary the pair is already complex: it is where a pair's real
    part drops below the lowest real level.  The pair itself was born at an
    exceptional point further from alpha = 1.
    """
    from .thermo import thermal_table

    def broken(x: float) -> bool:
        return ground_state_info(thermal_table(p.with_(alpha=x))).is_complex

    def side(points):
        return {k: -1 if broken(x) else 1 for k, x in points.items()}

    ln_span = math.log(span)
    inner = 1.0
    for k in range(1, math.ceil(ln_span / step) + 1):
        outer = math.exp(direction * min(k * step, ln_span))
        if broken(outer):
            return bisect({0: (inner, outer)}, side, tol=precision)[0][0]
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
