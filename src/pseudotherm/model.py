"""Model parameters, the layout plan, Hamiltonian assembly, rescaling.

The Hamiltonian has three contributions: a two-level pairing register
(level energies eps1, eps2 and pair scattering strength G), a collective
ensemble spin with axial splitting D and a quadrupole-like strain term E,
and an asymmetric coupling g * (Sz1 + Sz2) * (alpha * S+ + S-) between
them.  For alpha != 1 the matrix is real but non-symmetric; alpha = 1 is
the symmetric (Hermitian) limit.

Every term is a register factor on the (m1, m2) space times an ensemble
factor on the M space, so an operator on any set of basis states (one
pair-projection sector, or the whole block) is a gather from two small
factor matrices and one elementwise product; no operator is ever formed on
the full product space and then cut down.

fold_plan, cached per system size and coupling mode, is the one layout:
blocks -> (s1, s2, S) shapes -> sectors -> operator stacks by sector size.
It is built in whole-array passes, with no loop over blocks, shapes or
sectors: shapes and exact multiplicity sums follow from the ensemble and
qubit labels whose product the blocks are; one stable sort of every basis
state by (shape, pair projection) gives the slots, sectors and size groups.

Energies are in GHz with k_B = 1, so temperatures are in GHz too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import algebra
from .blocks import BlockLabel, enumerate_blocks, serialized
from .errors import SolverFailure
from .roots import bisect

__all__ = [
    "ModelParams",
    "RescaledParams",
    "Fold",
    "FoldPlan",
    "fold_plan",
    "build_block_hamiltonian",
    "assemble_hamiltonian",
    "assembly_operators",
    "qubit_sz_diagonal",
    "gap_operator",
    "GAP_OPERATOR",
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
# Bound of the per-shape basis-index cache and the factor caches.  It holds
# every (s1, s2, S) shape of the sizes in use (81 at Omega = 4, Omega1 = 2;
# 272 at Omega = 8, Omega1 = 3; 525 at Omega = 10, Omega1 = 4).  Entries are
# index vectors of one block's length and factors of (2s1+1)(2s2+1) or 2S+1
# rows; no full-block operator is cached.
SHAPE_CACHE_SIZE = 1024
# The assembly operator that gap_operator is on a whole block.
GAP_OPERATOR = "pair_scatter"


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
        if self.Omega <= 0 or self.Omega1 < 1 or self.Omega2 < 1:
            raise ValueError("Omega must be positive, Omega1 and Omega2 positive integers")
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


@dataclass(frozen=True)
class RescaledParams:
    """Size-rescaled couplings and reduced temperature."""

    Gr: float
    gr: float
    Er: float
    Tr: float


# Every assembly operator is a register factor, on the (2s1+1)(2s2+1) space
# of (m1, m2), times an ensemble factor, on the 2S+1 space of M.  Operator
# name -> (index into _register_factors, index into _nv_factors).
_TERMS = {
    "z1": (1, 0),
    "z2": (2, 0),
    "pair_scatter": (3, 0),
    "zz_nv": (0, 1),
    "strain": (0, 2),
    "couple_plus_difference": (4, 3),
    "couple_minus_difference": (4, 4),
    "couple_plus_total": (5, 3),
    "couple_minus_total": (5, 4),
}


# the spin matrices of each spin s, shared by the register and ensemble factors
_spin = lru_cache(maxsize=SHAPE_CACHE_SIZE)(algebra.spin_operators)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices: the same products, without its overhead."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), -1)


@lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _register_factors(two_s1: int, two_s2: int) -> np.ndarray:
    """(6, d, d) register factors of one (s1, s2), d = (2s1+1)(2s2+1):
    1, Sz1, Sz2, (S+1 + S+2)(S-1 + S-2), Sz2 - Sz1 and Sz1 + Sz2."""
    ops1, ops2 = _spin(two_s1 / 2.0), _spin(two_s2 / 2.0)
    i1, i2 = np.eye(two_s1 + 1), np.eye(two_s2 + 1)
    z1 = _kron(ops1["Sz"], i2)
    z2 = _kron(i1, ops2["Sz"])
    p = _kron(ops1["Splus"], i2) + _kron(i1, ops2["Splus"])
    out = np.stack([np.eye(len(z1)), z1, z2, p @ p.T, z2 - z1, z1 + z2])
    out.setflags(write=False)
    return out


@lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _nv_factors(two_S: int) -> np.ndarray:
    """(5, 2S+1, 2S+1) ensemble factors of one S:
    1, Sz^2, S+^2 + S-^2, S+ and S-."""
    ops = _spin(two_S / 2.0)
    sz, sp = ops["Sz"], ops["Splus"]
    sm = sp.T
    out = np.stack([np.eye(two_S + 1), sz @ sz, sp @ sp + sm @ sm, sp, sm])
    out.setflags(write=False)
    return out


def _states(shapes: np.ndarray) -> tuple:
    """Every basis state of the (2 s1, 2 s2, 2 S) rows of shapes, shape after
    shape: its shape, basis index reg * (2S+1) + nv, register index
    i1 * (2s2+1) + i2, ensemble index nv and 2 (m1 + m2), m = s - i."""
    nv_dim = shapes[:, 2] + 1
    dims = (shapes[:, 0] + 1) * (shapes[:, 1] + 1) * nv_dim
    si = np.repeat(np.arange(len(shapes)), dims)
    basis = np.arange(len(si)) - np.repeat(np.cumsum(dims) - dims, dims)
    reg, nv = np.divmod(basis, nv_dim[si])
    i1, i2 = np.divmod(reg, shapes[si, 1] + 1)
    return si, basis, reg, nv, shapes[si, 0] + shapes[si, 1] - 2 * (i1 + i2)


def _first_seen(codes: np.ndarray) -> tuple:
    """(ids, firsts) of a non-negative integer array: each entry's value
    numbered in order of first appearance, and where each value first
    appears.  np.unique would import numpy.ma into every process (~17 ms)."""
    order = np.argsort(codes, kind="stable")
    runs = np.flatnonzero(np.diff(codes[order], prepend=-1))  # each value's run
    firsts = order[runs]  # a stable sort puts each value's first entry first
    by_first = np.argsort(firsts, kind="stable")
    ids = np.empty_like(order)
    ids[order] = np.repeat(np.argsort(by_first, kind="stable"), np.diff(runs, append=len(codes)))
    return ids, firsts[by_first]


@lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _shape_operators(two_s1: int, two_s2: int, two_S: int) -> tuple:
    """(register index, ensemble index, m1 + m2) of each basis state of one
    shape, read-only, for its whole-block operators (_block_operators).  The
    name is that of the per-shape cache that perfbench/spans.py reports."""
    _, _, reg, nv, twice_m = _states(np.array([[two_s1, two_s2, two_S]]))
    out = (reg, nv, twice_m / 2.0)
    for a in out:
        a.setflags(write=False)
    return out


def _padded(factors) -> np.ndarray:
    """(factor, len(factors), d, d): (factor, d_i, d_i) arrays of unequal
    size d_i, zero-padded into one array."""
    d = max(f.shape[-1] for f in factors)
    out = np.zeros((factors[0].shape[0], len(factors), d, d))
    for i, f in enumerate(factors):
        out[:, i, : f.shape[1], : f.shape[2]] = f
    return out


def _sector_stacks(names, registers, spins, states, runs) -> np.ndarray:
    """(len(names), elements): the named operators on runs of k sectors of
    n basis states each, (k, n) in runs, laid end to end, each (n, n)
    raveled.  A state (register id, register index, spin id, ensemble index)
    lies in the (2 s1, 2 s2) registers[id] times the 2 S spins[id]; each
    operator is one take from each zero-padded factor array, multiplied."""
    out = np.empty((len(names), sum(k * n * n for k, n in runs)))
    at = np.empty(out.shape[1], dtype=int)

    def positions(factors, ids, idx):  # of each element in the flat (spins, d, d) factors
        d = factors.shape[-1]
        first, s, e = ids * d * d + idx * d, 0, 0
        for k, n in runs:
            np.add(first[s:s + k * n].reshape(k, n, 1), idx[s:s + k * n].reshape(k, 1, n),
                   out=at[e:e + k * n * n].reshape(k, n, n))
            s, e = s + k * n, e + k * n * n

    reg = _padded([_register_factors(*key) for key in registers])
    positions(reg, *states[:2])
    for row, name in zip(out, names):
        # at lies in range, and "clip" lets take write row without a buffer
        reg[_TERMS[name][0]].take(at, out=row, mode="clip")
    nv = _padded([_nv_factors(key) for key in spins])
    positions(nv, *states[2:])
    for row, name in zip(out, names):
        row *= nv[_TERMS[name][1]].take(at)
    return out


def _block_operators(names, shape: tuple) -> np.ndarray:
    """(len(names), dim, dim): the named operators on the whole block of a
    shape, the one sector that holds every basis state."""
    reg, nv, _ = _shape_operators(*shape)
    zero = np.zeros(len(reg), dtype=int)
    ops = _sector_stacks(names, [shape[:2]], [shape[2]], (zero, reg, zero, nv), [(1, len(reg))])
    return ops.reshape(len(names), len(reg), -1)


def _shape_of(b: BlockLabel) -> tuple:
    return (round(2 * b.qb.s1), round(2 * b.qb.s2), round(2 * b.nv.S))


class _SizeGroup(NamedTuple):
    """Every pair-projection sector of one size n among a plan's shapes."""

    span: slice         # the group's (k, n, n) stack in the plan's operators
    slots: np.ndarray   # (k, n) eigenvalue slots of each stacked sector
    sectors: tuple      # (shape index, basis indices) of each stacked sector

    def matrices(self, h: np.ndarray, start: int = 0) -> np.ndarray:
        """The group's (..., k, n, n) matrices out of an assembled plan, or
        out of an assembled range of its stacks that begins at element start."""
        at = slice(self.span.start - start, self.span.stop - start)
        return h[..., at].reshape(*h.shape[:-1], *self.slots.shape, -1)


class Fold(NamedTuple):
    """One point's slots gathered into table rows: the slot, the float
    multiplicity, the N (NaN when folded over N) and the fold group of each
    row, and the exact integer dimension the rows stand for."""

    slots: np.ndarray
    mult: np.ndarray
    n: np.ndarray
    group: np.ndarray
    dim_total: int


class FoldPlan(NamedTuple):
    """The layout of one system size and coupling mode: blocks -> (s1, s2, S)
    shapes -> pair-projection sectors -> sector stacks by size.

    Shapes are numbered in order of first appearance among the blocks; the
    first block of a shape is its representative.  A fold group is (shape
    index, N or None, exact summed multiplicity of its blocks): by_shape
    holds one per shape, by_n one per (shape, N), in order of first
    appearance, for sums whose terms depend on N (muS != 0); folds holds
    the Fold of each, every group taking its shape's slots.

    Eigenvalue slots run shape by shape (a shape is its range in bounds)
    and, within a shape, sector by sector in increasing pair projection.
    ops holds the sector-restricted assembly operators of every size group,
    the groups laid end to end, so that one assemble_hamiltonian call
    assembles them all; only these stacks depend on the coupling mode.
    """

    blocks: tuple             # every block, in enumeration order
    shape_index: np.ndarray   # shape index of each block
    shapes: tuple             # (2 s1, 2 s2, 2 S) of each shape
    first: tuple              # block index of each shape's representative
    by_shape: tuple
    by_n: tuple
    ops: dict                 # operator name -> read-only stacks of every size group
    sizes: tuple              # _SizeGroup per sector size
    slot_shape: np.ndarray    # shape index of each eigenvalue slot
    slot_nqb: np.ndarray      # pair number N_qb of each slot
    bounds: tuple             # (first, last + 1) slot of each shape
    folds: tuple              # Fold of by_shape and of by_n

    def fold(self, split_n: bool) -> Fold:
        return self.folds[split_n]


@lru_cache(maxsize=32)
def _build_fold_plan(omega: float, omega1: int, omega2: int, coupling_z: str) -> FoldPlan:
    """The layout of one system size and coupling mode (see FoldPlan), in
    whole-array passes (module docstring); the only place that maps blocks
    to shapes and shapes to sectors.  Blocks of one shape share a spectrum."""
    blocks = enumerate_blocks(omega, omega1, omega2)
    nq = (omega1 + 1) * (omega2 + 1)
    qb, nv = [b.qb for b in blocks[:nq]], [b.nv for b in blocks[::nq]]
    registers = [(round(2 * q.s1), round(2 * q.s2)) for q in qb]
    qb_mult = np.array([q.mult for q in qb], dtype=object)
    nv_mult = np.array([e.mult for e in nv], dtype=object)
    nv_n, nv_two_S = np.array([(e.N, round(2 * e.S)) for e in nv]).T

    def product(ids, at):  # at * nq + qubit label, exact sums of the ids groups
        mult = np.zeros(len(at), dtype=object)
        np.add.at(mult, ids, nv_mult)
        return (np.add.outer(at * nq, np.arange(nq)).ravel(),
                np.multiply.outer(mult, qb_mult).ravel().tolist())

    s_id, s_first = _first_seen(nv_two_S)
    shape_index = np.add.outer(s_id * nq, np.arange(nq)).ravel()
    first, by_shape = product(s_id, s_first)
    # (S, N) pairs by first appearance
    n_id, n_first = _first_seen(nv_two_S * (nv_n.max() + 1) + nv_n)
    by_n, n_mult = product(n_id, s_id[n_first])
    spins = nv_two_S[s_first]
    shapes = np.column_stack((np.tile(registers, (len(spins), 1)), np.repeat(spins, nq)))

    si, basis, reg, ensemble, twice_m = _states(shapes)
    # the slots: the states by (shape, pair projection); |twice_m| <= span
    span = shapes[:, :2].sum(1).max()
    key = si * (2 * span + 1) + twice_m + span
    order = np.argsort(key, kind="stable")
    twice_m = twice_m[order]
    starts = np.flatnonzero(np.diff(key[order], prepend=-1))
    n = np.diff(starts, append=len(si))
    # the sectors group by group (sizes by first appearance), in slot order
    g_id, g_first = _first_seen(n)
    by_group = np.argsort(g_id, kind="stable")
    k, size = np.bincount(g_id), n[g_first]
    n = n[by_group]
    slots = np.repeat(starts[by_group] - np.cumsum(n) + n, n) + np.arange(len(si))
    stacked = order[slots]
    names = assembly_operators(coupling_z)
    runs = list(zip(k.tolist(), size.tolist()))
    spin_id, reg_id = np.divmod(si[stacked], nq)
    ops = _sector_stacks(names, registers, spins.tolist(),
                         (reg_id, reg[stacked], spin_id, ensemble[stacked]), runs)
    idx, slot_nqb = basis[stacked], twice_m / 2.0 + 0.5 * (omega1 + omega2)
    for a in (shape_index, ops, si, slot_nqb, slots, idx):
        a.setflags(write=False)

    rows = np.cumsum(k * size)[:-1]
    groups = zip(runs, np.cumsum(k * size * size).tolist(),
                 np.split(slots, rows), np.split(idx, rows),
                 np.split(si[starts[by_group]], np.cumsum(k)[:-1]))
    counts = np.bincount(si)
    lows = np.cumsum(counts) - counts  # first slot of each shape

    def fold(at, ns, mults):  # the groups (shape at, N ns), one after another
        width = counts[at]
        group = np.repeat(np.arange(len(width)), width)
        arrays = (np.arange(len(group)) + np.repeat(lows[at] - np.cumsum(width) + width, width),
                  np.array(mults, dtype=float)[group], ns[group], group)
        for a in arrays:
            a.setflags(write=False)
        return Fold(*arrays, sum(m * c for m, c in zip(mults, width.tolist())))

    n_of = np.repeat(nv_n[n_first], nq)
    return FoldPlan(
        blocks=blocks,
        shape_index=shape_index,
        shapes=tuple(map(tuple, shapes.tolist())),
        first=tuple(first.tolist()),
        by_shape=tuple((i, None, m) for i, m in enumerate(by_shape)),
        by_n=tuple(zip(by_n.tolist(), n_of.tolist(), n_mult)),
        ops=dict(zip(names, ops)),
        sizes=tuple(
            _SizeGroup(slice(end - kg * ng * ng, end), sl.reshape(kg, ng),
                       tuple(zip(sh.tolist(), ix.reshape(kg, ng))))
            for (kg, ng), end, sl, ix, sh in groups
        ),
        slot_shape=si,
        slot_nqb=slot_nqb,
        bounds=tuple(zip(lows.tolist(), (lows + counts).tolist())),
        folds=(fold(np.arange(len(shapes)), np.full(len(shapes), np.nan), by_shape),
               fold(by_n, n_of.astype(float), n_mult)),
    )


# the cached plan; the workers of a parallel sweep, missing it together on
# their first points, build it once.  It calls enumerate_blocks through this
# module, the name perfbench/spans.py wraps.
_fold_plan = serialized(_build_fold_plan)


def fold_plan(p: ModelParams) -> FoldPlan:
    """The fold plan of p's system size and coupling mode."""
    return _fold_plan(p.Omega, p.Omega1, p.Omega2, p.coupling_z)


def assembly_operators(coupling_z: str) -> tuple:
    """Names of the shape operators that assemble_hamiltonian combines."""
    return (
        "z1",
        "z2",
        "pair_scatter",
        "zz_nv",
        "strain",
        f"couple_plus_{coupling_z}",
        f"couple_minus_{coupling_z}",
    )


def assemble_hamiltonian(points, ops) -> np.ndarray:
    """H of each point of a sequence as the linear combination of the shape
    operators in `ops`, one result per point along a new leading axis.

    ops maps each name of assembly_operators(coupling_z) to an array: one
    shape's matrices, or the sector stacks of a fold plan, laid end to
    end.  The points share one coupling_z.  Every term is elementwise and
    each point's constants enter in the same order whatever the batch, so a
    restriction of the result equals the result on restricted operators,
    and a point's matrices equal those of a batch of that point alone, to
    the last bit.
    """
    points = tuple(points)
    modes = {q.coupling_z for q in points}
    if len(modes) != 1:
        raise ValueError(f"a batch needs one coupling_z, got {sorted(modes)}")
    (mode,) = modes
    eps1, eps2, G, D, E, g, alpha = (
        np.array([(q.eps1, q.eps2, q.G, q.D, q.E, q.g, q.alpha) for q in points])
        .T.reshape(7, len(points), *(1,) * np.ndim(ops["z1"]))
    )
    # h = eps1 z1 + eps2 z2 - G P + D Sz^2 + (E/2) strain + g (alpha c+ + c-),
    # summed in place so that at most one temporary lives beside h
    h = eps1 * ops["z1"]
    h += eps2 * ops["z2"]
    h -= G * ops["pair_scatter"]
    h += D * ops["zz_nv"]
    h += 0.5 * E * ops["strain"]
    coupling = alpha * ops[f"couple_plus_{mode}"]
    coupling += ops[f"couple_minus_{mode}"]
    coupling *= g
    h += coupling
    return h


def build_block_hamiltonian(p: ModelParams, b: BlockLabel) -> np.ndarray:
    """Real Hamiltonian matrix on the (2s1+1)(2s2+1)(2S+1) product space.

    H = eps1*Sz1 + eps2*Sz2 - G*(S+1 + S+2)(S-1 + S-2)
        + D*Sz_nv^2 + (E/2)*(S+nv^2 + S-nv^2)
        + g*s_z*(alpha*S+nv + S-nv)

    with s_z the register z-operator selected by p.coupling_z.  The strain
    term is assembled in its real ladder form so the matrix stays real; it
    is symmetric exactly at alpha = 1.
    """
    names = assembly_operators(p.coupling_z)
    return assemble_hamiltonian([p], dict(zip(names, _block_operators(names, _shape_of(b)))))[0]


def qubit_sz_diagonal(b: BlockLabel) -> np.ndarray:
    """Diagonal of Sz1 + Sz2 in the product basis (conserved by every term)."""
    return _shape_operators(*_shape_of(b))[2]


def gap_operator(b: BlockLabel) -> np.ndarray:
    """Blockwise pair-correlation operator entering the gap estimate:
    S+ S- with S+- summed over the two levels (the BCS-like reading); the
    fold plan holds its sector stacks as GAP_OPERATOR."""
    return _block_operators((GAP_OPERATOR,), _shape_of(b))[0]


def pair_coupling_factor(np_pairs: int) -> float:
    """Fitted size factor f(Np) = 2.7289 / (2 Np + 0.73029)."""
    return FIT_A / (2.0 * np_pairs + FIT_B)


def rescale(p: ModelParams, np_pairs: int, ns: int, t: float) -> RescaledParams:
    """Dimension-agnostic parameter scheme.

    Gr = G0 * f(Np), gr = g / sqrt(Ns), Er = E / Ns, Tr = T / D.
    """
    if np_pairs < 1 or ns < 1:
        raise ValueError("Np and Ns must be at least 1")
    return RescaledParams(
        Gr=G0_REFERENCE * pair_coupling_factor(np_pairs),
        gr=p.g / math.sqrt(ns),
        Er=p.E / ns,
        Tr=t / p.D,
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

    Bracketing plus bisection (roots.bisect) to relative tolerance rtol,
    or until the midpoint rounds onto an end; returns 0 when the coupling
    is below critical (no positive solution).
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

    def side(points):
        return {k: 1 if f(x) > 0.0 else -1 for k, x in points.items()}

    return bisect({0: (0.0, hi)}, side, rtol=rtol)[0][0]


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
) -> RescaleFit:
    """Fit the pair-register size factor f(Np) = a / (2 Np + b).

    For each Np the coupling G is solved such that the model's
    low-temperature pairing gap, evaluated through the exact thermal
    machinery at temperature 0.02 with the ensemble decoupled (g = 0),
    equals `target`; every Np is bisected in lockstep (roots.bisect) to
    relative 1e-10.  G/g0 is then least-squares fitted against
    1/(2 Np + b).  With target=None the gap attained at G = g0 * f(Np) for
    the smallest Np is used, which makes the fit a pure shape test.
    """
    from scipy.optimize import least_squares

    from .thermo import pairing_gap

    if not all(float(n).is_integer() for n in np_list):
        raise ValueError(f"every Np must be an integer, got {list(np_list)}")
    np_values = sorted(set(int(n) for n in np_list))
    if not np_values:
        raise ValueError("np_list must be non-empty")

    def gap_at(g_pair: float, n_pairs: int) -> float:
        # ensemble factor cancels exactly in the thermal ratio; keep it minimal
        p = ModelParams(
            G=g_pair, g=0.0, alpha=1.0, Omega=0.5, Omega1=n_pairs, Omega2=n_pairs
        )
        return pairing_gap(p, 0.02)

    if target is None:
        target = gap_at(g0 * pair_coupling_factor(np_values[0]), np_values[0])
    if target <= 0:
        raise ValueError("target gap must be positive")

    brackets = {}
    for n_pairs in np_values:
        hi = 4.0 * target
        while gap_at(hi, n_pairs) < target:
            hi *= 2.0
            if hi > 1e6:
                raise SolverFailure(f"gap target unreachable for Np={n_pairs}")
        brackets[n_pairs] = (1e-6, hi)

    def side(points):
        return {n: 1 if gap_at(g, n) < target else -1 for n, g in points.items()}

    g_stars = [g for g, _, _ in bisect(brackets, side, rtol=1e-10).values()]

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
