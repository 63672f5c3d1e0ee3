"""Brute-force full Fock-space reference for tiny register sizes.

Builds the many-body Hamiltonian microscopically: the ensemble register
gets one fermion mode per (level, sublevel) with particle-hole quasispins
s+_k = c^dag_upper,k c_lower,k, the pairing register one mode per paired
state with pair quasispins s+ = c^dag_k c^dag_kbar per level.  Operators
are assembled from Jordan-Wigner strings with explicit parity factors, so
anticommutation is exact and the block decomposition has something honest
to be checked against.

Everything here is O(4^modes); the dimension is capped at 2**16 and the
practical validation sizes are far below that.

Also hosts the plain symmetric-solver reference for thermodynamics in the
Hermitian limit (an independent accumulation path without the signed-log
machinery).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .model import ModelParams, fold_plan

__all__ = [
    "FockSpace",
    "fock_hamiltonian",
    "fock_spectrum",
    "fock_partition",
    "fock_expectation",
    "block_union_spectrum",
    "hermitian_reference",
]

DIMENSION_CAP = 2**16

_ID = np.eye(2)
_SP = np.array([[0.0, 0.0], [1.0, 0.0]])  # creates a fermion: |1><0|
_SM = _SP.T                               # annihilates
_NUM = np.diag([0.0, 1.0])
_PARITY = np.diag([1.0, -1.0])            # (-1)^n Jordan-Wigner factor


@dataclass(frozen=True)
class FockSpace:
    """Mode layout: ensemble sublevels first (lower_k, upper_k adjacent),
    then the pairing levels (k, kbar adjacent per pair state)."""

    omega: float
    omega1: int
    omega2: int

    @property
    def nv_modes(self) -> int:
        return 2 * round(2 * self.omega)

    @property
    def qb_modes(self) -> int:
        return 2 * (self.omega1 + self.omega2)

    @property
    def n_modes(self) -> int:
        return self.nv_modes + self.qb_modes

    @property
    def dimension(self) -> int:
        return 2 ** self.n_modes

    def check(self):
        if self.dimension > DIMENSION_CAP:
            raise ValueError(
                f"Fock dimension 2^{self.n_modes} exceeds the 2^16 cap; refused"
            )
        return self


def _chain(n: int, ops: dict[int, np.ndarray]) -> np.ndarray:
    mats = [ops.get(i, _ID) for i in range(n)]
    return reduce(np.kron, mats)


def _cdag_c(n: int, i: int, j: int) -> np.ndarray:
    """c^dag_i c_j with the Jordan-Wigner string between the modes."""
    if i == j:
        return _chain(n, {i: _NUM})
    if i < j:
        ops = {i: _SP, j: _SM}
        for k in range(i + 1, j):
            ops[k] = _PARITY
        return _chain(n, ops)
    return _cdag_c(n, j, i).T


def _cdag_cdag(n: int, i: int, j: int) -> np.ndarray:
    """c^dag_i c^dag_j (i != j), antisymmetric under i <-> j."""
    if i == j:
        raise ValueError("pair creation needs distinct modes")
    if i > j:
        return -_cdag_cdag(n, j, i)
    ops = {i: _SP, j: _SP}
    for k in range(i + 1, j):
        ops[k] = _PARITY
    return _chain(n, ops)


def _number(n: int, i: int) -> np.ndarray:
    return _chain(n, {i: _NUM})


@dataclass
class _FockOps:
    s_plus_nv: np.ndarray
    s_z_nv: np.ndarray
    n_nv: np.ndarray
    s_plus_qb1: np.ndarray
    s_plus_qb2: np.ndarray
    s_z_qb1: np.ndarray
    s_z_qb2: np.ndarray
    n_pairs: np.ndarray


def fock_operators(space: FockSpace) -> _FockOps:
    space.check()
    n = space.n_modes
    w = round(2 * space.omega)

    sp_nv = np.zeros((space.dimension, space.dimension))
    sz_nv = np.zeros_like(sp_nv)
    n_nv = np.zeros_like(sp_nv)
    for k in range(w):
        lo, up = 2 * k, 2 * k + 1
        sp_nv += _cdag_c(n, up, lo)
        sz_nv += 0.5 * (_number(n, up) - _number(n, lo))
        n_nv += _number(n, up) + _number(n, lo)

    def pair_level(base: int, omega_i: int):
        sp = np.zeros_like(sp_nv)
        sz = np.zeros_like(sp_nv)
        for pslot in range(omega_i):
            a, b = base + 2 * pslot, base + 2 * pslot + 1
            sp += _cdag_cdag(n, a, b)
            sz += 0.5 * (_number(n, a) + _number(n, b) - np.eye(space.dimension))
        return sp, sz

    base1 = space.nv_modes
    sp1, sz1 = pair_level(base1, space.omega1)
    sp2, sz2 = pair_level(base1 + 2 * space.omega1, space.omega2)
    n_pairs = sz1 + sz2 + 0.5 * (space.omega1 + space.omega2) * np.eye(space.dimension)
    return _FockOps(sp_nv, sz_nv, n_nv, sp1, sp2, sz1, sz2, n_pairs)


def fock_hamiltonian(p: ModelParams, ops: _FockOps | None = None) -> np.ndarray:
    """Full many-body matrix of the hybrid Hamiltonian (real, dense)."""
    space = FockSpace(p.Omega, p.Omega1, p.Omega2)
    if ops is None:
        ops = fock_operators(space)
    sp, sz = ops.s_plus_nv, ops.s_z_nv
    sm = sp.T
    pair_plus = ops.s_plus_qb1 + ops.s_plus_qb2
    if p.coupling_z == "difference":
        z_op = ops.s_z_qb2 - ops.s_z_qb1
    else:
        z_op = ops.s_z_qb1 + ops.s_z_qb2
    h = p.eps1 * ops.s_z_qb1 + p.eps2 * ops.s_z_qb2
    h -= p.G * (pair_plus @ pair_plus.T)
    h += p.D * (sz @ sz)
    h += 0.5 * p.E * (sp @ sp + sm @ sm)
    h += p.g * z_op @ (p.alpha * sp + sm)
    return h


def _grand_matrix(p: ModelParams, ops: _FockOps) -> np.ndarray:
    h = fock_hamiltonian(p, ops)
    if p.muS != 0.0:
        h = h - p.muS * ops.n_nv
    if p.muQb != 0.0:
        h = h - p.muQb * ops.n_pairs
    return h


def fock_spectrum(p: ModelParams, ops: _FockOps | None = None) -> np.ndarray:
    """All 2^n eigenvalues of the grand-canonical Fock matrix, sorted by (Re, Im)."""
    if ops is None:
        ops = fock_operators(FockSpace(p.Omega, p.Omega1, p.Omega2))
    w = np.linalg.eigvals(_grand_matrix(p, ops))
    return w[np.lexsort((w.imag, w.real))]


def block_union_spectrum(p: ModelParams) -> np.ndarray:
    """Multiplicity-expanded union of the grand-canonical block spectra
    E - muS*N - muQb*N_qb, sorted by (Re, Im).

    This is the quantity fock_spectrum must reproduce as a multiset.
    """
    from .spectral import block_eigen_data

    plan = fold_plan(p)
    fold = plan.fold(True)
    w, nqb = block_eigen_data(p)
    w = w[fold.slots] - p.muS * fold.n - p.muQb * nqb[fold.slots]
    w = np.repeat(w, np.array([m for *_, m in plan.by_n])[fold.group])
    return w[np.lexsort((w.imag, w.real))]


def fock_partition(w: np.ndarray, beta: float) -> float:
    """Direct trace of exp(-beta (H - mu N)) over all Fock states: the sum
    over a Fock spectrum w (fock_spectrum) of exp(-beta Re E) cos(beta Im E)."""
    return float(math.fsum(np.exp(-beta * w.real) * np.cos(beta * w.imag)))


def fock_expectation(
    o_mat: np.ndarray, p: ModelParams, beta: float, ops: _FockOps | None = None
) -> float:
    """Trace(exp(-beta (H - mu N)) O) / Z via the full eigenbasis."""
    if ops is None:
        ops = fock_operators(FockSpace(p.Omega, p.Omega1, p.Omega2))
    w, v = np.linalg.eig(_grand_matrix(p, ops))
    o_diag = np.diag(np.linalg.solve(v, o_mat @ v))
    weights = np.exp(-beta * w)
    z = complex(np.sum(weights))
    return float((np.sum(weights * o_diag) / z.real).real)


def hermitian_reference(p: ModelParams, t: float) -> dict:
    """Symmetric-solver thermodynamics for the alpha = 1 (or g = 0) limit.

    Independent accumulation path: one eigh per (s1, s2, S) block shape,
    whose levels carry the summed multiplicity of the shape's blocks,
    positive Boltzmann weights, plain shifted sums; no signed-log machinery.
    Only valid when every block is exactly symmetric.
    """
    from .model import _shape_of, build_block_hamiltonian

    beta = 1.0 / t
    reps, weight = {}, {}
    for b in p.blocks():
        shape = _shape_of(b)
        reps.setdefault(shape, b)
        weight[shape] = weight.get(shape, 0) + b.mult
    evs, mults = [], []
    for shape, b in reps.items():
        h = build_block_hamiltonian(p, b)
        if not np.array_equal(h, h.T):
            raise ValueError("hermitian_reference requires a symmetric Hamiltonian")
        evs.append(np.linalg.eigvalsh(h))
        mults.append(np.full(h.shape[0], float(weight[shape])))
    e = np.concatenate(evs)
    m = np.concatenate(mults)
    e0 = float(np.min(e))
    w = m * np.exp(-beta * (e - e0))
    z_shift = math.fsum(w)
    ln_z = math.log(z_shift) - beta * e0
    u = math.fsum(w * e) / z_shift
    e2 = math.fsum(w * e * e) / z_shift
    f = -t * ln_z
    return {
        "ln_z": ln_z,
        "F": f,
        "U": u,
        "S": (u - f) / t,
        "Cv": beta * beta * (e2 - u * u),
    }
