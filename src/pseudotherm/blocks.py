"""Irreducible-sector enumeration with exact integer multiplicities.

The grand-canonical trace splits into independent sectors labelled by
conserved quantum numbers.  The two-level ensemble register (two levels of
degeneracy 2*Omega each) is organized by particle-hole configurations: nu1
doubly occupied and nu2 empty sublevels leave 2*tau = 2*Omega - nu1 - nu2
singly occupied ones, which carry a collective spin S = tau - k.  The
particle number of such a configuration is N = 2*(tau + nu1), which is odd
whenever tau is half-integer.  The pairing register contributes one
quasispin s_i per level, 0 <= s_i <= Omega_i/2.

Multiplicity counting is exact: Python big-int factorials throughout, with
divisibility asserted.  Floating point enters only downstream at the
Boltzmann-weight stage.

Checks worth remembering:
  sum_k d_s(tau, k) * (2*(tau-k)+1)          == 2**(2*tau)
  sum_{N,tau,k} nv_multiplicity * (2S+1)     == 2**(4*Omega)
  sum_s qubit_level_multiplicity * (2s+1)    == 2**(2*Omega_i)
and the grand total over full block labels is 2**(4*Omega + 2*(Omega1+Omega2)).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache, wraps
from itertools import product
from math import comb, factorial
from typing import NamedTuple

from .algebra import require_half_integer

__all__ = [
    "NvBlockLabel",
    "QubitBlockLabel",
    "BlockLabel",
    "d_s",
    "nv_multiplicity",
    "g_qb",
    "qubit_level_multiplicity",
    "enumerate_nv_labels",
    "enumerate_qubit_labels",
    "enumerate_blocks",
    "total_dimension",
]


@dataclass(frozen=True)
class NvBlockLabel:
    """One ensemble sector: particle number N, seniority tau, depth k."""

    N: int
    tau: float
    k: int
    S: float
    mult: int


@dataclass(frozen=True)
class QubitBlockLabel:
    """One pairing-register sector: quasispins of the two levels."""

    s1: float
    s2: float
    mult: int


class BlockLabel(NamedTuple):
    """Product sector; the Hamiltonian acts irreducibly on it (a named pair: cheap to build)."""

    nv: NvBlockLabel
    qb: QubitBlockLabel

    @property
    def dim(self) -> int:
        return (
            (round(2 * self.qb.s1) + 1)
            * (round(2 * self.qb.s2) + 1)
            * (round(2 * self.nv.S) + 1)
        )

    @property
    def mult(self) -> int:
        return self.nv.mult * self.qb.mult

    def key(self) -> tuple:
        """Deterministic sort key: lexicographic in (N, tau, k, s1, s2)."""
        return (
            self.nv.N,
            round(2 * self.nv.tau),
            self.nv.k,
            round(2 * self.qb.s1),
            round(2 * self.qb.s2),
        )


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r != 0:
        raise AssertionError(f"multiplicity formula produced non-integer {num}/{den}")
    return q


def d_s(tau: float, k: int) -> int:
    """Number of spin-(tau - k) irreps inside the 2**(2 tau) single-occupancy subspace.

    Equals (2 tau)! (2 (tau-k) + 1) / (k! (2 tau - k + 1)!), i.e. the
    Clebsch-Gordan multiplicity of total spin tau - k in 2*tau coupled
    spins-1/2 (a Catalan-triangle number).
    """
    two_tau = require_half_integer(tau, "tau")
    if not isinstance(k, (int,)) or isinstance(k, bool):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 0 or 2 * k > two_tau:
        raise ValueError(f"k must satisfy 0 <= k <= tau (tau={tau}, k={k})")
    num = factorial(two_tau) * (two_tau - 2 * k + 1)
    den = factorial(k) * factorial(two_tau - k + 1)
    return _exact_div(num, den)


def nv_multiplicity(omega: float, n: int, tau: float, k: int) -> int:
    """Exact multiplicity of the ensemble sector (N=n, tau, k).

    (2 Omega)! / ((2 tau)! nu1! nu2!) * d_s(tau, k), with nu1 = N/2 - tau
    doubly occupied and nu2 = 2 Omega - tau - N/2 empty sublevels.
    """
    two_omega = require_half_integer(omega, "Omega")
    two_tau = require_half_integer(tau, "tau")
    if n < 0:
        raise ValueError(f"N must be non-negative, got {n}")
    two_nu1 = n - two_tau
    if two_nu1 < 0 or two_nu1 % 2:
        raise ValueError(f"N/2 - tau must be a non-negative integer (N={n}, tau={tau})")
    nu1 = two_nu1 // 2
    nu2 = two_omega - two_tau - nu1
    if nu2 < 0:
        raise ValueError(
            f"configuration does not fit in 2*Omega={two_omega} sublevels "
            f"(N={n}, tau={tau})"
        )
    subspaces = _exact_div(
        factorial(two_omega), factorial(two_tau) * factorial(nu1) * factorial(nu2)
    )
    return subspaces * d_s(tau, k)


def g_qb(tau_qb: float, s: float) -> int:
    """Multiplicity of quasispin s among 2*tau_qb active pair states.

    (2 tau_qb)! (2 s + 1) / ((tau_qb - s)! (tau_qb + s + 1)!); requires
    tau_qb >= s with integer difference.
    """
    two_tau = require_half_integer(tau_qb, "tau_qb")
    two_s = require_half_integer(s, "s")
    if two_tau < two_s or (two_tau - two_s) % 2:
        raise ValueError(
            f"tau_qb must be s, s+1, s+2, ... (tau_qb={tau_qb}, s={s})"
        )
    num = factorial(two_tau) * (two_s + 1)
    den = factorial((two_tau - two_s) // 2) * factorial((two_tau + two_s) // 2 + 1)
    return _exact_div(num, den)


def qubit_level_multiplicity(omega_i: int, s: float) -> int:
    """Exact multiplicity d(Omega_i, s) of quasispin s for one pairing level.

    Sums over the number 2*tau_qb of unblocked pair states,
    Omega_i! / ((2 tau_qb)! (Omega_i - 2 tau_qb)!) * 2**(Omega_i - 2 tau_qb)
    * g_qb(tau_qb, s); the sum stops where Omega_i - 2 tau_qb would go
    negative.  The 2**(...) factor counts singly-occupied (blocked) states.
    """
    if omega_i < 0 or not isinstance(omega_i, int) or isinstance(omega_i, bool):
        raise ValueError(f"Omega_i must be a non-negative integer, got {omega_i!r}")
    two_s = require_half_integer(s, "s")
    if two_s > omega_i:
        raise ValueError(f"s must satisfy s <= Omega_i/2 (Omega_i={omega_i}, s={s})")
    total = 0
    for two_tau in range(two_s, omega_i + 1, 2):
        total += (
            comb(omega_i, two_tau)
            * 2 ** (omega_i - two_tau)
            * g_qb(two_tau / 2.0, s)
        )
    return total


def enumerate_nv_labels(omega: float) -> list[NvBlockLabel]:
    """All ensemble sectors (N, tau, k) with exact multiplicities."""
    two_omega = require_half_integer(omega, "Omega")
    labels = []
    for two_tau in range(two_omega + 1):
        for nu1 in range(two_omega - two_tau + 1):
            n = two_tau + 2 * nu1
            for k in range(two_tau // 2 + 1):
                labels.append(
                    NvBlockLabel(
                        N=n,
                        tau=two_tau / 2.0,
                        k=k,
                        S=(two_tau - 2 * k) / 2.0,
                        mult=nv_multiplicity(omega, n, two_tau / 2.0, k),
                    )
                )
    return labels


def enumerate_qubit_labels(omega1: int, omega2: int) -> list[QubitBlockLabel]:
    """All pairing sectors (s1, s2) with multiplicity d(Omega1,s1)*d(Omega2,s2)."""
    labels = []
    for two_s1 in range(omega1 + 1):
        d1 = qubit_level_multiplicity(omega1, two_s1 / 2.0)
        for two_s2 in range(omega2 + 1):
            d2 = qubit_level_multiplicity(omega2, two_s2 / 2.0)
            labels.append(QubitBlockLabel(s1=two_s1 / 2.0, s2=two_s2 / 2.0, mult=d1 * d2))
    return labels


def serialized(cached):
    """A cached function behind a lock of its own.

    Threads that miss the cache together (the workers of a parallel sweep,
    on their first points) then wait for one build instead of each
    building the same result.
    """
    lock = threading.Lock()

    @wraps(cached)
    def locked(*args, **kwargs):
        with lock:
            return cached(*args, **kwargs)

    return locked


@lru_cache(maxsize=32)
def _enumerate_blocks(omega: float, omega1: int, omega2: int) -> tuple[BlockLabel, ...]:
    """Every admissible product sector exactly once, in BlockLabel.key order:
    each ensemble label, by (N, tau, k), with every qubit label in turn.

    Memoized per system size; the tuple is shared by every caller.
    """
    if omega <= 0 or omega1 <= 0 or omega2 <= 0:
        raise ValueError("all register sizes must be positive")
    nv_labels = sorted(enumerate_nv_labels(omega), key=lambda nv: (nv.N, nv.tau, nv.k))
    qb_labels = enumerate_qubit_labels(omega1, omega2)
    return tuple(map(BlockLabel._make, product(nv_labels, qb_labels)))


enumerate_blocks = serialized(_enumerate_blocks)


def total_dimension(blocks) -> int:
    """Exact sum of mult * dim over blocks; equals the full Fock dimension."""
    return sum(b.mult * b.dim for b in blocks)
