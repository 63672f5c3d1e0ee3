"""Dense su(2) operator matrices and Kronecker embeddings.

Every Hamiltonian block acts on a product of three irreducible spin spaces
(two pairing quasispins and one collective ensemble spin).  Operators are
plain dense ndarrays in the |s, m> basis with the fixed ordering
m = s, s-1, ..., -s; all modules share this ordering so eigenvector output
is reproducible.  The model builds its operators from per-space factors
(see pseudotherm.model).  kron and embed3 (with identity), which form
operators on the full product space, are kept for the tests'
independent Kronecker-product reference; the package does not use them.
"""

from __future__ import annotations

import numpy as np

__all__ = ["spin_operators", "kron", "embed3", "identity"]


def require_half_integer(s: float, name: str = "spin") -> int:
    """Validate that s is a non-negative half-integer and return 2s exactly."""
    two_s = round(2.0 * s)
    if abs(2.0 * s - two_s) > 1e-9 or two_s < 0:
        raise ValueError(f"{name} must be a non-negative half-integer, got {s!r}")
    return int(two_s)


def identity(s: float) -> np.ndarray:
    """Identity on the spin-s space (dimension 2s + 1)."""
    return np.eye(require_half_integer(s) + 1)


def spin_operators(s: float) -> dict[str, np.ndarray]:
    """Spin matrices for a single su(2) irrep of spin s.

    Returns {"Sz", "Splus", "Sminus", "Sx", "Sy"}.  Ladder elements follow
    <s,m+1|S+|s,m> = sqrt(s(s+1) - m(m+1)) and Sminus = Splus^T, so all
    matrices are real except Sy.  Sy is provided for algebra checks only;
    Hamiltonian assembly uses the real combination (Splus^2 + Sminus^2)/2
    in place of Sx^2 - Sy^2.
    """
    two_s = require_half_integer(s)
    dim = two_s + 1
    m = (two_s - 2.0 * np.arange(dim)) / 2.0  # m = s, s-1, ..., -s
    sz = np.diag(m)
    # superdiagonal entry (i-1, i) couples column m[i] to row m[i] + 1
    m_lo = m[1:]
    coeff = np.sqrt(s * (s + 1.0) - m_lo * (m_lo + 1.0))
    sp = np.zeros((dim, dim))
    sp[np.arange(dim - 1), np.arange(1, dim)] = coeff
    sm = sp.T.copy()
    return {
        "Sz": sz,
        "Splus": sp,
        "Sminus": sm,
        "Sx": (sp + sm) / 2.0,
        "Sy": (sp - sm) / 2.0j,
    }


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, dim = dim(a) * dim(b)."""
    return np.kron(a, b)


def embed3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Three-factor embedding a (x) b (x) c on the product space.

    Passing identities in all but one slot embeds a single-factor operator;
    operators embedded in different slots commute.
    """
    return np.kron(np.kron(a, b), c)
