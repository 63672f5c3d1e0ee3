import math

import numpy as np
import pytest

from pseudotherm import ModelParams, model
from pseudotherm.algebra import embed3, identity, spin_operators
from pseudotherm.blocks import enumerate_nv_labels, enumerate_qubit_labels


@pytest.fixture(scope="session")
def desk_params():
    """The working system: 8 ensemble spins, 2 pairs per register level."""
    return ModelParams()


def subsystem_partition_product(p, beta: float) -> float:
    """Z_ensemble * Z_register from independently diagonalized subsystems.

    Independent factorization oracle for the decoupled (g = 0) model.
    """
    z_nv = 0.0
    for lbl in enumerate_nv_labels(p.Omega):
        ops = spin_operators(lbl.S)
        h = p.D * ops["Sz"] @ ops["Sz"] + 0.5 * p.E * (
            ops["Splus"] @ ops["Splus"] + ops["Sminus"] @ ops["Sminus"]
        )
        z_nv += lbl.mult * math.fsum(np.exp(-beta * np.linalg.eigvalsh(h)))
    z_qb = 0.0
    for lbl in enumerate_qubit_labels(p.Omega1, p.Omega2):
        o1, o2 = spin_operators(lbl.s1), spin_operators(lbl.s2)
        i1 = np.eye(o1["Sz"].shape[0])
        i2 = np.eye(o2["Sz"].shape[0])
        z1 = np.kron(o1["Sz"], i2)
        z2 = np.kron(i1, o2["Sz"])
        pp = np.kron(o1["Splus"], i2) + np.kron(i1, o2["Splus"])
        h = p.eps1 * z1 + p.eps2 * z2 - p.G * pp @ pp.T
        z_qb += lbl.mult * math.fsum(np.exp(-beta * np.linalg.eigvalsh(h)))
    return z_nv * z_qb


def kron_shape_operators(two_s1: int, two_s2: int, two_S: int, coupling_z: str) -> dict:
    """Every assembly operator of one (s1, s2, S) shape on the full product
    space, embedded with Kronecker products and multiplied densely.

    Independent reference for the factor construction in pseudotherm.model:
    it builds z1, z2, pair_scatter, zz_nv, strain, couple_plus/minus_<coupling_z>
    and ztot_diag the way the dense per-shape operator cache once did.
    """
    s1, s2, s_nv = two_s1 / 2.0, two_s2 / 2.0, two_S / 2.0
    ops1, ops2, ops_nv = spin_operators(s1), spin_operators(s2), spin_operators(s_nv)
    i1, i2, inv = identity(s1), identity(s2), identity(s_nv)
    z1 = embed3(ops1["Sz"], i2, inv)
    z2 = embed3(i1, ops2["Sz"], inv)
    p_qb = embed3(ops1["Splus"], i2, inv) + embed3(i1, ops2["Splus"], inv)
    z_nv = embed3(i1, i2, ops_nv["Sz"])
    p_nv = embed3(i1, i2, ops_nv["Splus"])
    m_nv = p_nv.T
    s_z = z2 - z1 if coupling_z == "difference" else z1 + z2
    return {
        "z1": z1,
        "z2": z2,
        "pair_scatter": p_qb @ p_qb.T,
        "zz_nv": z_nv @ z_nv,
        "strain": p_nv @ p_nv + m_nv @ m_nv,
        f"couple_plus_{coupling_z}": s_z @ p_nv,
        f"couple_minus_{coupling_z}": s_z @ m_nv,
        "ztot_diag": np.diag(z1 + z2).copy(),
    }


def shape_spectra(p) -> list:
    """(eigenvalues, nqb) of every (s1, s2, S) shape of p, in the fold
    plan's shape order: the shape's slot range of block_eigen_data."""
    from pseudotherm.spectral import block_eigen_data

    w, nqb = block_eigen_data(p)
    return [(w[lo:hi], nqb[lo:hi]) for lo, hi in model.fold_plan(p).bounds]


def per_block_spectra(p) -> list:
    """(block, (eigenvalues, nqb)) for every block of p, in block order.

    block_spectra holds one spectrum per (s1, s2, S) shape, the shape's slot
    range; each block gets the one whose first block has its own
    quasispins and ensemble spin.
    """
    plan = model.fold_plan(p)

    def spins(b):
        return (b.qb.s1, b.qb.s2, b.nv.S)

    by_spins = {spins(plan.blocks[i]): s for i, s in zip(plan.first, shape_spectra(p))}
    return [(b, by_spins[spins(b)]) for b in p.blocks()]


def fold_rows(rows):
    """The per-group fold, a reference for the fold plan's gather: each row
    is (mult, N, eigenvalues, nqb), the exact integer multiplicity behind
    the eigenvalues, their ensemble number (None when the row spans several
    N) and their pair-number labels (None when unknown).  Table rows keep
    the order of the input rows and of the eigenvalues in each; a conjugate
    pair keeps only its +i*gamma member."""
    from pseudotherm import spectral
    from pseudotherm.thermo import SpectrumTable

    mults, ns, ws, nqbs = zip(*rows)
    sizes = [len(w) for w in ws]
    w = np.concatenate(ws)
    npair = np.concatenate(
        [np.full(k, np.nan) if q is None else q for k, q in zip(sizes, nqbs)]
    )
    row = np.repeat(np.arange(len(sizes)), sizes)
    thresh = spectral.IM_TOL * np.maximum(1.0, np.abs(w))
    is_real = np.abs(w.imag) <= thresh
    n_pos = np.bincount(row[~is_real & (w.imag > 0)], minlength=len(sizes))
    n_neg = np.bincount(row[~is_real & (w.imag < 0)], minlength=len(sizes))
    if not np.array_equal(n_pos, n_neg):
        n = ns[int(np.argmax(n_pos != n_neg))]
        raise AssertionError(f"conjugation symmetry violated in a row with N={n}")
    keep = is_real | (w.imag > thresh)
    mult = np.repeat(np.array([float(m) for m in mults]), sizes)
    n_s = np.repeat(np.array([np.nan if n is None else float(n) for n in ns]), sizes)
    return SpectrumTable(
        eps=w.real[keep],
        gam=np.where(is_real, 0.0, w.imag)[keep],
        mult=mult[keep],
        nS=n_s[keep],
        npair=npair[keep],
        pair=~is_real[keep],
        dim_total=sum(m * k for m, k in zip(mults, sizes)),
    )


def plan_fold_rows(p, split_n: bool) -> list:
    """The (mult, N, eigenvalues, nqb) rows of p's fold groups, by_n when
    split_n and by_shape otherwise, each the slices of its shape."""
    plan = model.fold_plan(p)
    spectra = shape_spectra(p)
    return [(m, n, *spectra[si]) for si, n, m in (plan.by_n if split_n else plan.by_shape)]


def one_group_fold(n: int):
    """The fold of n slots as one group of multiplicity 1, N unknown."""
    return model.Fold(np.arange(n), np.ones(n), np.full(n, np.nan), np.zeros(n, dtype=int), n)


def sector_indices(p, b):
    """(pair-number label, basis indices) of each pair-projection sector."""
    keys = np.round(2 * model.qubit_sz_diagonal(b)).astype(int)
    shift = 0.5 * (p.Omega1 + p.Omega2)
    return [(key / 2.0 + shift, np.nonzero(keys == key)[0]) for key in np.unique(keys)]


def per_sector_eigenvalues(p, b):
    """Eigenvalues of block b, one solve per sector, sorted by (Re, Im),
    with their pair-number labels."""
    h = model.build_block_hamiltonian(p, b)
    vals, nqbs = [], []
    for n_qb, idx in sector_indices(p, b):
        sub = h[np.ix_(idx, idx)]
        solve = np.linalg.eigvalsh if np.array_equal(sub, sub.T) else np.linalg.eigvals
        vals.append(solve(sub).astype(complex))
        nqbs.append(np.full(len(idx), n_qb))
    w = np.concatenate(vals)
    order = np.lexsort((w.imag, w.real))
    return w[order], np.concatenate(nqbs)[order]


def per_sector_eigensystems(p, b) -> list:
    """(pair-number label, basis indices, eigenvalues, left, right,
    near-defective flags) of each pair-projection sector of block b.

    Independent reference for the stacked vector solve: one np.linalg.eig
    and one inv per sector of build_block_hamiltonian, the left vectors
    being the rows of inv(R), flagged where 1/|L_n| < spectral.DEFECT_TOL;
    an exactly symmetric sector takes eigh and is never near-defective.
    """
    from pseudotherm import spectral

    h = model.build_block_hamiltonian(p, b)
    out = []
    for n_qb, idx in sector_indices(p, b):
        sub = h[np.ix_(idx, idx)]
        if np.array_equal(sub, sub.T):
            w, right = np.linalg.eigh(sub)
            left, flags = right, np.zeros(len(w), dtype=bool)
        else:
            w, right = np.linalg.eig(sub)
            left = np.linalg.inv(right).T
            flags = 1.0 / np.linalg.norm(left, axis=0) < spectral.DEFECT_TOL
        out.append((n_qb, idx, w.astype(complex), left, right, flags))
    return out


def per_sector_vector_spectrum(p, b, op) -> tuple:
    """(eigenvalues, pair-number labels, <L_n|O|R_n>, near-defective flags)
    of block b, sector by sector in increasing pair projection.

    The vectors of per_sector_eigensystems are embedded in the whole block
    and contracted there against the whole block operator op(b).
    """
    o = op(b)
    vals, nqbs, coefs, flags = [], [], [], []
    for n_qb, idx, w, left, right, bad in per_sector_eigensystems(p, b):
        embedded_left = np.zeros((b.dim, len(idx)), dtype=complex)
        embedded_right = np.zeros_like(embedded_left)
        embedded_left[idx], embedded_right[idx] = left, right
        coefs.append(np.einsum("in,ij,jn->n", embedded_left, o, embedded_right))
        vals.append(w)
        nqbs.append(np.full(len(idx), n_qb))
        flags.append(bad)
    return tuple(np.concatenate(a) for a in (vals, nqbs, coefs, flags))


def dense_operator(b) -> np.ndarray:
    """A real operator on the whole block that couples every pair of basis
    states, across pair-projection sectors too, and depends on the shape."""
    i = np.arange(b.dim)
    return np.cos(np.add.outer(i, 2 * i) + 0.1 * b.dim)
