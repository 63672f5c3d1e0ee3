import math

import numpy as np
import pytest

from pseudotherm import ModelParams
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
