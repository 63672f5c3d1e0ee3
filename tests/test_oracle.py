import math

import numpy as np
import pytest

from pseudotherm import ModelParams
from pseudotherm.oracle import (
    FockSpace,
    block_union_spectrum,
    fock_expectation,
    fock_hamiltonian,
    fock_operators,
    fock_partition,
    fock_spectrum,
)
from pseudotherm.thermo import partition_function, potentials, thermal_table


@pytest.fixture(scope="module")
def tiny():
    return ModelParams(Omega=0.5, Omega1=1, Omega2=1, alpha=0.4, g=1.73)


@pytest.fixture(scope="module")
def tiny_ops():
    return fock_operators(FockSpace(0.5, 1, 1))


def test_mode_count_and_dimension():
    space = FockSpace(0.5, 1, 1)
    assert space.nv_modes == 2 and space.qb_modes == 4
    assert space.dimension == 64


def test_dimension_cap_refused():
    with pytest.raises(ValueError):
        FockSpace(4.0, 4, 4).check()  # 2^32 modes-worth, refused


def test_su2_closure_on_fock_space(tiny_ops):
    sp, sz = tiny_ops.s_plus_nv, tiny_ops.s_z_nv
    assert np.max(np.abs(sp @ sp.T - sp.T @ sp - 2.0 * sz)) < 1e-12
    for s_plus, s_z in (
        (tiny_ops.s_plus_qb1, tiny_ops.s_z_qb1),
        (tiny_ops.s_plus_qb2, tiny_ops.s_z_qb2),
    ):
        assert np.max(np.abs(s_plus @ s_plus.T - s_plus.T @ s_plus - 2.0 * s_z)) < 1e-12


def test_pair_operators_anticommute_correctly(tiny_ops):
    # the pair creator squares to zero on a single pair slot and the two
    # level operators commute (different fermion modes)
    sp1 = tiny_ops.s_plus_qb1
    assert np.max(np.abs(sp1 @ sp1)) == 0.0  # one slot per level here
    comm = tiny_ops.s_plus_qb1 @ tiny_ops.s_plus_qb2 - tiny_ops.s_plus_qb2 @ tiny_ops.s_plus_qb1
    assert np.max(np.abs(comm)) == 0.0


def test_fock_hamiltonian_symmetric_at_alpha_one():
    p = ModelParams(Omega=0.5, Omega1=1, Omega2=1, alpha=1.0, g=1.5)
    h = fock_hamiltonian(p)
    assert np.array_equal(h, h.T)


@pytest.mark.parametrize("coupling_z", ["difference", "total"])
def test_spectrum_multiset_matches_blocks(tiny, coupling_z):
    p = tiny.with_(coupling_z=coupling_z)
    wf = fock_spectrum(p)
    wb = block_union_spectrum(p)
    assert len(wf) == len(wb) == 64
    assert np.max(np.abs(wf - wb)) < 1e-8


def test_spectrum_multiset_matches_blocks_hermitian():
    p = ModelParams(Omega=0.5, Omega1=1, Omega2=1, alpha=1.0, g=1.0)
    assert np.max(np.abs(fock_spectrum(p) - block_union_spectrum(p))) < 1e-8


@pytest.mark.parametrize("coupling_z", ["difference", "total"])
def test_partition_agrees_with_block_pipeline(tiny, coupling_z):
    p = tiny.with_(coupling_z=coupling_z)
    table = thermal_table(p)
    w = fock_spectrum(p)
    for beta in (0.1, 1.0, 5.0, 20.0):
        zf = fock_partition(w, beta)
        zb = partition_function(table, beta)
        assert zb == pytest.approx(zf, rel=1e-8)


def test_infinite_temperature_limit(tiny):
    assert fock_partition(fock_spectrum(tiny), 1e-12) == pytest.approx(64.0, rel=1e-9)


def test_decoupled_factorization_in_fock_picture():
    p = ModelParams(Omega=0.5, Omega1=1, Omega2=1, alpha=1.0, g=0.0)
    space = FockSpace(0.5, 1, 1)
    ops = fock_operators(space)
    beta = 1.3
    # NV-only and register-only Hamiltonians act on commuting mode sets
    h_nv = p.D * ops.s_z_nv @ ops.s_z_nv + 0.5 * p.E * (
        ops.s_plus_nv @ ops.s_plus_nv + ops.s_plus_nv.T @ ops.s_plus_nv.T
    )
    pair_plus = ops.s_plus_qb1 + ops.s_plus_qb2
    h_qb = (
        p.eps1 * ops.s_z_qb1
        + p.eps2 * ops.s_z_qb2
        - p.G * pair_plus @ pair_plus.T
    )
    # embedded traces over-count by the spectator register's dimension
    z_nv = math.fsum(np.exp(-beta * np.linalg.eigvalsh(h_nv))) / 2**4
    z_qb = math.fsum(np.exp(-beta * np.linalg.eigvalsh(h_qb))) / 2**2
    assert fock_partition(fock_spectrum(p, ops), beta) == pytest.approx(z_nv * z_qb, rel=1e-10)


def test_fock_expectation_identity(tiny):
    val = fock_expectation(np.eye(64), tiny, 0.7)
    assert val == pytest.approx(1.0, rel=1e-10)


def test_chemical_potential_enters_grand_matrix(tiny):
    p = tiny.with_(muS=0.4)
    zf = fock_partition(fock_spectrum(p), 0.9)
    zb = partition_function(thermal_table(p), 0.9, muS=0.4)
    assert zb == pytest.approx(zf, rel=1e-8)


@pytest.mark.parametrize("mu_s, mu_qb", [(0.0, 0.3), (0.4, 0.0), (0.4, 0.3)])
def test_grand_partition_matches_fock_with_chemical_potentials(mu_s, mu_qb):
    # the muQb-only point uses a table folded over N (NaN nS), which must
    # not leak into Z or the potentials
    p = ModelParams(
        Omega=1.0, Omega1=1, Omega2=1, alpha=0.5, g=1.2, muS=mu_s, muQb=mu_qb
    )
    ops = fock_operators(FockSpace(1.0, 1, 1))
    h = fock_hamiltonian(p, ops)
    table = thermal_table(p)
    w = fock_spectrum(p, ops)
    for t in (0.2, 0.7, 3.0):
        beta = 1.0 / t
        zf = fock_partition(w, beta)
        zb = partition_function(table, beta, p.muS, p.muQb)
        assert zb == pytest.approx(zf, rel=1e-8)
        n_s = fock_expectation(ops.n_nv, p, beta, ops)
        n_p = fock_expectation(ops.n_pairs, p, beta, ops)
        pt = potentials(p, t)
        assert pt.valid
        assert pt.ln_abs_z == pytest.approx(math.log(abs(zf)), rel=1e-8, abs=1e-10)
        f_want = -t * math.log(abs(zf)) + mu_s * n_s + mu_qb * n_p
        assert pt.F == pytest.approx(f_want, rel=1e-8, abs=1e-10)
        u_want = fock_expectation(h, p, beta, ops)
        assert pt.U == pytest.approx(u_want, rel=1e-8, abs=1e-10)
