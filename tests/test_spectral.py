import math

import numpy as np
import pytest

from pseudotherm import ModelParams
from pseudotherm.model import _shape_of, build_block_hamiltonian
from pseudotherm.spectral import (
    block_eigen_data,
    block_spectra,
    classify,
    complex_pair_counts,
    diagonalize,
    find_eps,
    first_eps_about_unity,
    ground_state_info,
    max_imag_eigenvalue,
)
from pseudotherm.thermo import thermal_table


@pytest.fixture(scope="module")
def tiny():
    return ModelParams(Omega=0.5, Omega1=1, Omega2=1, alpha=0.4, g=1.73)


@pytest.fixture(scope="module")
def desk_broken():
    return ModelParams(alpha=0.36, g=1.73)


def test_rotation_generator_pure_imaginary_pair():
    spec = diagonalize(np.array([[0.0, 2.0], [-2.0, 0.0]]))
    w = np.sort_complex(spec.eigenvalues)
    assert np.allclose(w, [-2.0j, 2.0j], atol=1e-12)


def test_symmetric_input_takes_exact_real_path():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((12, 12))
    h = a + a.T
    spec = diagonalize(h)
    assert np.max(np.abs(spec.eigenvalues.imag)) == 0.0
    assert np.allclose(spec.biorth_norms, 1.0)


def test_conjugation_closure_per_block(desk_broken):
    for _, w, _ in block_eigen_data(desk_broken):
        paired = np.sort_complex(w)
        assert np.max(np.abs(np.sort_complex(paired.conj()) - paired)) < 1e-10


def test_biorthogonal_completeness(desk_broken):
    blocks = desk_broken.blocks()
    big = max(blocks, key=lambda b: b.dim)
    spec = [
        s
        for s in block_spectra(desk_broken, blocks=[big], want_vectors=True)
    ][0]
    dim = big.dim
    ident = np.zeros((dim, dim), dtype=complex)
    for n in range(len(spec.eigenvalues)):
        if spec.near_defective[n]:
            continue
        ident += np.outer(
            spec.right_vectors[:, n], spec.left_vectors[:, n]
        ) / spec.biorth_norms[n]
    assert not np.any(spec.near_defective)
    assert np.max(np.abs(ident - np.eye(dim))) < 1e-8


def test_left_right_offdiagonal_orthogonality(desk_broken):
    big = max(desk_broken.blocks(), key=lambda b: b.dim)
    h = build_block_hamiltonian(desk_broken, big)
    spec = diagonalize(h)
    overlaps = spec.left_vectors.T @ spec.right_vectors
    off = overlaps - np.diag(np.diag(overlaps))
    # away from EPs the biorthogonal basis is clean
    assert np.max(np.abs(off)) < 1e-7


def test_eigendata_matches_full_matrix_eig(tiny):
    for label, w, _ in block_eigen_data(tiny):
        h = build_block_hamiltonian(tiny, label)
        w_full = np.linalg.eigvals(h)
        assert np.max(
            np.abs(np.sort_complex(w) - np.sort_complex(w_full))
        ) < 1e-8


def test_blocks_of_one_shape_share_read_only_spectra(desk_broken):
    spectra = block_spectra(desk_broken)
    by_shape = {}
    for s in spectra:
        by_shape.setdefault(_shape_of(s.label), []).append(s)
    assert len(spectra) == 855 and len(by_shape) == 81
    for group in by_shape.values():
        first = group[0]
        assert not first.eigenvalues.flags.writeable and not first.nqb.flags.writeable
        for s in group[1:]:
            assert s.eigenvalues is first.eigenvalues and s.nqb is first.nqb
    # the shared spectrum equals a solve of any one block of the shape
    for group in list(by_shape.values())[::9]:
        (alone,) = block_spectra(desk_broken, blocks=[group[-1].label])
        assert np.array_equal(alone.eigenvalues, group[0].eigenvalues)
        assert np.array_equal(alone.nqb, group[0].nqb)


def test_classify_all_real():
    cls = classify(np.array([1.0 + 0j, 2.0, 3.0]))
    assert len(cls.complex_pairs) == 0
    assert np.allclose(cls.real_levels, [1.0, 2.0, 3.0])


def test_classify_single_pair():
    cls = classify(np.array([1.0 + 0j, 2.0 + 0.3j, 2.0 - 0.3j]))
    assert np.allclose(cls.real_levels, [1.0])
    assert cls.complex_pairs.shape == (1, 2)
    assert cls.complex_pairs[0] == pytest.approx((2.0, 0.3))


def test_classify_unpaired_raises():
    with pytest.raises(AssertionError):
        classify(np.array([1.0 + 0.5j, 2.0]))


def test_classify_stable_under_tolerance_halving(desk_broken):
    for _, w, _ in block_eigen_data(desk_broken)[:50]:
        a = classify(w, im_tol=1e-9)
        b = classify(w, im_tol=5e-10)
        assert len(a.complex_pairs) == len(b.complex_pairs)


def test_ground_state_single_level():
    p = ModelParams(Omega=0.5, Omega1=1, Omega2=1, g=0.0)
    spectra = block_spectra(p)
    gs = ground_state_info(spectra)
    assert not gs.is_complex
    assert gs.g0 >= 1


def test_ground_state_real_below_pair_coupling():
    # coupling below the pair-scattering strength: real ground state
    p = ModelParams(alpha=0.36, g=1.0)
    gs = ground_state_info(thermal_table(p))
    assert not gs.is_complex and gs.gamma0 == 0.0


def test_ground_state_complex_at_strong_coupling(desk_broken):
    gs = ground_state_info(thermal_table(desk_broken))
    assert gs.is_complex and gs.gamma0 > 1.0
    assert gs.eps0 < -14.0


def test_hermitian_point_never_breaks():
    p = ModelParams(alpha=1.0, g=1.73)
    assert max_imag_eigenvalue(p) == 0.0


def test_find_eps_none_in_decoupled_window():
    # g -> 0+: the coupling that generates non-normality is switched off
    p = ModelParams(g=0.02)
    eps = find_eps(
        p, {"param": "alpha", "lo": 0.9, "hi": 1.1, "coarse_steps": 12}
    )
    assert eps == []


def test_find_eps_brackets_and_determinism():
    p = ModelParams(g=1.73)
    sweep = {"param": "alpha", "lo": 0.39, "hi": 0.5, "coarse_steps": 24}
    eps1 = find_eps(p, sweep, precision=1e-4)
    eps2 = find_eps(p, sweep, precision=1e-4)  # rerun: bisection determinism
    assert [e.value for e in eps1] == [e.value for e in eps2]
    assert eps1, "expected at least one EP near the critical window edge"
    for e in eps1:
        lo, hi = e.bracket
        assert hi - lo <= 1e-4
        p_lo = complex_pair_counts(p.with_(alpha=lo))
        p_hi = complex_pair_counts(p.with_(alpha=hi))
        assert p_lo != p_hi


def test_find_eps_finds_low_energy_ep():
    # the pair whose real part undercuts -10 GHz dies just past the
    # critical window; a per-block count scan resolves its coalescence
    p = ModelParams(g=1.73)
    eps = find_eps(
        p, {"param": "alpha", "lo": 0.39, "hi": 0.5, "coarse_steps": 60}
    )
    assert min(e.re_coalesce for e in eps) < -10.0


def test_find_eps_validates_sweep():
    p = ModelParams()
    with pytest.raises(ValueError):
        find_eps(p, {"param": "beta", "lo": 0, "hi": 1, "coarse_steps": 4})
    with pytest.raises(ValueError):
        find_eps(p, {"param": "alpha", "lo": 1, "hi": 0, "coarse_steps": 4})


def test_unity_boundary_is_ground_level_onset_and_step_converged():
    # at g = 1.5 the ground level turns complex near alpha = 0.425 below
    # unity and only beyond alpha = 4 above it, outside this search range
    precision = 1e-4
    coarse = first_eps_about_unity(
        ModelParams(), [1.5], step=0.04, span=2.4, precision=precision
    )
    fine = first_eps_about_unity(
        ModelParams(), [1.5], step=0.02, span=2.4, precision=precision
    )
    (a_below,) = coarse.alpha_below
    assert math.isnan(coarse.alpha_above[0]) and math.isnan(fine.alpha_above[0])
    assert 1 / 2.4 < a_below < 1.0
    assert abs(fine.alpha_below[0] - a_below) <= precision

    def ground_complex(alpha):
        table = thermal_table(ModelParams(g=1.5, alpha=alpha))
        return ground_state_info(table).is_complex

    assert not ground_complex(a_below + precision)
    assert ground_complex(a_below - precision)


def test_first_eps_about_unity_validates_search():
    for bad in ({"step": 0.0}, {"precision": 0.0}, {"span": 1.0}):
        with pytest.raises(ValueError):
            first_eps_about_unity(ModelParams(), [1.0], **bad)


def test_nqb_labels_are_conserved_pair_counts(tiny):
    for label, w, nqb in block_eigen_data(tiny):
        assert nqb is not None
        two_s1 = round(2 * label.qb.s1)
        two_s2 = round(2 * label.qb.s2)
        lo = -(two_s1 + two_s2) / 2.0 + 0.5 * (tiny.Omega1 + tiny.Omega2)
        hi = (two_s1 + two_s2) / 2.0 + 0.5 * (tiny.Omega1 + tiny.Omega2)
        assert np.all(nqb >= lo - 1e-12) and np.all(nqb <= hi + 1e-12)
