import numpy as np
import pytest
import scipy.sparse as sps

import roeforge as rf
from roeforge import SpectralError, spectral
from roeforge.spectral import (
    _matrix_seed,
    dense_extreme_eig,
    dense_power_norms,
    eigvec_power_norms,
    extreme_eig_matvec,
    matvec_power_norm,
)
from helpers import random_rational_op, spectral_norm


def sym_op(rng, sp, density=0.5):
    a = random_rational_op(rng, sp, density=density)
    return a + a.adjoint()


def lanczos(csr):
    """Seeded Lanczos on a symmetric CSR matrix, seeded from its own bytes
    as the gap report seeds a component: ``(value, vec, count, residual)``."""
    return extreme_eig_matvec(lambda x: csr @ x, csr.shape[0], _matrix_seed(csr))


def test_value_is_largest_modulus_not_largest_eigenvalue():
    lam, _, _ = dense_extreme_eig(np.diag([3.0, -5.0, 0.0, 0.0]))
    assert lam == -5.0


def test_dense_matches_numpy_oracle():
    rng = np.random.default_rng(5)
    for _ in range(10):
        sp = rf.make_complete(int(rng.integers(3, 12)))
        op = sym_op(rng, sp)
        got = abs(dense_extreme_eig(op.to_dense())[0])
        want = float(np.max(np.abs(np.linalg.eigvalsh(op.to_dense().astype(float)))))
        assert got == pytest.approx(want, abs=1e-12)


def test_iterative_agrees_with_dense():
    """Forcing the Lanczos path on a small operator reproduces the dense value."""
    rng = np.random.default_rng(17)
    sp = rf.make_cycle(30)
    op = sym_op(rng, sp)
    dense, _, _ = dense_extreme_eig(op.to_dense())
    iterative, _, count, _ = lanczos(op.to_csr())
    assert count > 0
    assert abs(iterative) == pytest.approx(abs(dense), rel=1e-9)


def test_iterative_is_deterministic():
    sp = rf.make_cycle(25)
    op = sym_op(np.random.default_rng(2), sp)
    a, b = lanczos(op.to_csr()), lanczos(op.to_csr())
    assert _matrix_seed(op.to_csr()) == _matrix_seed(op.to_csr())
    assert (a[0], a[2], a[3]) == (b[0], b[2], b[3])
    assert a[1].tobytes() == b[1].tobytes()


def test_tiny_spaces_refuse_iterative():
    with pytest.raises(ValueError):
        extreme_eig_matvec(lambda x: x, 2, seed=0)


def test_lanczos_stops_at_the_matvec_cap(monkeypatch):
    """A solve never spends more than the cap, and says so when it reaches it."""
    rng = np.random.default_rng(3)
    mat = np.diag(np.linspace(0.0, 1.0, 200)) + 1e-3 * rng.standard_normal((200, 200))
    mat = mat + mat.T
    _, _, count, _ = extreme_eig_matvec(lambda x: mat @ x, 200, seed=1)
    monkeypatch.setattr(spectral, "_MATVEC_CAP", count - 2)
    spent = []

    def counted(x):
        spent.append(1)
        return mat @ x

    with pytest.raises(SpectralError, match=f"on 200 points after {count - 2} matvecs: "
                                            f"the cap is {count - 2} matvecs"):
        extreme_eig_matvec(counted, 200, seed=1)
    assert len(spent) == count - 2


def test_operator_seed_sensitivity():
    """Equal matrices give equal seeds; other values or ``extra`` another one."""
    a = sps.csr_matrix(np.diag([1.0, 0.0, 0.0, 0.0]))
    b = sps.csr_matrix(np.diag([2.0, 0.0, 0.0, 0.0]))
    assert _matrix_seed(a) == _matrix_seed(a.copy())
    assert _matrix_seed(a) != _matrix_seed(b)
    assert _matrix_seed(a) != _matrix_seed(a, extra=b"component:0")


def test_lanczos_certifies_a_multiple_top_eigenvalue():
    """rho = 0.9 on Q10 has multiplicity 10.  ARPACK's first basis can stop
    there with a Ritz vector just short of the certified bound (seeds 3, 7,
    23, 35 and 38 below); a second solve from that vector certifies it."""
    sp = rf.make_hypercube(10)
    perms = rf.colour_permutations(rf.edge_colouring(sp, 1.0))[1:]
    block = rf.build_averaging(perms).csr
    for seed in range(40):
        value, _, count, residual = extreme_eig_matvec(
            lambda x: block @ x - x.mean(), sp.n_points, seed)
        res = spectral.SpectralResult(abs(value), "iterative", count, residual)
        assert spectral._checked(res).value == pytest.approx(0.9, abs=1e-12)


def test_dense_power_norms_matches_matrix_power():
    rng = np.random.default_rng(31)
    m = rng.normal(size=(8, 8))
    m = (m + m.T) / 8
    ks = [1, 2, 3, 7, 16, 40]
    got = dense_power_norms(m, ks)
    for k in ks:
        want = spectral_norm(np.linalg.matrix_power(m, k))
        assert got[k] == pytest.approx(want, rel=1e-10)


def test_dense_power_norms_survives_tiny_norms():
    """Scaled squaring keeps accuracy where naive powering would round to
    junk: a rank-one projection scaled by 1/2 has norm exactly 2^-k."""
    v = np.ones(4) / 2.0
    m = 0.5 * np.outer(v, v) / np.dot(v, v)  # half a rank-one projection
    got = dense_power_norms(m, [600])
    assert got[600] == pytest.approx(0.5**600, rel=1e-9)


def test_dense_power_norms_k_one_is_plain_norm():
    m = np.diag([0.25, -0.75])
    assert dense_power_norms(m, [1])[1] == pytest.approx(0.75)


def test_eigvec_power_norms_match_matrix_power():
    """On the eigenvector of the largest |eigenvalue| the norm of each power
    is attained, so one sweep of matvecs gives ||M^k||_2."""
    rng = np.random.default_rng(43)
    m = rng.normal(size=(9, 9))
    m = (m + m.T) / 9
    _, vec, _ = dense_extreme_eig(m)
    ks = [1, 2, 3, 8, 13]
    got = eigvec_power_norms(lambda x: m @ x, 5.0 * vec, ks)
    assert sorted(got) == ks
    for k in ks:
        want = spectral_norm(np.linalg.matrix_power(m, k))
        assert got[k] == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        eigvec_power_norms(lambda x: m @ x, vec, [0, 2])


def test_eigvec_power_norms_on_the_lanczos_vector():
    rng = np.random.default_rng(47)
    sp = rf.make_cycle(30)
    op = sym_op(rng, sp)
    csr = op.to_csr()
    value, vec, count, _ = extreme_eig_matvec(lambda x: csr @ x, 30, seed=5)
    assert count > 0 and vec.shape == (30,)
    got = eigvec_power_norms(lambda x: csr @ x, vec, [1, 4])
    for k in (1, 4):
        assert got[k] == pytest.approx(abs(value) ** k, rel=1e-9)


def test_matvec_power_norm_matches_dense():
    rng = np.random.default_rng(37)
    sp = rf.make_cycle(20)
    op = sym_op(rng, sp)
    d = op.to_dense().astype(float)
    csr = op.to_csr()
    for k in (1, 2, 5):
        got, count, _ = matvec_power_norm(lambda x: csr @ x, 20, k, seed=1234)
        want = spectral_norm(np.linalg.matrix_power(d, k))
        assert got == pytest.approx(want, rel=1e-8)
        assert count % k == 0


def test_residual_is_certified():
    sp = rf.make_cycle(40)
    op = sym_op(np.random.default_rng(41), sp)
    value, _, _, residual = lanczos(op.to_csr())
    assert residual <= max(1e-10, 64 * np.finfo(float).eps) * max(1.0, abs(value))
