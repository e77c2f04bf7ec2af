import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from schrodeform.sparse_lu import factor, inertia


@pytest.mark.parametrize("diag, expected", [
    ([3.0, 1.0, 2.0], (3, 0)),
    ([3.0, -1.0, 2.0, -5.0], (2, 2)),
    ([-1.0, -2.0], (0, 2)),
], ids=["definite", "indefinite", "negative"])
def test_inertia_of_a_rotated_diagonal(diag, expected):
    # Q D Q^T has the inertia of D (Sylvester); a banded rotation keeps it sparse
    n = len(diag)
    c, s = np.cos(0.3), np.sin(0.3)
    Q = np.eye(n)
    for i in range(n - 1):
        G = np.eye(n)
        G[i:i + 2, i:i + 2] = [[c, -s], [s, c]]
        Q = Q @ G
    A = sp.csc_matrix(Q @ np.diag(diag) @ Q.T)
    assert inertia(factor(A, "NATURAL", diagonal_pivots=True)) == expected


def test_inertia_of_a_saddle_point_matrix():
    # [[I, B^T], [B, -delta I]] with B of full row rank: n_x positive, n_b negative
    rng = np.random.default_rng(0)
    B = sp.csr_matrix(rng.standard_normal((3, 5)))
    K = sp.bmat([[sp.identity(5), B.T], [B, -1e-8 * sp.identity(3)]], format="csc")
    assert inertia(factor(K, "MMD_AT_PLUS_A", diagonal_pivots=True)) == (5, 3)


def test_off_diagonal_pivots_prove_nothing():
    # a zero diagonal forces a row swap, so the pivots carry no inertia
    K = sp.csc_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    lu = factor(K, "NATURAL", diagonal_pivots=True)
    assert not np.array_equal(lu.perm_r, lu.perm_c)
    assert inertia(lu) is None


def test_threshold_pivots_match_splu_default():
    rng = np.random.default_rng(1)
    A = sp.random(30, 30, density=0.2, random_state=rng, format="csc") \
        + sp.identity(30, format="csc")
    b = rng.standard_normal(30)
    x = factor(A, "COLAMD", diagonal_pivots=False).solve(b)
    assert np.array_equal(x, spla.splu(A).solve(b))
