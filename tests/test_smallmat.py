import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from schrodeform.geometry import smallmat


@st.composite
def _stacks(draw):
    """Diagonally dominant (hence well-conditioned) n x n stacks, n <= 3,
    with a right-hand side and a second factor of matching shape."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 6))
    entries = st.floats(-1.0, 1.0)
    M = draw(arrays(np.float64, (k, n, n), elements=entries)) + 4.0 * np.eye(n)
    b = draw(arrays(np.float64, (k, n), elements=entries))
    B = draw(arrays(np.float64, (k, n, n), elements=entries))
    return M, b, B


def _assert_rel(got, want):
    assert got.shape == want.shape
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert float(np.max(np.abs(got - want))) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(_stacks())
def test_closed_forms_match_numpy(stack):
    M, b, B = stack
    _assert_rel(smallmat.det(M), np.linalg.det(M))
    _assert_rel(smallmat.inv(M), np.linalg.inv(M))
    _assert_rel(smallmat.solve(M, b), np.linalg.solve(M, b[..., None])[..., 0])
    _assert_rel(smallmat.matmul(M, B), M @ B)
