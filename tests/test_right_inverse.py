import logging
import re

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from schrodeform.geometry import ReferenceGrid
from schrodeform.errors import SingularSystemError
from schrodeform.moser import build_divergence_right_inverse, right_inverse


def _corner_compatible_sample(grid, seed=0):
    # random smooth sample vanishing at the corners with exactly zero
    # (projected) corner target; sine products also have zero trapezoid mean
    rng = np.random.default_rng(seed)
    y1 = grid.nodes[:, 0]
    v = np.zeros(grid.n_nodes)
    if grid.dim == 1:
        for k in range(1, 5):
            v += rng.standard_normal() * np.sin(2 * np.pi * k * y1)
    else:
        y2 = grid.nodes[:, 1]
        for k in range(1, 4):
            for l in range(1, 4):
                v += rng.standard_normal() * np.sin(2 * np.pi * k * y1) \
                    * np.sin(2 * np.pi * l * y2)
    return v


def test_zero_input_gives_zero_field():
    grid = ReferenceGrid.interval(32)
    rinv = build_divergence_right_inverse(grid)
    u = rinv.apply(np.zeros(grid.n_nodes))
    assert np.max(np.abs(u.node_values)) == 0.0


def test_1d_solution_is_antiderivative():
    # In 1D the zero-trace solution is unique: u(y) = int_0^y v.
    grid = ReferenceGrid.interval(256)
    rinv = build_divergence_right_inverse(grid)
    y = grid.nodes[:, 0]
    v = np.sin(2 * np.pi * y)
    u = rinv.apply(v)
    exact = (1.0 - np.cos(2 * np.pi * y)) / (2 * np.pi)
    assert np.max(np.abs(u.node_values[:, 0] - exact)) <= 5 * grid.min_spacing ** 2
    assert u.node_values[0, 0] == 0.0 and u.node_values[-1, 0] == 0.0


def test_1d_residual_tiny():
    grid = ReferenceGrid.interval(128)
    rinv = build_divergence_right_inverse(grid)
    v = _corner_compatible_sample(grid)
    u = rinv.apply(v)
    assert u.div_residual <= 1e-8 * np.max(np.abs(v))


def test_2d_residual_tiny():
    grid = ReferenceGrid.rectangle(48)
    rinv = build_divergence_right_inverse(grid)
    v = _corner_compatible_sample(grid, seed=3)
    u = rinv.apply(v)
    assert u.div_residual <= 1e-8 * np.max(np.abs(v))
    assert u.corner_mismatch <= 1e-10 * np.max(np.abs(v))


def test_zero_boundary_trace_exact():
    grid = ReferenceGrid.rectangle(24)
    rinv = build_divergence_right_inverse(grid)
    u = rinv.apply(_corner_compatible_sample(grid, seed=5))
    assert np.max(np.abs(u.node_values[grid.boundary_indices])) == 0.0


def test_linearity():
    grid = ReferenceGrid.rectangle(20)
    rinv = build_divergence_right_inverse(grid)
    va = _corner_compatible_sample(grid, seed=1)
    vb = _corner_compatible_sample(grid, seed=2)
    ua = rinv.apply(va).node_values
    ub = rinv.apply(vb).node_values
    uab = rinv.apply(2.0 * va - 0.5 * vb).node_values
    scale = np.max(np.abs(uab))
    assert np.max(np.abs(uab - (2.0 * ua - 0.5 * ub))) <= 1e-12 * max(scale, 1.0)


def test_factorization_cached_per_grid():
    grid = ReferenceGrid.interval(16)
    assert build_divergence_right_inverse(grid) is build_divergence_right_inverse(grid)


def test_corner_mismatch_reported_for_generic_input():
    # A square's corners are rigid: zero-trace fields have zero divergence
    # there, so inputs with corner values (after projection) are flagged.
    grid = ReferenceGrid.rectangle(16)
    rinv = build_divergence_right_inverse(grid)
    y1, y2 = grid.nodes[:, 0], grid.nodes[:, 1]
    v = np.cos(np.pi * y1) * (1.0 + y2)
    v -= np.sum(grid.weights * v) / grid.measure
    u = rinv.apply(v)
    assert u.corner_mismatch > 1e-3
    assert u.div_residual <= 1e-8 * np.max(np.abs(v))


def test_null_vector_check_rejects_nan(monkeypatch):
    grid = ReferenceGrid.rectangle(6)
    monkeypatch.setattr(right_inverse, "_null_vector",
                        lambda grid: np.full(grid.n_nodes, np.nan))
    with pytest.raises(SingularSystemError, match="left null vector mismatch"):
        right_inverse.DivergenceRightInverse(grid)


def _built(grid, caplog):
    """A fresh right inverse and its DEBUG factor record."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="schrodeform"):
        rinv = right_inverse.DivergenceRightInverse(grid)
    [record] = caplog.records
    return rinv, record.getMessage()


def _faces(rinv, v):
    faces, _, _ = rinv.apply_faces(v)
    return np.concatenate([f[m] for f, m in zip(faces, rinv._keep)])


@pytest.mark.parametrize("cells", [(12, 9), (40, 40)], ids=["12x9", "40x40"])
def test_certified_factor_matches_colamd_reference(caplog, cells):
    grid = ReferenceGrid.rectangle(cells)
    rinv, message = _built(grid, caplog)
    n_x, n_lam = rinv._n_x, rinv._solvable.size
    assert message.endswith(
        f"inertia=({n_x + 1}, {n_lam}) colamd_fallback=False")
    assert message.startswith("right inverse: order=MMD_AT_PLUS_A")
    v = _corner_compatible_sample(grid, seed=4)
    b = rinv._project(v)[rinv._solvable]
    ref = spla.splu(rinv._kkt).solve(np.concatenate([np.zeros(n_x), b, [0.0]]))[:n_x]
    x = _faces(rinv, v)
    assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("failure", ["wrong-inertia", "singular"])
def test_uncertified_factor_falls_back_to_colamd(monkeypatch, caplog, failure):
    grid = ReferenceGrid.rectangle((12, 9))
    v = _corner_compatible_sample(grid, seed=6)
    certified, _ = _built(grid, caplog)
    if failure == "wrong-inertia":
        monkeypatch.setattr(right_inverse, "inertia", lambda lu: (1, 0))
    else:
        real = right_inverse.factor

        def factor(A, permc_spec, diagonal_pivots):
            if diagonal_pivots:
                raise RuntimeError("Factor is exactly singular")
            return real(A, permc_spec, diagonal_pivots)

        monkeypatch.setattr(right_inverse, "factor", factor)
    fallback, message = _built(grid, caplog)
    assert message.startswith("right inverse: order=COLAMD")
    assert message.endswith("colamd_fallback=True")
    a, b = certified.apply(v), fallback.apply(v)
    scale = np.max(np.abs(a.node_values))
    assert np.max(np.abs(a.node_values - b.node_values)) <= 1e-10 * scale
    assert b.div_residual <= 1e-8 * np.max(np.abs(v))
    assert b.corner_mismatch == a.corner_mismatch


def test_factor_is_reported_at_debug_only(caplog):
    right_inverse.DivergenceRightInverse(ReferenceGrid.rectangle(6))
    assert not caplog.records
    caplog.set_level(logging.DEBUG, logger="schrodeform")
    right_inverse.DivergenceRightInverse(ReferenceGrid.rectangle(6))
    [record] = caplog.records
    assert record.name == "schrodeform.moser.right_inverse"
    assert record.levelno == logging.DEBUG
    assert re.fullmatch(r"right inverse: order=MMD_AT_PLUS_A fill=\d+ "
                        r"inertia=\(61, 45\) colamd_fallback=False",
                        record.getMessage())
