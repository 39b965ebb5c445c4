import numpy as np
import pytest

from conftest import nnls_grid_oracle, nnls_textbook
from oneperiod.errors import ConvergenceError
from oneperiod.linalg import nnls, pinv


def random_orthogonal(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q


def rank_deficient_matrix(rng, m, n, rank):
    """A = U diag(s) W' with exactly `rank` nonzero singular values."""
    s = np.zeros(min(m, n))
    s[:rank] = np.sort(rng.uniform(0.5, 3.0, size=rank))[::-1]
    u = random_orthogonal(rng, m)[:, :s.size]
    w = random_orthogonal(rng, n)[:, :s.size]
    return (u * s) @ w.T, rank


def penrose_violation(matrix, result):
    a = np.asarray(matrix, dtype=float)
    p = result.pinv
    scale = max(1.0, float(np.abs(a).max()), float(np.abs(p).max()))
    return max(
        float(np.abs(a @ p @ a - a).max()),
        float(np.abs(p @ a @ p - p).max()),
        float(np.abs((a @ p) - (a @ p).T).max()),
        float(np.abs((p @ a) - (p @ a).T).max()),
    ) / scale


def test_pinv_identity():
    result = pinv(np.eye(4))
    np.testing.assert_allclose(result.pinv, np.eye(4), atol=1e-14)
    assert result.rank == 4


def test_pinv_zero_matrix():
    result = pinv(np.zeros((3, 2)))
    assert result.rank == 0
    assert result.pinv.shape == (2, 3)
    np.testing.assert_array_equal(result.pinv, np.zeros((2, 3)))


def test_pinv_singular_diagonal():
    result = pinv(np.diag([0.0, 0.0384]))
    assert result.rank == 1
    np.testing.assert_allclose(result.pinv, np.diag([0.0, 26.041666666666668]),
                               rtol=1e-12)


def test_pinv_rejects_bad_input():
    with pytest.raises(ValueError):
        pinv(np.ones(3))
    with pytest.raises(ValueError):
        pinv([[1.0, np.nan]])
    with pytest.raises(ValueError):
        pinv(np.eye(2), rtol=0.0)


def test_pinv_penrose_conditions_random():
    rng = np.random.default_rng(303)
    for _ in range(40):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        if rng.uniform() < 0.5:
            a = rng.normal(size=(m, n))
        else:
            a, expected_rank = rank_deficient_matrix(
                rng, m, n, int(rng.integers(0, min(m, n) + 1)))
            assert pinv(a).rank == expected_rank
        assert penrose_violation(a, pinv(a)) <= 1e-9


# -- nonnegative least squares -------------------------------------------------

def test_nnls_feasible_point_is_recovered():
    g = np.array([[1.0, 0.2], [0.1, 1.0], [0.3, 0.5]])
    c0 = np.array([0.7, 1.3])
    projection = nnls(g, g @ c0)
    assert projection.residual_norm <= 1e-9
    np.testing.assert_allclose(projection.coefficients, c0, rtol=1e-9)


def test_nnls_single_generator_opposite_target():
    projection = nnls([[1.0], [0.0]], (-1.0, 0.0))
    np.testing.assert_array_equal(projection.coefficients, [0.0])
    np.testing.assert_array_equal(projection.point, [0.0, 0.0])
    assert projection.residual_norm == pytest.approx(1.0)


def test_nnls_two_generator_interior_solution():
    g = np.array([[1.1, 1.1], [1.3, 0.9]])
    projection = nnls(g, (1.0, 1.0))
    np.testing.assert_allclose(projection.coefficients, [5.0 / 11.0, 5.0 / 11.0],
                               rtol=1e-12)
    assert projection.residual_norm <= 1e-12


def test_nnls_kkt_certificate_random():
    rng = np.random.default_rng(505)
    for _ in range(50):
        m = int(rng.integers(1, 7))
        k = int(rng.integers(1, 9))
        g = rng.normal(size=(m, k))
        b = rng.normal(size=m)
        projection = nnls(g, b)
        tol = 1e-10 * float(np.abs(g.T @ b).max())
        grad = g.T @ (g @ projection.coefficients - b)
        assert projection.coefficients.min() >= 0.0
        assert grad.min() >= -tol
        assert float((projection.coefficients * grad).max()) <= tol
        np.testing.assert_allclose(projection.point,
                                   g @ projection.coefficients, rtol=1e-12, atol=1e-12)


def test_nnls_orthogonality_of_projection_gap():
    rng = np.random.default_rng(606)
    for _ in range(30):
        m = int(rng.integers(2, 7))
        k = int(rng.integers(1, 7))
        g = rng.uniform(0.2, 1.5, size=(m, k))
        b = rng.normal(size=m)
        projection = nnls(g, b)
        gap = projection.point - b
        assert abs(float(gap @ projection.point)) <= 1e-8 * float(b @ b)


def test_nnls_matches_grid_oracle():
    rng = np.random.default_rng(707)
    for _ in range(6):
        m = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        g = rng.uniform(-1.0, 1.0, size=(m, k))
        c0 = rng.uniform(0.2, 2.0, size=k)
        b = g @ c0 + rng.normal(scale=0.2, size=m)
        projection = nnls(g, b)
        assert nnls_grid_oracle(g, b) >= projection.residual_norm - 1e-3


def test_nnls_iteration_cap_carries_best_iterate():
    g = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ConvergenceError) as excinfo:
        nnls(g, (1.0, 1.0), max_iter=0)
    best = excinfo.value.best
    assert best is not None
    np.testing.assert_array_equal(best.coefficients, [0.0, 0.0])
    assert best.residual_norm == pytest.approx(np.sqrt(2.0))


def test_nnls_rejects_bad_shapes():
    with pytest.raises(ValueError):
        nnls(np.ones((2, 0)), np.ones(2))
    with pytest.raises(ValueError):
        nnls(np.ones((2, 2)), np.ones(3))
    with pytest.raises(ValueError):
        nnls([[np.inf, 1.0]], [1.0])


def _textbook_problems(rng):
    """Seeded problems: generic, duplicate columns, a cloned row, planted cones,
    and planted and marked-up-clone markets with longer passive sets."""
    for case in range(240):
        m = int(rng.integers(1, 10))
        k = int(rng.integers(1, 16))
        g = rng.normal(size=(m, k))
        kind = case % 4
        if kind == 1 and k > 1:
            g[:, int(rng.integers(1, k))] = g[:, 0]
        elif kind == 2 and m > 1:
            g[int(rng.integers(1, m))] = g[0]
        elif kind == 3:
            g = rng.uniform(0.5, 1.5, size=(m, k))
        yield g, rng.normal(size=m)
    for n, k in ((16, 400), (24, 300)):
        payoffs = rng.uniform(0.5, 1.5, size=(n, k))
        prices = payoffs @ rng.uniform(0.1, 1.0, size=k)
        yield payoffs, prices
        yield np.vstack([payoffs, payoffs[3]]), np.append(prices, 1.05 * prices[3])


def test_nnls_matches_textbook_iterates():
    rng = np.random.default_rng(808)
    drops = 0
    for g, b in _textbook_problems(rng):
        expected, steps = nnls_textbook(g, b)
        drops += steps
        coefficients = nnls(g, b).coefficients
        np.testing.assert_array_equal(coefficients > 0.0, expected > 0.0)
        scale = float(np.abs(expected).max())
        assert float(np.abs(coefficients - expected).max()) <= 1e-12 * scale
    assert drops >= 20  # the drop rule is exercised, not only the entering rule


def test_nnls_factors_nothing_from_scratch(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("nnls called a numpy.linalg factorization")

    for name in ("lstsq", "qr", "svd", "solve", "inv", "pinv"):
        monkeypatch.setattr(np.linalg, name, refuse)
    rng = np.random.default_rng(810)
    for g, b in _textbook_problems(rng):
        nnls(g, b)


def test_nnls_dependent_entering_column_carries_best_iterate():
    # With kkt_tol = 0 a rounding-level dual asks a generator in the span of
    # the passive ones to enter; the textbook method cycles to the cap here.
    g = [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]
    with pytest.raises(ConvergenceError, match="linearly dependent") as excinfo:
        nnls(g, (1.0, 2.0), kkt_tol=0.0)
    np.testing.assert_allclose(excinfo.value.best.coefficients, [0.0, 1.0, 1.0],
                               rtol=1e-15)
