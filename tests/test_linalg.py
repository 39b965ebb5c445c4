from fractions import Fraction

import numpy as np
import pytest

from conftest import nnls_grid_oracle, nnls_textbook
from oneperiod import linalg
from oneperiod.errors import ConvergenceError
from oneperiod.linalg import nnls


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
        yield from _planted_and_clone(rng, n, k)
    # Money units far outside float32's normal range: the float32 copy of the
    # payoffs is rescaled by a power of two.
    for unit in (2.0**140, 2.0**-140, 1e-41):
        for g, b in _planted_and_clone(rng, 12, 200):
            yield unit * g, unit * b
    # Payoffs in a unit of 1e-41, prices in a unit of 1: the coefficients reach
    # 1e42, so the final KKT test must bound the passive gradients themselves,
    # not their products with the coefficients.
    for g, b in _planted_and_clone(rng, 12, 200):
        yield 1e-41 * g, b


def _planted_and_clone(rng, n, k):
    payoffs = rng.uniform(0.5, 1.5, size=(n, k))
    prices = payoffs @ rng.uniform(0.1, 1.0, size=k)
    yield payoffs, prices
    yield np.vstack([payoffs, payoffs[3]]), np.append(prices, 1.05 * prices[3])


def _assert_textbook_iterates(g, b):
    expected, steps = nnls_textbook(g, b)
    coefficients = nnls(g, b).coefficients
    np.testing.assert_array_equal(coefficients > 0.0, expected > 0.0)
    scale = float(np.abs(expected).max())
    assert float(np.abs(coefficients - expected).max()) <= 1e-12 * scale
    return steps


def test_nnls_matches_textbook_iterates():
    rng = np.random.default_rng(808)
    drops = 0
    for g, b in _textbook_problems(rng):
        drops += _assert_textbook_iterates(g, b)
    assert drops >= 20  # the drop rule is exercised, not only the entering rule


def test_nnls_float64_pass_matches_textbook_iterates(monkeypatch):
    # At a marked-up clone's last step every dual is at rounding level, so the
    # float32 band holds most generators and one float64 pass decides instead.
    passes = []
    price64 = linalg._Pricing.price64

    def counted(self, residual):
        passes.append(residual)
        return price64(self, residual)

    monkeypatch.setattr(linalg._Pricing, "price64", counted)
    rng = np.random.default_rng(812)
    _, (g, b) = _planted_and_clone(rng, 24, 3000)
    _assert_textbook_iterates(g, b)
    assert passes


def test_float32_pricing_decides_by_the_exact_dual():
    # Float32 rounds column 0 to (1 + u, 1) and column 1 to (1, 1), so against
    # r = (1, -1) it prices them at u and 0, while their exact duals are 0.02 u
    # and 0.49 u.
    u = 2.0**-23
    g = np.array([[1.0 + 0.51 * u, 1.0 + 0.49 * u], [1.0 + 0.49 * u, 1.0]])
    r = np.array([1.0, -1.0])
    no_passive = np.empty(0, dtype=np.intp)
    assert linalg._Pricing(g).entering(r, no_passive, kkt_tol=0.0) == 1
    pricing = linalg._Pricing(g)
    assert pricing.largest_magnitude(r, pricing.price(r)) == g[0, 1] - g[1, 1]
    # A float32 dual of 0 does not stop the loop when the exact one exceeds kkt_tol.
    assert linalg._Pricing(g[:, 1:]).entering(r, no_passive, kkt_tol=0.25 * u) == 0
    assert linalg._Pricing(g[:, 1:]).entering(r, no_passive, kkt_tol=0.5 * u) is None


def test_float32_band_threshold_rounds_down():
    floor = linalg._floor(np.zeros(1, dtype=np.float32), 0.1)  # float32(0.1) > 0.1
    assert floor.dtype == np.float32
    assert float(floor) <= 0.1 < float(np.nextafter(floor, np.float32(1.0)))


def _float32_pricing_cases(rng):
    """Random payoffs, payoffs spread over wide exponent ranges (rescaled, or
    with entries below float32's normal range) and payoffs with a cloned row."""
    for case in range(64):
        m = int(rng.integers(1, 12)) if case < 60 else int(rng.integers(64, 200))
        k = int(rng.integers(1, 30))
        g = rng.normal(size=(m, k))
        kind = case % 4
        if kind == 1:
            g *= np.exp2(rng.integers(-170, 170, size=(m, k)))
        elif kind == 2:
            g *= np.exp2(rng.integers(-160, 40, size=(m, k)))
        elif kind == 3 and m > 1:
            g[int(rng.integers(1, m))] = g[0]
        residual = rng.normal(size=m) * np.exp2(rng.integers(-60, 60, size=m))
        yield g, residual


def test_float32_pricing_error_is_within_its_bound():
    rng = np.random.default_rng(909)
    for g, residual in _float32_pricing_cases(rng):
        dual32, shift, err = linalg._Pricing(g).price(residual)
        unit = Fraction(2) ** -shift
        bound = Fraction(err)
        for j in range(g.shape[1]):
            exact = sum(Fraction(float(g[i, j])) * Fraction(float(residual[i]))
                        for i in range(g.shape[0]))
            assert abs(Fraction(float(dual32[j])) - unit * exact) <= bound


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
