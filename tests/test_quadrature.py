import numpy as np
import pytest
from scipy.integrate import quad

from critlab.quadrature import (
    cell_moments,
    cell_weight_integrals,
    hat_weights,
    hermite_coeffs,
)


def integrate_cells(r, coeffs, alpha):
    """Sum of the cell integrals of r^alpha times the local cubics."""
    return float(np.sum(cell_moments(r[:-1], r[1:], alpha, 3) * coeffs))


def test_moments_match_closed_forms():
    lo = np.array([0.0, 0.5, 10.0])
    hi = np.array([0.25, 0.75, 10.3])
    for alpha in [-0.5, 0.0, 1.0, 2.5]:
        M = cell_moments(lo, hi, alpha, 3)
        for i in range(lo.size):
            for k in range(4):
                exact = quad(lambda r: r**alpha * (r - lo[i]) ** k, lo[i], hi[i], epsabs=1e-14)[0]
                assert M[i, k] == pytest.approx(exact, rel=1e-11, abs=1e-15)


def test_hat_weights_exact_for_linear_data():
    r = np.linspace(0.0, 1.0, 257)
    w = hat_weights(r, -0.5)
    assert np.dot(w, np.ones_like(r)) == pytest.approx(2.0, rel=1e-14)
    assert np.dot(w, r) == pytest.approx(2.0 / 3.0, rel=1e-13)


def test_hermite_integration_is_fourth_order():
    def err(n):
        r = np.linspace(0.0, np.pi, n + 1)
        c = hermite_coeffs(r, np.sin(r), np.cos(r))
        exact = np.pi**2 - 4.0
        return abs(integrate_cells(r, c, 2.0) - exact)

    e1, e2 = err(64), err(128)
    assert e1 / e2 > 12.0


def test_singular_weight_with_nonuniform_cells():
    r = np.concatenate([np.geomspace(1e-4, 0.01, 40), np.linspace(0.0102, 3.0, 400)])
    f, df = np.exp(-r), -np.exp(-r)
    val = integrate_cells(r, hermite_coeffs(r, f, df), -0.5)
    exact = quad(lambda t: t**-0.5 * np.exp(-t), r[0], 3.0, epsabs=1e-14, limit=300)[0]
    assert val == pytest.approx(exact, abs=5e-11)


def test_cell_weight_integrals():
    r = np.linspace(0.0, 1.0, 11)
    vals = cell_weight_integrals(r, 2.0)
    assert np.sum(vals) == pytest.approx(1.0 / 3.0, rel=1e-13)


def test_invalid_inputs_raise():
    with pytest.raises(ValueError):
        cell_moments(np.array([0.0]), np.array([1.0]), -1.0, 1)
    with pytest.raises(ValueError):
        cell_moments(np.array([1.0]), np.array([0.5]), 0.0, 1)
