import math

import numpy as np
import pytest
from scipy.integrate import quad

from critlab import (
    Ball,
    GridFunction,
    Interval,
    NonIntegrableWeight,
    OriginOutside,
    ZeroFunction,
    apply_dirichlet_laplacian,
    build_grid,
    integrate,
    integrate_nodal,
    mass,
    normalize_mass,
)
from critlab.grids import Grid, dirichlet_form, hat_masses
from critlab.params import surface_area


def test_build_grid_counts():
    g = build_grid(Interval(-1.0, 1.0), 256)
    assert g.nodes.size == 257
    assert g.h == pytest.approx(2.0 / 256)
    gb = build_grid(Ball(3, 5.0), 500)
    assert gb.nodes[0] == 0.0 and gb.nodes[-1] == 5.0
    assert gb.n_interior == 500  # r = 0 stays interior


def test_origin_must_be_interior():
    with pytest.raises(OriginOutside):
        build_grid(Interval(0.5, 1.0), 64)
    with pytest.raises(ValueError):
        build_grid(Interval(-1.0, 1.0), 8)


def test_laplacian_eigenfunction():
    g = build_grid(Interval(-1.0, 1.0), 512)
    u = GridFunction.from_callable(g, lambda x: np.cos(np.pi * x / 2))
    lap = apply_dirichlet_laplacian(u)
    err = np.max(np.abs(lap.values - (np.pi / 2) ** 2 * u.values))
    assert err < 2.0 * g.h**2


def test_laplacian_constant_interior_boundary_layer():
    g = build_grid(Interval(-1.0, 1.0), 64)
    u = GridFunction(g, np.ones(g.n_interior))
    lap = apply_dirichlet_laplacian(u).values
    assert np.max(np.abs(lap[1:-1])) < 1e-12
    assert lap[0] == pytest.approx(1.0 / g.h**2)
    assert lap[-1] == pytest.approx(1.0 / g.h**2)


def test_radial_laplacian_gaussian():
    # sympy-checked closed form: -Lap exp(-r^2) = (6 - 4 r^2) exp(-r^2) in 3-D
    errs = []
    for res in (256, 512):
        g = build_grid(Ball(3, 5.0), res)
        u = GridFunction.from_callable(g, lambda r: np.exp(-(r**2)))
        lap = apply_dirichlet_laplacian(u).values
        r = g.interior_nodes
        truth = (6.0 - 4.0 * r**2) * np.exp(-(r**2))
        sel = r >= 0.5  # the r = 0 node carries the lumped-mass realization
        errs.append(np.max(np.abs(lap[sel] - truth[sel])))
    assert errs[0] / errs[1] > 3.0
    assert errs[1] < 1e-3


def test_laplacian_symmetric_positive():
    rng = np.random.default_rng(5)
    g = build_grid(Ball(3, 4.0), 128)
    w0 = hat_masses(g, 0.0)
    u = GridFunction(g, rng.standard_normal(g.n_interior))
    v = GridFunction(g, rng.standard_normal(g.n_interior))
    lu = apply_dirichlet_laplacian(u).full()
    lv = apply_dirichlet_laplacian(v).full()
    assert np.dot(w0, lu * v.full()) == pytest.approx(np.dot(w0, lv * u.full()), rel=1e-10)
    assert np.dot(w0, lu * u.full()) > 0.0
    assert dirichlet_form(u) > 0.0


def test_hat_masses_built_once_read_only():
    g = build_grid(Interval(-1.0, 3.0), 257)
    w = hat_masses(g, -0.5)
    assert hat_masses(g, -0.5) is w
    with pytest.raises(ValueError):
        w[0] = 1.0
    with pytest.raises(NonIntegrableWeight):
        hat_masses(g, -1.0)


def test_weighted_integrals_closed_forms():
    g = build_grid(Interval(-1.0, 1.0), 256)
    ones = np.ones(g.nodes.size)
    assert integrate_nodal(g, ones, -0.5) == pytest.approx(4.0, rel=1e-13)
    assert integrate_nodal(g, ones, 0.0) == pytest.approx(2.0, rel=1e-14)
    b = 0.5
    g2 = build_grid(Ball(2, 1.0), 64)
    ones2 = np.ones(g2.nodes.size)
    assert integrate_nodal(g2, ones2, -b) == pytest.approx(2 * math.pi / (2 - b), rel=1e-13)
    assert integrate_nodal(g2, ones2, 0.0) == pytest.approx(math.pi, rel=1e-12)


def test_cross_module_mass(gs31):
    g = build_grid(Ball(3, 20.0), 2000)
    q2 = GridFunction.from_callable(g, lambda r: gs31.q(r) ** 2)
    assert integrate(q2, 0.0) == pytest.approx(gs31.l2_sq, rel=1e-3)


def test_singular_quadrature_convergence_order():
    exact = quad(lambda x: abs(x) ** -0.5 * math.cos(math.pi * x / 2) ** 2, -1, 1,
                 points=[0.0], limit=200, epsabs=1e-13)[0]

    def err(res):
        g = build_grid(Interval(-1.0, 1.0), res)
        vals = np.cos(np.pi * g.nodes / 2) ** 2
        return abs(integrate_nodal(g, vals, -0.5) - exact)

    e1, e2 = err(128), err(256)
    order = math.log2(e1 / e2)
    assert order > 1.5


def test_nonintegrable_weight():
    g = build_grid(Interval(-1.0, 1.0), 64)
    u = GridFunction(g, np.ones(g.n_interior))
    with pytest.raises(NonIntegrableWeight):
        integrate(u, -1.0)
    g2 = build_grid(Ball(2, 1.0), 64)
    u2 = GridFunction(g2, np.ones(g2.n_interior))
    with pytest.raises(NonIntegrableWeight):
        integrate(u2, -2.0)
    integrate(u2, -1.5)  # integrable in two dimensions


def test_normalize_mass():
    g = build_grid(Interval(-1.0, 1.0), 128)
    u = GridFunction.from_callable(g, lambda x: 2.0 * np.cos(np.pi * x / 2))
    n = normalize_mass(u)
    assert mass(n) == pytest.approx(1.0, abs=1e-14)
    again = normalize_mass(n)
    assert np.allclose(again.values, n.values, rtol=0, atol=1e-15)
    with pytest.raises(ZeroFunction):
        normalize_mass(GridFunction(g, np.zeros(g.n_interior)))


def test_interval_asymmetric_and_straddling_cells():
    # asymmetric interval with the origin strictly inside a cell
    g = build_grid(Interval(-0.95, 1.55), 125)
    assert not np.any(g.nodes == 0.0)
    ones = np.ones(g.nodes.size)
    exact = 2.0 * (math.sqrt(0.95) + math.sqrt(1.55))
    assert integrate_nodal(g, ones, -0.5) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_nonuniform_ball_grid_masses_and_stiffness(N):
    # unequal cells starting away from the origin, as on a profile grid
    grid = Grid(Ball(N, 3.0), nodes=np.array([0.5, 0.6, 0.8, 1.2, 2.0, 3.0]), h=0.5)
    shell = surface_area(N) * (3.0**N - 0.5**N) / N
    assert hat_masses(grid, 0.0).sum() == pytest.approx(shell, rel=1e-14)
    u = GridFunction.from_callable(grid, lambda r: 3.0 - r)  # |u'| = 1, zero at r = 3
    assert dirichlet_form(u) == pytest.approx(shell, rel=1e-14)
