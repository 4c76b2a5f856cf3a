import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from critlab import (
    Ball,
    GridFunction,
    Interval,
    build_grid,
    integrate,
    integrate_nodal,
    mass,
    normalize_mass,
)
from critlab import grids
from critlab.grids import Grid, apply_stiffness, dirichlet_form, hat_masses
from critlab.params import surface_area


def neg_laplacian(u):
    """Lumped P1 realization (K u)_i / m_i of -Lap u, Dirichlet rows eliminated."""
    grid = u.grid
    return u.with_values(apply_stiffness(grid, u.values) / hat_masses(grid, 0.0)[grid.interior])


def test_build_grid_counts():
    g = build_grid(Interval(-1.0, 1.0), 256)
    assert g.nodes.size == 257
    assert g.h == pytest.approx(2.0 / 256)
    gb = build_grid(Ball(3, 5.0), 500)
    assert gb.nodes[0] == 0.0 and gb.nodes[-1] == 5.0
    assert gb.n_interior == 500  # r = 0 stays interior


def test_origin_must_be_interior():
    with pytest.raises(ValueError, match="does not contain 0 in its interior"):
        build_grid(Interval(0.5, 1.0), 64)
    with pytest.raises(ValueError):
        build_grid(Interval(-1.0, 1.0), 8)


def test_laplacian_eigenfunction():
    g = build_grid(Interval(-1.0, 1.0), 512)
    u = GridFunction(g, np.cos(np.pi * g.interior_nodes / 2))
    lap = neg_laplacian(u)
    err = np.max(np.abs(lap.values - (np.pi / 2) ** 2 * u.values))
    assert err < 2.0 * g.h**2


def test_laplacian_constant_interior_boundary_layer():
    g = build_grid(Interval(-1.0, 1.0), 64)
    u = GridFunction(g, np.ones(g.n_interior))
    lap = neg_laplacian(u).values
    assert np.max(np.abs(lap[1:-1])) < 1e-12
    assert lap[0] == pytest.approx(1.0 / g.h**2)
    assert lap[-1] == pytest.approx(1.0 / g.h**2)


def test_radial_laplacian_gaussian():
    # sympy-checked closed form: -Lap exp(-r^2) = (6 - 4 r^2) exp(-r^2) in 3-D
    errs = []
    for res in (256, 512):
        g = build_grid(Ball(3, 5.0), res)
        u = GridFunction(g, np.exp(-(g.interior_nodes**2)))
        lap = neg_laplacian(u).values
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
    lu = neg_laplacian(u).full()
    lv = neg_laplacian(v).full()
    assert np.dot(w0, lu * v.full()) == pytest.approx(np.dot(w0, lv * u.full()), rel=1e-10)
    assert np.dot(w0, lu * u.full()) > 0.0
    assert dirichlet_form(u) > 0.0


def test_hat_masses_built_once_read_only():
    g = build_grid(Interval(-1.0, 3.0), 257)
    w = hat_masses(g, -0.5)
    assert hat_masses(g, -0.5) is w
    with pytest.raises(ValueError):
        w[0] = 1.0
    with pytest.raises(ValueError, match="not integrable near 0"):
        hat_masses(g, -1.0)


def test_weighted_integrals_closed_forms():
    g = build_grid(Interval(-1.0, 1.0), 256)
    ones = np.ones(g.nodes.size)
    assert hat_masses(g, -0.5) @ ones == pytest.approx(4.0, rel=1e-13)
    assert integrate_nodal(g, ones) == pytest.approx(2.0, rel=1e-14)
    b = 0.5
    g2 = build_grid(Ball(2, 1.0), 64)
    ones2 = np.ones(g2.nodes.size)
    assert hat_masses(g2, -b) @ ones2 == pytest.approx(2 * math.pi / (2 - b), rel=1e-13)
    assert integrate_nodal(g2, ones2) == pytest.approx(math.pi, rel=1e-12)


def test_cross_module_mass(gs31):
    g = build_grid(Ball(3, 20.0), 2000)
    q2 = GridFunction(g, gs31.q(g.interior_nodes) ** 2)
    assert integrate(q2) == pytest.approx(gs31.l2_sq, rel=1e-3)


def test_singular_quadrature_convergence_order():
    exact = quad(lambda x: abs(x) ** -0.5 * math.cos(math.pi * x / 2) ** 2, -1, 1,
                 points=[0.0], limit=200, epsabs=1e-13)[0]

    def err(res):
        g = build_grid(Interval(-1.0, 1.0), res)
        vals = np.cos(np.pi * g.nodes / 2) ** 2
        return abs(hat_masses(g, -0.5) @ vals - exact)

    e1, e2 = err(128), err(256)
    order = math.log2(e1 / e2)
    assert order > 1.5


def test_nonintegrable_weight():
    g = build_grid(Interval(-1.0, 1.0), 64)
    with pytest.raises(ValueError, match="not integrable near 0 in dimension 1"):
        hat_masses(g, -1.0)
    g2 = build_grid(Ball(2, 1.0), 64)
    with pytest.raises(ValueError, match="not integrable near 0 in dimension 2"):
        hat_masses(g2, -2.0)
    hat_masses(g2, -1.5)  # integrable in two dimensions


def test_normalize_mass():
    g = build_grid(Interval(-1.0, 1.0), 128)
    u = GridFunction(g, 2.0 * np.cos(np.pi * g.interior_nodes / 2))
    n = normalize_mass(u)
    assert mass(n) == pytest.approx(1.0, abs=1e-14)
    again = normalize_mass(n)
    assert np.allclose(again.values, n.values, rtol=0, atol=1e-15)
    with pytest.raises(ValueError, match="zero L2 norm"):
        normalize_mass(GridFunction(g, np.zeros(g.n_interior)))


def test_interval_asymmetric_and_straddling_cells():
    # asymmetric interval with the origin strictly inside a cell
    g = build_grid(Interval(-0.95, 1.55), 125)
    assert not np.any(g.nodes == 0.0)
    ones = np.ones(g.nodes.size)
    exact = 2.0 * (math.sqrt(0.95) + math.sqrt(1.55))
    assert hat_masses(g, -0.5) @ ones == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_nonuniform_ball_grid_masses_and_stiffness(N):
    # unequal cells starting away from the origin, as on a profile grid
    grid = Grid(Ball(N, 3.0), nodes=np.array([0.5, 0.6, 0.8, 1.2, 2.0, 3.0]))
    assert grid.h == 1.0  # the widest cell
    shell = surface_area(N) * (3.0**N - 0.5**N) / N
    assert hat_masses(grid, 0.0).sum() == pytest.approx(shell, rel=1e-14)
    u = GridFunction(grid, 3.0 - grid.interior_nodes)  # |u'| = 1, zero at r = 3
    assert dirichlet_form(u) == pytest.approx(shell, rel=1e-14)


# ----------------------------------------------------------------------
# property tests: hat masses and the Dirichlet form are exact on P1 data
# ----------------------------------------------------------------------

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _power_integral(c, d, e):
    """Integral of |x|^(e-1) over [c, d], with c and d on one side of 0."""
    return (math.copysign(abs(d) ** e, d) - math.copysign(abs(c) ** e, c)) / e


def _p1_weighted_integral(x, z, alpha):
    """Exact integral of |x|^alpha times the P1 interpolant of z on nodes x."""
    total = 0.0
    for i in range(x.size - 1):
        c, d = x[i], x[i + 1]
        slope = (z[i + 1] - z[i]) / (d - c)
        pieces = [(c, 0.0), (0.0, d)] if c < 0.0 < d else [(c, d)]
        for lo, hi in pieces:
            # |x|^alpha (z_i + slope (x - c)), and |x|^alpha x integrates to
            # |x|^(alpha+2) / (alpha+2)
            m0 = _power_integral(lo, hi, alpha + 1.0)
            m1 = (abs(hi) ** (alpha + 2.0) - abs(lo) ** (alpha + 2.0)) / (alpha + 2.0)
            total += (z[i] - slope * c) * m0 + slope * m1
    return total


@st.composite
def p1_grids(draw):
    """A non-uniform interval or ball grid, a weight exponent and nodal data."""
    widths = np.array(draw(st.lists(st.floats(0.02, 1.0), min_size=3, max_size=24)))
    nodes = np.concatenate(([0.0], np.cumsum(widths)))
    if draw(st.booleans()):
        N = draw(st.integers(1, 3))
        nodes = nodes + draw(st.sampled_from([0.0, 0.05, 0.7]))  # profile grids start off 0
        domain = Ball(N, float(nodes[-1]))
    else:
        # the origin inside a cell, or on an interior node
        k = draw(st.integers(1, nodes.size - 2))
        shift = nodes[k] if draw(st.booleans()) else nodes[k - 1] + draw(st.floats(0.1, 0.9)) * widths[k - 1]
        nodes = nodes - shift
        domain = Interval(float(nodes[0]), float(nodes[-1]))
    limit = -min(2.0, float(domain.dimension))
    alpha = draw(st.floats(limit + 0.05, 3.0))
    z = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=nodes.size, max_size=nodes.size)))
    return Grid(domain, nodes=nodes), alpha, z


@PROPERTY
@given(p1_grids())
def test_hat_masses_exact_on_p1_data(case):
    grid, alpha, z = case
    if grid.is_ball:
        N = grid.domain.N
        exact = surface_area(N) * _p1_weighted_integral(grid.nodes, z, N - 1.0 + alpha)
        scale = surface_area(N) * _p1_weighted_integral(grid.nodes, np.abs(z), N - 1.0 + alpha)
    else:
        exact = _p1_weighted_integral(grid.nodes, z, alpha)
        scale = _p1_weighted_integral(grid.nodes, np.abs(z), alpha)
    assert float(np.dot(hat_masses(grid, alpha), z)) == pytest.approx(exact, rel=1e-12, abs=1e-12 * scale)


@PROPERTY
@given(p1_grids())
def test_dirichlet_form_exact_on_p1_data(case):
    grid, _, z = case
    u = GridFunction(grid, z[grid.interior])
    full = u.full()
    x = grid.nodes
    slope_sq = (np.diff(full) / np.diff(x)) ** 2
    if grid.is_ball:
        N = grid.domain.N
        cell = surface_area(N) * (x[1:] ** N - x[:-1] ** N) / N
    else:
        cell = np.diff(x)
    exact = float(np.sum(slope_sq * cell))
    assert dirichlet_form(u) == pytest.approx(exact, rel=1e-12)


_FLAPACK = "scipy.linalg._flapack"
_ROUTINES = ("dgtsv", "dpttrf", "dpttrs")


def test_lapack_loader_reuses_a_registered_module(tmp_path):
    # a registered extension module is taken before any file is looked for,
    # so an import of scipy.linalg before critlab's shares its routines
    from scipy.linalg import lapack

    module = grids._load_lapack(str(tmp_path))
    assert module is sys.modules[_FLAPACK]
    assert all(getattr(module, name) is getattr(lapack, name) is getattr(grids, name) for name in _ROUTINES)


def test_lapack_loader_falls_back_to_the_public_import(tmp_path, monkeypatch):
    # without the extension file, scipy.linalg.lapack supplies the same routines
    from scipy.linalg import lapack

    monkeypatch.delitem(sys.modules, _FLAPACK)
    assert grids._load_lapack(str(tmp_path)) is lapack
    assert _FLAPACK not in sys.modules
    assert all(getattr(lapack, name) is getattr(grids, name) for name in _ROUTINES)
