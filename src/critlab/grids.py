"""Bounded domains, uniform grids, Dirichlet operators and singular quadrature.

Geometries are 1-D intervals containing the origin and N-dimensional balls
under radial symmetry.  All quadrature reduces nodal data against |x|^alpha
weights to dot products with hat-function masses (exact near the origin,
Gauss-Legendre where the weight is smooth), and the kinetic term is the P1
Dirichlet form, so flows, energies and residuals share one discrete system.
"""
from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec

import numpy as np
import scipy  # its __init__ sets up the bundled-library paths LAPACK's extension needs

from .params import surface_area
from .quadrature import cell_weight_integrals, hat_weights


def _load_lapack(directory: str):
    """scipy's compiled LAPACK wrappers, the extension module _flapack that
    scipy.linalg re-exports, loaded without scipy.linalg's __init__ and the
    array-API layer it imports (numpy.testing, numpy.f2py, unittest), which
    would double critlab's start-up time.  A module already registered is
    reused, and a loaded one is registered, so scipy.linalg shares it;
    without the extension in ``directory``, the public import is used.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    spec = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        from scipy.linalg import lapack

        return lapack
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


_lapack = _load_lapack(os.path.join(scipy.__path__[0], "linalg"))
dgtsv, dpttrf, dpttrs = _lapack.dgtsv, _lapack.dpttrf, _lapack.dpttrs


@dataclass(frozen=True)
class Interval:
    """Open interval (x_lo, x_hi); must contain 0 in its interior."""

    x_lo: float
    x_hi: float

    @property
    def dimension(self) -> int:
        return 1

    @property
    def origin_distance(self) -> float:
        return min(-self.x_lo, self.x_hi)


@dataclass(frozen=True)
class Ball:
    """Ball of radius R in R^N, reduced to the radial segment [0, R]."""

    N: int
    radius: float

    @property
    def dimension(self) -> int:
        return self.N

    @property
    def origin_distance(self) -> float:
        return self.radius


Domain = Interval | Ball


@dataclass(frozen=True, eq=False)
class Grid:
    """Grid over a domain; the boundary nodes carry the Dirichlet condition.

    ``build_grid`` makes uniform grids; nothing here assumes equal spacing.
    Like every record that holds arrays, a grid equals only itself.
    """

    domain: Domain
    nodes: np.ndarray
    # read-only hat masses keyed by weight exponent; "kappa" and "stiffness"
    cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def h(self) -> float:
        """The widest cell."""
        return float(np.max(np.diff(self.nodes)))

    @property
    def is_ball(self) -> bool:
        return isinstance(self.domain, Ball)

    @property
    def interior(self) -> slice:
        # ball grids keep r = 0 as an interior (regularity) node
        return slice(0, self.nodes.size - 1) if self.is_ball else slice(1, self.nodes.size - 1)

    @property
    def n_interior(self) -> int:
        return self.nodes.size - 1 if self.is_ball else self.nodes.size - 2

    @property
    def interior_nodes(self) -> np.ndarray:
        return self.nodes[self.interior]


def build_grid(domain: Domain, resolution: int) -> Grid:
    """Uniform grid with ``resolution`` cells."""
    if resolution < 16:
        raise ValueError(f"resolution must be at least 16, got {resolution}")
    if isinstance(domain, Interval):
        if not domain.x_lo < 0.0 < domain.x_hi:
            raise ValueError(f"domain {domain} does not contain 0 in its interior")
        nodes = np.linspace(domain.x_lo, domain.x_hi, resolution + 1)
    else:
        if domain.radius <= 0 or domain.N < 1:
            raise ValueError("ball requires positive radius and N >= 1")
        nodes = np.linspace(0.0, domain.radius, resolution + 1)
    return Grid(domain=domain, nodes=nodes)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Nodal values at interior nodes; zero trace on the boundary is implicit."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.shape != (self.grid.n_interior,):
            raise ValueError(
                f"expected {self.grid.n_interior} interior values, got {self.values.shape}"
            )

    def full(self) -> np.ndarray:
        out = np.zeros(self.grid.nodes.size)
        out[self.grid.interior] = self.values
        return out

    def with_values(self, values) -> "GridFunction":
        return GridFunction(self.grid, values)


# ----------------------------------------------------------------------
# weights shared by quadrature, energies and flows
# ----------------------------------------------------------------------

def _memo(grid: Grid, key, build):
    """Per-grid cached array or tuple of arrays, built once and handed out read-only."""
    out = grid.cache.get(key)
    if out is None:
        out = build()
        for arr in out if isinstance(out, tuple) else (out,):
            arr.flags.writeable = False
        grid.cache[key] = out
    return out


def _interval_hat_masses(x: np.ndarray, alpha: float) -> np.ndarray:
    """Hat masses of an interval grid: one weighted P1 rule per half-line.

    Each half-line is reflected onto [0, inf) and starts at a node at 0.
    When 0 is not a grid node it is added as a virtual node, whose mass is
    folded back into its two neighbours by linear interpolation.
    """
    k = int(np.searchsorted(x, 0.0))  # first node >= 0
    virtual = bool(x[k] != 0.0)
    if virtual:
        pos, neg = np.concatenate(([0.0], x[k:])), np.concatenate((x[:k], [0.0]))
    else:
        pos, neg = x[k:], x[: k + 1]
    wp = hat_weights(pos, alpha)
    wn = hat_weights(-neg[::-1], alpha)[::-1]
    m0 = wn[-1] + wp[0]  # mass of the node at 0
    if not virtual:
        return np.concatenate((wn[:-1], [m0], wp[1:]))
    w = np.concatenate((wn[:-1], wp[1:]))
    t0 = -x[k - 1] / (x[k] - x[k - 1])  # interpolation parameter of x = 0
    w[k - 1] += m0 * (1.0 - t0)
    w[k] += m0 * t0
    return w


def hat_masses(grid: Grid, weight_exponent: float) -> np.ndarray:
    """Per-node weights w with sum(w * z) = integral of |x|^alpha * interp(z).

    The linear interpolant of the nodal data z is integrated cell by cell
    against the weight in closed form near the origin; the result is the
    full N-dimensional integral (sphere factor included for balls).  Built
    once per grid and exponent; the returned array is read-only.
    """
    limit = -min(2.0, float(grid.domain.dimension))
    if weight_exponent <= limit:
        raise ValueError(
            f"weight exponent {weight_exponent} not integrable near 0 in dimension "
            f"{grid.domain.dimension} (needs > {limit})"
        )
    alpha = float(weight_exponent)
    if grid.is_ball:
        N = grid.domain.N
        return _memo(grid, alpha, lambda: surface_area(N) * hat_weights(grid.nodes, N - 1.0 + alpha))
    return _memo(grid, alpha, lambda: _interval_hat_masses(grid.nodes, alpha))


def kinetic_conductances(grid: Grid) -> np.ndarray:
    """Per-cell kappa with Dirichlet form K(u) = sum kappa * (u_{i+1} - u_i)^2."""

    def build():
        x = grid.nodes
        h = np.diff(x)
        if grid.is_ball:
            return surface_area(grid.domain.N) * cell_weight_integrals(x, grid.domain.N - 1.0) / h**2
        return h / h**2

    return _memo(grid, "kappa", build)


def stiffness(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """P1 stiffness K on interior nodes as the (diag, off) pair that LAPACK's
    tridiagonal routines take; K is symmetric, so off is both off-diagonals."""

    def build():
        kappa = kinetic_conductances(grid)
        lo, hi = grid.interior.start, grid.interior.stop
        diag = np.zeros(grid.nodes.size)
        diag[:-1] += kappa
        diag[1:] += kappa
        return diag[lo:hi], -kappa[lo : hi - 1]

    return _memo(grid, "stiffness", build)


def apply_stiffness(grid: Grid, u: np.ndarray) -> np.ndarray:
    """K u for interior nodal values u: the one P1 stiffness of the package."""
    diag, off = stiffness(grid)
    out = diag * u
    out[:-1] += off * u[1:]
    out[1:] += off * u[:-1]
    return out


# ----------------------------------------------------------------------
# operations
# ----------------------------------------------------------------------

def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """Inner product without BLAS, whose threads contend on long vectors
    when the cores are shared."""
    return float(np.einsum("i,i->", x, y))


def integrate_nodal(grid: Grid, full_values) -> float:
    """Quadrature of arbitrary nodal data on the closed domain.

    Unlike ``integrate`` this keeps the supplied boundary values, so the
    constant 1 integrates exactly to |Omega|.
    """
    return _dot(hat_masses(grid, 0.0), np.asarray(full_values, dtype=float))


def integrate(g: GridFunction) -> float:
    """Integral over the domain of the interpolant of g.

    The zero trace of g on the boundary is part of the interpolant.
    """
    return integrate_nodal(g.grid, g.full())


def mass(g: GridFunction) -> float:
    """Squared L2 norm of g (quadrature of the nodal squares)."""
    return integrate(g.with_values(g.values**2))


def normalize_mass(g: GridFunction) -> GridFunction:
    """Rescale to unit mass; idempotent at round-off level."""
    m = mass(g)
    if m <= 0.0:
        raise ValueError("cannot normalize a grid function with zero L2 norm")
    return g.with_values(g.values / math.sqrt(m))


def dirichlet_form(g: GridFunction) -> float:
    """Kinetic integral of |grad g|^2 (P1 Dirichlet form u . K u)."""
    return _dot(apply_stiffness(g.grid, g.values), g.values)

