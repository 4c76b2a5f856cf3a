"""Bounded domains, uniform grids, Dirichlet operators and singular quadrature.

Geometries are 1-D intervals containing the origin and N-dimensional balls
under radial symmetry.  All quadrature reduces nodal data against |x|^alpha
weights to dot products with hat-function masses (exact near the origin,
Gauss-Legendre where the weight is smooth), and the kinetic term is the P1
Dirichlet form, so flows, energies and residuals share one discrete system.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonIntegrableWeight, OriginOutside, ZeroFunction
from .params import surface_area
from .quadrature import cell_weight_integrals, hat_weights


@dataclass(frozen=True)
class Interval:
    """Open interval (x_lo, x_hi); must contain 0 in its interior."""

    x_lo: float
    x_hi: float

    @property
    def contains_origin(self) -> bool:
        return self.x_lo < 0.0 < self.x_hi

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
    def contains_origin(self) -> bool:
        return True

    @property
    def dimension(self) -> int:
        return self.N

    @property
    def origin_distance(self) -> float:
        return self.radius


Domain = Interval | Ball


@dataclass(frozen=True)
class Grid:
    """Grid over a domain; the boundary nodes carry the Dirichlet condition.

    ``build_grid`` makes uniform grids; nothing here assumes equal spacing.
    """

    domain: Domain
    nodes: np.ndarray
    h: float
    # read-only hat masses keyed by weight exponent; "kappa" and "stiffness"
    cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

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
    if not domain.contains_origin:
        raise OriginOutside(f"domain {domain} does not contain 0 in its interior")
    if isinstance(domain, Interval):
        if not domain.x_lo < domain.x_hi:
            raise ValueError("interval requires x_lo < x_hi")
        nodes = np.linspace(domain.x_lo, domain.x_hi, resolution + 1)
        h = (domain.x_hi - domain.x_lo) / resolution
    else:
        if domain.radius <= 0 or domain.N < 1:
            raise ValueError("ball requires positive radius and N >= 1")
        nodes = np.linspace(0.0, domain.radius, resolution + 1)
        h = domain.radius / resolution
    return Grid(domain=domain, nodes=nodes, h=h)


@dataclass
class GridFunction:
    """Nodal values at interior nodes; zero trace on the boundary is implicit."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_interior,):
            raise ValueError(
                f"expected {self.grid.n_interior} interior values, got {self.values.shape}"
            )

    def full(self) -> np.ndarray:
        out = np.zeros(self.grid.nodes.size)
        out[self.grid.interior] = self.values
        return out

    def with_values(self, values) -> "GridFunction":
        return GridFunction(self.grid, np.asarray(values, dtype=float))

    @classmethod
    def from_callable(cls, grid: Grid, fn) -> "GridFunction":
        return cls(grid, fn(grid.interior_nodes))


# ----------------------------------------------------------------------
# weights shared by quadrature, energies and flows
# ----------------------------------------------------------------------

def check_weight_exponent(grid: Grid, weight_exponent: float) -> None:
    limit = -min(2.0, float(grid.domain.dimension))
    if weight_exponent <= limit:
        raise NonIntegrableWeight(
            f"weight exponent {weight_exponent} not integrable near 0 in dimension "
            f"{grid.domain.dimension} (needs > {limit})"
        )


def _memo(grid: Grid, key, build) -> np.ndarray:
    """Per-grid cached array, built once and handed out read-only."""
    arr = grid.cache.get(key)
    if arr is None:
        arr = build()
        arr.flags.writeable = False
        grid.cache[key] = arr
    return arr


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
    check_weight_exponent(grid, weight_exponent)
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


def stiffness_bands(grid: Grid) -> np.ndarray:
    """P1 stiffness K on interior nodes in upper banded storage.

    Row 1 is the diagonal; row 0 holds the off-diagonal from column 1 on.
    """

    def build():
        kappa = kinetic_conductances(grid)
        lo, hi = grid.interior.start, grid.interior.stop
        diag = np.zeros(grid.nodes.size)
        diag[:-1] += kappa
        diag[1:] += kappa
        return np.stack((np.append(0.0, -kappa[lo : hi - 1]), diag[lo:hi]))

    return _memo(grid, "stiffness", build)


def apply_stiffness(grid: Grid, u: np.ndarray) -> np.ndarray:
    """K u for interior nodal values u: the one P1 stiffness of the package."""
    ab = stiffness_bands(grid)
    off = ab[0, 1:]
    out = ab[1] * u
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


def integrate_nodal(grid: Grid, full_values, weight_exponent: float = 0.0) -> float:
    """Quadrature of arbitrary nodal data on the closed domain.

    Unlike ``integrate`` this keeps the supplied boundary values, so the
    constant 1 integrates exactly to |Omega| (weight 0) or to the closed
    forms of the weighted volume.
    """
    return _dot(hat_masses(grid, weight_exponent), np.asarray(full_values, dtype=float))


def integrate(g: GridFunction, weight_exponent: float = 0.0) -> float:
    """Integral over the domain of |x|^weight_exponent times the interpolant of g.

    The zero trace of g on the boundary is part of the interpolant.
    """
    return integrate_nodal(g.grid, g.full(), weight_exponent)


def mass(g: GridFunction) -> float:
    """Squared L2 norm of g (quadrature of the nodal squares)."""
    return integrate(g.with_values(g.values**2), 0.0)


def normalize_mass(g: GridFunction) -> GridFunction:
    """Rescale to unit mass; idempotent at round-off level."""
    m = mass(g)
    if m <= 0.0:
        raise ZeroFunction("cannot normalize a grid function with zero L2 norm")
    return g.with_values(g.values / math.sqrt(m))


def dirichlet_form(g: GridFunction) -> float:
    """Kinetic integral of |grad g|^2 (P1 Dirichlet form u . K u)."""
    return _dot(apply_stiffness(g.grid, g.values), g.values)


def apply_dirichlet_laplacian(g: GridFunction) -> GridFunction:
    """Negative Laplacian of g with Dirichlet rows eliminated.

    Weak (lumped P1) realization: (-Lap u)_i = (K u)_i / m_i with K the
    stiffness and m the unweighted hat masses; in radial reduction this is
    -(u'' + (N-1)/r u') with the r = 0 node closed by the regularity
    condition.
    """
    grid = g.grid
    return g.with_values(apply_stiffness(grid, g.values) / hat_masses(grid, 0.0)[grid.interior])
