"""Trapping potentials vanishing at the origin, and the derived constant.

The family is V(x) = h(x) |x|^{p0} * prod_i |x - x_i|^{p_i} with h bounded
between positive constants; the origin exponent p = p0 sets every scaling
exponent downstream, and the constant

    lambda = ( (p/2) * int |x|^p q^2 * L0 )^{1/(p+2)},
    L0 = lim_{x->0} h(x) prod |x - x_i|^{p_i},

is the prefactor in the energy and blow-up laws.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Domain, Interval
from .groundstate import GroundStateData, moment

_N_SAMPLES = 2001  # sample points of the assumption checks


@dataclass(frozen=True)
class PotentialSpec:
    """V(x) = h(x) |x|^{p0} prod |x - x_i|^{p_i}.

    h_kind is one of:
      'constant'  -- h = h_params[0], the one-coefficient 'poly_abs'
      'poly_abs'  -- h = sum_k h_params[k] |x|^k
      'tabulated' -- piecewise-linear through (h_nodes, h_params)
    zeros is a tuple of (location, exponent) pairs for the off-origin zeros.
    """

    p0: float
    h_kind: str = "constant"
    h_params: tuple = (1.0,)
    h_nodes: tuple = ()
    zeros: tuple = ()

    def __post_init__(self):
        # the checks that need no domain; validate_assumptions makes the rest
        if self.p0 <= 0.0:
            raise ValueError("origin exponent must be positive")
        if self.h_kind not in ("constant", "poly_abs", "tabulated"):
            raise ValueError(f"unknown h kind {self.h_kind!r}")
        if not self.h_params:
            raise ValueError("h needs at least one parameter")
        if self.h_kind == "constant" and len(self.h_params) != 1:
            raise ValueError(f"constant h takes one parameter, got {len(self.h_params)}")
        if self.h_kind == "tabulated" and len(self.h_nodes) != len(self.h_params):
            raise ValueError("tabulated h needs matching nodes and values")
        object.__setattr__(self, "h_params", tuple(float(v) for v in self.h_params))
        object.__setattr__(self, "h_nodes", tuple(float(v) for v in self.h_nodes))
        object.__setattr__(
            self, "zeros", tuple((float(x), float(p)) for x, p in self.zeros)
        )
        locs = [xi for xi, _ in self.zeros]
        if len(set(locs)) != len(locs) or any(xi == 0.0 for xi in locs):
            raise ValueError("zeros must be distinct and away from the origin")
        for xi, pi in self.zeros:
            if pi <= 0.0:
                raise ValueError(f"zero at {xi} has non-positive exponent {pi}")

    def eval_h(self, x):
        x = np.asarray(x, dtype=float)
        if self.h_kind == "tabulated":
            return np.interp(x, self.h_nodes, self.h_params)
        ax = np.abs(x)
        out = np.zeros_like(x)
        for k, c in enumerate(self.h_params):
            out += c * ax**k
        return out


def eval_potential(spec: PotentialSpec, x):
    """Potential value at x (scalar or array); exact zeros at 0 and each x_i."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = spec.eval_h(x) * np.abs(x) ** spec.p0
    for xi, pi in spec.zeros:
        out = out * np.abs(x - xi) ** pi
    return float(out[0]) if scalar else out


def limit_factor(spec: PotentialSpec) -> float:
    """L0 = lim_{x->0} h(x) prod |x - x_i|^{p_i} = h(0) prod |x_i|^{p_i}.

    Every h kind (constant, polynomial in |x|, piecewise linear) is
    continuous at 0, and the zeros lie away from the origin.
    """
    prod = 1.0
    for xi, pi in spec.zeros:
        prod *= abs(xi) ** pi
    return float(spec.eval_h(0.0)) * prod


@dataclass(frozen=True)
class LambdaConstant:
    """Concentration constant and its two ingredients."""

    p: float
    value: float
    moment_value: float
    limit_value: float


def compute_lambda(spec: PotentialSpec, gs: GroundStateData) -> LambdaConstant:
    """lambda = ((p/2) * moment(p) * L0)^{1/(p+2)} from the solved profile."""
    p = spec.p0
    L0 = limit_factor(spec)
    if L0 <= 0.0:
        raise ValueError(f"lambda needs L0 = h(0) prod |x_i|^p_i > 0, got L0 = {L0:.6g}")
    mom = moment(gs, p)
    value = (0.5 * p * mom * L0) ** (1.0 / (p + 2.0))
    return LambdaConstant(p=p, value=value, moment_value=mom, limit_value=L0)


def validate_assumptions(spec: PotentialSpec, domain: Domain) -> None:
    """Check the assumptions that involve the domain on a dense sample.

    Raises one ValueError naming every violation.
    """
    problems: list[str] = []
    for xi, _ in spec.zeros:
        if isinstance(domain, Interval):
            if not (domain.x_lo < xi < domain.x_hi):
                problems.append(f"zero at {xi} outside domain")
        else:
            problems.append(
                f"off-origin zero at {xi} breaks radial symmetry on a ball domain"
            )
    if isinstance(domain, Interval):
        xs = np.linspace(domain.x_lo, domain.x_hi, _N_SAMPLES)
    else:
        xs = np.linspace(0.0, domain.radius, _N_SAMPLES)
    if np.any(spec.eval_h(xs) <= 0.0):
        problems.append("h must be strictly positive on the closed domain")
    if problems:
        raise ValueError("; ".join(problems))
