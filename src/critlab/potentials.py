"""Trapping potentials vanishing at the origin, and the derived constant.

The family is V(x) = h(x) |x|^{p0} * prod_i |x - x_i|^{p_i} with h bounded
between positive constants; the origin exponent p = p0 sets every scaling
exponent downstream, and the constant

    lambda = ( (p/2) * int |x|^p q^2 * L0 )^{1/(p+2)},
    L0 = lim_{x->0} h(x) prod |x - x_i|^{p_i},

is the prefactor in the energy and blow-up laws.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import OutsideDomain
from .grids import Ball, Domain, Interval
from .groundstate import GroundStateData, moment

_N_SAMPLES = 2001  # sample points of the assumption checks


@dataclass(frozen=True)
class PotentialSpec:
    """V(x) = h(x) |x|^{p0} prod |x - x_i|^{p_i}.

    h_kind is one of:
      'constant'  -- h = h_params[0]
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
        # value-range violations (p0 <= 0, zero on the boundary, ...) are
        # representable so validate_assumptions can report them
        if self.h_kind not in ("constant", "poly_abs", "tabulated"):
            raise ValueError(f"unknown h kind {self.h_kind!r}")
        if self.h_kind == "tabulated" and len(self.h_nodes) != len(self.h_params):
            raise ValueError("tabulated h needs matching nodes and values")
        object.__setattr__(self, "h_params", tuple(float(v) for v in self.h_params))
        object.__setattr__(self, "h_nodes", tuple(float(v) for v in self.h_nodes))
        object.__setattr__(
            self, "zeros", tuple((float(x), float(p)) for x, p in self.zeros)
        )

    @property
    def p(self) -> float:
        return self.p0

    def eval_h(self, x):
        x = np.asarray(x, dtype=float)
        if self.h_kind == "constant":
            return np.full_like(x, self.h_params[0])
        if self.h_kind == "poly_abs":
            ax = np.abs(x)
            out = np.zeros_like(x)
            for k, c in enumerate(self.h_params):
                out += c * ax**k
            return out
        return np.interp(x, self.h_nodes, self.h_params)


def eval_potential(spec: PotentialSpec, x, domain: Domain | None = None):
    """Potential value at x (scalar or array); exact zeros at 0 and each x_i."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if domain is not None:
        if isinstance(domain, Interval):
            bad = (x < domain.x_lo) | (x > domain.x_hi)
        else:
            bad = (x < 0.0) | (x > domain.radius)
        if np.any(bad):
            raise OutsideDomain(f"evaluation points outside the closed domain {domain}")
    out = spec.eval_h(x) * np.abs(x) ** spec.p0
    for xi, pi in spec.zeros:
        out = out * np.abs(x - xi) ** pi
    return float(out[0]) if scalar else out


def limit_factor(spec: PotentialSpec) -> float:
    """L0 = lim_{x->0} h(x) prod |x - x_i|^{p_i}.

    Closed form when h is; for tabulated h the limit is Richardson-
    extrapolated along a dyadic sequence from both sides.
    """
    prod = 1.0
    for xi, pi in spec.zeros:
        prod *= abs(xi) ** pi
    if spec.h_kind == "constant":
        return spec.h_params[0] * prod
    if spec.h_kind == "poly_abs":
        return spec.h_params[0] * prod

    def phi(x):
        v = float(spec.eval_h(np.asarray(x)))
        for xi, pi in spec.zeros:
            v *= abs(x - xi) ** pi
        return v

    x0 = 1e-2
    vals = np.array([0.5 * (phi(x0 / 2**k) + phi(-x0 / 2**k)) for k in range(6)])
    while vals.size > 1:  # first-order Richardson cascade
        vals = 2.0 * vals[1:] - vals[:-1]
    return float(vals[0])


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
    if p <= 0.0:
        raise ValueError(f"origin exponent must be positive, got {p}")
    mom = moment(gs, p)
    L0 = limit_factor(spec)
    value = (0.5 * p * mom * L0) ** (1.0 / (p + 2.0))
    return LambdaConstant(p=p, value=value, moment_value=mom, limit_value=L0)


@dataclass(frozen=True)
class PotentialValidation:
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_assumptions(spec: PotentialSpec, domain: Domain) -> PotentialValidation:
    """Check the structural assumptions on a dense sample; report violations."""
    problems: list[str] = []
    if spec.p0 <= 0.0:
        problems.append("origin exponent must be positive")
    locs = [xi for xi, _ in spec.zeros]
    if len(set(locs)) != len(locs) or any(xi == 0.0 for xi in locs):
        problems.append("zeros must be distinct and away from the origin")
    for xi, pi in spec.zeros:
        if pi <= 0.0:
            problems.append(f"zero at {xi} has non-positive exponent {pi}")
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
    hv = spec.eval_h(xs)
    if np.any(hv <= 0.0):
        problems.append("h must be strictly positive on the closed domain")
    vv = eval_potential(spec, xs)
    if np.any(vv < 0.0):
        problems.append("potential takes negative values")
    return PotentialValidation(violations=tuple(problems))
