"""Radial ground-state solver and the constants derived from the profile.

The profile solves  q'' + (N-1)/r q' = q - r^{-b} q^{1+g},  g = 2*(2-b)/N,
on [0, infinity), positive and decaying.  The solver shoots from a startup
radius r0 (with a matched series through the singular weight), bisects on
the central amplitude, and replaces the far tail by the matched asymptotic
form K r^{-(N-1)/2} e^{-r} (1 + a1/r + a2/r^2) before the unstable mode can
pollute it.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded

from .errors import BracketFailure, IterationStall, SingularStartup, TailUnresolved
from .grids import Ball, Grid, _dot, hat_masses, kinetic_conductances, stiffness_bands
from .params import GNParams, surface_area
from .quadrature import hermite_coeffs, integrate_cells

# graded startup steps grow by (1 + _GRADING_PER_H * h) per step: the zone's
# march error scales like (ratio - 1)^4, so tying the ratio to the uniform
# step keeps the whole scheme refining at one order under h -> h/2
_GRADING_PER_H = 2.73
_GRADING_CAP = 0.08
_TAIL_SWITCH_BASE = 3e-6  # switch to the matched tail once q/s falls below this
_S_GUESS = 1.0  # central amplitude the shooting bracket starts from
_MOMENT_REL_TOL = 1e-6  # largest truncated-tail share of a moment
_PROBE_MAX_ITERS = 60
_PROBE_TOL = 1e-11  # relative change of the Rayleigh quotient at convergence


# ----------------------------------------------------------------------
# startup series
# ----------------------------------------------------------------------

def startup_coeffs(N: int, b: float, s: float):
    """Coefficients of q = s + A r^{2-b} + B r^2 + C r^{4-2b} + D r^{4-b} + E r^4."""
    g = 2.0 * (2.0 - b) / N
    A = -s ** (1.0 + g) / ((2.0 - b) * (N - b))
    B = s / (2.0 * N)
    C = -(1.0 + g) * s**g * A / ((4.0 - 2.0 * b) * (N + 2.0 - 2.0 * b))
    D = (A - (1.0 + g) * s**g * B) / ((4.0 - b) * (N + 2.0 - b))
    E = B / (4.0 * (N + 2.0))
    return A, B, C, D, E


def startup_eval(N: int, b: float, s: float, r):
    """Series value and derivative at radius r (scalar or array)."""
    A, B, C, D, E = startup_coeffs(N, b, s)
    q = s + A * r ** (2 - b) + B * r**2 + C * r ** (4 - 2 * b) + D * r ** (4 - b) + E * r**4
    dq = (
        A * (2 - b) * r ** (1 - b)
        + 2 * B * r
        + C * (4 - 2 * b) * r ** (3 - 2 * b)
        + D * (4 - b) * r ** (3 - b)
        + 4 * E * r**3
    )
    return q, dq


def _startup_integrals(N: int, b: float, s: float, r0: float, p: float = 0.0):
    """Closed-form integrals over [0, r0] of the radial integrands.

    Uses the two-term series q ~ s + A r^{2-b} + B r^2; the neglected terms
    contribute O(r0^{alpha+5-2b}) which is far below every tolerance here.
    Returns (mass, grad, nonlinear) without the sphere factor; the mass
    carries the extra weight r^p.
    """
    g = 2.0 * (2.0 - b) / N
    A, B, _, _, _ = startup_coeffs(N, b, s)
    nu = N - 1.0

    def poly_moment(alpha, coeff_pairs):
        # integral of r^alpha * sum c_j r^{e_j}
        return sum(c * r0 ** (alpha + e + 1.0) / (alpha + e + 1.0) for c, e in coeff_pairs)

    # q^2 ~ s^2 + 2 s A r^{2-b} + 2 s B r^2
    mass = poly_moment(nu + p, [(s * s, 0.0), (2 * s * A, 2.0 - b), (2 * s * B, 2.0)])
    # (q')^2 ~ A^2 (2-b)^2 r^{2-2b} + 4AB(2-b) r^{2-b} + 4 B^2 r^2
    dq_pairs = [
        (A * A * (2 - b) ** 2, 2.0 - 2.0 * b),
        (4 * A * B * (2 - b), 2.0 - b),
        (4 * B * B, 2.0),
    ]
    grad = poly_moment(nu, dq_pairs)
    # q^{2+g} ~ s^{2+g} (1 + (2+g)(A r^{2-b} + B r^2)/s)
    nl_pairs = [
        (s ** (2 + g), 0.0),
        ((2 + g) * s ** (1 + g) * A, 2.0 - b),
        ((2 + g) * s ** (1 + g) * B, 2.0),
    ]
    nonlinear = poly_moment(nu - b, nl_pairs)
    return mass, grad, nonlinear


# ----------------------------------------------------------------------
# profile containers
# ----------------------------------------------------------------------

@dataclass
class RadialProfile:
    """Radial profile on a startup-graded + uniform grid.

    Nodes start at the startup radius r0 > 0; the closed-form series covers
    [0, r0].  Beyond ``tail_start`` the stored values are the matched
    asymptotic tail, so the profile is decaying by construction out to
    ``r_max``.
    """

    nodes: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    r_max: float
    startup_amplitude: float
    tail_coeff: float
    tail_start: float

    def __post_init__(self):
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("profile nodes must be strictly increasing")


def _tail_params(N: int):
    nu = 0.5 * (N - 1)
    a1 = (N - 1.0) * (N - 3.0) / 8.0
    a2 = (N - 1.0) * (N - 3.0) * (N + 1.0) * (N - 5.0) / 128.0
    return nu, a1, a2


def _tail_value(N, K, r):
    nu, a1, a2 = _tail_params(N)
    base = K * r ** (-nu) * np.exp(-r)
    return base * (1.0 + a1 / r + a2 / r**2)


def _tail_deriv(N, K, r):
    nu, a1, a2 = _tail_params(N)
    base = K * r ** (-nu) * np.exp(-r)
    poly = 1.0 + a1 / r + a2 / r**2
    dpoly = -a1 / r**2 - 2.0 * a2 / r**3
    return base * (dpoly - (1.0 + nu / r) * poly)


@dataclass
class GroundStateData:
    """Converged profile plus every derived constant downstream code uses."""

    params: GNParams
    profile: RadialProfile
    l2_sq: float
    grad_sq: float
    nonlinear_int: float
    a_star: float
    moments: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    # -- profile evaluation -------------------------------------------
    def q(self, r):
        """Profile value at arbitrary radii (series / Hermite / tail)."""
        return self._eval(r, deriv=False)

    def dq(self, r):
        """Profile derivative at arbitrary radii."""
        return self._eval(r, deriv=True)

    def _eval(self, r, deriv: bool):
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        out = np.empty_like(r)
        p = self.profile
        N, b = self.params.N, self.params.b
        s = p.startup_amplitude

        lo = r < p.nodes[0]
        hi = r >= p.tail_start
        mid = ~(lo | hi)
        if np.any(lo):
            qv, dqv = startup_eval(N, b, s, r[lo])
            out[lo] = dqv if deriv else qv
        if np.any(hi):
            rr = r[hi]
            out[hi] = _tail_deriv(N, p.tail_coeff, rr) if deriv else _tail_value(N, p.tail_coeff, rr)
        if np.any(mid):
            out[mid] = _hermite_interp(p.nodes, p.values, p.derivs, r[mid], deriv)
        return float(out[0]) if scalar else out

    def to_json_dict(self) -> dict:
        p = self.profile
        return {
            "format": "critlab.groundstate/1",
            "params": {"N": self.params.N, "b": self.params.b, "a": self.params.a},
            "profile": {
                "nodes": p.nodes.tolist(),
                "values": p.values.tolist(),
                "derivs": p.derivs.tolist(),
                "r_max": p.r_max,
                "startup_amplitude": p.startup_amplitude,
                "tail_coeff": p.tail_coeff,
                "tail_start": p.tail_start,
            },
            "l2_sq": self.l2_sq,
            "grad_sq": self.grad_sq,
            "nonlinear_int": self.nonlinear_int,
            "a_star": self.a_star,
            "moments": {repr(k): v for k, v in self.moments.items()},
            "meta": self.meta,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "GroundStateData":
        if d.get("format") != "critlab.groundstate/1":
            raise ValueError(f"unsupported ground-state document: {d.get('format')!r}")
        params = GNParams(int(d["params"]["N"]), float(d["params"]["b"]), float(d["params"]["a"]))
        prof = d["profile"]
        profile = RadialProfile(
            nodes=np.asarray(prof["nodes"]),
            values=np.asarray(prof["values"]),
            derivs=np.asarray(prof["derivs"]),
            r_max=prof["r_max"],
            startup_amplitude=prof["startup_amplitude"],
            tail_coeff=prof["tail_coeff"],
            tail_start=prof["tail_start"],
        )
        return cls(
            params=params,
            profile=profile,
            l2_sq=d["l2_sq"],
            grad_sq=d["grad_sq"],
            nonlinear_int=d["nonlinear_int"],
            a_star=d["a_star"],
            moments={float(k): v for k, v in d["moments"].items()},
            meta=d.get("meta", {}),
        )

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def _hermite_interp(nodes, values, derivs, r, deriv: bool):
    idx = np.clip(np.searchsorted(nodes, r, side="right") - 1, 0, nodes.size - 2)
    h = nodes[idx + 1] - nodes[idx]
    t = (r - nodes[idx]) / h
    f0, f1 = values[idx], values[idx + 1]
    d0, d1 = derivs[idx], derivs[idx + 1]
    if not deriv:
        h00 = (1 + 2 * t) * (1 - t) ** 2
        h10 = t * (1 - t) ** 2
        h01 = t * t * (3 - 2 * t)
        h11 = t * t * (t - 1)
        return h00 * f0 + h * h10 * d0 + h01 * f1 + h * h11 * d1
    dh00 = 6 * t * (t - 1)
    dh10 = (1 - t) * (1 - 3 * t)
    dh01 = -6 * t * (t - 1)
    dh11 = t * (3 * t - 2)
    return (dh00 * f0 + dh01 * f1) / h + dh10 * d0 + dh11 * d1


# ----------------------------------------------------------------------
# shooting march
# ----------------------------------------------------------------------

def _march(N, b, g, s, r0, h, r_max, store):
    """March the radial ODE with RK4 from r0.

    Steps grow geometrically out of the startup region (local error of the
    singular right-hand side stays O(step^5 r^{-3-b})), then run uniformly
    at h.  Near the turning region (q below 5% of s) each advance is split
    in two.  Returns (status, arrays or stop radius); status is 'cross',
    'diverge' or 'end'.
    """
    nm1 = N - 1.0
    q, dq = startup_eval(N, b, s, r0)
    q, dq = float(q), float(dq)
    r = r0
    grow = min(_GRADING_PER_H * h, _GRADING_CAP)

    if store:
        # graded steps run from r0 out to r = h/grow, then uniform h
        graded_span = max(h / (grow * r0), 2.0)
        cap = int(r_max / h) + int(math.log(graded_span) / math.log(1.0 + grow)) + 64
        rs = np.empty(cap)
        qs = np.empty(cap)
        dqs = np.empty(cap)
        rs[0], qs[0], dqs[0] = r, q, dq
        m = 1

    status = "end"
    low_q = 0.05 * s
    while r < r_max - 1e-12:
        # geometric steps out of the startup region, then uniform at h
        step = min(h, grow * r)
        if r + step > r_max:
            step = r_max - r
        nsub = 2 if q < low_q else 1
        hh = step / nsub
        ok = True
        for _ in range(nsub):
            # RK4 on (q, dq)
            k1q = dq
            k1d = q - r ** (-b) * abs(q) ** g * q - nm1 / r * dq
            r2 = r + 0.5 * hh
            q2 = q + 0.5 * hh * k1q
            d2 = dq + 0.5 * hh * k1d
            k2q = d2
            k2d = q2 - r2 ** (-b) * abs(q2) ** g * q2 - nm1 / r2 * d2
            q3 = q + 0.5 * hh * k2q
            d3 = dq + 0.5 * hh * k2d
            k3q = d3
            k3d = q3 - r2 ** (-b) * abs(q3) ** g * q3 - nm1 / r2 * d3
            r4 = r + hh
            q4 = q + hh * k3q
            d4 = dq + hh * k3d
            k4q = d4
            k4d = q4 - r4 ** (-b) * abs(q4) ** g * q4 - nm1 / r4 * d4
            q += hh / 6.0 * (k1q + 2 * k2q + 2 * k3q + k4q)
            dq += hh / 6.0 * (k1d + 2 * k2d + 2 * k3d + k4d)
            r = r4
            if q <= 0.0:
                status = "cross"
                ok = False
                break
            if dq > 0.0 and (r > 1.0 or q > s):
                status = "diverge"
                ok = False
                break
        if store:
            rs[m], qs[m], dqs[m] = r, q, dq
            m += 1
        if not ok:
            break

    if store:
        return status, rs[:m], qs[:m], dqs[:m]
    return status, r


def _classify(N, b, g, s, r0, h, r_max):
    status, _ = _march(N, b, g, s, r0, h, r_max, store=False)
    return status


# ----------------------------------------------------------------------
# main solve
# ----------------------------------------------------------------------

def solve_ground_state(
    params: GNParams,
    shoot_tol: float = 1e-13,
    r_max: float = 30.0,
    resolution: int = 4096,
    r0: float = 1e-4,
) -> GroundStateData:
    """Shoot for the positive decaying radial profile and derive its constants.

    ``shoot_tol`` is the relative bisection width on the central amplitude;
    ``resolution`` sets the uniform march step h = r_max / resolution.
    """
    N, b = params.N, params.b
    g = 2.0 * params.beta_sq
    if shoot_tol <= 0.0:
        raise ValueError("shoot_tol must be positive")
    if math.exp(-r_max) >= shoot_tol:
        raise ValueError(
            f"r_max={r_max} too small for shoot_tol={shoot_tol}: need exp(-r_max) < shoot_tol"
        )
    if resolution < 64:
        raise ValueError("resolution must be at least 64")

    # startup series must actually be a small correction at r0
    qs0, _ = startup_eval(N, b, _S_GUESS, r0)
    if not np.isfinite(qs0) or abs(qs0 - _S_GUESS) > 0.05 * _S_GUESS:
        raise SingularStartup(
            f"startup series at r0={r0} is not a small correction for b={b} "
            f"(relative size {abs(qs0 - _S_GUESS) / _S_GUESS:.3g}); decrease r0"
        )

    h = r_max / resolution

    # bracket the amplitude by doubling / halving from the guess
    s_lo = s_hi = None
    s = _S_GUESS
    first = _classify(N, b, g, s, r0, h, r_max)
    if first == "cross":
        s_hi = s
        while s > 1e-4:
            s *= 0.5
            if _classify(N, b, g, s, r0, h, r_max) == "cross":
                s_hi = s
            else:
                s_lo = s
                break
    else:
        s_lo = s
        while s < 1e4:
            s *= 2.0
            if _classify(N, b, g, s, r0, h, r_max) == "cross":
                s_hi = s
                break
            s_lo = s
    if s_lo is None or s_hi is None:
        raise BracketFailure(
            f"no sign change of the shooting discriminant for N={N}, b={b} "
            f"over amplitudes [1e-4, 1e4]"
        )

    while s_hi - s_lo > shoot_tol * s_hi:
        s_mid = 0.5 * (s_lo + s_hi)
        if s_mid in (s_lo, s_hi):
            break  # double precision floor
        if _classify(N, b, g, s_mid, r0, h, r_max) == "cross":
            s_hi = s_mid
        else:
            s_lo = s_mid

    # final march on the non-crossing side
    status, nodes, values, derivs = _march(N, b, g, s_lo, r0, h, r_max, store=True)
    s_star = 0.5 * (s_lo + s_hi)

    # switch to the matched tail before the unstable mode pollutes it;
    # threshold keeps the matched coefficient accurate to well under 1%
    threshold = s_star * max(_TAIL_SWITCH_BASE, 10.0 * math.sqrt(shoot_tol))
    candidates = np.nonzero((values <= threshold) & (nodes >= 2.0))[0]
    if candidates.size:
        k = int(candidates[0])
    elif status == "diverge":
        k = int(np.argmin(values))
    else:
        k = values.size - 1
    if values[k] > 0.05 * s_star:
        raise BracketFailure(
            f"profile did not decay below 5% of the amplitude before r={nodes[k]:.3g}; "
            f"increase r_max or tighten shoot_tol"
        )

    rk = nodes[k]
    K = values[k] / _tail_value(N, 1.0, rk)

    # extend the stored grid to r_max on the uniform step and fill the tail
    if nodes[-1] < r_max - 1e-9 or k < nodes.size - 1:
        keep = nodes[: k + 1]
        extra = np.arange(rk + h, r_max + 0.5 * h, h)
        nodes = np.concatenate([keep, extra])
        values = np.concatenate([values[: k + 1], _tail_value(N, K, extra)])
        derivs = np.concatenate([derivs[: k + 1], _tail_deriv(N, K, extra)])
    tail_start = rk

    profile = RadialProfile(
        nodes=nodes,
        values=values,
        derivs=derivs,
        r_max=r_max,
        startup_amplitude=s_star,
        tail_coeff=K,
        tail_start=tail_start,
    )

    l2_sq, grad_sq, nl_int = profile_integrals(params, profile)
    gs = GroundStateData(
        params=params,
        profile=profile,
        l2_sq=l2_sq,
        grad_sq=grad_sq,
        nonlinear_int=nl_int,
        a_star=l2_sq**params.beta_sq,
        moments={0.0: l2_sq},
        meta={
            "s_star": s_star,
            "bracket": [s_lo, s_hi],
            "shoot_residual": (s_hi - s_lo) / s_hi,
            "resolution": resolution,
            "r0": r0,
            "h": h,
            "tail_status": status,
        },
    )
    return gs


def _ode_second_derivative(params: GNParams, r, q, dq):
    g = 2.0 * params.beta_sq
    return q - r ** (-params.b) * np.abs(q) ** g * q - (params.N - 1) / r * dq


def _exp_tail_integral(R: float, beta: float) -> float:
    """Asymptotic integral of r^beta e^{-2r} over [R, infinity)."""
    return math.exp(-2.0 * R) * (
        R**beta / 2.0 + beta * R ** (beta - 1.0) / 4.0 + beta * (beta - 1.0) * R ** (beta - 2.0) / 8.0
    )


def _radial_quadrature(profile: RadialProfile, N: int, f, df, alpha, startup, tail_sq):
    """Sphere factor times the integral over [0, infinity) of r^alpha f.

    The startup closed form covers [0, r0], Hermite cells on the profile
    nodes (f and its derivative df) cover [r0, r_max], and the matched tail
    bounds the truncated remainder by tail_sq times that of the mass.
    Returns (value, tail remainder).
    """
    r = profile.nodes
    body = integrate_cells(r, hermite_coeffs(r, f, df), alpha)
    tail = tail_sq * _exp_tail_integral(profile.r_max, alpha - (N - 1.0))
    S = surface_area(N)
    return S * (startup + body + tail), S * tail


def profile_integrals(params: GNParams, profile: RadialProfile, cutoff=None):
    """Mass, kinetic and interaction integrals over R^N of u = phi q.

    Returns (int u^2, int |u'|^2, int r^{-b} u^{2+2 beta^2}).  ``cutoff``
    maps radii to (phi, phi', phi''), and phi must be 1 on [0, r0]; None
    means phi = 1.  The interaction integrand decays faster than the mass,
    so the mass-tail remainder bounds its tail too.
    """
    N, b = params.N, params.b
    g = 2.0 * params.beta_sq
    nu = N - 1.0
    r, q, dq = profile.nodes, profile.values, profile.derivs
    d2q = _ode_second_derivative(params, r, q, dq)
    if cutoff is None:
        u, du, d2u, phi_end = q, dq, d2q, 1.0
    else:
        ph, dph, d2ph = cutoff(r)
        u, du, d2u = ph * q, dph * q + ph * dq, d2ph * q + 2.0 * dph * dq + ph * d2q
        phi_end = float(cutoff(np.array([profile.r_max]))[0][0])
    su_mass, su_grad, su_nl = _startup_integrals(N, b, profile.startup_amplitude, r[0])
    tail_sq = phi_end * phi_end * profile.tail_coeff * profile.tail_coeff
    # one integrand pair at a time keeps the peak memory of a fine profile low
    mass = _radial_quadrature(profile, N, u * u, 2.0 * u * du, nu, su_mass, tail_sq)[0]
    kinetic = _radial_quadrature(profile, N, du * du, 2.0 * du * d2u, nu, su_grad, tail_sq)[0]
    f, df = u ** (2.0 + g), (2.0 + g) * u ** (1.0 + g) * du
    return mass, kinetic, _radial_quadrature(profile, N, f, df, nu - b, su_nl, tail_sq)[0]


def moment(gs: GroundStateData, p: float) -> float:
    """Integral of |x|^p q^2 over R^N by radial quadrature.

    Results are cached on ``gs.moments``.  Raises TailUnresolved when the
    estimated truncated-tail contribution exceeds 1e-6 of the value.
    """
    if p < 0.0:
        raise ValueError("moment exponent p must be nonnegative")
    key = float(p)
    if key in gs.moments:
        return gs.moments[key]
    params, prof = gs.params, gs.profile
    N = params.N
    q, dq = prof.values, prof.derivs
    su_mass, _, _ = _startup_integrals(N, params.b, prof.startup_amplitude, prof.nodes[0], p)
    K = prof.tail_coeff
    value, tail = _radial_quadrature(prof, N, q * q, 2.0 * q * dq, N - 1.0 + p, su_mass, K * K)
    if not np.isfinite(tail) or tail > _MOMENT_REL_TOL * abs(value):
        raise TailUnresolved(
            f"tail estimate {tail:.3g} exceeds {_MOMENT_REL_TOL:.1g} of moment p={p}; increase r_max"
        )
    gs.moments[key] = value
    return value


# ----------------------------------------------------------------------
# identity report
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityReport:
    """Relative residuals of the three-way integral identity chain."""

    grad_residual: float
    nonlinear_residual: float
    shoot_residual: float
    tol: float
    passed: bool


def verify_identities(gs: GroundStateData, tol: float = 1e-6) -> IdentityReport:
    """Check grad = mass/beta_sq = nonlinear/(1+beta_sq) on the solved profile."""
    bs = gs.params.beta_sq
    r1 = abs(gs.grad_sq - gs.l2_sq / bs) / gs.l2_sq
    r2 = abs(gs.grad_sq - gs.nonlinear_int / (1.0 + bs)) / gs.grad_sq
    r3 = float(gs.meta.get("shoot_residual", np.nan))
    passed = bool(r1 < tol and r2 < tol and r3 < tol)
    return IdentityReport(r1, r2, r3, tol, passed)


# ----------------------------------------------------------------------
# linearized operator probe
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LinearizedProbe:
    eigenvalue: float
    identity_residual: float
    iterations: int


def _profile_grid(gs: GroundStateData) -> Grid:
    """Grid on the profile's own nodes; r_max carries the Dirichlet row and
    the first node r0 > 0 closes with the natural (Neumann) condition.

    Its step h is the widest cell, the uniform march step: a loaded
    document need not carry the solver's meta.
    """
    r = gs.profile.nodes
    return Grid(domain=Ball(gs.params.N, gs.profile.r_max), nodes=r, h=float(np.max(np.diff(r))))


def _nonuniform_second_deriv(r, f):
    """Three-point derivative of f' arrays on a non-uniform grid (O(h^2))."""
    hm = r[1:-1] - r[:-2]
    hp = r[2:] - r[1:-1]
    return 2.0 * (hm * f[2:] - (hm + hp) * f[1:-1] + hp * f[:-2]) / (hm * hp * (hm + hp))


def scaling_direction_residual(gs: GroundStateData) -> float:
    """Relative weighted-L2 residual of L(N/2 q + r q') + 2q = 0.

    Strong pointwise form: the singular potential is evaluated exactly at
    the nodes (no lumping, so the large-term cancellation is clean) and
    only v'' comes from differencing the stored derivative data.  A wrong
    profile or wrong operator coefficients shows up at order one; a
    converged solve sits at the reconstruction floor ~ O(h^2).
    """
    return _dilation_residual(gs, _profile_grid(gs))


def _dilation_residual(gs: GroundStateData, grid: Grid) -> float:
    params = gs.params
    N, b = params.N, params.b
    g = 2.0 * params.beta_sq
    p = gs.profile
    r, q, dq = p.nodes, p.values, p.derivs
    d2q = _ode_second_derivative(params, r, q, dq)
    v = 0.5 * N * q + r * dq
    dv = (0.5 * N + 1.0) * dq + r * d2q
    d2v = np.empty_like(v)
    d2v[1:-1] = _nonuniform_second_deriv(r, v)
    # endpoints: differentiate dv one-sidedly (weighted contribution ~ 0)
    d2v[0] = (dv[1] - dv[0]) / (r[1] - r[0])
    d2v[-1] = (dv[-1] - dv[-2]) / (r[-1] - r[-2])
    Lv = -(d2v + (N - 1) / r * dv) + v - (1.0 + g) * r ** (-b) * q**g * v
    resid = Lv + 2.0 * q
    # the march-to-tail splice is C^1 only to the matched-form accuracy;
    # differencing across it probes the splice, not the identity, so mask
    # the few nodes whose stencil spans it (their true contribution is
    # exponentially negligible at that radius)
    k = int(np.searchsorted(r, p.tail_start))
    resid[max(k - 2, 0): k + 3] = 0.0
    w = hat_masses(grid, 0.0)
    return math.sqrt(_dot(w, resid * resid) / _dot(w, (2.0 * q) ** 2))


def linearized_probe(gs: GroundStateData) -> LinearizedProbe:
    """Smallest radial eigenvalue of the linearized operator, plus the
    residual of the dilation-direction identity.

    The operator is the P1 weak form A = K + D - (1 + 2 beta^2) Wb q^{2 beta^2}
    on the profile grid (K the grids' stiffness, D the lumped masses with
    the [0, r0] volume on the first node), so (A v)_i ~ D_i (L v)(r_i).
    The eigenvalue comes from Rayleigh-quotient inverse iteration started
    at the profile itself (whose Rayleigh quotient is negative, so a
    negative smallest eigenvalue is certain before any iteration).  The
    quotient sums v . K v from the conductances: the stiffness rows of the
    fine startup cells are large, and K v would cancel away digits there.
    """
    N = gs.params.N
    g = 2.0 * gs.params.beta_sq
    grid = _profile_grid(gs)
    inner = grid.interior
    Dm = hat_masses(grid, 0.0)[inner].copy()
    Dm[0] += surface_area(N) * grid.nodes[0] ** N / N  # lump the [0, r0] volume onto the first node
    x = gs.profile.values[inner]
    shift = Dm - (1.0 + g) * hat_masses(grid, -gs.params.b)[inner] * x**g
    bands = stiffness_bands(grid)
    kappa = kinetic_conductances(grid)

    def rayleigh(v):  # of D-normalized v; the last cell ends at the Dirichlet node
        dv = np.diff(v, append=0.0)
        return _dot(kappa, dv * dv) + _dot(shift * v, v)

    xn = x / math.sqrt(_dot(Dm * x, x))
    sigma = rayleigh(xn)
    it = 0
    ab = np.zeros((3, grid.n_interior))
    ab[0, 1:] = ab[2, :-1] = bands[0, 1:]
    diag = bands[1] + shift
    while it < _PROBE_MAX_ITERS:
        it += 1
        ab[1] = diag - sigma * Dm
        try:
            y = solve_banded((1, 1), ab, Dm * xn)
        except np.linalg.LinAlgError:
            sigma *= 1.0 + 1e-12
            continue
        yn = y / math.sqrt(_dot(Dm * y, y))
        sigma_new = rayleigh(yn)
        done = abs(sigma_new - sigma) <= _PROBE_TOL * (1.0 + abs(sigma_new))
        sigma = sigma_new
        xn = yn
        if done:
            break
    else:
        raise IterationStall(f"inverse iteration did not converge in {_PROBE_MAX_ITERS} iterations")

    return LinearizedProbe(
        eigenvalue=sigma,
        identity_residual=_dilation_residual(gs, grid),
        iterations=it,
    )
