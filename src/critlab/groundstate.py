"""Radial ground-state solver and the constants derived from the profile.

The profile solves  q'' + (N-1)/r q' = q - r^{-b} q^{1+g},  g = 2*(2-b)/N,
on [0, infinity), positive and decaying.  The solver shoots from a startup
radius r0 (with a matched series through the singular weight) and
brackets the central amplitude between a march that crosses zero and one
that does not.  A secant on the mismatch between the march's far-field
log-derivative and the decaying tail's picks the amplitudes, with bisection
as the safeguard.  The far tail is replaced by the matched asymptotic form
K r^{-(N-1)/2} e^{-r} (1 + a1/r + a2/r^2) before the unstable mode can
pollute it.

The startup radius r0 = (1e-5 (2-b)(N-b))^{1/(2-b)} is where the series'
first correction |A| r^{2-b} is 1e-5 of the starting amplitude 1 (at the
solved amplitude s*, s*^g times that).  Past about b = 1.95 (N = 2, 3)
r0^-b leaves double precision.  The matched tail drops the term r^{-b} q^g,
which stops being small as g -> 0; the solve raises TailUnresolved once
that could move the mass identity by the identity tolerance.
"""
from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import BracketFailure, IterationStall, SingularStartup, TailUnresolved
from .grids import Ball, Grid, _dot, dgtsv, hat_masses, kinetic_conductances, stiffness
from .params import GNParams, surface_area
from .quadrature import cell_moments, hermite_coeffs

# graded startup steps grow by (1 + _GRADING_PER_H * h) per step: the zone's
# march error scales like (ratio - 1)^4, so tying the ratio to the uniform
# step keeps the whole scheme refining at one order under h -> h/2
_GRADING_PER_H = 2.73
_GRADING_CAP = 0.08
_SHOOT_TOL = 1e-13  # relative width of the final cross/diverge bracket on the amplitude
# switch to the matched tail once q/s falls below this, which keeps the
# matched coefficient accurate to well under 1%
_TAIL_SWITCH = 10.0 * math.sqrt(_SHOOT_TOL)
_S_GUESS = 1.0  # central amplitude the shooting bracket starts from
_STARTUP_ETA = 1e-5  # first series correction at r0, relative to _S_GUESS
_S_MIN, _S_MAX = 1e-20, 1e4  # amplitudes the bracket search tries; s* is 5e-19 at (2, 1.9)
_SECANT_BACKOFF = 4  # march steps between the secant's residual radius and the earlier stop
_SECANT_BUDGET = 40  # marches after which the bracket is only bisected
_MOMENT_REL_TOL = 1e-6  # largest truncated-tail share of a moment
_IDENTITY_TOL = 1e-6  # largest relative residual verify_identities passes
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

@dataclass(frozen=True, eq=False)
class RadialProfile:
    """Radial profile on a startup-graded + uniform grid.

    Nodes start at the startup radius r0 > 0; the closed-form series covers
    [0, r0].  Beyond ``tail_start`` the stored values are the matched
    asymptotic tail, so the profile is decaying by construction out to its
    last node, ``r_max``.
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


def _tail(N, K, r):
    """Matched tail K r^{-nu} e^{-r} (1 + a1/r + a2/r^2) and its derivative."""
    nu = 0.5 * (N - 1)
    a1 = (N - 1.0) * (N - 3.0) / 8.0
    a2 = (N - 1.0) * (N - 3.0) * (N + 1.0) * (N - 5.0) / 128.0
    base = K * r ** (-nu) * np.exp(-r)
    poly = 1.0 + a1 / r + a2 / r**2
    dpoly = -a1 / r**2 - 2.0 * a2 / r**3
    return base * poly, base * (dpoly - (1.0 + nu / r) * poly)


@dataclass(frozen=True, eq=False)
class GroundStateData:
    """Converged profile plus every derived constant downstream code uses."""

    params: GNParams
    profile: RadialProfile
    l2_sq: float
    grad_sq: float
    nonlinear_int: float
    a_star: float
    meta: dict = field(default_factory=dict)

    # -- profile evaluation -------------------------------------------
    def q(self, r):
        """Profile value at arbitrary radii: the startup series, the cubic
        Hermite cells the radial quadrature integrates, or the matched tail."""
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
            out[lo] = startup_eval(N, b, s, r[lo])[0]
        if np.any(hi):
            out[hi] = _tail(N, p.tail_coeff, r[hi])[0]
        if np.any(mid):
            # each radius's cell as a row of its two nodes, and its cubic in r - r_i
            i = np.clip(np.searchsorted(p.nodes, r[mid], side="right") - 1, 0, p.nodes.size - 2)
            ends = i[:, None] + np.arange(2)
            c = hermite_coeffs(p.nodes[ends], p.values[ends], p.derivs[ends])[:, 0]
            t = r[mid] - p.nodes[i]
            out[mid] = c[:, 0] + t * (c[:, 1] + t * (c[:, 2] + t * c[:, 3]))
        return float(out[0]) if scalar else out


# ----------------------------------------------------------------------
# shooting march
# ----------------------------------------------------------------------

def _march(N, b, g, s, r0, h, r_max):
    """March the radial ODE with RK4 from r0.

    Steps grow geometrically out of the startup region (local error of the
    singular right-hand side stays O(step^5 r^{-3-b})), then run uniformly
    at h.  Near the turning region (q below 5% of s) each advance is split
    in two.  Returns the status, 'cross', 'diverge' or 'end', and the node,
    value and derivative arrays of the trajectory up to where it stopped.
    """
    nm1, mb = N - 1.0, -b
    q, dq = map(float, startup_eval(N, b, s, r0))
    r, status, low_q, split = r0, "end", 0.05 * s, False  # split: the last substep was a first half
    grow = min(_GRADING_PER_H * h, _GRADING_CAP)
    rs, qs, dqs = array("d", (r,)), array("d", (q,)), array("d", (dq,))
    add_r, add_q, add_dq = rs.append, qs.append, dqs.append
    c, f = nm1 / r, r**mb * abs(q) ** g * q  # the first stage's (N-1)/r and nonlinear term
    while split or r < r_max - 1e-12:
        if split:
            split = False
        else:
            # geometric steps out of the startup region, then uniform at h
            hh = grow * r
            if hh > h:
                hh = h
            if r + hh > r_max:
                hh = r_max - r
            if q < low_q:
                hh, split = hh / 2.0, True
            hh2, hh6 = 0.5 * hh, hh / 6.0
        # RK4 on (q, dq); r^-b and (N-1)/r of the midpoint serve stages 2 and 3
        k1d = q - f - c * dq
        r2 = r + hh2
        rb, c = r2**mb, nm1 / r2
        q2 = q + hh2 * dq
        d2 = dq + hh2 * k1d
        k2d = q2 - rb * abs(q2) ** g * q2 - c * d2
        q3 = q + hh2 * d2
        d3 = dq + hh2 * k2d
        k3d = q3 - rb * abs(q3) ** g * q3 - c * d3
        r = r + hh
        rb, c = r**mb, nm1 / r
        q4 = q + hh * d3
        d4 = dq + hh * k3d
        k4d = q4 - rb * abs(q4) ** g * q4 - c * d4
        q += hh6 * (dq + 2.0 * d2 + 2.0 * d3 + d4)
        dq += hh6 * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
        if q <= 0.0:
            status = "cross"
        elif dq > 0.0 and (r > 1.0 or q > s):
            status = "diverge"
        else:
            f = rb * q**g * q  # the next first stage's, at the end radius; q > 0 needs no abs
            if split:
                continue
        add_r(r)
        add_q(q)
        add_dq(dq)
        if status != "end":
            break
    return status, np.frombuffer(rs), np.frombuffer(qs), np.frombuffer(dqs)


def _secant_step(N, b, g, older, newer):
    """Secant amplitude through the far-field residuals of two marches.

    The residual is the mismatch of a march's log-derivative with the matched
    tail's, its decay rate 1 replaced by sqrt(1 - r^-b q^g); far out it is
    linear in the amplitude's error.  Both residuals are taken a few steps
    before the earlier march stops, so the radius grows as the amplitudes
    converge.  Returns nan when they coincide.
    """
    k = max(min(older[1][1].size, newer[1][1].size) - 1 - _SECANT_BACKOFF, 0)
    f = []
    for _, (_, rs, qs, dqs) in (older, newer):
        r, q = float(rs[k]), float(qs[k])
        value, deriv = _tail(N, 1.0, r)
        decay = math.sqrt(max(1.0 - r ** -b * q**g, 0.0))
        f.append(float(dqs[k]) - (float(deriv / value) + 1.0 - decay) * q)
    (s1, s2), (f1, f2) = (older[0], newer[0]), f
    return s2 - f2 * (s2 - s1) / (f2 - f1) if f1 != f2 else math.nan


# ----------------------------------------------------------------------
# main solve
# ----------------------------------------------------------------------

def solve_ground_state(
    params: GNParams,
    r_max: float = 30.0,
    resolution: int = 4096,
) -> GroundStateData:
    """Shoot for the positive decaying radial profile and derive its constants.

    The final cross/diverge bracket on the central amplitude,
    ``meta["bracket"]``, has relative width 1e-13; ``resolution`` sets the
    uniform march step h = r_max / resolution.  The startup radius comes
    from (N, b) and is the profile's first node.  ``meta["tail_error"]`` is
    the tail's estimated shift of the mass identity, and ``meta["marches"]``
    the number of marches the solve made, bracket search included, and
    ``meta["march_nodes"]`` the trajectory nodes of all of them.
    """
    N, b = params.N, params.b
    g = 2.0 * params.beta_sq
    if math.exp(-r_max) >= _SHOOT_TOL:
        raise ValueError(f"r_max={r_max} too small: need exp(-r_max) < {_SHOOT_TOL:g}")
    if resolution < 64:
        raise ValueError("resolution must be at least 64")

    r0 = (_STARTUP_ETA * (2.0 - b) * (N - b)) ** (1.0 / (2.0 - b))
    if not r0 > sys.float_info.max ** (-1.0 / b):  # the march evaluates r0^-b
        raise SingularStartup(
            f"startup radius r0 = {r0:.3g} for N={N}, b={b} is beyond double precision "
            f"(r0 underflows or r0^-b overflows)"
        )
    h = r_max / resolution

    # one loop classifies and narrows.  Until both sides of the sign change
    # are seen, s steps away from the guess by factors 2, 4, 16, ...  A
    # bracket wider than a factor 2 is bisected in log amplitude; inside one,
    # a secant step on the far-field residuals of the two latest marches
    # picks s, and a step out of the bracket is replaced by bisection.  Once
    # a step falls within _SHOOT_TOL, marches at +-0.4 _SHOOT_TOL about its
    # estimate close the bracket.  Past _SECANT_BUDGET marches it is only
    # bisected.
    s_lo = s_hi = lo_run = last = None  # lo_run: the largest non-crossing amplitude's march
    s, factor, straddle, marches, march_nodes = _S_GUESS, 2.0, [], 0, 0
    while True:
        run = _march(N, b, g, s, r0, h, r_max)
        marches += 1
        march_nodes += run[1].size
        prev, last = last, (s, run)
        if run[0] == "cross":
            s_hi = s
        else:
            s_lo, lo_run = s, run
        if s_lo is None or s_hi is None:
            if s in (_S_MIN, _S_MAX):
                raise BracketFailure(
                    f"no sign change of the shooting discriminant for N={N}, b={b} "
                    f"over amplitudes [{_S_MIN:g}, {_S_MAX:g}]"
                )
            s = min(max(s / factor if s_lo is None else s * factor, _S_MIN), _S_MAX)
            factor *= factor
            continue
        if s_hi - s_lo <= _SHOOT_TOL * s_hi:
            break
        straddle = [x for x in straddle if s_lo < x < s_hi]
        if straddle:
            s = straddle.pop()
        elif s_hi > 2.0 * s_lo:
            s = math.sqrt(s_lo * s_hi)
        elif marches >= _SECANT_BUDGET:
            s = 0.5 * (s_lo + s_hi)
        else:
            s = _secant_step(N, b, g, prev, last)
            prev = None  # a march keeps at most lo_run and the latest march alive
            if abs(s - last[0]) <= _SHOOT_TOL * last[0]:
                straddle = [x for x in (s * (1.0 - 0.4 * _SHOOT_TOL), s * (1.0 + 0.4 * _SHOOT_TOL))
                            if s_lo < x < s_hi]
                s = straddle.pop() if straddle else 0.5 * (s_lo + s_hi)  # else bisect
            elif not s_lo < s < s_hi:
                s = 0.5 * (s_lo + s_hi)
        if not s_lo < s < s_hi:
            break  # double precision floor
    status, nodes, values, derivs = lo_run
    del run, prev, last, lo_run  # only the stored profile's arrays outlive the loop
    s_star = 0.5 * (s_lo + s_hi)

    # switch to the matched tail before the unstable mode pollutes it
    threshold = s_star * _TAIL_SWITCH
    candidates = np.nonzero((values <= threshold) & (nodes >= 2.0))[0]
    if candidates.size:
        k = int(candidates[0])
    elif status == "diverge":
        k = int(np.argmin(values))
    else:
        k = values.size - 1
    if values[k] > 0.05 * s_star:
        raise BracketFailure(
            f"profile did not decay below 5% of the amplitude before r={nodes[k]:.3g}; increase r_max"
        )

    rk = nodes[k]
    K = values[k] / _tail(N, 1.0, rk)[0]

    # extend the stored grid to exactly r_max on equal steps of at most h
    # and fill the tail
    if nodes[-1] < r_max - 1e-9 or k < nodes.size - 1:
        extra = np.linspace(rk, r_max, math.ceil((r_max - rk) / h) + 1)[1:]
        nodes = np.concatenate([nodes[: k + 1], extra])
        tail_values, tail_derivs = _tail(N, K, extra)
        values = np.concatenate([values[: k + 1], tail_values])
        derivs = np.concatenate([derivs[: k + 1], tail_derivs])

    profile = RadialProfile(
        nodes=nodes,
        values=values,
        derivs=derivs,
        r_max=r_max,
        startup_amplitude=s_star,
        tail_coeff=K,
        tail_start=rk,
    )

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        l2_sq, grad_sq, nl_int = profile_integrals(params, profile)
    if not math.isfinite(l2_sq + grad_sq + nl_int):
        raise SingularStartup(f"profile integrals overflow near r0 = {r0:.3g} for N={N}, b={b}")
    # the tail drops nu = r^-b q^g against q, so it decays too fast by about
    # nu/2 and its mass S rk^{N-1} qk^2 / 2 is short by nu/2 of itself; the mass
    # identity moves by that over beta^2 = g/2 (1.4-1.5x the residual, measured)
    nu = rk ** (-b) * values[k] ** g
    tail_error = nu * surface_area(N) * rk ** (N - 1) * values[k] ** 2 / (2 * g * l2_sq)
    if tail_error > _IDENTITY_TOL:
        raise TailUnresolved(
            f"the linear tail from r={rk:.3g} drops a term {nu:.2g} of q, moving the mass identity "
            f"by {tail_error:.2g} (> {_IDENTITY_TOL:g}) for N={N}, b={b}: b is too near min(2, N)"
        )
    return GroundStateData(
        params=params,
        profile=profile,
        l2_sq=l2_sq,
        grad_sq=grad_sq,
        nonlinear_int=nl_int,
        a_star=l2_sq**params.beta_sq,
        meta={
            "bracket": [s_lo, s_hi],
            "resolution": resolution,
            "tail_status": status,
            "tail_error": tail_error,
            "marches": marches,
            "march_nodes": march_nodes,
        },
    )


def _ode_second_derivative(params: GNParams, r, q, dq):
    g = 2.0 * params.beta_sq
    return q - r ** (-params.b) * np.abs(q) ** g * q - (params.N - 1) / r * dq


def _exp_tail_integral(R: float, beta: float) -> float:
    """Asymptotic integral of r^beta e^{-2r} over [R, infinity)."""
    return math.exp(-2.0 * R) * (
        R**beta / 2.0 + beta * R ** (beta - 1.0) / 4.0 + beta * (beta - 1.0) * R ** (beta - 2.0) / 8.0
    )


def _weight(profile: RadialProfile, alpha):
    """alpha and the cubic moment matrix of r^alpha on the profile cells."""
    return alpha, cell_moments(profile.nodes[:-1], profile.nodes[1:], alpha, 3)


def _radial_quadrature(profile: RadialProfile, N: int, f, df, weight, startup, tail_sq):
    """Sphere factor times the integral over [0, infinity) of r^alpha f.

    The startup closed form covers [0, r0], Hermite cells on the profile
    nodes (f and its derivative df) cover [r0, r_max] against ``weight``
    (from `_weight`), and the matched tail bounds the truncated remainder
    by tail_sq times that of the mass.  Returns (value, tail remainder).
    """
    alpha, M = weight
    body = float(np.sum(M * hermite_coeffs(profile.nodes, f, df)))
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
    # one pair at a time keeps a fine profile's peak memory low; mass and kinetic share r^{N-1}
    weight = _weight(profile, nu)
    mass = _radial_quadrature(profile, N, u * u, 2.0 * u * du, weight, su_mass, tail_sq)[0]
    kinetic = _radial_quadrature(profile, N, du * du, 2.0 * du * d2u, weight, su_grad, tail_sq)[0]
    del weight
    f, df = u ** (2.0 + g), (2.0 + g) * u ** (1.0 + g) * du
    weight_b = _weight(profile, nu - b)
    return mass, kinetic, _radial_quadrature(profile, N, f, df, weight_b, su_nl, tail_sq)[0]


def moment(gs: GroundStateData, p: float) -> float:
    """Integral of |x|^p q^2 over R^N by radial quadrature.

    Raises TailUnresolved when the estimated truncated-tail contribution
    exceeds 1e-6 of the value.
    """
    if p < 0.0:
        raise ValueError("moment exponent p must be nonnegative")
    params, prof = gs.params, gs.profile
    N = params.N
    q, dq = prof.values, prof.derivs
    su_mass, _, _ = _startup_integrals(N, params.b, prof.startup_amplitude, prof.nodes[0], p)
    K = prof.tail_coeff
    weight = _weight(prof, N - 1.0 + p)
    value, tail = _radial_quadrature(prof, N, q * q, 2.0 * q * dq, weight, su_mass, K * K)
    if not np.isfinite(tail) or tail > _MOMENT_REL_TOL * abs(value):
        raise TailUnresolved(
            f"tail estimate {tail:.3g} exceeds {_MOMENT_REL_TOL:.1g} of moment p={p}; increase r_max"
        )
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


def verify_identities(gs: GroundStateData) -> IdentityReport:
    """Check grad = mass/beta_sq = nonlinear/(1+beta_sq) on the solved profile."""
    bs = gs.params.beta_sq
    r1 = abs(gs.grad_sq - gs.l2_sq / bs) / gs.l2_sq
    r2 = abs(gs.grad_sq - gs.nonlinear_int / (1.0 + bs)) / gs.grad_sq
    s_lo, s_hi = gs.meta["bracket"]
    r3 = (s_hi - s_lo) / s_hi
    tol = _IDENTITY_TOL
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
    the first node r0 > 0 closes with the natural (Neumann) condition."""
    return Grid(domain=Ball(gs.params.N, gs.profile.r_max), nodes=gs.profile.nodes)


def _dilation_residual(gs: GroundStateData, grid: Grid) -> float:
    """Relative weighted-L2 residual of L(N/2 q + r q') + 2q = 0.

    Strong pointwise form: the singular potential is evaluated exactly at
    the nodes (no lumping, so the large-term cancellation is clean) and
    only v'' comes from differencing the stored derivative data.  A wrong
    profile or wrong operator coefficients shows up at order one; a
    converged solve sits at the reconstruction floor ~ O(h^2).
    """
    params = gs.params
    N, b = params.N, params.b
    g = 2.0 * params.beta_sq
    p = gs.profile
    r, q, dq = p.nodes, p.values, p.derivs
    d2q = _ode_second_derivative(params, r, q, dq)
    v = 0.5 * N * q + r * dq
    dv = (0.5 * N + 1.0) * dq + r * d2q
    d2v = np.empty_like(v)
    hm, hp = r[1:-1] - r[:-2], r[2:] - r[1:-1]  # three-point v'' on the non-uniform nodes
    d2v[1:-1] = 2.0 * (hm * v[2:] - (hm + hp) * v[1:-1] + hp * v[:-2]) / (hm * hp * (hm + hp))
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
    on the profile grid (K the grids' stiffness, D and Wb the lumped masses
    with the [0, r0] volume and singular weight on the first node, where
    q = s), so (A v)_i ~ D_i (L v)(r_i).
    The eigenvalue comes from Rayleigh-quotient inverse iteration started
    at the profile itself (whose Rayleigh quotient is negative, so a
    negative smallest eigenvalue is certain before any iteration).  The
    quotient sums v . K v from the conductances: the stiffness rows of the
    fine startup cells are large, and K v would cancel away digits there.
    """
    N, b = gs.params.N, gs.params.b
    g = 2.0 * gs.params.beta_sq
    grid = _profile_grid(gs)
    inner = grid.interior
    S, r0 = surface_area(N), grid.nodes[0]
    Dm = hat_masses(grid, 0.0)[inner].copy()
    Dm[0] += S * r0**N / N  # lump the [0, r0] volume onto the first node
    x = gs.profile.values[inner]
    shift = Dm - (1.0 + g) * hat_masses(grid, -b)[inner] * x**g
    # and the [0, r0] singular weight, with q = s on it
    shift[0] -= (1.0 + g) * S * gs.profile.startup_amplitude**g * r0 ** (N - b) / (N - b)
    K_diag, off = stiffness(grid)
    kappa = kinetic_conductances(grid)

    def rayleigh(v):  # of D-normalized v; the last cell ends at the Dirichlet node
        dv = np.diff(v, append=0.0)
        return _dot(kappa, dv * dv) + _dot(shift * v, v)

    xn = x / math.sqrt(_dot(Dm * x, x))
    sigma = rayleigh(xn)
    it = 0
    diag = K_diag + shift
    while it < _PROBE_MAX_ITERS:
        it += 1
        *_, y, info = dgtsv(off, diag - sigma * Dm, off, Dm * xn)
        if info != 0:  # sigma is an eigenvalue to rounding
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
