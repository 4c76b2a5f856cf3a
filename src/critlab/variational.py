"""Energy functional, constrained minimization and trial-function machinery.

One discrete system (`_System`) sums the energy, the multiplier, the
stationarity defect and the second variation from the grid's memoized hat
masses and P1 stiffness; Newton, the flow, the public energy functions and
the result scalars all evaluate through it, so Newton's root and the flow's
fixed point solve the same discrete Euler-Lagrange system and the reported
multiplier identity closes by construction.  A minimization tries
bordered Newton first and keeps its endpoint only with a certificate that
it is a strict local minimizer (no tangent descent direction); otherwise
the gradient flow runs from the same start.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositive, NotConverged
from .grids import (
    Grid,
    GridFunction,
    _dot,
    apply_stiffness,
    dgtsv,
    dirichlet_form,
    dpttrf,
    dpttrs,
    hat_masses,
    integrate,
    normalize_mass,
    stiffness,
)
from .groundstate import GroundStateData, profile_integrals
from .params import GNParams
from .potentials import PotentialSpec, eval_potential

_MASS_TOL = 1e-3  # largest |mass - 1| evaluate_energy accepts
# time-step control of the gradient flow
_DT_START = 1e-2
_DT_MIN = 1e-7
_DT_MAX = 0.25
_GROW_EVERY = 250  # accepted steps between time-step increases
_GROW_FACTOR = 1.4
_ENERGY_SLACK = 1e-9  # relative energy increase a step may make
_NEWTON_FLOOR = 1e-8  # smallest fraction of its value a Newton step leaves a node
_EPS = float(np.finfo(float).eps)


# ----------------------------------------------------------------------
# energy pieces
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyBreakdown:
    """Kinetic + potential - interaction split of the functional."""

    kinetic: float
    potential_term: float
    nonlinear_term: float
    total: float


class _System:
    """The discrete problem on one grid: the only place its terms are summed.

    Holds the grid's memoized hat masses W (weight 1) and Wb (weight
    |x|^-b) on interior nodes, the diagonal and off-diagonal of its P1
    stiffness K, and the sampled potential V.  The flow, the energies, the
    multiplier and the stationarity defect all evaluate through these
    methods; K u comes from the caller, which applies K once per iterate.
    """

    def __init__(self, grid: Grid, params: GNParams, spec: PotentialSpec | None):
        self.grid = grid
        self.params = params
        self.W = hat_masses(grid, 0.0)[grid.interior]
        self.Wb = hat_masses(grid, -params.b)[grid.interior]
        self.K_diag, self.K_off = stiffness(grid)
        self.V = (
            np.zeros(grid.n_interior) if spec is None else eval_potential(spec, grid.interior_nodes)
        )
        self.WV = self.W * self.V
        self.aWb = params.a * self.Wb
        self.power = params.nonlinear_power
        bs = params.beta_sq
        self.c_energy = params.a / (1.0 + bs)
        self.c_mu = params.a * bs / (1.0 + bs)

    def mass(self, u) -> float:
        return _dot(self.W, u * u)

    def interaction(self, u, u_pow=None) -> float:
        """Weighted interaction integral of |u|^{2+2 beta^2}; u_pow = u^{1+2 beta^2} of u > 0."""
        return _dot(self.Wb, np.abs(u) ** self.power if u_pow is None else u_pow * u)

    def energy(self, u, ku, u_pow=None) -> tuple[EnergyBreakdown, float]:
        """Energy split of nodal values u with ku = K u, and their interaction integral."""
        kin = _dot(ku, u)
        pot = _dot(self.WV, u * u)
        nl = self.interaction(u, u_pow)
        nonlinear = self.c_energy * nl
        return EnergyBreakdown(kin, pot, nonlinear, kin + pot - nonlinear), nl

    def multiplier(self, energy: float, nl: float) -> float:
        """Energy identity mu = e - a beta^2/(1+beta^2) * NL."""
        return energy - self.c_mu * nl

    def defect(self, u, ku) -> np.ndarray:
        """Nodal defect K u / W + V u - a (Wb / W) |u|^{2 beta^2} u without the mu term."""
        sing = self.aWb * np.abs(u) ** (2.0 * self.params.beta_sq) * u
        return (ku - sing) / self.W + self.V * u

    def second_variation(self, u, mu: float) -> np.ndarray:
        """Diagonal of J = K + diag(W V - mu W - (1 + 2 beta^2) a Wb |u|^{2 beta^2}),
        the Jacobian of K u + W V u - a Wb u^{1+2 beta^2} - mu W u in u; the
        off-diagonal is the stiffness's."""
        sing = (self.power - 1.0) * self.aWb * np.abs(u) ** (2.0 * self.params.beta_sq)
        return self.K_diag + self.WV - mu * self.W - sing

    def fit_multiplier(self, u, ku) -> tuple[float, np.ndarray]:
        """Multiplier minimizing the weighted L2 norm of the stationarity defect,
        and the defect at it."""
        r = self.defect(u, ku)
        mu = _dot(self.W * r, u) / _dot(self.W * u, u)
        return mu, r - mu * u

    def flow_rhs(self, u, u_pow, dt: float, mu: float) -> np.ndarray:
        """Right-hand side W (u / dt + mu u) + a Wb u_pow of a flow step, u_pow = u^{1+2 beta^2}:
        backward Euler in the Laplacian and the potential, explicit interaction."""
        return u * (self.W * (1.0 / dt + mu)) + self.aWb * u_pow

    def factor(self, dt):
        """LDL^T factor of the tridiagonal K + W / dt + W V, an SPD M-matrix for V >= 0:
        backward Euler in the Laplacian and the potential, explicit interaction."""
        d, e, info = dpttrf(self.K_diag + self.W / dt + self.WV, self.K_off)
        if info != 0:
            raise np.linalg.LinAlgError(f"flow matrix not positive definite (dpttrf info {info})")
        return d, e

    def solve(self, fact, rhs) -> np.ndarray:
        x, info = dpttrs(*fact, rhs, overwrite_b=True)
        if info != 0:
            raise np.linalg.LinAlgError(f"flow solve failed (dpttrs info {info})")
        return x


def evaluate_energy(
    u: GridFunction,
    params: GNParams,
    spec: PotentialSpec | None = None,
) -> EnergyBreakdown:
    """Evaluate the functional on a unit-mass grid function."""
    sys_ = _System(u.grid, params, spec)
    m = sys_.mass(u.values)
    if abs(m - 1.0) > _MASS_TOL:
        raise ValueError(f"|mass - 1| = {abs(m - 1.0):.3g} exceeds {_MASS_TOL}")
    return sys_.energy(u.values, apply_stiffness(u.grid, u.values))[0]


def gn_quotient(u: GridFunction, params: GNParams) -> float:
    """Kinetic * mass^{beta^2} / weighted interaction integral."""
    sys_ = _System(u.grid, params, None)
    m = sys_.mass(u.values)
    if m <= 0.0:
        raise ValueError("quotient undefined for the zero function")
    return dirichlet_form(u) * m**params.beta_sq / sys_.interaction(u.values)


# ----------------------------------------------------------------------
# cutoff trial functions
# ----------------------------------------------------------------------

def _bump(t):
    """Smooth bump phi(t): 1 for t <= 0, exp(1 - 1/(1 - t^2)) on (0, 1), 0
    beyond; returns (phi, phi', phi'')."""
    t = np.asarray(t, dtype=float)
    out = np.zeros((3,) + t.shape)
    out[0][t <= 0.0] = 1.0
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    u = 1.0 / (1.0 - tm * tm)
    e = np.exp(1.0 - u)
    out[0][mid] = e
    out[1][mid] = e * (-2.0 * tm * u * u)
    out[2][mid] = e * (4.0 * tm * tm * u**4 - 2.0 * u * u - 8.0 * tm * tm * u**3)
    return out


def _trial_radial_integrals(gs: GroundStateData, tau: float, R: float):
    """(mass, kinetic, interaction) of the un-normalized trial function.

    Evaluated on the profile's own grid in the concentrated variable, so
    no interpolation of the profile enters where the cutoff is 1; accuracy
    is limited only by the profile itself.
    """
    Rt = R * tau

    def cutoff(y):
        phi, d1, d2 = _bump(y / Rt - 1.0)
        return phi, d1 / Rt, d2 / Rt**2

    i_m, i_k, i_nl = profile_integrals(gs.params, gs.profile, cutoff)
    l2 = gs.l2_sq
    return i_m / l2, tau**2 * i_k / l2, tau**2 * i_nl / l2 ** (1.0 + gs.params.beta_sq)


def _check_trial(tau: float, R: float) -> None:
    if tau <= 0.0:
        raise ValueError("dilation parameter tau must be positive")
    if R <= 0.0:
        raise ValueError(f"cutoff radius R must be positive, got {R}")


def make_trial_function(
    gs: GroundStateData, grid: Grid, tau: float, R: float | None = None
) -> GridFunction:
    """Cut-off dilated profile q(tau |x|), normalized to unit mass on the grid.

    The cutoff radius R defaults to a quarter of the distance from the
    origin to the boundary.
    """
    d = grid.domain.origin_distance
    if R is None:
        R = d / 4.0
    _check_trial(tau, R)
    if 2.0 * R >= d:
        raise ValueError(f"support radius 2R = {2 * R} reaches the boundary (distance {d})")

    r = np.abs(grid.interior_nodes)
    return normalize_mass(GridFunction(grid, _bump(r / R - 1.0)[0] * gs.q(tau * r)))


def trial_quotient(gs: GroundStateData, tau: float, R: float) -> float:
    """Quotient of the cut-off trial family, via the profile-grid route.

    Accurate to the profile's own accuracy (~1e-9), which resolves the
    exponentially small cutoff deficit that a coarse domain grid cannot.
    """
    _check_trial(tau, R)
    mass_raw, kin_raw, nl_raw = _trial_radial_integrals(gs, tau, R)
    return kin_raw * mass_raw**gs.params.beta_sq / nl_raw


# ----------------------------------------------------------------------
# normalized gradient flow, finished by Newton
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FlowConfig:
    """Stopping rule of the minimization: bordered Newton, else the flow.

    ``tol``: Newton stops once the sup-norm defect |F / W| falls below it
    or to its rounding level eps |K| |u| / W, whichever is larger (on fine
    grids the rounding level can exceed ``tol``); the flow stops once its
    sup-norm update per unit time does, which is that defect smoothed by
    the implicit step, so the flow's residual can end above ``tol``.
    ``max_iters``: accepted steps of each method; Newton hands over to
    the flow when it runs out, the flow raises NotConverged.  The flow's
    time step starts at 1e-2 and adapts within [1e-7, 0.25]; there is no
    energy floor, so a flow above a* runs until it stops on the grid.
    """

    tol: float = 1e-9
    max_iters: int = 500_000


@dataclass(frozen=True, eq=False)
class MinimizerResult:
    """Converged (or partial) minimizer with its derived scalars.

    ``iterations`` counts the flow's accepted steps (0 when Newton's
    endpoint is returned); ``newton_steps`` the accepted Newton steps,
    also those of an attempt the flow took over from; ``tangent_negatives``
    the tangent descent directions of the second variation (0: strict local minimizer).
    """

    u: GridFunction
    energy: float
    mu: float
    eps: float
    iterations: int
    converged: bool
    residual: float
    breakdown: EnergyBreakdown
    mu_fit: float
    newton_steps: int
    tangent_negatives: int


def gradient_flow_minimize(
    init: GridFunction,
    params: GNParams,
    spec: PotentialSpec | None,
    cfg: FlowConfig = FlowConfig(),
) -> MinimizerResult:
    """Constrained minimizer: bordered Newton from the init, else the flow.

    Newton solves the discrete Euler-Lagrange system and the unit-mass
    constraint from the normalized init; its endpoint is returned only if
    every step lowered the defect (down to its rounding level) and the
    second variation has no negative direction tangent to the constraint
    (a strict local minimizer).  Otherwise the normalized init goes to
    the normalized gradient flow, unchanged by the attempt: backward Euler
    in the Laplacian and the potential, explicit interaction with a
    multiplier shift (so its fixed point solves the same system),
    renormalization after every step, and time-step adaptation on
    positivity loss or energy increase.  The potential must be nonnegative
    on the grid.
    """
    sys_ = _System(init.grid, params, spec)
    if not np.all(sys_.V >= 0.0):
        raise ValueError(f"the flow needs V >= 0; the smallest sampled V is {np.min(sys_.V):.6g}")
    if np.any(init.values < 0.0) or not np.any(init.values > 0.0):
        raise ValueError("gradient flow requires a nonnegative, nonzero initial function")
    u = init.values / math.sqrt(sys_.mass(init.values))
    end, steps = _newton(sys_, u, cfg)
    if end is not None:
        result = _build_result(*end, sys_, 0, True, steps)
        if result.tangent_negatives == 0:
            return result
    return _flow(sys_, u, cfg, steps)


def _tangent_negative_count(sys_: _System, u, mu: float) -> int:
    """Negative directions of J on the tangent space u^T W v = 0.

    Haynsworth inertia additivity on the bordered [[J, W u], [(W u)^T, 0]]
    gives neg(J) + [u^T W J^{-1} W u > 0] - 1.  LAPACK's dpttrf factors J =
    L D L^T in place up to a pivot d_k <= 0, which is counted (an exact 0 as
    a rounding-level negative, as in a Sturm count); the next pivot is formed
    as dpttrf forms it and dpttrf restarts below, so one count costs a pass
    over J plus one call per negative pivot.  dpttrs on these factors ignores
    pivot signs, and (W u)^T J^{-1} W u = sum y^2 / d with L y = W u, so an
    eigenvalue of J at rounding level moves both terms together.
    """
    d, e, wu = sys_.second_variation(u, mu), sys_.K_off.copy(), sys_.W * u
    zero_pivot = -_EPS * float(np.max(np.abs(d)))
    neg = k = 0  # scipy's dpttrf refuses a one-row block, whose sign is read here
    while k < d.size and (info := int(d[k] <= 0.0) if k == d.size - 1 else
                          dpttrf(d[k:], e[k:], overwrite_d=1, overwrite_e=1)[2]):
        k, neg = k + info, neg + 1
        d[k - 1] = d[k - 1] or zero_pivot
        if k < d.size:
            l = e[k - 1] / d[k - 1]
            d[k] -= l * e[k - 1]
            e[k - 1] = l
    return neg + (_dot(wu, dpttrs(d, e, wu)[0]) > 0.0) - 1


def _newton(sys_: _System, u, cfg: FlowConfig):
    """Bordered Newton on F(u, mu) = 0, u^T W u = 1 from unit-mass u >= 0.

    Each step solves J x1 = -F and J x2 = W u, takes dmu from the border,
    floors each node at a fraction of its value (damping the whole step
    stalls on underflowing tails) and renormalizes, until the defect is
    below cfg.tol or at its rounding level.  Returns the endpoint with its
    K u and the accepted steps, or None and the steps when a step does not
    decrease the defect, J is singular, or the steps run out.
    """
    ku = apply_stiffness(sys_.grid, u)
    mu, r = sys_.fit_multiplier(u, ku)
    res = float(np.max(np.abs(r)))
    steps = 0
    while res >= cfg.tol:
        noise = 2.0 * sys_.K_diag * u - ku  # |K| |u|: u >= 0, K_off <= 0
        if res <= _EPS * float(np.max(noise / sys_.W)):  # the defect's rounding level
            break
        if steps >= cfg.max_iters:
            return None, steps
        wu = sys_.W * u
        rhs = np.stack((-sys_.W * r, wu), axis=1)
        *_, x, info = dgtsv(sys_.K_off, sys_.second_variation(u, mu), sys_.K_off, rhs)
        if info != 0:  # J singular
            return None, steps
        dmu = -_dot(wu, x[:, 0]) / _dot(wu, x[:, 1])
        u_new = np.maximum(u + x[:, 0] + dmu * x[:, 1], _NEWTON_FLOOR * u)
        u_new /= math.sqrt(sys_.mass(u_new))
        mu_new = mu + dmu
        ku_new = apply_stiffness(sys_.grid, u_new)
        r_new = sys_.defect(u_new, ku_new) - mu_new * u_new
        res_new = float(np.max(np.abs(r_new)))
        if not res_new < res:
            return None, steps
        u, ku, mu, r, res = u_new, ku_new, mu_new, r_new, res_new
        steps += 1
    return (u, ku), steps


def _flow(sys_: _System, u, cfg: FlowConfig, newton_steps: int = 0) -> MinimizerResult:
    """The normalized gradient flow from unit-mass u >= 0."""
    # zeros in the init (for example beyond a cutoff) are gone after one
    # implicit step: the inverse of the M-matrix is entrywise positive
    p1 = sys_.power - 1.0
    u_pow = u**p1  # u^{1+2 beta^2}, shared by the step and the energy
    ku = apply_stiffness(sys_.grid, u)

    dt = _DT_START
    fact = sys_.factor(dt)
    eb, nl = sys_.energy(u, ku, u_pow)
    energy_prev, mu_r = eb.total, sys_.multiplier(eb.total, nl)
    iterations = 0
    converged = False
    clean_steps = 0

    while iterations < cfg.max_iters:
        # each branch only chooses the next time step; a change refactors below
        new_dt = dt
        u_star = sys_.solve(fact, sys_.flow_rhs(u, u_pow, dt, mu_r))
        if np.any(u_star <= 0.0):
            if dt <= _DT_MIN:
                raise NonPositive(
                    f"iterate lost positivity at dt = {dt:.3g} (minimum {_DT_MIN:.3g})"
                )
            new_dt = max(dt * 0.5, _DT_MIN)
        else:
            u_new = u_star / math.sqrt(sys_.mass(u_star))
            pow_new = u_new**p1
            ku_new = apply_stiffness(sys_.grid, u_new)
            eb, nl = sys_.energy(u_new, ku_new, pow_new)
            energy_new = eb.total
            slack = _ENERGY_SLACK * (1.0 + abs(energy_prev))
            if energy_new > energy_prev + slack and dt > 2.0 * _DT_MIN:
                new_dt = max(dt * 0.5, _DT_MIN)
            else:
                iterations += 1
                delta = float(np.max(np.abs(u_new - u))) / dt
                u, u_pow, ku = u_new, pow_new, ku_new
                energy_prev = energy_new
                mu_r = sys_.multiplier(energy_new, nl)
                if delta < cfg.tol:
                    converged = True
                    break
                clean_steps += 1
                if clean_steps >= _GROW_EVERY and dt < _DT_MAX:
                    new_dt = min(dt * _GROW_FACTOR, _DT_MAX)
        if new_dt != dt:
            dt = new_dt
            fact = sys_.factor(dt)
            clean_steps = 0

    result = _build_result(u, ku, sys_, iterations, converged, newton_steps)
    if not converged:
        raise NotConverged(
            f"flow did not reach tol = {cfg.tol:.2g} in {cfg.max_iters} iterations",
            partial=result,
        )
    return result


def _build_result(u_vals, ku, sys_: _System, iterations, converged, newton_steps):
    eb, nl = sys_.energy(u_vals, ku)
    mu_f, r = sys_.fit_multiplier(u_vals, ku)
    return MinimizerResult(
        u=GridFunction(sys_.grid, u_vals),
        energy=eb.total,
        mu=sys_.multiplier(eb.total, nl),
        eps=1.0 / math.sqrt(eb.kinetic),
        iterations=iterations,
        converged=converged,
        residual=float(np.max(np.abs(r))),
        breakdown=eb,
        mu_fit=mu_f,
        newton_steps=newton_steps,
        tangent_negatives=_tangent_negative_count(sys_, u_vals, mu_f),
    )


# ----------------------------------------------------------------------
# probes built on the flow and the trial family
# ----------------------------------------------------------------------

def nonexistence_probe(
    params: GNParams,
    gs: GroundStateData,
    grid: Grid,
    tau_list,
    spec: PotentialSpec | None = None,
    R: float | None = None,
):
    """Energies of the trial family above the threshold.

    Returns a list of (tau, energy) pairs; the leading behavior is
    (1 - a/a*) tau^2 / beta^2 plus the potential's contribution.
    """
    taus = list(tau_list)
    if any(t2 <= t1 for t1, t2 in zip(taus, taus[1:])):
        raise ValueError("tau_list must be strictly increasing")
    if params.a < gs.a_star:
        raise ValueError(
            f"nonexistence probe expects a >= a* = {gs.a_star:.6g}, got a = {params.a}"
        )
    out = []
    for tau in taus:
        eb = evaluate_energy(make_trial_function(gs, grid, tau, R), params, spec)
        out.append((tau, eb.total))
    return out


def fit_tau_square_coefficient(taus, energies, p: float | None = None) -> float:
    """Least-squares coefficient of tau^2 in E(tau), optionally with a
    tau^{-p} column for the potential term."""
    taus = np.asarray(taus, dtype=float)
    energies = np.asarray(energies, dtype=float)
    cols = [taus**2, np.ones_like(taus)]
    if p is not None:
        cols.append(taus ** (-p))
    A = np.stack(cols, axis=1)
    coef, *_ = np.linalg.lstsq(A, energies, rcond=None)
    return float(coef[0])


@dataclass(frozen=True)
class UniquenessReport:
    """Spread of flow endpoints over independent random starts."""

    n_requested: int
    n_converged: int
    max_l2_distance: float
    max_sup_distance: float
    energy_spread_rel: float
    energies: tuple
    failures: tuple


def multistart_uniqueness(
    params: GNParams,
    spec: PotentialSpec | None,
    grid: Grid,
    n_starts: int,
    seed: int,
    cfg: FlowConfig = FlowConfig(),
    n_workers: int = 4,
) -> UniquenessReport:
    """Run the flow from independent random positive starts and compare.

    The starts run one after another; ``n_workers`` is accepted for
    compatibility and has no effect.
    """
    if n_starts < 3:
        raise ValueError("need at least 3 starts for a meaningful comparison")
    ulist: list[MinimizerResult] = []
    failures: list[str] = []
    for k, start_seed in enumerate(np.random.SeedSequence(seed).spawn(n_starts)):
        rng = np.random.default_rng(start_seed)
        init = GridFunction(grid, rng.uniform(0.2, 1.0, grid.n_interior))
        try:
            ulist.append(gradient_flow_minimize(init, params, spec, cfg))
        except NotConverged as exc:
            failures.append(f"start {k}: {exc}")

    max_l2 = 0.0
    max_sup = 0.0
    for i in range(len(ulist)):
        for j in range(i + 1, len(ulist)):
            d = ulist[i].u.values - ulist[j].u.values
            max_l2 = max(max_l2, math.sqrt(integrate(ulist[i].u.with_values(d * d))))
            max_sup = max(max_sup, float(np.max(np.abs(d))))
    energies = [r.energy for r in ulist]
    if energies:
        spread = (max(energies) - min(energies)) / max(abs(np.mean(energies)), 1e-300)
    else:
        spread = math.nan
    return UniquenessReport(
        n_requested=n_starts,
        n_converged=len(ulist),
        max_l2_distance=max_l2,
        max_sup_distance=max_sup,
        energy_spread_rel=spread,
        energies=tuple(energies),
        failures=tuple(failures),
    )

