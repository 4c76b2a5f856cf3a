"""Energy functional, constrained gradient flow and trial-function machinery.

One discrete system (`_System`) sums the energy, the multiplier and the
stationarity defect from the grid's memoized hat masses and P1 stiffness;
the flow, the public energy functions and the result scalars all evaluate
through it, so the flow's fixed point satisfies the discrete Euler-Lagrange
system to machine precision and the reported multiplier identity closes by
construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

from .errors import (
    DomainTooSmall,
    EnergyDiverged,
    MassViolation,
    NonPositive,
    NotConverged,
    ZeroFunction,
)
from .grids import (
    Grid,
    GridFunction,
    _dot,
    apply_stiffness,
    dirichlet_form,
    hat_masses,
    integrate,
    normalize_mass,
    stiffness_bands,
)
from .groundstate import GroundStateData, profile_integrals
from .params import GNParams
from .potentials import PotentialSpec, eval_potential

_MASS_TOL = 1e-3  # largest |mass - 1| evaluate_energy accepts
# time-step control of the gradient flow
_DT_MIN = 1e-7
_GROW_EVERY = 250  # accepted steps between time-step increases
_GROW_FACTOR = 1.4
_ENERGY_SLACK = 1e-9  # relative energy increase a step may make


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


def sample_potential(spec: PotentialSpec | None, grid: Grid) -> np.ndarray:
    """Nodal potential values at interior nodes (zero when spec is None)."""
    if spec is None:
        return np.zeros(grid.n_interior)
    return eval_potential(spec, grid.interior_nodes)


class _System:
    """The discrete problem on one grid: the only place its terms are summed.

    Holds the grid's memoized hat masses W (weight 1) and Wb (weight
    |x|^-b) on interior nodes and the sampled potential V; the P1 stiffness
    K comes from the grid.  The flow, the energies, the multiplier and the
    stationarity defect all evaluate through these methods.
    """

    def __init__(self, grid: Grid, params: GNParams, spec: PotentialSpec | None):
        self.grid = grid
        self.params = params
        self.W = hat_masses(grid, 0.0)[grid.interior]
        self.Wb = hat_masses(grid, -params.b)[grid.interior]
        self.V = sample_potential(spec, grid)
        self.WV = self.W * self.V
        self.aWb = params.a * self.Wb
        self.power = params.nonlinear_power
        bs = params.beta_sq
        self.c_energy = params.a / (1.0 + bs)
        self.c_mu = params.a * bs / (1.0 + bs)

    def mass(self, u) -> float:
        return _dot(self.W, u * u)

    def interaction(self, u) -> float:
        """Weighted interaction integral of |u|^{2+2 beta^2}."""
        return _dot(self.Wb, np.abs(u) ** self.power)

    def energy(self, u) -> tuple[EnergyBreakdown, float]:
        """Energy split of nodal values u, and their interaction integral."""
        kin = _dot(apply_stiffness(self.grid, u), u)
        pot = _dot(self.WV, u * u)
        nl = self.interaction(u)
        nonlinear = self.c_energy * nl
        return EnergyBreakdown(kin, pot, nonlinear, kin + pot - nonlinear), nl

    def multiplier(self, energy: float, nl: float) -> float:
        """Energy identity mu = e - a beta^2/(1+beta^2) * NL."""
        return energy - self.c_mu * nl

    def defect(self, u) -> np.ndarray:
        """Nodal defect K u / W + V u - a (Wb / W) |u|^{2 beta^2} u without the mu term."""
        sing = self.aWb * np.abs(u) ** (2.0 * self.params.beta_sq) * u
        return (apply_stiffness(self.grid, u) - sing) / self.W + self.V * u

    def fit_multiplier(self, u) -> float:
        """Multiplier minimizing the weighted L2 norm of the stationarity defect."""
        return _dot(self.W * self.defect(u), u) / _dot(self.W * u, u)

    def residual(self, u, mu: float) -> float:
        """Sup-norm of the stationarity defect at multiplier mu."""
        return float(np.max(np.abs(self.defect(u) - mu * u)))

    def flow_rhs(self, u, dt: float, mu: float) -> np.ndarray:
        """Right-hand side W (u / dt - V u + mu u) + a Wb u^{1+2 beta^2} of a flow step."""
        return u * (self.W * (1.0 / dt + mu) - self.WV) + self.aWb * u ** (self.power - 1.0)

    def factor(self, dt):
        """Banded Cholesky factor of K + W / dt."""
        ab = stiffness_bands(self.grid).copy()
        ab[1] += self.W / dt
        return cholesky_banded(ab, lower=False)


def evaluate_energy(
    u: GridFunction,
    params: GNParams,
    spec: PotentialSpec | None = None,
) -> EnergyBreakdown:
    """Evaluate the functional on a unit-mass grid function."""
    sys_ = _System(u.grid, params, spec)
    m = sys_.mass(u.values)
    if abs(m - 1.0) > _MASS_TOL:
        raise MassViolation(f"|mass - 1| = {abs(m - 1.0):.3g} exceeds {_MASS_TOL}")
    return sys_.energy(u.values)[0]


def gn_quotient(u: GridFunction, params: GNParams) -> float:
    """Kinetic * mass^{beta^2} / weighted interaction integral."""
    sys_ = _System(u.grid, params, None)
    m = sys_.mass(u.values)
    if m <= 0.0:
        raise ZeroFunction("quotient undefined for the zero function")
    return dirichlet_form(u) * m**params.beta_sq / sys_.interaction(u.values)


def lagrange_multiplier(u: GridFunction, energy: float, params: GNParams) -> float:
    """Multiplier from the energy identity mu = e - a beta^2/(1+beta^2) * NL."""
    sys_ = _System(u.grid, params, None)
    return sys_.multiplier(energy, sys_.interaction(u.values))


def euler_lagrange_residual(
    u: GridFunction, mu: float, params: GNParams, spec: PotentialSpec | None = None
) -> float:
    """Sup-norm of the stationarity defect at multiplier mu."""
    return _System(u.grid, params, spec).residual(u.values, mu)


def fit_multiplier(u: GridFunction, params: GNParams, spec: PotentialSpec | None = None) -> float:
    """Multiplier minimizing the weighted L2 norm of the stationarity defect."""
    return _System(u.grid, params, spec).fit_multiplier(u.values)


# ----------------------------------------------------------------------
# cutoff trial functions
# ----------------------------------------------------------------------

def _bump(t):
    """Smooth bump: 1 for t <= 0, exp(1 - 1/(1 - t^2)) on (0, 1), 0 beyond."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    out[t <= 0.0] = 1.0
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    out[mid] = np.exp(1.0 - 1.0 / (1.0 - tm * tm))
    return out

def _bump_d1(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    u = 1.0 / (1.0 - tm * tm)
    out[mid] = np.exp(1.0 - u) * (-2.0 * tm * u * u)
    return out

def _bump_d2(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    u = 1.0 / (1.0 - tm * tm)
    out[mid] = np.exp(1.0 - u) * (4.0 * tm * tm * u**4 - 2.0 * u * u - 8.0 * tm * tm * u**3)
    return out


@dataclass
class TrialFunction:
    """Mass-normalized, cut-off, dilated copy of the ground profile."""

    tau: float
    cutoff_radius: float
    a_tau: float
    values: GridFunction


def _trial_radial_integrals(gs: GroundStateData, tau: float, R: float):
    """(mass, kinetic, interaction) of the un-normalized trial function.

    Evaluated on the profile's own grid in the concentrated variable, so
    no interpolation of the profile enters where the cutoff is 1; accuracy
    is limited only by the profile itself.
    """
    Rt = R * tau

    def cutoff(y):
        t = y / Rt - 1.0
        return _bump(t), _bump_d1(t) / Rt, _bump_d2(t) / Rt**2

    i_m, i_k, i_nl = profile_integrals(gs.params, gs.profile, cutoff)
    l2 = gs.l2_sq
    return i_m / l2, tau**2 * i_k / l2, tau**2 * i_nl / l2 ** (1.0 + gs.params.beta_sq)


def default_cutoff_radius(grid: Grid) -> float:
    return grid.domain.origin_distance / 4.0


def make_trial_function(
    gs: GroundStateData, grid: Grid, tau: float, R: float | None = None
) -> TrialFunction:
    """Cut-off dilated profile with unit mass on the grid.

    ``a_tau`` is the continuum normalization constant (its deviation from 1
    is the cutoff's mass deficit, superpolynomially small in tau); the grid
    realization is renormalized exactly afterwards.
    """
    if tau <= 0.0:
        raise ValueError("dilation parameter tau must be positive")
    d = grid.domain.origin_distance
    if R is None:
        R = default_cutoff_radius(grid)
    if 2.0 * R >= d:
        raise DomainTooSmall(f"support radius 2R = {2 * R} reaches the boundary (distance {d})")

    mass_raw, _, _ = _trial_radial_integrals(gs, tau, R)
    a_tau = 1.0 / math.sqrt(mass_raw)

    x = grid.interior_nodes
    r = np.abs(x)
    scale = tau ** (gs.params.N / 2.0) / math.sqrt(gs.l2_sq)
    vals = a_tau * scale * _bump(r / R - 1.0) * gs.q(tau * r)
    u = normalize_mass(GridFunction(grid, vals))
    return TrialFunction(tau=tau, cutoff_radius=R, a_tau=a_tau, values=u)


def trial_quotient(gs: GroundStateData, tau: float, R: float) -> float:
    """Quotient of the cut-off trial family, via the profile-grid route.

    Accurate to the profile's own accuracy (~1e-9), which resolves the
    exponentially small cutoff deficit that a coarse domain grid cannot.
    """
    mass_raw, kin_raw, nl_raw = _trial_radial_integrals(gs, tau, R)
    return kin_raw * mass_raw**gs.params.beta_sq / nl_raw


# ----------------------------------------------------------------------
# normalized gradient flow
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FlowConfig:
    """Tuning for the semi-implicit normalized gradient flow."""

    dt: float = 1e-2
    tol: float = 1e-9
    max_iters: int = 500_000
    dt_max: float = 0.25
    probe_mode: bool = False
    energy_floor: float = -1e3
    record_energy: bool = False
    record_stride: int = 1


@dataclass
class MinimizerResult:
    """Converged (or partial) minimizer with its derived scalars."""

    u: GridFunction
    energy: float
    mu: float
    eps: float
    iterations: int
    converged: bool
    residual: float
    breakdown: EnergyBreakdown | None = None
    mu_fit: float | None = None
    energy_trace: list = field(default_factory=list)
    kinetic_trace: list = field(default_factory=list)


def gradient_flow_minimize(
    init: GridFunction,
    params: GNParams,
    spec: PotentialSpec | None,
    cfg: FlowConfig = FlowConfig(),
) -> MinimizerResult:
    """Normalized gradient flow to the constrained minimizer.

    Backward Euler in the Laplacian, explicit potential/interaction terms
    with a multiplier shift (so the fixed point solves the discrete
    Euler-Lagrange system exactly), renormalization after every step, and
    time-step adaptation on positivity loss or energy increase.
    """
    if np.any(init.values < 0.0) or not np.any(init.values > 0.0):
        raise ValueError("gradient flow requires a nonnegative, nonzero initial function")
    # zeros in the init (for example beyond a cutoff) are gone after one
    # implicit step: the inverse of the M-matrix is entrywise positive
    sys_ = _System(init.grid, params, spec)
    u = init.values / math.sqrt(sys_.mass(init.values))

    dt = cfg.dt
    fact = sys_.factor(dt)
    eb, nl = sys_.energy(u)
    energy_prev, mu_r = eb.total, sys_.multiplier(eb.total, nl)
    traces_e: list = []
    traces_k: list = []
    iterations = 0
    converged = False
    clean_steps = 0

    while iterations < cfg.max_iters:
        u_star = cho_solve_banded((fact, False), sys_.flow_rhs(u, dt, mu_r))
        if np.any(u_star <= 0.0):
            if dt <= _DT_MIN:
                raise NonPositive(
                    f"iterate lost positivity at dt = {dt:.3g} (minimum {_DT_MIN:.3g})"
                )
            dt = max(dt * 0.5, _DT_MIN)
            fact = sys_.factor(dt)
            clean_steps = 0
            continue
        u_new = u_star / math.sqrt(sys_.mass(u_star))
        eb, nl = sys_.energy(u_new)
        energy_new = eb.total

        if cfg.probe_mode and energy_new < cfg.energy_floor:
            raise EnergyDiverged(
                f"energy {energy_new:.6g} fell below the floor {cfg.energy_floor:.3g}",
                energy=energy_new,
            )
        slack = _ENERGY_SLACK * (1.0 + abs(energy_prev))
        if energy_new > energy_prev + slack and dt > 2.0 * _DT_MIN:
            dt = max(dt * 0.5, _DT_MIN)
            fact = sys_.factor(dt)
            clean_steps = 0
            continue

        iterations += 1
        delta = float(np.max(np.abs(u_new - u))) / dt
        u = u_new
        energy_prev = energy_new
        mu_r = sys_.multiplier(energy_new, nl)
        if cfg.record_energy and iterations % cfg.record_stride == 0:
            traces_e.append(energy_new)
            traces_k.append(eb.kinetic)
        if delta < cfg.tol:
            converged = True
            break
        clean_steps += 1
        if clean_steps >= _GROW_EVERY and dt < cfg.dt_max:
            dt = min(dt * _GROW_FACTOR, cfg.dt_max)
            fact = sys_.factor(dt)
            clean_steps = 0

    result = _build_result(u, sys_, iterations, converged)
    result.energy_trace = traces_e
    result.kinetic_trace = traces_k
    if not converged:
        raise NotConverged(
            f"flow did not reach tol = {cfg.tol:.2g} in {cfg.max_iters} iterations",
            partial=result,
        )
    return result


def _build_result(u_vals, sys_: _System, iterations, converged) -> MinimizerResult:
    eb, nl = sys_.energy(u_vals)
    mu_f = sys_.fit_multiplier(u_vals)
    return MinimizerResult(
        u=GridFunction(sys_.grid, u_vals),
        energy=eb.total,
        mu=sys_.multiplier(eb.total, nl),
        eps=1.0 / math.sqrt(eb.kinetic),
        iterations=iterations,
        converged=converged,
        residual=sys_.residual(u_vals, mu_f),
        breakdown=eb,
        mu_fit=mu_f,
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
        trial = make_trial_function(gs, grid, tau, R)
        eb = evaluate_energy(trial.values, params, spec)
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
            max_l2 = max(max_l2, math.sqrt(integrate(ulist[i].u.with_values(d * d), 0.0)))
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


@dataclass(frozen=True)
class ThresholdProbe:
    """Observed behavior of the flow exactly at the threshold strength."""

    converged: bool
    iterations: int
    final_energy: float
    final_kinetic: float
    kinetic_trace: tuple


def threshold_probe(
    gs: GroundStateData,
    spec: PotentialSpec | None,
    grid: Grid,
    cfg: FlowConfig | None = None,
) -> ThresholdProbe:
    """Run the flow at a = a* and report the energy/kinetic trend.

    Existence at the threshold is not decidable numerically (bounded
    minimizing sequences cannot be certified); this reports what the flow
    does, nothing more.
    """
    if cfg is None:
        cfg = FlowConfig(max_iters=20_000, record_energy=True, record_stride=200)
    else:
        cfg = replace(cfg, record_energy=True)
    params = gs.params.with_a(gs.a_star)
    rng = np.random.default_rng(7)
    init = GridFunction(grid, 0.5 + rng.uniform(0.0, 0.5, grid.n_interior))
    try:
        res = gradient_flow_minimize(init, params, spec, cfg)
        converged = True
    except NotConverged as exc:
        res = exc.partial
        converged = False
    return ThresholdProbe(
        converged=converged,
        iterations=res.iterations,
        final_energy=res.energy,
        final_kinetic=res.breakdown.kinetic,
        kinetic_trace=tuple(res.kinetic_trace),
    )
