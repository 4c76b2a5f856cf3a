"""Threshold sweeps and verification of the quantitative limit laws.

A sweep drives the interaction strength toward the threshold along a
schedule of gaps, warm-starting every solve from a dilation-transported
copy of the previous minimizer, and distills each solve into one record.
Fits of log energy / log concentration-scale against log gap are compared
with the predicted exponents p/(p+2), 1/(p+2) and the closed-form
prefactors built from the profile constants.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MassViolation, NotConverged
from .grids import Grid, GridFunction, integrate_nodal, mass, normalize_mass
from .groundstate import GroundStateData
from .potentials import LambdaConstant, PotentialSpec
from .variational import FlowConfig, MinimizerResult, _p1_energy_error, gradient_flow_minimize

# acceptance bands of the scaling-law fits: exponent half-widths, prefactor relative tolerance
_ENERGY_EXP_BAND = 0.025
_EPS_EXP_BAND = 0.0125
_PREFACTOR_RTOL = 0.10
# acceptance of check_limits: |mu eps^2 + beta^2| / beta^2, tightest / widest
# energy, and the relative margin over the trial energy bound
_MU_EPS_RTOL = 0.05
_ENERGY_RATIO_THRESHOLD = 0.10
_BOUND_MARGIN = 0.0025


@dataclass(frozen=True)
class SweepRecord:
    """One converged solve along the threshold approach; ``iterations``,
    ``newton_steps`` and ``tangent_negatives`` are as on MinimizerResult,
    and ``h`` is the step of the grid it was solved on."""

    a: float
    gap: float
    energy: float
    eps: float
    mu: float
    profile_err_l2: float
    profile_err_sup: float
    iterations: int
    newton_steps: int
    tangent_negatives: int
    h: float


@dataclass(frozen=True)
class SweepResult:
    records: list
    aborted: bool = False
    message: str | None = None


def predicted_eps(gap: float, gs: GroundStateData, lam: LambdaConstant) -> float:
    """Leading-order concentration scale (1/lambda)(gap l2 beta^p / a*)^{1/(p+2)}."""
    p = lam.p
    bs = gs.params.beta_sq
    return (gap * gs.l2_sq * bs ** (p / 2.0) / gs.a_star) ** (1.0 / (p + 2.0)) / lam.value


def limit_profile(gs: GroundStateData, y) -> np.ndarray:
    """Concentration limit beta^{N/2} q(beta |y|) / ||q||_2."""
    beta = math.sqrt(gs.params.beta_sq)
    return beta ** (gs.params.N / 2.0) * gs.q(beta * np.abs(y)) / math.sqrt(gs.l2_sq)


def limit_profile_start(gs: GroundStateData, grid: Grid, eps: float) -> GridFunction:
    """Unit-mass flow start eps^{-N/2} limit_profile(x / eps), floored positive."""
    vals = eps ** (-gs.params.N / 2.0) * limit_profile(gs, grid.interior_nodes / eps)
    floor = 1e-30 * max(float(np.max(vals)), 1e-30)
    return normalize_mass(GridFunction(grid, np.maximum(vals, floor)))


def rescale_minimizer(result: MinimizerResult, gs: GroundStateData) -> tuple[float, float]:
    """(L2, sup) distances of the rescaled minimizer eps^{N/2} u(eps y) to
    the concentration limit.

    The rescaled grid is the native grid divided by eps, so the minimizer
    needs no interpolation; the limit profile is evaluated with the cubic
    profile interpolant.
    """
    grid = result.u.grid
    eps = result.eps
    diff = eps ** (gs.params.N / 2.0) * result.u.full() - limit_profile(gs, grid.nodes / eps)
    err_sup = float(np.max(np.abs(diff)))
    # the grid's P1 quadrature in x, with dy = dx / eps in each dimension
    err_l2 = math.sqrt(integrate_nodal(grid, diff * diff) / eps**grid.domain.dimension)
    return err_l2, err_sup


def default_gap_schedule(a_star: float, start_mult: float = 0.1, ratio: float = 0.5, n_points: int = 8):
    """Interaction strengths with geometrically shrinking gaps, ascending."""
    gaps = start_mult * a_star * ratio ** np.arange(n_points)
    return list(a_star - gaps)


def _transport_init(u_prev: GridFunction, scale: float) -> GridFunction:
    """Dilation-transport a minimizer to the predicted next concentration scale."""
    grid = u_prev.grid
    full = u_prev.full()
    sampled = np.interp(grid.interior_nodes * scale, grid.nodes, full, left=0.0, right=0.0)
    floor = 1e-30 * max(float(np.max(sampled)), 1e-30)
    return normalize_mass(GridFunction(grid, np.maximum(sampled, floor)))


def run_sweep(
    a_schedule,
    gs: GroundStateData,
    spec: PotentialSpec,
    grid: Grid,
    lam: LambdaConstant,
    cfg: FlowConfig = FlowConfig(),
) -> SweepResult:
    """One minimization per scheduled interaction strength, warm-started.

    Ends early with ``aborted`` set, keeping the records so far, when a
    solve raises NotConverged, which includes an endpoint the grid does
    not resolve.
    """
    a_list = list(a_schedule)
    if any(a2 <= a1 for a1, a2 in zip(a_list, a_list[1:])):
        raise ValueError("a_schedule must be strictly increasing")
    if a_list and a_list[-1] >= gs.a_star:
        raise ValueError(f"schedule must stay below a* = {gs.a_star:.8g}")

    records: list[SweepRecord] = []
    u_prev: GridFunction | None = None
    eps_prev = None

    for a in a_list:
        gap = gs.a_star - a
        eps_pred = predicted_eps(gap, gs, lam)
        if u_prev is not None:
            init = _transport_init(u_prev, eps_prev / eps_pred)
        else:
            init = limit_profile_start(gs, grid, eps_pred)
        params = gs.params.with_a(a)
        try:
            res = gradient_flow_minimize(init, params, spec, cfg)
        except NotConverged as exc:
            return SweepResult(records, aborted=True, message=f"a = {a:.10g}: {exc}")
        m = mass(res.u)
        if abs(m - 1.0) > 1e-8:
            raise MassViolation(f"sweep record lost unit mass: {m - 1.0:.3e}")
        err_l2, err_sup = rescale_minimizer(res, gs)
        records.append(
            SweepRecord(
                a=a,
                gap=gap,
                energy=res.energy,
                eps=res.eps,
                mu=res.mu,
                profile_err_l2=err_l2,
                profile_err_sup=err_sup,
                iterations=res.iterations,
                newton_steps=res.newton_steps,
                tangent_negatives=res.tangent_negatives,
                h=grid.h,
            )
        )
        u_prev = res.u
        eps_prev = res.eps
    return SweepResult(records)


# ----------------------------------------------------------------------
# scaling-law fits
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LawFit:
    exponent: float
    exponent_halfwidth: float
    prefactor: float
    predicted_exponent: float
    predicted_prefactor: float
    exponent_ok: bool
    prefactor_ok: bool


@dataclass(frozen=True)
class ScalingFit:
    energy: LawFit
    eps: LawFit
    n_used: int
    gap_decades: float


def _fit_log_law(gaps, values, predicted_exponent, predicted_prefactor, exp_band):
    x = np.log(gaps)
    y = np.log(values)
    n = x.size
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    sxx = float(np.sum((x - x.mean()) ** 2))
    se = math.sqrt(float(np.sum(resid**2)) / max(n - 2, 1) / sxx)
    # prefactor from the one-parameter fit with the exponent pinned at the
    # prediction (the free-slope intercept extrapolates poorly to gap = 1)
    prefactor = float(np.exp(np.mean(y - predicted_exponent * x)))
    return LawFit(
        exponent=float(slope),
        exponent_halfwidth=2.0 * se,
        prefactor=prefactor,
        predicted_exponent=predicted_exponent,
        predicted_prefactor=predicted_prefactor,
        exponent_ok=bool(abs(slope - predicted_exponent) <= exp_band),
        prefactor_ok=bool(
            abs(prefactor - predicted_prefactor) <= _PREFACTOR_RTOL * predicted_prefactor
        ),
    )


def fit_window(gaps, drop_widest: int):
    """The gaps the fits use, ascending, and the decades they span.

    The widest ``drop_widest`` gaps are pre-asymptotic and excluded; at
    least 5 gaps spanning a decade must remain.
    """
    kept = sorted(gaps)
    if drop_widest:
        kept = kept[:-drop_widest] if drop_widest < len(kept) else []
    if len(kept) < 5:
        raise ValueError(f"need at least 5 records after dropping, have {len(kept)}")
    decades = math.log10(kept[-1] / kept[0])
    if decades < 1.0:
        raise ValueError(f"gap span {decades:.2f} decades < 1 decade")
    return kept, decades


def fit_scaling_laws(
    records,
    gs: GroundStateData,
    lam: LambdaConstant,
    drop_widest: int = 2,
) -> ScalingFit:
    """Fit the energy and concentration-scale laws against log gap over
    the records of ``fit_window``."""
    kept, decades = fit_window([r.gap for r in records], drop_widest)
    recs = sorted(records, key=lambda r: r.gap)[: len(kept)]
    gaps = np.array(kept)
    p = lam.p
    energy_fit = _fit_log_law(
        gaps,
        np.array([r.energy for r in recs]),
        p / (p + 2.0),
        lemma_energy_bound(1.0, gs, lam),  # the trial bound is the law's leading term
        _ENERGY_EXP_BAND,
    )
    eps_fit = _fit_log_law(
        gaps,
        np.array([r.eps for r in recs]),
        1.0 / (p + 2.0),
        predicted_eps(1.0, gs, lam),
        _EPS_EXP_BAND,
    )
    return ScalingFit(energy=energy_fit, eps=eps_fit, n_used=len(recs), gap_decades=decades)


# ----------------------------------------------------------------------
# limit checks
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LimitsReport:
    mu_eps_sq: float
    mu_eps_sq_rel_dev: float
    mu_eps_ok: bool
    energy_ratio: float
    energy_ratio_ok: bool
    lemma_bound_ok: bool
    lemma_bound_margins: tuple
    energy_decreasing: bool
    eps_decreasing: bool


def lemma_energy_bound(gap: float, gs: GroundStateData, lam: LambdaConstant) -> float:
    """Trial-function upper bound for the energy at the given gap."""
    p = lam.p
    bs = gs.params.beta_sq
    return (
        (p + 2.0)
        / p
        * lam.value**2
        * gs.l2_sq ** (-2.0 / (p + 2.0))
        * (gap / (gs.a_star * bs)) ** (p / (p + 2.0))
    )


def check_limits(records, gs: GroundStateData, lam: LambdaConstant) -> LimitsReport:
    """Multiplier limit, threshold energy trend and the upper energy bound.

    The P1 energy exceeds the continuous one by the grid's kinetic-energy
    error, of order h^2 / eps^4 for a profile of width eps, so each energy
    may exceed its bound by that plus _BOUND_MARGIN of the bound; the
    margins are energy / allowance.
    """
    recs = sorted(records, key=lambda r: r.a)
    if not recs:
        raise ValueError("no records to check")
    bs = gs.params.beta_sq
    tight = recs[-1]
    mu_eps_sq = tight.mu * tight.eps**2
    dev = abs(mu_eps_sq + bs) / bs
    ratio = tight.energy / recs[0].energy if recs[0].energy != 0 else math.inf
    margins = tuple(
        r.energy
        / (lemma_energy_bound(r.gap, gs, lam) * (1.0 + _BOUND_MARGIN) + _p1_energy_error(r.h, r.eps))
        for r in recs
    )
    energies = [r.energy for r in recs]
    epses = [r.eps for r in recs]
    return LimitsReport(
        mu_eps_sq=mu_eps_sq,
        mu_eps_sq_rel_dev=dev,
        mu_eps_ok=bool(dev < _MU_EPS_RTOL),
        energy_ratio=ratio,
        energy_ratio_ok=bool(ratio < _ENERGY_RATIO_THRESHOLD),
        lemma_bound_ok=bool(all(m <= 1.0 for m in margins)),
        lemma_bound_margins=margins,
        energy_decreasing=bool(
            all(e2 < e1 for e1, e2 in zip(energies, energies[1:]))
        ),
        eps_decreasing=bool(all(e2 < e1 for e1, e2 in zip(epses, epses[1:]))),
    )
