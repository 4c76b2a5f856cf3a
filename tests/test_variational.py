import math

import numpy as np
import pytest

from critlab import (
    DomainTooSmall,
    EnergyDiverged,
    FlowConfig,
    GNParams,
    GridFunction,
    Interval,
    Ball,
    MassViolation,
    NotConverged,
    PotentialSpec,
    build_grid,
    dirichlet_form,
    evaluate_energy,
    euler_lagrange_residual,
    fit_multiplier,
    gn_quotient,
    gradient_flow_minimize,
    lagrange_multiplier,
    lemma_energy_bound,
    make_trial_function,
    mass,
    multistart_uniqueness,
    nonexistence_probe,
    normalize_mass,
    threshold_probe,
    trial_quotient,
)
from critlab.potentials import compute_lambda
from critlab.variational import _trial_radial_integrals, fit_tau_square_coefficient
from frozen_values import MOMENT_COS_SQ

PI24 = math.pi**2 / 4.0


def eigenfunction(grid):
    return GridFunction.from_callable(grid, lambda x: np.cos(np.pi * x / 2))


def random_h10(grid, rng, n_modes=24):
    x = grid.interior_nodes
    dom = grid.domain
    vals = np.zeros_like(x)
    amps = rng.standard_normal(n_modes) / (1.0 + np.arange(n_modes)) ** 2
    if grid.is_ball:
        for k in range(n_modes):
            vals += amps[k] * np.cos((k + 0.5) * math.pi * x / dom.radius)
    else:
        L = dom.x_hi - dom.x_lo
        for k in range(n_modes):
            vals += amps[k] * np.sin((k + 1) * math.pi * (x - dom.x_lo) / L)
    return GridFunction(grid, vals)


# ----------------------------------------------------------------------
# energies
# ----------------------------------------------------------------------

def test_energy_dirichlet_eigenvalue():
    grid = build_grid(Interval(-1.0, 1.0), 1024)
    u = eigenfunction(grid)  # already unit mass
    eb = evaluate_energy(u, GNParams(1, 0.5, a=0.0), None)
    assert eb.total == pytest.approx(PI24, abs=1e-4)
    assert eb.nonlinear_term == 0.0


def test_energy_with_harmonic_potential():
    grid = build_grid(Interval(-1.0, 1.0), 1024)
    u = eigenfunction(grid)
    eb = evaluate_energy(u, GNParams(1, 0.5, a=0.0), PotentialSpec(p0=2.0))
    assert eb.potential_term == pytest.approx(MOMENT_COS_SQ, abs=1e-5)
    assert eb.total == pytest.approx(PI24 + MOMENT_COS_SQ, abs=1e-4)


def test_energy_mass_violation():
    grid = build_grid(Interval(-1.0, 1.0), 128)
    u = GridFunction.from_callable(grid, lambda x: 2.0 * np.cos(np.pi * x / 2))
    with pytest.raises(MassViolation):
        evaluate_energy(u, GNParams(1, 0.5), None)


def test_trial_energy_expansion(gs105):
    # kinetic - interaction collapses to (1 - a/a*) tau^2 / beta^2
    grid = build_grid(Interval(-4.0, 4.0), 4096)
    a = 0.5 * gs105.a_star
    tr = make_trial_function(gs105, grid, 10.0, R=1.0)
    eb = evaluate_energy(tr.values, gs105.params.with_a(a), None)
    predicted = 0.5 * 100.0 / 1.5
    assert eb.total == pytest.approx(predicted, rel=2e-3)


# ----------------------------------------------------------------------
# quotient
# ----------------------------------------------------------------------

def test_quotient_scale_invariance(gs105):
    grid = build_grid(Interval(-1.0, 1.0), 512)
    rng = np.random.default_rng(11)
    u = random_h10(grid, rng)
    q1 = gn_quotient(u, gs105.params)
    q2 = gn_quotient(u.with_values(3.7 * u.values), gs105.params)
    assert q1 == pytest.approx(q2, rel=1e-12)


def test_quotient_bounded_below(gs105):
    grid = build_grid(Interval(-1.0, 1.0), 1024)
    rng = np.random.default_rng(404)
    bound = gs105.a_star / (1.0 + gs105.params.beta_sq)
    ratios = [gn_quotient(random_h10(grid, rng), gs105.params) / bound for _ in range(200)]
    assert min(ratios) >= 1.0 - 1e-6


def test_trial_family_saturates_bound(gs105):
    bs = gs105.params.beta_sq
    bound = gs105.a_star / (1.0 + bs)
    deficits = [trial_quotient(gs105, tau, 0.2) / bound - 1.0 for tau in (5.0, 10.0, 20.0)]
    assert all(d > 0.0 for d in deficits)
    assert deficits[0] > deficits[1] > deficits[2]


# ----------------------------------------------------------------------
# stationarity pieces
# ----------------------------------------------------------------------

def test_el_residual_eigenfunction():
    grid = build_grid(Interval(-1.0, 1.0), 512)
    u = eigenfunction(grid)
    params = GNParams(1, 0.5, a=0.0)
    assert euler_lagrange_residual(u, PI24, params, None) < 1e-3
    rng = np.random.default_rng(3)
    noisy = normalize_mass(GridFunction(grid, 0.5 + rng.uniform(0, 1, grid.n_interior)))
    assert euler_lagrange_residual(noisy, PI24, params, None) > 0.1


def test_multiplier_at_zero_interaction():
    grid = build_grid(Interval(-1.0, 1.0), 256)
    u = eigenfunction(grid)
    eb = evaluate_energy(u, GNParams(1, 0.5, a=0.0), None)
    assert lagrange_multiplier(u, eb.total, GNParams(1, 0.5, a=0.0)) == eb.total


def test_multiplier_formula_vs_fit(gs105):
    grid = build_grid(Interval(-8.0, 8.0), 1024)
    spec = PotentialSpec(p0=2.0)
    params = gs105.params.with_a(0.5 * gs105.a_star)
    init = normalize_mass(
        GridFunction.from_callable(grid, lambda x: np.exp(-np.abs(x) ** 2))
    )
    res = gradient_flow_minimize(init, params, spec, FlowConfig())
    assert res.mu == pytest.approx(fit_multiplier(res.u, params, spec), abs=1e-6 * (1 + abs(res.mu)))
    assert res.residual < 1e-6


def test_result_scalars_match_public_functions(gs105):
    # the flow's result and the public functions evaluate one discrete system
    grid = build_grid(Interval(-8.0, 8.0), 1024)
    spec = PotentialSpec(p0=2.0)
    params = gs105.params.with_a(0.5 * gs105.a_star)
    init = normalize_mass(GridFunction.from_callable(grid, lambda x: np.exp(-(x**2))))
    res = gradient_flow_minimize(init, params, spec, FlowConfig())
    assert res.converged
    eb = evaluate_energy(res.u, params, spec)
    assert res.energy == pytest.approx(eb.total, rel=1e-14, abs=0.0)
    assert res.breakdown.kinetic == pytest.approx(dirichlet_form(res.u), rel=1e-14, abs=0.0)
    assert res.mu == pytest.approx(lagrange_multiplier(res.u, res.energy, params), rel=1e-14, abs=0.0)
    assert res.mu_fit == pytest.approx(fit_multiplier(res.u, params, spec), rel=1e-14, abs=0.0)
    assert res.residual == euler_lagrange_residual(res.u, res.mu_fit, params, spec)


# ----------------------------------------------------------------------
# trial functions
# ----------------------------------------------------------------------

def test_trial_normalization(gs105):
    grid = build_grid(Interval(-4.0, 4.0), 2048)
    tr = make_trial_function(gs105, grid, 20.0, R=1.0)
    assert abs(tr.a_tau - 1.0) < 1e-6
    assert mass(tr.values) == pytest.approx(1.0, abs=1e-12)


def test_trial_kinetic_scaling(gs105):
    # kinetic / tau^2 approaches grad_sq / l2_sq = 1 / beta_sq
    vals = []
    for tau in (10.0, 40.0):
        _, kin_raw, _ = _trial_radial_integrals(gs105, tau, 0.5)
        vals.append(kin_raw / tau**2)
    assert vals[1] == pytest.approx(1.0 / gs105.params.beta_sq, rel=1e-6)
    assert abs(vals[1] - 1.0 / 1.5) < abs(vals[0] - 1.0 / 1.5)


def test_trial_integrals_match_constants_at_unit_cutoff(gs105):
    # a cutoff that is 1 on the whole profile grid reduces the trial route
    # to the quadrature of the constants themselves
    m, k, nl = _trial_radial_integrals(gs105, 1.0, gs105.profile.r_max)
    assert m == pytest.approx(1.0, rel=1e-14)
    assert k == pytest.approx(gs105.grad_sq / gs105.l2_sq, rel=1e-14)
    bs = gs105.params.beta_sq
    assert nl == pytest.approx(gs105.nonlinear_int / gs105.l2_sq ** (1.0 + bs), rel=1e-14)


def test_trial_domain_too_small(gs105):
    grid = build_grid(Interval(-1.0, 1.0), 256)
    with pytest.raises(DomainTooSmall):
        make_trial_function(gs105, grid, 10.0, R=0.6)


# ----------------------------------------------------------------------
# gradient flow
# ----------------------------------------------------------------------

def test_flow_reaches_dirichlet_ground_state():
    grid = build_grid(Interval(-1.0, 1.0), 1024)
    rng = np.random.default_rng(7)
    init = GridFunction(grid, rng.uniform(0.2, 1.0, grid.n_interior))
    res = gradient_flow_minimize(init, GNParams(1, 0.5, a=0.0), None, FlowConfig())
    assert res.converged
    assert res.energy == pytest.approx(PI24, abs=1e-4)
    assert res.residual < 1e-6
    assert mass(res.u) == pytest.approx(1.0, abs=1e-12)
    assert np.all(res.u.values > 0.0)


def test_flow_energy_in_lemma_window(gs105):
    # half-threshold interaction on a radial (N = 1) domain
    grid = build_grid(Ball(1, 8.0), 2048)
    spec = PotentialSpec(p0=2.0)
    a = 0.5 * gs105.a_star
    lam = compute_lambda(spec, gs105)
    init = normalize_mass(GridFunction.from_callable(grid, lambda r: np.exp(-(r**2))))
    res = gradient_flow_minimize(init, gs105.params.with_a(a), spec, FlowConfig())
    bound = lemma_energy_bound(gs105.a_star - a, gs105, lam)
    assert 0.0 <= res.energy <= bound * 1.01


def test_flow_energy_monotone_trace():
    grid = build_grid(Interval(-1.0, 1.0), 512)
    rng = np.random.default_rng(3)
    init = GridFunction(grid, rng.uniform(0.2, 1.0, grid.n_interior))
    cfg = FlowConfig(record_energy=True, max_iters=20000)
    res = gradient_flow_minimize(init, GNParams(1, 0.5, a=0.0), None, cfg)
    trace = np.array(res.energy_trace)
    slack = 1e-9 * (1.0 + np.abs(trace[:-1]))
    assert np.all(np.diff(trace) <= slack)


def test_flow_probe_mode_diverges(gs105):
    grid = build_grid(Interval(-4.0, 4.0), 512)
    init = make_trial_function(gs105, grid, 10.0, R=1.0).values
    cfg = FlowConfig(probe_mode=True, energy_floor=-100.0, max_iters=100000)
    with pytest.raises(EnergyDiverged) as exc_info:
        gradient_flow_minimize(init, gs105.params.with_a(1.1 * gs105.a_star), None, cfg)
    assert exc_info.value.energy < -100.0


def test_flow_not_converged_carries_partial():
    grid = build_grid(Interval(-1.0, 1.0), 256)
    rng = np.random.default_rng(5)
    init = GridFunction(grid, rng.uniform(0.2, 1.0, grid.n_interior))
    with pytest.raises(NotConverged) as exc_info:
        gradient_flow_minimize(init, GNParams(1, 0.5, a=0.0), None, FlowConfig(max_iters=5))
    partial = exc_info.value.partial
    assert partial is not None and not partial.converged and partial.iterations == 5


def test_flow_requires_positive_init():
    grid = build_grid(Interval(-1.0, 1.0), 128)
    vals = np.ones(grid.n_interior)
    vals[3] = -0.1
    with pytest.raises(ValueError):
        gradient_flow_minimize(GridFunction(grid, vals), GNParams(1, 0.5), None, FlowConfig())


def test_energy_lower_bound_invariant(gs105):
    # with unit mass and V >= 0: E >= (1 - a/a*) kinetic - quadrature slack
    grid = build_grid(Interval(-1.0, 1.0), 1024)
    rng = np.random.default_rng(21)
    a = 0.5 * gs105.a_star
    params = gs105.params.with_a(a)
    spec = PotentialSpec(p0=2.0)
    for _ in range(50):
        u = normalize_mass(random_h10(grid, rng))
        eb = evaluate_energy(u, params, spec)
        floor = (1.0 - a / gs105.a_star) * eb.kinetic
        assert eb.total >= floor - 1e-4 * eb.kinetic


def test_scalar_multiple_starts_collapse():
    grid = build_grid(Interval(-1.0, 1.0), 256)
    rng = np.random.default_rng(9)
    base = rng.uniform(0.2, 1.0, grid.n_interior)
    cfg = FlowConfig(max_iters=500)
    try:
        r1 = gradient_flow_minimize(GridFunction(grid, base), GNParams(1, 0.5, 0.0), None, cfg)
    except NotConverged as e:
        r1 = e.partial
    try:
        r2 = gradient_flow_minimize(GridFunction(grid, 3.0 * base), GNParams(1, 0.5, 0.0), None, cfg)
    except NotConverged as e:
        r2 = e.partial
    assert np.allclose(r1.u.values, r2.u.values, rtol=0, atol=1e-12)


# ----------------------------------------------------------------------
# probes
# ----------------------------------------------------------------------

def test_nonexistence_probe(gs105):
    grid = build_grid(Interval(-2.0, 2.0), 2048)
    a = 1.2 * gs105.a_star
    table = nonexistence_probe(gs105.params.with_a(a), gs105, grid, (5.0, 10.0, 20.0, 40.0),
                               spec=None, R=0.5)
    energies = [e for _, e in table]
    assert all(e2 < e1 for e1, e2 in zip(energies, energies[1:]))
    assert all(e < 0.0 for e in energies[1:])
    c2 = fit_tau_square_coefficient([t for t, _ in table], energies)
    pred = (1.0 - a / gs105.a_star) / gs105.params.beta_sq
    assert c2 == pytest.approx(pred, rel=0.05)


def test_probe_requires_supercritical(gs105):
    grid = build_grid(Interval(-2.0, 2.0), 256)
    with pytest.raises(ValueError):
        nonexistence_probe(gs105.params.with_a(0.5 * gs105.a_star), gs105, grid, (5.0, 10.0))
    with pytest.raises(ValueError):
        nonexistence_probe(gs105.params.with_a(2.0 * gs105.a_star), gs105, grid, (10.0, 5.0))


def test_threshold_trial_energies_vanish(gs105):
    # exactly at the threshold with V(0) = 0 the trial energies decrease to
    # 0+; the dilation term cancels, so stay at moderate tau where the
    # remaining potential term dominates the grid error
    grid = build_grid(Interval(-2.0, 2.0), 8192)
    table = nonexistence_probe(
        gs105.params.with_a(gs105.a_star), gs105, grid, (4.0, 6.0, 9.0), spec=PotentialSpec(p0=2.0), R=0.5
    )
    energies = [e for _, e in table]
    assert all(e > 0.0 for e in energies)
    assert all(e2 < e1 for e1, e2 in zip(energies, energies[1:]))
    assert energies[-1] < 0.01


def test_multistart_uniqueness(gs105):
    grid = build_grid(Interval(-8.0, 8.0), 512)
    spec = PotentialSpec(p0=2.0)
    params = gs105.params.with_a(0.9 * gs105.a_star)
    rep = multistart_uniqueness(params, spec, grid, 4, 123, FlowConfig(tol=1e-8))
    assert rep.n_converged == 4
    assert rep.max_l2_distance < 1e-5
    assert rep.energy_spread_rel < 1e-8
    with pytest.raises(ValueError):
        multistart_uniqueness(params, spec, grid, 2, 123)


def test_threshold_probe_reports(gs105):
    grid = build_grid(Interval(-8.0, 8.0), 512)
    rep = threshold_probe(gs105, PotentialSpec(p0=2.0), grid,
                          FlowConfig(max_iters=2000, record_stride=100))
    assert rep.iterations > 0
    assert len(rep.kinetic_trace) > 0
    assert rep.final_kinetic > 0.0
