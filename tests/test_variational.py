import math
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from critlab import (
    FlowConfig,
    GNParams,
    GridFunction,
    Interval,
    Ball,
    NonPositive,
    NotConverged,
    PotentialSpec,
    build_grid,
    default_gap_schedule,
    dirichlet_form,
    evaluate_energy,
    gn_quotient,
    gradient_flow_minimize,
    lemma_energy_bound,
    make_trial_function,
    mass,
    multistart_uniqueness,
    nonexistence_probe,
    normalize_mass,
    run_sweep,
    trial_quotient,
)
from critlab.potentials import compute_lambda
from critlab.grids import apply_stiffness, hat_masses
from critlab.asymptotics import limit_profile_start, predicted_eps
from critlab.variational import (
    _EPS,
    _System,
    _dot,
    _flow,
    _tangent_negative_count,
    _trial_radial_integrals,
    fit_tau_square_coefficient,
)
from frozen_values import MOMENT_COS_SQ

PI24 = math.pi**2 / 4.0


def flow_only(init, params, spec, cfg=FlowConfig()):
    """The flow without the Newton attempt, from the same normalized init."""
    system = _System(init.grid, params, spec)
    return _flow(system, init.values / math.sqrt(system.mass(init.values)), cfg)


def defect_sup(system, u, mu):
    """Sup-norm of the stationarity defect at multiplier mu."""
    return float(np.max(np.abs(system.defect(u, apply_stiffness(system.grid, u), mu))))


def eigenfunction(grid):
    return GridFunction(grid, np.cos(np.pi * grid.interior_nodes / 2))


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
    u = GridFunction(grid, 2.0 * np.cos(np.pi * grid.interior_nodes / 2))
    with pytest.raises(ValueError, match="exceeds"):
        evaluate_energy(u, GNParams(1, 0.5), None)


def test_trial_energy_expansion(gs105):
    # kinetic - interaction collapses to (1 - a/a*) tau^2 / beta^2
    grid = build_grid(Interval(-4.0, 4.0), 4096)
    a = 0.5 * gs105.a_star
    tr = make_trial_function(gs105, grid, 10.0, R=1.0)
    eb = evaluate_energy(tr, gs105.params.with_a(a), None)
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
    with pytest.raises(ValueError, match="undefined for the zero function"):
        gn_quotient(u.with_values(0.0 * u.values), gs105.params)


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
    system = _System(grid, GNParams(1, 0.5, a=0.0), None)
    assert defect_sup(system, u.values, PI24) < 1e-3
    rng = np.random.default_rng(3)
    noisy = normalize_mass(GridFunction(grid, 0.5 + rng.uniform(0, 1, grid.n_interior)))
    assert defect_sup(system, noisy.values, PI24) > 0.1


def test_multiplier_at_zero_interaction():
    # without interaction the energy identity reduces to mu = e
    grid = build_grid(Interval(-1.0, 1.0), 256)
    rng = np.random.default_rng(4)
    init = GridFunction(grid, rng.uniform(0.2, 1.0, grid.n_interior))
    res = gradient_flow_minimize(init, GNParams(1, 0.5, a=0.0), None, FlowConfig())
    assert res.mu == res.energy


def test_multiplier_formula_vs_fit(gs105):
    # the energy identity's multiplier is the W-weighted least-squares fit
    # of the defect's mu-free part, to rounding
    grid = build_grid(Interval(-8.0, 8.0), 1024)
    spec = PotentialSpec(p0=2.0)
    params = gs105.params.with_a(0.5 * gs105.a_star)
    init = normalize_mass(
        GridFunction(grid, np.exp(-np.abs(grid.interior_nodes) ** 2))
    )
    res = gradient_flow_minimize(init, params, spec, FlowConfig())
    system = _System(grid, params, spec)
    u = res.u.values
    d = system.defect(u, apply_stiffness(grid, u), 0.0)
    mu_ls = _dot(system.W * d, u) / _dot(system.W * u, u)
    assert res.mu == pytest.approx(mu_ls, rel=1e-12, abs=0.0)
    assert res.residual < 1e-6


def test_result_scalars_match_public_functions(gs105):
    # the flow's result, the public functions and an independent evaluation
    # of the energy identity agree
    grid = build_grid(Interval(-8.0, 8.0), 1024)
    spec = PotentialSpec(p0=2.0)
    params = gs105.params.with_a(0.5 * gs105.a_star)
    init = normalize_mass(GridFunction(grid, np.exp(-(grid.interior_nodes**2))))
    res = gradient_flow_minimize(init, params, spec, FlowConfig())
    assert res.converged
    eb = evaluate_energy(res.u, params, spec)
    assert res.energy == pytest.approx(eb.total, rel=1e-14, abs=0.0)
    assert res.breakdown.kinetic == pytest.approx(dirichlet_form(res.u), rel=1e-14, abs=0.0)
    bs = params.beta_sq
    nodal = res.u.with_values(np.abs(res.u.values) ** params.nonlinear_power).full()
    nl = hat_masses(grid, -params.b) @ nodal
    assert res.mu == pytest.approx(res.energy - params.a * bs / (1.0 + bs) * nl, rel=1e-12, abs=0.0)
    system = _System(grid, params, spec)
    assert res.residual == defect_sup(system, res.u.values, res.mu)
    assert res.tangent_negatives == _tangent_negative_count(system, res.u.values, res.mu) == 0


def _endpoint_case(gs, kind):
    """A start at 0.9 a* that Newton finishes (the limit profile) or that
    stays on the flow (a cold start, which Newton abandons)."""
    grid = build_grid(Interval(-8.0, 8.0), 512)
    spec = PotentialSpec(p0=2.0)
    a = 0.9 * gs.a_star
    if kind == "newton":
        init = limit_profile_start(gs, grid, predicted_eps(gs.a_star - a, gs, compute_lambda(spec, gs)))
    else:
        init = GridFunction(grid, np.random.default_rng(17).uniform(0.2, 1.0, grid.n_interior))
    return init, gs.params.with_a(a), spec


@pytest.mark.parametrize("kind", ["newton", "flow"])
def test_residual_sits_at_fitted_multiplier(gs105, kind):
    # the reported residual is the sup of the defect at the reported mu,
    # the energy identity's multiplier, which is also the defect's
    # W-weighted least-squares multiplier: the defect it leaves is
    # W-orthogonal to u, to within the rounding of the sums that form it
    init, params, spec = _endpoint_case(gs105, kind)
    res = gradient_flow_minimize(init, params, spec)
    assert res.converged and (res.iterations == 0) == (kind == "newton")
    system = _System(init.grid, params, spec)
    u = res.u.values
    ku = apply_stiffness(init.grid, u)
    d, r = system.defect(u, ku, 0.0), system.defect(u, ku, res.mu)
    assert res.residual == float(np.max(np.abs(r)))
    assert abs(_dot(system.W * r, u)) <= 2.0 * u.size * _EPS * float(np.sum(np.abs(system.W * d * u)))


# ----------------------------------------------------------------------
# trial functions
# ----------------------------------------------------------------------

def test_trial_normalization(gs105):
    grid = build_grid(Interval(-4.0, 4.0), 2048)
    tr = make_trial_function(gs105, grid, 20.0, R=1.0)
    mass_raw, _, _ = _trial_radial_integrals(gs105, 20.0, 1.0)
    assert abs(mass_raw - 1.0) < 1e-6  # the cutoff's continuum mass deficit
    assert mass(tr) == pytest.approx(1.0, abs=1e-12)


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
    with pytest.raises(ValueError, match="reaches the boundary"):
        make_trial_function(gs105, grid, 10.0, R=0.6)


def test_trial_refuses_nonpositive_cutoff(gs105):
    grid = build_grid(Interval(-1.0, 1.0), 256)
    with pytest.raises(ValueError, match="cutoff radius R must be positive"):
        make_trial_function(gs105, grid, 10.0, R=-0.5)
    with pytest.raises(ValueError, match="cutoff radius R must be positive"):
        trial_quotient(gs105, 10.0, -0.5)
    with pytest.raises(ValueError, match="tau must be positive"):
        trial_quotient(gs105, -10.0, 0.5)


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
    init = normalize_mass(GridFunction(grid, np.exp(-(grid.interior_nodes**2))))
    res = gradient_flow_minimize(init, gs105.params.with_a(a), spec, FlowConfig())
    bound = lemma_energy_bound(gs105.a_star - a, gs105, lam)
    assert 0.0 <= res.energy <= bound * 1.01


def test_flow_energy_monotone_trace():
    # the partial results after k accepted steps trace the flow's energy
    grid = build_grid(Interval(-1.0, 1.0), 512)
    rng = np.random.default_rng(3)
    init = GridFunction(grid, rng.uniform(0.2, 1.0, grid.n_interior))
    params = GNParams(1, 0.5, a=0.0)
    n_steps = gradient_flow_minimize(init, params, None, FlowConfig(max_iters=20000)).iterations
    trace = []
    for k in range(1, n_steps):
        with pytest.raises(NotConverged) as exc_info:
            gradient_flow_minimize(init, params, None, FlowConfig(max_iters=k))
        trace.append(exc_info.value.partial.energy)
    trace = np.array(trace)
    slack = 1e-9 * (1.0 + np.abs(trace[:-1]))
    assert np.all(np.diff(trace) <= slack)


@pytest.mark.parametrize("resolution", [512, 2048])
def test_flow_above_threshold_stops_on_grid(gs105, resolution):
    # no minimizer exists above a*: the flow concentrates until the grid
    # stops it, at a spike narrower than two cells with negative energy,
    # and the endpoint is refused with the spike as the partial result
    grid = build_grid(Interval(-4.0, 4.0), resolution)
    init = make_trial_function(gs105, grid, 10.0, R=1.0)
    with pytest.raises(NotConverged, match="refine the grid") as exc_info:
        gradient_flow_minimize(init, gs105.params.with_a(1.1 * gs105.a_star), None, FlowConfig())
    res = exc_info.value.partial
    assert res.converged
    assert res.eps < 2.0 * grid.h
    assert res.energy < 0.0


def test_narrow_start_below_threshold_is_refused(gs105):
    # below a*, a start of width 2h (floored positive, as the limit-profile
    # start is) leads Newton to a saddle (tangent count 1) and the flow into
    # the lumped interaction's grid-scale spike, a local minimizer (count 0)
    # with negative energy; neither endpoint is returned
    grid = build_grid(Interval(-8.0, 8.0), 512)
    x = grid.interior_nodes
    init = normalize_mass(GridFunction(grid, np.maximum(np.exp(-((x / (2.0 * grid.h)) ** 2)), 1e-30)))
    params = gs105.params.with_a(0.9 * gs105.a_star)
    spec = PotentialSpec(p0=2.0)
    with pytest.raises(NotConverged) as exc_info:
        gradient_flow_minimize(init, params, spec, FlowConfig())
    message = str(exc_info.value)
    assert "eps = " in message and "h = " in message and "refine the grid" in message
    res = exc_info.value.partial
    assert res.converged and res.tangent_negatives == 0
    assert res.eps / grid.h < 2.0
    assert res.energy < 0.0
    # restarted at the spike, Newton ends in one step at tangent count 0; the
    # energy test refuses that endpoint as well as the flow's
    with pytest.raises(NotConverged) as exc_info:
        gradient_flow_minimize(res.u, params, spec, FlowConfig())
    assert exc_info.value.partial.newton_steps == 1 and exc_info.value.partial.energy < 0.0


def test_flow_not_converged_carries_partial():
    grid = build_grid(Interval(-1.0, 1.0), 256)
    rng = np.random.default_rng(5)
    init = GridFunction(grid, rng.uniform(0.2, 1.0, grid.n_interior))
    with pytest.raises(NotConverged) as exc_info:
        gradient_flow_minimize(init, GNParams(1, 0.5, a=0.0), None, FlowConfig(max_iters=5))
    partial = exc_info.value.partial
    assert partial is not None and not partial.converged and partial.iterations == 5


def _recorded_time_steps(monkeypatch):
    """The time steps the flow factors its matrix at, in order."""
    import critlab.variational as V

    dts = []
    factor = V._System.factor
    monkeypatch.setattr(V._System, "factor", lambda self, dt: dts.append(dt) or factor(self, dt))
    return dts


def test_flow_halves_dt_on_energy_rise(monkeypatch):
    # the implicit quadratic part and the explicit concave interaction keep
    # the energy from rising on these problems, so a negative slack stands in
    # for a rise: a step that lowers the energy by less than 1e-3 (1 + |E|)
    # is retried at half the time step, until dt reaches 2 dt_min, where it
    # is taken
    import critlab.variational as V

    monkeypatch.setattr(V, "_ENERGY_SLACK", -1e-3)
    dts = _recorded_time_steps(monkeypatch)
    grid = build_grid(Interval(-1.0, 1.0), 128)
    init = GridFunction(grid, np.random.default_rng(5).uniform(0.2, 1.0, grid.n_interior))
    with pytest.raises(NotConverged) as exc_info:
        flow_only(init, GNParams(1, 0.5, a=0.0), None, FlowConfig(max_iters=50))
    assert exc_info.value.partial.iterations == 50
    assert dts == [V._DT_START * 0.5**k for k in range(len(dts))]
    assert dts[-1] <= 2.0 * V._DT_MIN < dts[-2]


def test_flow_positivity_loss_at_dt_min_raises(gs105, monkeypatch):
    # a start of width 0.05 at 0.9 a* loses positivity on its first step at
    # dt = 1e-2; with that as the smallest time step the flow gives up
    import critlab.variational as V

    monkeypatch.setattr(V, "_DT_MIN", V._DT_START)
    dts = _recorded_time_steps(monkeypatch)
    solves = []
    solve = V._System.solve

    def counted(self, fact, rhs):
        solves.append(1)
        assert len(solves) <= 10, "the flow retried at its smallest time step"
        return solve(self, fact, rhs)

    monkeypatch.setattr(V._System, "solve", counted)
    grid = build_grid(Interval(-8.0, 8.0), 256)
    init = GridFunction(grid, np.maximum(np.exp(-((grid.interior_nodes / 0.05) ** 2)), 1e-30))
    with pytest.raises(NonPositive, match="lost positivity at dt = 0.01"):
        flow_only(init, gs105.params.with_a(0.9 * gs105.a_star), None)
    assert dts == [V._DT_START] and len(solves) == 1


def test_flow_requires_positive_init():
    grid = build_grid(Interval(-1.0, 1.0), 128)
    vals = np.ones(grid.n_interior)
    vals[3] = -0.1
    with pytest.raises(ValueError):
        gradient_flow_minimize(GridFunction(grid, vals), GNParams(1, 0.5), None, FlowConfig())


def test_flow_refuses_negative_potential():
    grid = build_grid(Interval(-1.0, 1.0), 128)
    spec = PotentialSpec(p0=2.0, h_params=(-50.0,))
    with pytest.raises(ValueError, match="the flow needs V >= 0; the smallest sampled V is -48.4497"):
        gradient_flow_minimize(eigenfunction(grid), GNParams(1, 0.5), spec, FlowConfig())
    # at dt = 0.25, K + W/dt + W V is indefinite: the factorization reports it
    with pytest.raises(np.linalg.LinAlgError, match="dpttrf info"):
        _System(grid, GNParams(1, 0.5), spec).factor(0.25)


# ----------------------------------------------------------------------
# Newton and its certificate
# ----------------------------------------------------------------------

def test_cold_start_stays_on_flow(gs105):
    # Newton abandons a random start, and the flow runs from the original init
    grid = build_grid(Interval(-8.0, 8.0), 512)
    params = gs105.params.with_a(0.9 * gs105.a_star)
    spec = PotentialSpec(p0=2.0)
    rng = np.random.default_rng(17)
    for _ in range(3):
        init = GridFunction(grid, rng.uniform(0.2, 1.0, grid.n_interior))
        res = gradient_flow_minimize(init, params, spec, FlowConfig())
        ref = flow_only(init, params, spec)
        assert np.array_equal(res.u.values, ref.u.values)
        assert res.iterations == ref.iterations > 0


@pytest.mark.parametrize("a_mult", [0.5, 0.999])
def test_limit_profile_start_newton_matches_flow(gs105, a_mult):
    grid = build_grid(Interval(-8.0, 8.0), 4096)
    spec = PotentialSpec(p0=2.0)
    lam = compute_lambda(spec, gs105)
    a = a_mult * gs105.a_star
    params = gs105.params.with_a(a)
    init = limit_profile_start(gs105, grid, predicted_eps(gs105.a_star - a, gs105, lam))
    res = gradient_flow_minimize(init, params, spec, FlowConfig())
    ref = flow_only(init, params, spec)
    assert res.energy == pytest.approx(ref.energy, rel=1e-10, abs=0.0)
    assert res.residual <= ref.residual
    if res.iterations == 0:
        # Newton's endpoint: unit mass and a strict local minimizer
        assert res.newton_steps > 0 and mass(res.u) == pytest.approx(1.0, abs=1e-12)
        assert _tangent_negative_count(_System(grid, params, spec), res.u.values, res.mu) == 0
    else:
        # the first full step raised the defect: the flow's own endpoint
        assert np.array_equal(res.u.values, ref.u.values)


def _reference_tangent_count(sys_, u, mu):
    """The tangent count as a Python LDL^T recurrence, before it moved to
    LAPACK, verbatim."""
    d = sys_.second_variation(u, mu)
    zero_pivot = -_EPS * float(np.max(np.abs(d)))  # counted negative, as in a Sturm count
    diag, rhs = iter(d.tolist()), iter((sys_.W * u).tolist())
    piv, y = next(diag) or zero_pivot, next(rhs)
    s, neg = y * y / piv, int(piv < 0.0)
    for a, e, b in zip(diag, sys_.K_off.tolist(), rhs):
        l = e / piv
        piv = a - l * e
        if piv <= 0.0:
            if not piv:
                piv = zero_pivot
            neg += 1
        y = b - l * y
        s += y * y / piv
    return neg + (s > 0.0) - 1


def _tridiagonal_system(diag, off):
    """What the tangent count reads of a system, for J = tridiag(off, diag, off) and W = 1."""
    diag = np.asarray(diag, dtype=float)
    return types.SimpleNamespace(second_variation=lambda u, mu: diag - mu,
                                 K_off=np.asarray(off, dtype=float), W=np.ones(diag.size))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_tangent_count_of_dirichlet_modes(k):
    # at a = 0 the k-th discrete mode of -u'' on (-1, 1) with its eigenvalue
    # as multiplier is a critical point with k - 1 descent directions
    # tangent to the unit-mass sphere (J itself is singular there)
    grid = build_grid(Interval(-1.0, 1.0), 512)
    system = _System(grid, GNParams(1, 0.5, a=0.0), None)
    v = np.sin(k * np.pi * (grid.interior_nodes + 1.0) / 2.0)
    u = v / math.sqrt(system.mass(v))
    lam = 2.0 * (1.0 - math.cos(k * math.pi * grid.h / 2.0)) / grid.h**2
    assert defect_sup(system, u, lam) < 1e-9
    assert _tangent_negative_count(system, u, lam) == _reference_tangent_count(system, u, lam) == k - 1


def test_tangent_count_matches_reference_on_sweep(gs105_hi, monkeypatch):
    # the sweep workload's schedule at 16384 nodes: both recurrences certify
    # every Newton endpoint
    import critlab.variational as V

    grid = build_grid(Interval(-8.0, 8.0), 16384)
    spec = PotentialSpec(p0=2.0)
    lam = compute_lambda(spec, gs105_hi)
    a_star = gs105_hi.a_star
    schedule = sorted(set(default_gap_schedule(a_star) + [a_star * (1.0 - 1e-3)]))
    counts = []

    def both(sys_, u, mu):
        counts.append((_tangent_negative_count(sys_, u, mu), _reference_tangent_count(sys_, u, mu)))
        return counts[-1][0]

    monkeypatch.setattr(V, "_tangent_negative_count", both)
    sw = run_sweep(schedule, gs105_hi, spec, grid, lam)
    assert [r.iterations for r in sw.records] == [0] * len(schedule)
    assert counts == [(0, 0)] * len(schedule)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 40).flatmap(lambda n: st.tuples(
    st.lists(st.floats(0.1, 4.0), min_size=n, max_size=n),
    st.lists(st.booleans(), min_size=n, max_size=n),
    st.lists(st.floats(-1.0, 1.0), min_size=n - 1, max_size=n - 1),
    st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n),
)))
def test_tangent_count_matches_reference_on_random_tridiagonals(data):
    # J = L D L^T from pivots of either sign bounded away from 0 and
    # multipliers in [-1, 1]: a symmetric tridiagonal with a mixed-sign
    # diagonal whose count is decided unless u^T J^-1 u is at rounding level
    mags, negative, mult, u = map(np.array, data)
    piv = np.where(negative, -mags, mags)
    diag = piv + np.concatenate(([0.0], mult * mult * piv[:-1]))
    off = mult * piv[:-1]
    lam, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    terms = (vec.T @ u) ** 2 / lam
    assume(abs(terms.sum()) > 1e-6 * np.abs(terms).sum())
    system = _tridiagonal_system(diag, off)
    assert _tangent_negative_count(system, u, 0.0) == _reference_tangent_count(system, u, 0.0)


def test_tangent_count_zero_pivots():
    # J = [[0, -1], [-1, 5]] (+) [[1, -1, 0], [-1, 1, -1], [0, -1, 2]] has
    # exact zero pivots at its first and fourth rows.  Each is counted as a
    # rounding-level negative, which here is the inertia of J itself (both
    # blocks have determinant -1); u^T J^-1 u is then -1 and 10.  A zero
    # pivot left uncounted reads 2 - 1 = 1 for the second u as well.
    system = _tridiagonal_system([0.0, 5.0, 1.0, 1.0, 2.0], [-1.0, 0.0, -1.0, -1.0])
    for u, count in (([0.0, 1.0, 1.0, 0.0, 0.0], 1), ([1.0, -6.0, 1.0, -2.0, 2.0], 2)):
        u = np.array(u)
        assert _tangent_negative_count(system, u, 0.0) == _reference_tangent_count(system, u, 0.0) == count


def test_newton_stops_at_rounding_level(gs105):
    # tol = 0 is out of reach of any defect: Newton stops at the defect's
    # rounding level, and keeps that endpoint
    grid = build_grid(Interval(-8.0, 8.0), 1024)
    spec = PotentialSpec(p0=2.0)
    lam = compute_lambda(spec, gs105)
    params = gs105.params.with_a(0.5 * gs105.a_star)
    init = limit_profile_start(gs105, grid, predicted_eps(0.5 * gs105.a_star, gs105, lam))
    res = gradient_flow_minimize(init, params, spec, FlowConfig(tol=0.0, max_iters=100))
    assert res.iterations == 0 and res.newton_steps > 0
    assert res.residual < 1e-11


def test_newton_steps_do_not_depend_on_rounding(gs105_hi, monkeypatch):
    # the tightest point of the sweep workload (16384 nodes), where the
    # defect's rounding level (about 2e-9) lies above tol = 1e-9: a start
    # that differs only by rounding takes the same Newton steps
    import critlab.asymptotics as A

    grid = build_grid(Interval(-8.0, 8.0), 16384)
    spec = PotentialSpec(p0=2.0)
    lam = compute_lambda(spec, gs105_hi)
    a_star = gs105_hi.a_star
    schedule = sorted(set(default_gap_schedule(a_star) + [a_star * (1.0 - 1e-3)]))
    starts = []

    def recording(init, params, spec, cfg=FlowConfig()):
        starts.append((init, params))
        return gradient_flow_minimize(init, params, spec, cfg)

    monkeypatch.setattr(A, "gradient_flow_minimize", recording)
    assert not run_sweep(schedule, gs105_hi, spec, grid, lam).aborted
    init, params = starts[-1]
    runs = [gradient_flow_minimize(GridFunction(grid, init.values * f), params, spec)
            for f in (1.0, 1.0 + 4e-16)]
    assert [r.iterations for r in runs] == [0, 0]
    assert runs[0].newton_steps == runs[1].newton_steps


def test_uncertified_newton_endpoint_not_returned(gs105, monkeypatch):
    import critlab.variational as V

    grid = build_grid(Interval(-8.0, 8.0), 1024)
    spec = PotentialSpec(p0=2.0)
    lam = compute_lambda(spec, gs105)
    params = gs105.params.with_a(0.5 * gs105.a_star)
    init = limit_profile_start(gs105, grid, predicted_eps(0.5 * gs105.a_star, gs105, lam))
    assert gradient_flow_minimize(init, params, spec).iterations == 0
    # Newton's endpoint is counted first; the flow's keeps its own count
    counts = iter([1])
    real = V._tangent_negative_count
    monkeypatch.setattr(V, "_tangent_negative_count", lambda *args: next(counts, None) or real(*args))
    res = gradient_flow_minimize(init, params, spec)
    ref = flow_only(init, params, spec)
    assert res.newton_steps > 0 and res.iterations == ref.iterations > 0
    assert np.array_equal(res.u.values, ref.u.values)


@pytest.mark.parametrize("kind", ["newton", "flow"])
def test_stiffness_applied_once_per_iterate(gs105, kind, monkeypatch):
    # each iterate's K u is computed once and passed along to the defect,
    # the rounding floor, the energy and the multiplier
    import critlab.variational as V

    init, params, spec = _endpoint_case(gs105, kind)
    seen = []

    def recording(grid, u):
        seen.append(u.copy())
        return apply_stiffness(grid, u)

    monkeypatch.setattr(V, "apply_stiffness", recording)
    res = gradient_flow_minimize(init, params, spec)
    assert (res.iterations == 0) == (kind == "newton")
    assert [k for k in range(1, len(seen)) if np.array_equal(seen[k - 1], seen[k])] == []


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
    with pytest.raises(ValueError, match="nonempty"):
        nonexistence_probe(gs105.params.with_a(2.0 * gs105.a_star), gs105, grid, ())
    # a fit needs at least as many taus as columns: two without a potential, three with one
    assert fit_tau_square_coefficient([5.0, 10.0], [1.0, 4.0]) == pytest.approx(0.04)
    with pytest.raises(ValueError, match="3 fitted columns need as many taus in tau_list, got 2"):
        fit_tau_square_coefficient([5.0, 10.0], [1.0, 4.0], p=2.0)


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

