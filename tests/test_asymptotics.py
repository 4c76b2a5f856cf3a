import math
from dataclasses import replace

import numpy as np
import pytest

from critlab import (
    Ball,
    FlowConfig,
    GNParams,
    GridFunction,
    Interval,
    MassViolation,
    MinimizerResult,
    PotentialSpec,
    SweepRecord,
    build_grid,
    check_limits,
    compute_lambda,
    default_gap_schedule,
    fit_scaling_laws,
    gradient_flow_minimize,
    lemma_energy_bound,
    predicted_eps,
    rescale_minimizer,
    run_sweep,
    solve_ground_state,
)
from critlab.asymptotics import limit_profile, limit_profile_start
from critlab.variational import EnergyBreakdown, _System, _flow
from frozen_values import GROUND_STATES


@pytest.fixture(scope="module")
def mini_sweep(gs105):
    spec = PotentialSpec(p0=2.0)
    lam = compute_lambda(spec, gs105)
    grid = build_grid(Interval(-8.0, 8.0), 2048)
    sched = default_gap_schedule(gs105.a_star, 0.2, 0.5, 5)
    sw = run_sweep(sched, gs105, spec, grid, lam, FlowConfig(tol=1e-9))
    return sw, lam


def test_sweep_aborts_on_unresolved_negative_energy(gs205):
    # h = 8 / 2048 cannot resolve the tightest default gap in 2-D: the flow
    # converges to energy -7.8e4, which is impossible below a* with V >= 0
    spec = PotentialSpec(p0=2.0)
    lam = compute_lambda(spec, gs205)
    grid = build_grid(Ball(2, 8.0), 2048)
    sw = run_sweep(default_gap_schedule(gs205.a_star), gs205, spec, grid, lam)
    assert sw.aborted
    assert len(sw.records) == 7
    assert all(r.energy > 0.0 for r in sw.records)
    assert "energy" in sw.message and "h = " in sw.message


def test_two_zero_potential_first_point(gs105_hi):
    # first point of the |x|^2 |x - 3|^2 sweep: V dt >> 1 near |x| = 8 must
    # not force dt down, so the potential sits in the flow's matrix (an
    # explicit potential takes 25044 iterations here); Newton finishes the
    # sweep's solve, so the flow alone runs from the sweep's start
    spec = PotentialSpec(p0=2.0, zeros=((3.0, 2.0),))
    lam = compute_lambda(spec, gs105_hi)
    grid = build_grid(Interval(-8.0, 8.0), 2048)
    sched = default_gap_schedule(gs105_hi.a_star, 0.1, 0.5, 8)[:1]
    sw = run_sweep(sched, gs105_hi, spec, grid, lam, FlowConfig())
    assert not sw.aborted, sw.message
    (rec,) = sw.records
    assert rec.iterations == 0 and rec.newton_steps > 0
    assert rec.energy == pytest.approx(1.0955476348821644, rel=1e-12, abs=0.0)
    eps = predicted_eps(gs105_hi.a_star - sched[0], gs105_hi, lam)
    init = limit_profile_start(gs105_hi, grid, eps)
    system = _System(grid, gs105_hi.params.with_a(sched[0]), spec)
    res = _flow(system, init.values / math.sqrt(system.mass(init.values)), FlowConfig())
    assert res.iterations < 1000
    assert res.energy == pytest.approx(1.0955476348821644, rel=1e-12, abs=0.0)

def test_sweep_structure_and_trends(mini_sweep, gs105):
    sw, lam = mini_sweep
    assert not sw.aborted
    assert len(sw.records) == 5
    a_vals = [r.a for r in sw.records]
    assert a_vals == sorted(a_vals)
    assert all(r.gap > 0 for r in sw.records)
    energies = [r.energy for r in sw.records]
    epses = [r.eps for r in sw.records]
    assert all(e2 < e1 for e1, e2 in zip(energies, energies[1:]))
    assert all(e2 < e1 for e1, e2 in zip(epses, epses[1:]))
    errs = [r.profile_err_sup for r in sw.records]
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    # every endpoint the sweep keeps is a local minimizer the grid resolves
    assert all(r.tangent_negatives == 0 and r.energy > r.h**2 / r.eps**4 for r in sw.records)


def test_sweep_respects_lemma_bound(mini_sweep, gs105):
    sw, lam = mini_sweep
    rep = check_limits(sw.records, gs105, lam)
    assert rep.lemma_bound_ok
    assert rep.energy_decreasing and rep.eps_decreasing


def test_sweep_abort_returns_prefix(gs105):
    spec = PotentialSpec(p0=2.0)
    lam = compute_lambda(spec, gs105)
    grid = build_grid(Interval(-8.0, 8.0), 512)
    sched = default_gap_schedule(gs105.a_star, 0.2, 0.5, 3)
    # Newton takes 4 steps at the first point, so 3 leave it to the flow
    sw = run_sweep(sched, gs105, spec, grid, lam, FlowConfig(max_iters=3))
    assert sw.aborted
    assert len(sw.records) == 0
    assert "3 iterations" in sw.message


def test_sweep_rejects_record_off_unit_mass(gs105, monkeypatch):
    import critlab.asymptotics as A

    flow = A.gradient_flow_minimize

    def off_mass_flow(*args, **kwargs):
        res = flow(*args, **kwargs)
        return replace(res, u=res.u.with_values(1.01 * res.u.values))

    monkeypatch.setattr(A, "gradient_flow_minimize", off_mass_flow)
    spec = PotentialSpec(p0=2.0)
    lam = compute_lambda(spec, gs105)
    grid = build_grid(Interval(-8.0, 8.0), 512)
    with pytest.raises(MassViolation, match="lost unit mass"):
        run_sweep(default_gap_schedule(gs105.a_star, 0.2, 0.5, 1), gs105, spec, grid, lam)


def test_sweep_validates_schedule(gs105):
    spec = PotentialSpec(p0=2.0)
    lam = compute_lambda(spec, gs105)
    grid = build_grid(Interval(-8.0, 8.0), 512)
    with pytest.raises(ValueError):
        run_sweep([1.0, 0.5], gs105, spec, grid, lam)
    with pytest.raises(ValueError):
        run_sweep([0.5, 2.0 * gs105.a_star], gs105, spec, grid, lam)


def test_rescale_synthetic_self_consistency(gs105):
    grid = build_grid(Interval(-8.0, 8.0), 2048)
    eps = 0.3
    N = gs105.params.N
    vals = eps ** (-N / 2.0) * limit_profile(gs105, grid.interior_nodes / eps)
    u = GridFunction(grid, vals)
    fake = MinimizerResult(
        u=u, energy=0.0, mu=0.0, eps=eps, iterations=0, converged=True, residual=0.0,
        breakdown=EnergyBreakdown(0, 0, 0, 0), newton_steps=0, tangent_negatives=0,
    )
    err_l2, err_sup = rescale_minimizer(fake, gs105)
    assert err_sup < 1e-12
    assert err_l2 < 1e-12


def test_records_solved_twice_compare_by_identity():
    # two solves of one input: equal arrays in distinct records, and each
    # record equals only itself and hashes
    def solve():
        gs = solve_ground_state(GNParams(1, 0.5), resolution=512)
        spec = PotentialSpec(p0=2.0)
        gap = 0.5 * gs.a_star
        grid = build_grid(Interval(-8.0, 8.0), 256)
        init = limit_profile_start(gs, grid, predicted_eps(gap, gs, compute_lambda(spec, gs)))
        res = gradient_flow_minimize(init, gs.params.with_a(gs.a_star - gap), spec)
        return gs, gs.profile, grid, res.u, res

    first, second = solve(), solve()
    for a, b in zip(first, second):
        assert a == a and a != b
        assert hash(a) == hash(a)
    assert np.array_equal(first[4].u.values, second[4].u.values)
    assert len(set(first + second)) == 10


def _synthetic_records(gs, lam, pref_e, pref_eps, n=7):
    gaps = 0.05 * gs.a_star * 0.5 ** np.arange(n)
    recs = []
    for g in gaps:
        recs.append(
            SweepRecord(
                a=gs.a_star - g,
                gap=g,
                energy=pref_e * g ** 0.5,
                eps=pref_eps * g ** 0.25,
                mu=-gs.params.beta_sq / (pref_eps * g ** 0.25) ** 2,
                profile_err_l2=g,
                profile_err_sup=g,
                iterations=1,
                newton_steps=0,
                tangent_negatives=0,
                h=0.0,
            )
        )
    return recs


def test_fit_recovers_synthetic_power_law(gs105):
    lam = compute_lambda(PotentialSpec(p0=2.0), gs105)
    pref_e = lemma_energy_bound(1.0, gs105, lam) * 1.02
    pref_eps = predicted_eps(1.0, gs105, lam) * 0.98
    recs = _synthetic_records(gs105, lam, pref_e, pref_eps)
    fit = fit_scaling_laws(recs, gs105, lam, drop_widest=2)
    assert fit.energy.exponent == pytest.approx(0.5, abs=1e-10)
    assert fit.eps.exponent == pytest.approx(0.25, abs=1e-10)
    assert fit.energy.prefactor == pytest.approx(pref_e, rel=1e-10)
    assert fit.eps.prefactor == pytest.approx(pref_eps, rel=1e-10)
    assert fit.energy.exponent_ok and fit.energy.prefactor_ok
    assert fit.eps.exponent_ok and fit.eps.prefactor_ok
    assert fit.energy.predicted_exponent == pytest.approx(0.5)
    assert fit.eps.predicted_exponent == pytest.approx(0.25)


def test_predicted_exponent_for_linear_origin(gs105):
    from critlab import LambdaConstant

    lam1 = LambdaConstant(p=1.0, value=1.0, moment_value=1.0, limit_value=1.0)
    recs = _synthetic_records(gs105, lam1, 1.0, 1.0)
    recs = [replace(r, energy=r.gap ** (1.0 / 3.0), eps=r.gap ** (1.0 / 3.0)) for r in recs]
    fit = fit_scaling_laws(recs, gs105, lam1, drop_widest=2)
    assert fit.energy.predicted_exponent == pytest.approx(1.0 / 3.0)
    assert fit.eps.predicted_exponent == pytest.approx(1.0 / 3.0)


def test_fit_requires_span(gs105):
    lam = compute_lambda(PotentialSpec(p0=2.0), gs105)
    recs = _synthetic_records(gs105, lam, 1.0, 1.0, n=5)
    with pytest.raises(ValueError, match="need at least 5 records after dropping"):
        fit_scaling_laws(recs, gs105, lam, drop_widest=2)
    narrow = [replace(r, gap=0.01 * (1 + 0.01 * i)) for i, r in enumerate(recs)]
    with pytest.raises(ValueError, match="decades < 1 decade"):
        fit_scaling_laws(narrow, gs105, lam, drop_widest=0)


def test_check_limits_fields(gs105):
    lam = compute_lambda(PotentialSpec(p0=2.0), gs105)
    pref_e = lemma_energy_bound(1.0, gs105, lam)
    pref_eps = predicted_eps(1.0, gs105, lam)
    recs = _synthetic_records(gs105, lam, pref_e * 0.97, pref_eps, n=8)
    rep = check_limits(recs, gs105, lam)
    assert rep.mu_eps_ok and rep.mu_eps_sq == pytest.approx(-gs105.params.beta_sq)
    assert rep.lemma_bound_ok
    assert rep.energy_decreasing and rep.eps_decreasing
    # with h = 0 the allowance is the bound plus 0.25%: one record 2% over is refused
    over = recs[:3] + [replace(recs[3], energy=recs[3].energy * 1.02 / 0.97)] + recs[4:]
    rep = check_limits(over, gs105, lam)
    assert not rep.lemma_bound_ok
    margins = sorted(rep.lemma_bound_margins)
    assert margins[-1] == pytest.approx(1.02 / 1.0025, rel=1e-12) and margins[-2] < 1.0


def test_predicted_prefactors_closed_forms(gs105):
    frozen = GROUND_STATES[(1, 0.5)]
    lam = compute_lambda(PotentialSpec(p0=2.0), gs105)
    m = frozen["l2_sq"]
    astar = frozen["a_star"]
    lam_hand = frozen["moments"][2.0] ** 0.25
    pref_e_hand = 2.0 * lam_hand**2 * m ** -0.5 * (astar * 1.5) ** -0.5
    pref_eps_hand = (m * 1.5 / astar) ** 0.25 / lam_hand
    assert lemma_energy_bound(1.0, gs105, lam) == pytest.approx(pref_e_hand, rel=1e-6)
    assert predicted_eps(1.0, gs105, lam) == pytest.approx(pref_eps_hand, rel=1e-6)
    eps_pred = predicted_eps(1e-3, gs105, lam)
    assert eps_pred == pytest.approx(pref_eps_hand * 1e-3 ** 0.25, rel=1e-6)
