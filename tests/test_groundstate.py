import dataclasses
import math

import numpy as np
import pytest

from critlab import (
    BracketFailure,
    GNParams,
    SingularStartup,
    TailUnresolved,
    linearized_probe,
    moment,
    solve_ground_state,
    verify_identities,
)
from critlab.groundstate import _classify, scaling_direction_residual
from frozen_values import GROUND_STATES


def test_critical_exponent_relation():
    p = GNParams(1, 0.5)
    assert p.beta_sq == 1.5
    assert p.nonlinear_power == 5.0
    assert GNParams(3, 1.0).beta_sq == pytest.approx(1.0 / 3.0)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        GNParams(1, 1.0)  # b must stay below min(2, N) = 1
    with pytest.raises(ValueError):
        GNParams(2, 0.0)
    with pytest.raises(ValueError):
        GNParams(0, 0.5)
    with pytest.raises(ValueError):
        GNParams(2, 0.5, a=-1.0)


def test_solution_matches_oracle(gs105):
    frozen = GROUND_STATES[(1, 0.5)]
    assert gs105.q(1e-4) == pytest.approx(frozen["q_at_1e-4"], rel=1e-7)
    assert gs105.l2_sq == pytest.approx(frozen["l2_sq"], rel=1e-7)
    assert gs105.a_star == pytest.approx(frozen["a_star"], rel=1e-7)
    assert gs105.grad_sq == pytest.approx(frozen["grad_sq"], rel=1e-7)


def test_identity_ratio_three_dims(gs31):
    # grad/l2 = 1/beta^2 = N/(2-b) = 3 for (N, b) = (3, 1)
    assert gs31.grad_sq / gs31.l2_sq == pytest.approx(3.0, rel=1e-7)


def test_identities_pass_and_detect_scaling(gs105):
    rep = verify_identities(gs105, tol=1e-6)
    assert rep.passed
    assert rep.grad_residual < 1e-6 and rep.nonlinear_residual < 1e-6
    # scaling the profile by 1.01 breaks the inhomogeneous identity:
    # the interaction integral scales with a different power
    c = 1.01
    power = gs105.params.nonlinear_power
    broken = dataclasses.replace(
        gs105,
        l2_sq=gs105.l2_sq * c**2,
        grad_sq=gs105.grad_sq * c**2,
        nonlinear_int=gs105.nonlinear_int * c**power,
    )
    rep2 = verify_identities(broken, tol=1e-6)
    assert not rep2.passed
    assert rep2.nonlinear_residual > 0.02


def test_richardson_refinement_order():
    residuals = []
    for res in (1024, 2048, 4096):
        gs = solve_ground_state(GNParams(2, 0.5), resolution=res)
        rep = verify_identities(gs)
        residuals.append(max(rep.grad_residual, rep.nonlinear_residual))
    order = math.log2(residuals[0] / residuals[1])
    assert order > 3.0
    assert residuals[1] > residuals[2]


def test_profile_positive_decreasing_exponential(gs105):
    p = gs105.profile
    assert np.all(p.values > 0.0)
    beyond = p.nodes > 0.5
    assert np.all(np.diff(p.values[beyond]) < 0.0)
    # tail obeys |q| <= C exp(-r): the ratio q * e^r stays bounded
    sel = (p.nodes > 5.0) & (p.nodes < 12.0)
    ratio = p.values[sel] * np.exp(p.nodes[sel])
    assert ratio.max() / ratio.min() < 3.0


def test_shooting_bracket_is_monotone(gs105):
    s_lo, s_hi = gs105.meta["bracket"]
    params = gs105.params
    h = gs105.meta["h"]
    g = 2.0 * params.beta_sq
    assert _classify(params.N, params.b, g, s_hi * 1.0001, 1e-4, h, 30.0) == "cross"
    assert _classify(params.N, params.b, g, s_lo * 0.9999, 1e-4, h, 30.0) in ("diverge", "end")


def test_moment_definition_and_oracle(gs105):
    assert moment(gs105, 0.0) == gs105.l2_sq
    frozen = GROUND_STATES[(1, 0.5)]["moments"][2.0]
    assert moment(gs105, 2.0) == pytest.approx(frozen, rel=1e-7)
    with pytest.raises(ValueError):
        moment(gs105, -1.0)


def test_moment_truncation_insensitive():
    a = solve_ground_state(GNParams(1, 0.5), resolution=4096, r_max=30.0)
    b = solve_ground_state(GNParams(1, 0.5), resolution=8192, r_max=60.0)
    # identical step; doubling the truncation radius moves the result only
    # at the solver-accuracy scale, far below any tolerance here
    assert abs(moment(a, 2.0) - moment(b, 2.0)) < 1e-8


def test_moment_tail_unresolved(gs105):
    with pytest.raises(TailUnresolved):
        moment(gs105, 40.0)


def test_singular_startup_detected():
    with pytest.raises(SingularStartup):
        solve_ground_state(GNParams(3, 1.95), resolution=1024, shoot_tol=1e-9, r_max=25.0)


def test_bracket_failure(monkeypatch):
    import critlab.groundstate as G

    monkeypatch.setattr(G, "_classify", lambda *args: "diverge")
    with pytest.raises(BracketFailure):
        solve_ground_state(GNParams(1, 0.5), resolution=256, shoot_tol=1e-9, r_max=25.0)


def test_serialization_round_trip(gs105, tmp_path):
    path = tmp_path / "gs.json"
    gs105.save(path)
    back = type(gs105).load(path)
    assert back.a_star == gs105.a_star
    assert back.l2_sq == gs105.l2_sq
    assert np.array_equal(back.profile.values, gs105.profile.values)
    assert back.params == gs105.params


def test_linearized_probe(gs31):
    pr = linearized_probe(gs31)
    assert pr.eigenvalue < 0.0
    assert pr.identity_residual < 1e-3
    doubled = dataclasses.replace(
        gs31,
        profile=dataclasses.replace(
            gs31.profile, values=2.0 * gs31.profile.values, derivs=2.0 * gs31.profile.derivs
        ),
    )
    assert scaling_direction_residual(doubled) > 0.1


def test_linearized_probe_converges_in_one_dimension():
    # in one dimension the fine startup cells give the stiffness large rows;
    # the Rayleigh quotient must not lose the digits the stopping test needs
    gs = solve_ground_state(GNParams(1, 0.25), resolution=4096)
    doc = gs.to_json_dict()
    del doc["meta"]  # a loaded document need not carry the solver's meta
    pr = linearized_probe(type(gs).from_json_dict(doc))
    assert pr.eigenvalue < 0.0
    assert pr.iterations <= 10
