import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from critlab import (
    BracketFailure,
    GNParams,
    IterationStall,
    SingularStartup,
    TailUnresolved,
    linearized_probe,
    moment,
    solve_ground_state,
    verify_identities,
)
from critlab.groundstate import (
    _GRADING_CAP,
    _GRADING_PER_H,
    GroundStateData,
    RadialProfile,
    _march,
    profile_integrals,
    startup_eval,
)
from frozen_values import GROUND_STATES

# the pairs of the benchmark's constants table
CONSTANT_PAIRS = [(1, 0.25), (1, 0.5), (1, 0.75), (2, 0.5), (2, 1.0), (2, 1.25),
                  (3, 0.5), (3, 1.0), (3, 1.25)]


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
    rep = verify_identities(gs105)
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
    rep2 = verify_identities(broken)
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


@pytest.mark.parametrize("N, b", CONSTANT_PAIRS + [(2, 1.5), (3, 1.75)])
def test_shooting_bracket_is_monotone(solved, N, b):
    gs = solved(N, b)
    s_lo, s_hi = gs.meta["bracket"]
    h = gs.profile.r_max / gs.meta["resolution"]
    g = 2.0 * gs.params.beta_sq
    r0 = gs.profile.nodes[0]

    def status(s):
        return _march(N, b, g, s, r0, h, 30.0)[0]

    assert status(s_hi) == status(s_hi * 1.0001) == "cross"
    assert status(s_lo) in ("diverge", "end")
    assert status(s_lo * 0.9999) in ("diverge", "end")
    assert s_hi - s_lo <= 1e-13 * s_hi
    assert gs.meta["marches"] <= 25


def test_marches_count_every_march(monkeypatch):
    import critlab.groundstate as G

    marches = {}

    def counting(*args):
        marches.setdefault(args[3], []).append(_march(*args))
        return marches[args[3]][-1]

    monkeypatch.setattr(G, "_march", counting)
    gs = solve_ground_state(GNParams(2, 1.0), resolution=1024)
    assert G._S_GUESS in marches  # the bracket search counts too
    assert gs.meta["marches"] == sum(len(runs) for runs in marches.values())
    # march work is the trajectory nodes of every recorded march
    sizes = [run[1].size for runs in marches.values() for run in runs]
    assert gs.meta["march_nodes"] == sum(sizes)
    assert all(run[1].size == run[2].size == run[3].size for runs in marches.values() for run in runs)
    # no amplitude is marched twice: the stored profile is the trajectory of
    # the last non-crossing march, up to the tail switch
    assert all(len(runs) == 1 for runs in marches.values())
    [(status, _, values, _)] = marches[gs.meta["bracket"][0]]
    k = int(np.searchsorted(gs.profile.nodes, gs.profile.tail_start))
    assert status != "cross"
    assert np.array_equal(gs.profile.values[: k + 1], values[: k + 1])


def _reference_march(N, b, g, s, r0, h, r_max):
    """The march as it was before its radius terms were shared, verbatim."""
    nm1 = N - 1.0
    q, dq = startup_eval(N, b, s, r0)
    q, dq = float(q), float(dq)
    r = r0
    grow = min(_GRADING_PER_H * h, _GRADING_CAP)

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
                break
            if dq > 0.0 and (r > 1.0 or q > s):
                status = "diverge"
                break
        rs[m], qs[m], dqs[m] = r, q, dq
        m += 1
        if status != "end":
            break

    return status, rs[:m], qs[:m], dqs[:m]


def _same_march(gs, s, r_max=30.0):
    """March gs's problem at amplitude s with both loops; assert they agree
    bit for bit and return the march."""
    N, b = gs.params.N, gs.params.b
    args = (N, b, 2.0 * gs.params.beta_sq, s, float(gs.profile.nodes[0]),
            gs.profile.r_max / gs.meta["resolution"], r_max)
    ref, run = _reference_march(*args), _march(*args)
    assert run[0] == ref[0]
    for new, old in zip(run[1:], ref[1:]):
        assert np.array_equal(new, old)
        assert new.dtype == old.dtype and new.tobytes() == old.tobytes()  # signed zeros too
    return run


@pytest.mark.parametrize("N, b", CONSTANT_PAIRS + [(3, 1.75)])
def test_march_is_bit_identical_to_reference(solved, N, b):
    gs = solved(N, b)
    s_lo, s_hi = gs.meta["bracket"]
    lo, hi = _same_march(gs, s_lo), _same_march(gs, s_hi)
    assert lo[0] != "cross" and hi[0] == "cross"
    # far below s* the march turns up early, far above it crosses early
    below, above = _same_march(gs, 0.5 * s_lo), _same_march(gs, 2.0 * s_hi)
    assert below[0] == "diverge" and below[1][-1] < lo[1][-1]
    assert above[0] == "cross" and above[1][-1] < hi[1][-1]
    # a march that ends at r_max on a clipped last step
    status, nodes, _, _ = _same_march(gs, s_lo, r_max=2.5)
    h = gs.profile.r_max / gs.meta["resolution"]
    assert status == "end" and nodes[-1] == 2.5 and nodes[-1] - nodes[-2] < h


@pytest.mark.parametrize("resolution", [512, 16384])
@pytest.mark.parametrize("N, b", [(1, 0.5), (3, 1.0)])
def test_march_is_bit_identical_across_resolutions(N, b, resolution):
    # coarse steps reach the split-step zone (q < 5% of s) sooner; fine ones
    # have long graded zones
    gs = solve_ground_state(GNParams(N, b), resolution=resolution)
    for s in gs.meta["bracket"]:
        _same_march(gs, s)


def test_secant_falls_back_to_bisection(monkeypatch):
    # a secant that only crawls cannot keep the bracket from closing
    import critlab.groundstate as G

    reference = solve_ground_state(GNParams(1, 0.5), resolution=1024)
    monkeypatch.setattr(G, "_secant_step", lambda N, b, g, older, newer: newer[0] * (1.0 + 3e-13))
    gs = solve_ground_state(GNParams(1, 0.5), resolution=1024)
    s_lo, s_hi = gs.meta["bracket"]
    assert s_hi - s_lo <= 1e-13 * s_hi
    assert G._SECANT_BUDGET < gs.meta["marches"] <= G._SECANT_BUDGET + 46
    # amplitudes inside one 1e-13 bracket move a* by a few 1e-12
    assert gs.a_star == pytest.approx(reference.a_star, rel=1e-10)


def test_straddle_outside_the_bracket_bisects():
    # at (2, 1.5)/512 a secant step lands within the bracket width 1e-13 of the crossing
    # end, so neither straddle amplitude lies inside the bracket: the solve
    # bisects instead and closes the bracket.  This grid is too coarse for
    # the identities at b = 1.5 (as are 256 and 1024; 2048 passes), so a*
    # is compared with the 2048 solve
    gs = solve_ground_state(GNParams(2, 1.5), resolution=512)
    ref = solve_ground_state(GNParams(2, 1.5), resolution=2048)
    assert verify_identities(gs).shoot_residual < 1e-13 and verify_identities(ref).passed
    assert gs.a_star == pytest.approx(ref.a_star, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("N, b", CONSTANT_PAIRS)
def test_unit_cutoff_integrals_are_the_constants(solved, N, b):
    gs = solved(N, b)

    def unit(r):
        return np.ones_like(r), np.zeros_like(r), np.zeros_like(r)

    integrals = profile_integrals(gs.params, gs.profile, cutoff=unit)
    assert integrals == (gs.l2_sq, gs.grad_sq, gs.nonlinear_int)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.floats(1e-6, 2.0),
    st.lists(st.floats(1e-6, 2.0), min_size=1, max_size=24),
    st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
    st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=20),
)
def test_profile_reproduces_cubic_data_between_nodes(r0, widths, coeffs, fractions):
    # q() between the first node and the tail is the cubic Hermite cell the
    # radial quadrature integrates, so cubic node data come back exactly
    nodes = r0 + np.concatenate(([0.0], np.cumsum(widths)))
    cubic = np.polynomial.Polynomial(coeffs)
    profile = RadialProfile(nodes=nodes, values=cubic(nodes), derivs=cubic.deriv()(nodes),
                            r_max=nodes[-1] + 1.0, startup_amplitude=1.0, tail_coeff=1.0,
                            tail_start=nodes[-1])
    gs = GroundStateData(GNParams(1, 0.5), profile, 1.0, 1.0, 1.0, 1.0)
    r = np.concatenate((nodes[:-1], nodes[0] + np.array(fractions) * (nodes[-1] - nodes[0])))
    scale = np.polynomial.Polynomial(np.abs(coeffs))(nodes[-1])
    assert np.max(np.abs(gs.q(r) - cubic(r))) <= 1e-13 * scale


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
    # near b = 2 the startup radius leaves double precision
    for N in (2, 3):
        with pytest.raises(SingularStartup, match=f"N={N}, b=1.98"):
            solve_ground_state(GNParams(N, 1.98), resolution=1024)
    # just inside that limit r0 is 2.5e-126 and the integrands overflow there
    with pytest.raises(SingularStartup, match="integrals overflow"):
        solve_ground_state(GNParams(3, 1.95), resolution=1024)
    # s* lies below the smallest amplitude the bracket search tries (1e-20);
    # searched further down, the integrals overflow as at (3, 1.95)
    with pytest.raises(BracketFailure, match=r"\[1e-20, 10000\]"):
        solve_ground_state(GNParams(2, 1.95), resolution=1024)


@pytest.mark.parametrize("N, b", [(3, 1.85), (3, 1.9), (4, 1.65)])
def test_large_b_tail_refused(N, b):
    # the linear tail drops r^-b q^g, which stops being small as g -> 0:
    # these profiles miss the mass identity by 1.8e-6 to 1.5e-4 at every h
    with pytest.raises(TailUnresolved, match=f"N={N}, b={b}"):
        solve_ground_state(GNParams(N, b), resolution=4096)


@pytest.mark.parametrize(
    "N, b, oracle",
    # (2, 1.75) and (2, 1.85) have s* = 8.5e-5 and 1.6e-10, below the
    # amplitudes the oracle brackets
    [(2, 1.5, True), (3, 1.5, True), (2, 1.75, False), (3, 1.75, True), (2, 1.85, False)],
)
def test_large_b_identities_and_oracle(N, b, oracle):
    gs = solve_ground_state(GNParams(N, b), resolution=4096)
    rep = verify_identities(gs)
    assert rep.passed
    assert max(rep.grad_residual, rep.nonlinear_residual) < 1e-6
    # at (2, 1.85) the search reaches s* = 1.6e-10 by widening its steps in
    # log amplitude, not by halving down to it
    assert gs.meta["marches"] <= 25
    if oracle:
        frozen = GROUND_STATES[(N, b)]
        assert gs.a_star == pytest.approx(frozen["a_star"], rel=1e-7)
        assert gs.l2_sq == pytest.approx(frozen["l2_sq"], rel=1e-7)


def test_bracket_failure(monkeypatch):
    import critlab.groundstate as G

    empty = np.empty(0)
    monkeypatch.setattr(G, "_march", lambda *args: ("diverge", empty, empty, empty))
    with pytest.raises(BracketFailure, match=r"over amplitudes \[1e-20, 10000\]"):
        solve_ground_state(GNParams(1, 0.5), resolution=256)


def _solve_on_fake_marches(monkeypatch, status, nodes, shape):
    """Solve (1, 0.5) on marches that cross above s = 0.7 and otherwise
    return ``status`` with s times ``shape``; with the secant disabled the
    bracket closes by bisection."""
    import critlab.groundstate as G

    dshape = np.gradient(shape, nodes)

    def march(N, b, g, s, r0, h, r_max):
        sign, name = (-1.0, "cross") if s > 0.7 else (1.0, status)
        return name, nodes, sign * s * shape, sign * s * dshape

    monkeypatch.setattr(G, "_march", march)
    monkeypatch.setattr(G, "_secant_step", lambda *args: math.nan)
    return solve_ground_state(GNParams(1, 0.5), resolution=256)


# a non-crossing march that never falls below the tail switch (3.2e-6 of
# s), has its minimum 1.4e-4 at r = 9.6 and turns up to r = 10
SLOW_NODES = np.linspace(0.01, 10.0, 1000)
SLOW_SHAPE = np.exp(-SLOW_NODES) + 1e-4 * np.exp(SLOW_NODES - 10.0)


@pytest.mark.parametrize(
    "status, k", [("diverge", int(np.argmin(SLOW_SHAPE))), ("end", SLOW_NODES.size - 1)]
)
def test_tail_switch_fallbacks(monkeypatch, status, k):
    # the tail starts at a diverging march's lowest node, else at its last
    gs = _solve_on_fake_marches(monkeypatch, status, SLOW_NODES, SLOW_SHAPE)
    s_lo, s_hi = gs.meta["bracket"]
    assert s_lo <= 0.7 < s_hi and gs.meta["tail_status"] == status
    assert gs.profile.tail_start == SLOW_NODES[k]
    np.testing.assert_array_equal(gs.profile.nodes[: k + 1], SLOW_NODES[: k + 1])
    assert abs(gs.profile.nodes[-1] - 30.0) <= 0.5 * 30.0 / 256  # the tail's uniform step
    tail = gs.profile.values[k + 1:]
    assert tail.size > 0 and np.all(np.diff(tail) < 0.0)


@pytest.mark.parametrize("N, b, resolution", [(1, 0.5, 512), (1, 0.5, 4096), (2, 1.0, 512)])
def test_profile_ends_at_r_max(N, b, resolution):
    # the tail extension ends exactly at r_max, on equal steps of at most h;
    # it used to end up to half a step off (30.0187 at (1, 0.5)/512)
    profile = solve_ground_state(GNParams(N, b), resolution=resolution).profile
    assert profile.nodes[-1] == profile.r_max
    k = int(np.searchsorted(profile.nodes, profile.tail_start))
    steps = np.diff(profile.nodes[k:])
    h = profile.r_max / resolution
    assert np.all(steps <= h * (1.0 + 1e-12)) and np.ptp(steps) <= 1e-12 * h


def test_profile_that_does_not_decay_is_refused(monkeypatch):
    nodes = np.linspace(0.01, 10.0, 1000)
    refused = r"did not decay below 5% of the amplitude before r=10; increase r_max$"
    with pytest.raises(BracketFailure, match=refused):
        _solve_on_fake_marches(monkeypatch, "end", nodes, np.exp(-0.1 * nodes))


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
    assert linearized_probe(doubled).identity_residual > 0.1


def test_linearized_probe_independent_of_startup_radius(monkeypatch):
    # the [0, r0] volume and singular weight are lumped onto the first node,
    # so moving r0 over two decades leaves the eigenvalue in place
    import critlab.groundstate as G

    eigenvalues = []
    for eta in (1e-5, 1e-8):
        monkeypatch.setattr(G, "_STARTUP_ETA", eta)
        gs = solve_ground_state(GNParams(1, 0.5), resolution=4096)
        eigenvalues.append(linearized_probe(gs).eigenvalue)
    assert eigenvalues[0] == pytest.approx(eigenvalues[1], rel=1e-4)


def test_linearized_probe_converges_in_one_dimension():
    # in one dimension the fine startup cells give the stiffness large rows;
    # the Rayleigh quotient must not lose the digits the stopping test needs
    gs = solve_ground_state(GNParams(1, 0.25), resolution=4096)
    pr = linearized_probe(dataclasses.replace(gs, meta={}))  # the probe needs no solver meta
    assert pr.eigenvalue < 0.0
    assert pr.iterations <= 10


def test_linearized_probe_retries_a_singular_shift(gs105, monkeypatch):
    # a shift that is an eigenvalue to rounding makes dgtsv report a zero
    # pivot: the iteration nudges the shift and solves again
    import critlab.groundstate as G
    from critlab.grids import dgtsv

    ref = linearized_probe(gs105)
    calls = []

    def singular_once(dl, d, du, b):
        calls.append(1)
        if len(calls) == 1:
            return dl, d, du, np.zeros_like(b), 1
        return dgtsv(dl, d, du, b)

    monkeypatch.setattr(G, "dgtsv", singular_once)
    pr = linearized_probe(gs105)
    assert pr.iterations == ref.iterations + 1 == len(calls)
    assert pr.eigenvalue == pytest.approx(ref.eigenvalue, rel=1e-9)


def test_linearized_probe_stall_raises(gs105, monkeypatch):
    import critlab.groundstate as G

    monkeypatch.setattr(G, "_PROBE_TOL", -1.0)  # no change of the quotient is small enough
    monkeypatch.setattr(G, "_PROBE_MAX_ITERS", 3)
    with pytest.raises(IterationStall, match="did not converge in 3 iterations"):
        linearized_probe(gs105)
