"""Acceptance suite: the thirteen desk-scale checks, one test per criterion,
and the strict-minimizer certificate of every sweep point.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  Heavy artifacts (threshold sweeps) are module-scoped
fixtures shared by the criteria that consume them.
"""
import math

import numpy as np
import pytest

from critlab import (
    Ball,
    FlowConfig,
    GNParams,
    GridFunction,
    Interval,
    PotentialSpec,
    build_grid,
    compute_lambda,
    default_gap_schedule,
    fit_scaling_laws,
    gn_quotient,
    gradient_flow_minimize,
    linearized_probe,
    multistart_uniqueness,
    nonexistence_probe,
    run_sweep,
    solve_ground_state,
    trial_quotient,
    verify_identities,
)
from critlab.variational import fit_tau_square_coefficient
from frozen_values import GROUND_STATES
from test_variational import random_h10


def report(name: str, ok: bool, detail: str = ""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}" + (f" [{detail}]" if detail else ""))
    assert ok, f"{name} failed: {detail}"


# ----------------------------------------------------------------------
# shared heavy artifacts
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def sweep_p2(gs105_hi):
    """Main threshold sweep: p = 2 harmonic well, 1e-3 gap point included."""
    spec = PotentialSpec(p0=2.0)
    lam = compute_lambda(spec, gs105_hi)
    grid = build_grid(Interval(-8.0, 8.0), 16384)
    sched = sorted(
        set(default_gap_schedule(gs105_hi.a_star, 0.1, 0.5, 8)
            + [gs105_hi.a_star * (1.0 - 1e-3)])
    )
    sw = run_sweep(sched, gs105_hi, spec, grid, lam, FlowConfig())
    assert not sw.aborted, sw.message
    return sw, lam


@pytest.fixture(scope="module")
def sweep_p4(gs105_hi):
    """Quartic-well sweep for the threshold-limit ratio (criterion 10)."""
    spec = PotentialSpec(p0=4.0)
    lam = compute_lambda(spec, gs105_hi)
    grid = build_grid(Interval(-8.0, 8.0), 4096)
    gaps = [0.1, 10 ** -1.5, 0.01, 10 ** -2.5, 1e-3]
    sched = sorted(gs105_hi.a_star * (1.0 - g) for g in gaps)
    sw = run_sweep(sched, gs105_hi, spec, grid, lam, FlowConfig(tol=1e-8))
    assert not sw.aborted, sw.message
    return sw


@pytest.fixture(scope="module")
def sweep_multizero(gs105_hi):
    """Two-zero potential |x|^2 |x - 3|^2 for criterion 13."""
    spec = PotentialSpec(p0=2.0, zeros=((3.0, 2.0),))
    lam = compute_lambda(spec, gs105_hi)
    grid = build_grid(Interval(-8.0, 8.0), 16384)
    sched = default_gap_schedule(gs105_hi.a_star, 0.1, 0.5, 8)
    sw = run_sweep(sched, gs105_hi, spec, grid, lam, FlowConfig())
    assert not sw.aborted, sw.message
    return sw, lam, spec


# ----------------------------------------------------------------------
# criteria
# ----------------------------------------------------------------------

def test_c01_groundstate_identities():
    lines = []
    ok = True
    for (N, b) in [(1, 0.5), (2, 0.5), (3, 1.0)]:
        residuals = []
        for res in (1024, 2048, 4096):
            gs = solve_ground_state(GNParams(N, b), resolution=res)
            rep = verify_identities(gs)
            residuals.append(max(rep.grad_residual, rep.nonlinear_residual))
        order = math.log2(residuals[0] / residuals[1])
        ok &= residuals[-1] < 1e-6 and order > 3.0 and residuals[1] > residuals[2]
        lines.append(f"({N},{b}): res4096={residuals[-1]:.2e} order={order:.2f}")
    report("1 identity chain", ok, "; ".join(lines))


def test_c02_threshold_constant(gs105):
    frozen = GROUND_STATES[(1, 0.5)]["a_star"]
    rel = abs(gs105.a_star - frozen) / frozen
    report("2 threshold vs oracle", rel < 5e-6, f"rel dev {rel:.2e} (5 significant digits)")


def test_c03_gn_bound(gs105_hi, gs205):
    rng = np.random.default_rng(20260810)
    ok = True
    details = []
    for gs, grid in [
        (gs105_hi, build_grid(Interval(-1.0, 1.0), 2048)),
        (gs205, build_grid(Ball(2, 4.0), 2048)),
    ]:
        bound = gs.a_star / (1.0 + gs.params.beta_sq)
        ratios = [gn_quotient(random_h10(grid, rng), gs.params) / bound for _ in range(1000)]
        ok &= min(ratios) >= 1.0 - 1e-6
        details.append(f"min ratio {min(ratios):.6f}")
    bound = gs105_hi.a_star / (1.0 + gs105_hi.params.beta_sq)
    deficits = [trial_quotient(gs105_hi, tau, 0.15) / bound - 1.0 for tau in (5.0, 10.0, 20.0, 40.0)]
    ok &= all(d > 0.0 for d in deficits)
    ok &= all(d2 < d1 for d1, d2 in zip(deficits, deficits[1:]))
    ok &= deficits[-1] < 1e-3
    details.append("deficits " + ",".join(f"{d:.1e}" for d in deficits))
    report("3 quotient bound + saturation", ok, "; ".join(details))


def test_c04_baseline_eigenvalue():
    grid = build_grid(Interval(-1.0, 1.0), 1024)
    rng = np.random.default_rng(4)
    init = GridFunction(grid, rng.uniform(0.2, 1.0, grid.n_interior))
    res = gradient_flow_minimize(init, GNParams(1, 0.5, a=0.0), None, FlowConfig())
    err = abs(res.energy - math.pi**2 / 4.0)
    ok = err < 1e-3 and res.tangent_negatives == 0
    report("4 baseline eigenvalue", ok, f"error {err:.2e} at resolution 1024, "
           f"{res.tangent_negatives} tangent negatives")


def test_c05_energy_scaling(gs105_hi, sweep_p2):
    sw, lam = sweep_p2
    fit = fit_scaling_laws(sw.records, gs105_hi, lam)
    f = fit.energy
    ok = abs(f.exponent - 0.5) <= 0.025 and f.prefactor_ok
    report(
        "5 energy scaling",
        ok,
        f"exponent {f.exponent:.4f} (0.5 +- 0.025), prefactor {f.prefactor:.5g} vs "
        f"{f.predicted_prefactor:.5g} (10%)",
    )


def test_c06_blowup_rate(gs105_hi, sweep_p2):
    sw, lam = sweep_p2
    fit = fit_scaling_laws(sw.records, gs105_hi, lam)
    f = fit.eps
    ok = abs(f.exponent - 0.25) <= 0.0125 and f.prefactor_ok
    report(
        "6 blow-up rate",
        ok,
        f"exponent {f.exponent:.4f} (0.25 +- 0.0125), prefactor {f.prefactor:.5g} vs "
        f"{f.predicted_prefactor:.5g} (10%)",
    )


def test_c07_multiplier_limit(gs105_hi, sweep_p2):
    sw, _ = sweep_p2
    tight = sw.records[-1]
    bs = gs105_hi.params.beta_sq
    dev = abs(tight.mu * tight.eps**2 + bs) / bs
    report("7 multiplier limit", dev < 0.05, f"mu*eps^2 = {tight.mu * tight.eps**2:.5f}, dev {dev:.3%}")


def test_c08_profile_convergence(sweep_p2):
    sw, _ = sweep_p2
    errs = [r.profile_err_sup for r in sw.records]
    tail = errs[-4:]
    ok = errs[-1] < 0.05 and all(e2 < e1 for e1, e2 in zip(tail, tail[1:]))
    report(
        "8 profile convergence",
        ok,
        f"sup error at tightest {errs[-1]:.4f}, last four {['%.4f' % e for e in tail]}",
    )


def test_c09_nonexistence(gs105_hi):
    a = 1.2 * gs105_hi.a_star
    grid = build_grid(Interval(-2.0, 2.0), 8192)
    table = nonexistence_probe(
        gs105_hi.params.with_a(a), gs105_hi, grid, (5.0, 10.0, 20.0, 40.0), spec=None, R=0.5
    )
    energies = [e for _, e in table]
    decreasing = all(e2 < e1 for e1, e2 in zip(energies, energies[1:]))
    negative = all(e < 0.0 for e in energies[1:])
    c2 = fit_tau_square_coefficient([t for t, _ in table], energies)
    pred = (1.0 - a / gs105_hi.a_star) / gs105_hi.params.beta_sq
    ok = decreasing and negative and abs(c2 - pred) <= 0.05 * abs(pred)
    report(
        "9 nonexistence",
        ok,
        f"E = {['%.1f' % e for e in energies]}, tau^2 coeff {c2:.5g} vs {pred:.5g}",
    )


def test_c10_threshold_limit(gs105_hi, sweep_p4):
    recs = sweep_p4.records
    wide = min(recs, key=lambda r: abs(r.gap - 0.1 * gs105_hi.a_star))
    tight = min(recs, key=lambda r: abs(r.gap - 1e-3 * gs105_hi.a_star))
    ratio = tight.energy / wide.energy
    report("10 threshold limit", ratio < 0.10, f"e ratio {ratio:.4f} (quartic well)")


def test_c11_uniqueness(gs105_hi, monkeypatch):
    import critlab.variational as V

    grid = build_grid(Interval(-8.0, 8.0), 2048)
    spec = PotentialSpec(p0=2.0)
    params = gs105_hi.params.with_a(0.99 * gs105_hi.a_star)
    endpoints = []

    def recording(*args):
        endpoints.append(gradient_flow_minimize(*args))
        return endpoints[-1]

    monkeypatch.setattr(V, "gradient_flow_minimize", recording)
    rep = multistart_uniqueness(params, spec, grid, 10, 20260810, FlowConfig())
    negatives = [r.tangent_negatives for r in endpoints]
    ok = (
        rep.n_converged == 10
        and rep.max_l2_distance < 1e-4
        and rep.energy_spread_rel < 1e-8
        and negatives == [0] * 10
    )
    report(
        "11 uniqueness",
        ok,
        f"max L2 {rep.max_l2_distance:.2e}, energy spread {rep.energy_spread_rel:.2e}, "
        f"tangent negatives {negatives}",
    )


def test_c12_linearized_identity(gs31_hi):
    pr = linearized_probe(gs31_hi)
    ok = pr.identity_residual < 1e-4 and pr.eigenvalue < 0.0
    report(
        "12 linearized identity",
        ok,
        f"residual {pr.identity_residual:.2e}, smallest eigenvalue {pr.eigenvalue:.4f}",
    )


def test_c13_multizero(gs105_hi, sweep_multizero):
    sw, lam, spec = sweep_multizero
    # hand-evaluated limit factor (h = 1, zero at 3 with exponent 2) times
    # the oracle moment
    expected = (0.5 * 2.0 * GROUND_STATES[(1, 0.5)]["moments"][2.0] * 9.0) ** 0.25
    lam_dev = abs(lam.value - expected) / expected
    fit = fit_scaling_laws(sw.records, gs105_hi, lam)
    ok = lam_dev < 1e-8 and abs(fit.energy.exponent - 0.5) <= 0.05
    report(
        "13 multi-zero potential",
        ok,
        f"lambda dev {lam_dev:.2e}, exponent {fit.energy.exponent:.4f} (0.5 +- 0.05)",
    )


def test_sweep_minimizers_are_strict(sweep_p2, sweep_p4, sweep_multizero):
    # every point of the three acceptance sweeps is a local minimizer on the
    # unit-mass sphere (no tangent descent direction) whose energy the grid
    # resolves: above the P1 error h^2 / eps^4, which refuses the lumped
    # grid-scale spike
    sweeps = {"p = 2": sweep_p2[0], "p = 4": sweep_p4, "two zeros": sweep_multizero[0]}
    counts = {name: [r.tangent_negatives for r in sw.records] for name, sw in sweeps.items()}
    ratios = {name: min(r.energy / (r.h**2 / r.eps**4) for r in sw.records) for name, sw in sweeps.items()}
    ok = all(c and c == [0] * len(c) for c in counts.values()) and min(ratios.values()) > 1.0
    smallest = {name: round(float(v), 1) for name, v in ratios.items()}
    report("strict local minimizers", ok, f"tangent negatives {counts}, smallest e / (h^2/eps^4) {smallest}")
