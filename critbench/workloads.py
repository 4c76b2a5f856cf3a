"""The three workloads: shared inputs (set-up) and one timed round each.

Every round calls critlab only through its public library API.  A round
returns plain data (lists, floats) for ``checks``; the untimed reference
computations the checks need are made by ``reference`` after the timed
phase.  One *solve* is the workload's unit of work: a sweep point, a
cold-start minimization, or a ground-state solve.
"""
from __future__ import annotations

import json
import math
import os
import time

import numpy as np

import critlab as cl
from critlab import archive

# sweep: the paper's threshold approach (blow-up analysis)
SWEEP_N, SWEEP_B = 1, 0.5
SWEEP_DOMAIN = (-8.0, 8.0)
SWEEP_RESOLUTION = 16384
SWEEP_EXTRA_GAP = 1e-3  # times a*, beyond the default 8-point schedule

# multistart: local uniqueness near the threshold
MULTI_A_MULT = 0.99
MULTI_RESOLUTION = 2048
MULTI_STARTS = 12

# constants: threshold-constant table; pairs with b >= 1.5 are left out
# (inaccurate or failing startup series, see CHANGES.md)
CONSTANT_PAIRS = (
    (1, 0.25), (1, 0.5), (1, 0.75),
    (2, 0.5), (2, 1.0), (2, 1.25),
    (3, 0.5), (3, 1.0), (3, 1.25),
)
CONSTANT_RESOLUTION = 4096
PROBE_PAIR, PROBE_RESOLUTION = (3, 1.0), 16384
GN_RANDOM = 250           # random H^1_0 functions per grid
GN_RESOLUTION = 2048
TRIAL_TAUS = (5.0, 10.0, 20.0, 40.0)
TRIAL_R = 0.15
NONEXIST_A_MULT = 1.2
NONEXIST_DOMAIN, NONEXIST_RESOLUTION, NONEXIST_R = (-2.0, 2.0), 8192, 0.5


class SolveClock:
    """Wall time of every call made through one module attribute.

    Installed at the name by which the calling module looks the function up,
    so one extra Python call per solve is the whole cost.  Keeps the results
    too, for the checks.
    """

    def __init__(self, module, name: str):
        self.times: list = []
        self.results: list = []
        inner = getattr(module, name)

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            out = inner(*args, **kwargs)
            self.times.append(time.perf_counter() - t0)
            self.results.append(out)
            return out

        setattr(module, name, timed)

    def take(self):
        times, results = self.times, self.results
        self.times, self.results = [], []
        return times, results


def random_h10(grid, rng, n_modes: int = 24):
    """Seeded smooth function vanishing on the boundary (decaying modes).

    The construction of ``critlab gn-check``'s random inputs, vectorized.
    """
    x = grid.interior_nodes
    dom = grid.domain
    amps = rng.standard_normal(n_modes) / (1.0 + np.arange(n_modes)) ** 2
    k = np.arange(n_modes)[:, None]
    if grid.is_ball:
        modes = np.cos((k + 0.5) * math.pi * x[None, :] / dom.radius)
    else:
        modes = np.sin((k + 1) * math.pi * (x[None, :] - dom.x_lo) / (dom.x_hi - dom.x_lo))
    return cl.GridFunction(grid, amps @ modes)


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

def setup_sweep(seed: int, n_cores: int) -> dict:
    gs = cl.solve_ground_state(cl.GNParams(SWEEP_N, SWEEP_B), resolution=SWEEP_RESOLUTION)
    spec = cl.PotentialSpec(p0=2.0)
    lam = cl.compute_lambda(spec, gs)
    grid = cl.build_grid(cl.Interval(*SWEEP_DOMAIN), SWEEP_RESOLUTION)
    schedule = sorted(set(cl.default_gap_schedule(gs.a_star)
                          + [gs.a_star * (1.0 - SWEEP_EXTRA_GAP)]))
    clock = SolveClock(cl.asymptotics, "gradient_flow_minimize")
    return {"gs": gs, "spec": spec, "lam": lam, "grid": grid, "schedule": schedule,
            "clock": clock}


def round_sweep(st: dict, out_dir: str) -> dict:
    gs, lam = st["gs"], st["lam"]
    sw = cl.run_sweep(st["schedule"], gs, st["spec"], st["grid"], lam)
    fit = cl.fit_scaling_laws(sw.records, gs, lam)
    cl.check_limits(sw.records, gs, lam)
    arch = archive.RunArchive()
    arch.add("sweep.csv", archive.sweep_csv(sw.records))
    arch.add_json("fit.json", archive.scaling_fit_json(fit))
    archive.write_outputs(arch, out_dir)
    times, _ = st["clock"].take()
    recs = sw.records
    return {
        "solve_s": times,
        "aborted": sw.aborted,
        "n_scheduled": len(st["schedule"]),
        "a": [float(r.a) for r in recs],
        "gap": [float(r.gap) for r in recs],
        "energy": [float(r.energy) for r in recs],
        "eps": [float(r.eps) for r in recs],
        "mu": [float(r.mu) for r in recs],
        "err_sup": [float(r.profile_err_sup) for r in recs],
        "iterations": [int(r.iterations) for r in recs],
        "archive_dir": out_dir,
    }


def reference_sweep(st: dict, res: dict) -> dict:
    gs, lam = st["gs"], st["lam"]
    return {
        "beta_sq": gs.params.beta_sq,
        "p": lam.p,
        "h": float(st["grid"].h),
        "lemma_bound": [float(cl.lemma_energy_bound(g, gs, lam)) for g in res["gap"]],
    }


# ----------------------------------------------------------------------
# multistart
# ----------------------------------------------------------------------

def setup_multistart(seed: int, n_cores: int) -> dict:
    gs = cl.solve_ground_state(cl.GNParams(SWEEP_N, SWEEP_B))
    spec = cl.PotentialSpec(p0=2.0)
    lam = cl.compute_lambda(spec, gs)
    grid = cl.build_grid(cl.Interval(*SWEEP_DOMAIN), MULTI_RESOLUTION)
    params = gs.params.with_a(MULTI_A_MULT * gs.a_star)
    clock = SolveClock(cl.variational, "gradient_flow_minimize")
    return {"gs": gs, "spec": spec, "lam": lam, "grid": grid, "params": params,
            "seed": seed, "n_workers": n_cores, "clock": clock, "round": 0}


def round_multistart(st: dict, out_dir: str) -> dict:
    # a fresh, seeded set of starts every round
    round_seed = st["seed"] * 1000 + st["round"]
    st["round"] += 1
    rep = cl.multistart_uniqueness(st["params"], st["spec"], st["grid"], MULTI_STARTS,
                                   round_seed, cl.FlowConfig(), n_workers=st["n_workers"])
    times, results = st["clock"].take()
    return {
        "solve_s": times,
        "n_starts": MULTI_STARTS,
        "n_converged": rep.n_converged,
        "failures": list(rep.failures),
        "converged": [bool(r.converged) for r in results],
        "endpoints": [r.u.values.copy() for r in results],
        "energy": [float(r.energy) for r in results],
        "iterations": [int(r.iterations) for r in results],
        "report_max_l2": float(rep.max_l2_distance),
        "h": float(st["grid"].h),
    }


def reference_multistart(st: dict, res: dict) -> dict:
    """One solve warm-started from the predicted limit profile."""
    gs, lam, grid, params = st["gs"], st["lam"], st["grid"], st["params"]
    gap = gs.a_star - params.a
    eps = cl.asymptotics.predicted_eps(gap, gs, lam)
    x = grid.interior_nodes
    vals = eps ** (-gs.params.N / 2.0) * cl.asymptotics.limit_profile(gs, x / eps)
    init = cl.GridFunction(grid, np.maximum(vals, 1e-300))
    ref = cl.gradient_flow_minimize(init, params, st["spec"], cl.FlowConfig())
    return {"energy": float(ref.energy), "converged": bool(ref.converged)}


# ----------------------------------------------------------------------
# constants
# ----------------------------------------------------------------------

def setup_constants(seed: int, n_cores: int) -> dict:
    rng = np.random.default_rng(seed)
    grid_1 = cl.build_grid(cl.Interval(-1.0, 1.0), GN_RESOLUTION)
    grid_b = cl.build_grid(cl.Ball(2, 4.0), GN_RESOLUTION)
    return {
        "gn_interval": [random_h10(grid_1, rng) for _ in range(GN_RANDOM)],
        "gn_ball": [random_h10(grid_b, rng) for _ in range(GN_RANDOM)],
        "nonexist_grid": cl.build_grid(cl.Interval(*NONEXIST_DOMAIN), NONEXIST_RESOLUTION),
        "spec": cl.PotentialSpec(p0=2.0),
    }


def round_constants(st: dict, out_dir: str) -> dict:
    times = []
    table = []
    solved = {}
    for N, b in CONSTANT_PAIRS:
        t0 = time.perf_counter()
        gs = cl.solve_ground_state(cl.GNParams(N, b), resolution=CONSTANT_RESOLUTION)
        times.append(time.perf_counter() - t0)
        ident = cl.verify_identities(gs)
        lam = cl.compute_lambda(st["spec"], gs)
        table.append({
            "N": N, "b": b, "beta_sq": gs.params.beta_sq, "a_star": gs.a_star,
            "l2_sq": gs.l2_sq, "grad_sq": gs.grad_sq, "nonlinear_int": gs.nonlinear_int,
            "moment_2": cl.moment(gs, 2.0), "moment_4": cl.moment(gs, 4.0),
            "lambda": lam.value, "identities_passed": ident.passed,
        })
        solved[(N, b)] = gs

    t0 = time.perf_counter()
    gs_hi = cl.solve_ground_state(cl.GNParams(*PROBE_PAIR), resolution=PROBE_RESOLUTION)
    times.append(time.perf_counter() - t0)
    probe = cl.linearized_probe(gs_hi)

    gs_1, gs_2 = solved[(1, 0.5)], solved[(2, 0.5)]
    gn_ratios = []
    for gs, fns in ((gs_1, st["gn_interval"]), (gs_2, st["gn_ball"])):
        bound = gs.a_star / (1.0 + gs.params.beta_sq)
        gn_ratios.append(min(cl.gn_quotient(u, gs.params) for u in fns) / bound)

    bound_1 = gs_1.a_star / (1.0 + gs_1.params.beta_sq)
    deficits = [cl.trial_quotient(gs_1, tau, TRIAL_R) / bound_1 - 1.0 for tau in TRIAL_TAUS]

    a = NONEXIST_A_MULT * gs_1.a_star
    nonexist = cl.nonexistence_probe(gs_1.params.with_a(a), gs_1, st["nonexist_grid"],
                                     TRIAL_TAUS, spec=None, R=NONEXIST_R)
    return {
        "solve_s": times,
        "table": table,
        "probe_eigenvalue": float(probe.eigenvalue),
        "probe_residual": float(probe.identity_residual),
        "gn_min_ratio": float(min(gn_ratios)),
        "trial_deficits": [float(d) for d in deficits],
        "nonexist_taus": [float(t) for t, _ in nonexist],
        "nonexist_energy": [float(e) for _, e in nonexist],
        "nonexist_a_ratio": NONEXIST_A_MULT,
        "nonexist_beta_sq": gs_1.params.beta_sq,
    }


def reference_constants(st: dict, res: dict) -> dict:
    """The scipy oracle's constants, keyed by (N, b)."""
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "oracle.json")) as fh:
        rows = json.load(fh)["pairs"]
    return {(r["N"], r["b"]): r for r in rows}


SETUP = {"sweep": setup_sweep, "multistart": setup_multistart, "constants": setup_constants}
ROUND = {"sweep": round_sweep, "multistart": round_multistart, "constants": round_constants}
REFERENCE = {"sweep": reference_sweep, "multistart": reference_multistart,
             "constants": reference_constants}
