"""Command-line driver: config parsing, dispatch, persistence.

Subcommands: ground-state | minimize | sweep | gn-check | nonexist |
uniqueness | verify-all.  Configuration lives in an INI-style file whose
keys are fixed by a strict schema; command-line flags override file keys.

Each command returns its checks; run_command alone prints them as
PASS/FAIL lines, writes the run archive and picks the exit code: 0 all
pass, 1 config error (ConfigError, or critlab's ValueError for bad input;
no archive), 2 solver failure or a FAIL, 3 a FAIL in verify-all, which
runs four commands at desk size.
"""
from __future__ import annotations

import argparse
import configparser
import functools
import io
import json
import math
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from . import asymptotics as asy
from .archive import (
    RunArchive,
    fmt,
    grid_function_csv,
    groundstate_json,
    scaling_fit_json,
    sweep_csv,
    write_outputs,
)
from .errors import ConfigError, CritlabError, NotConverged
from .grids import Ball, GridFunction, Interval, build_grid, mass, normalize_mass
from .groundstate import GroundStateData, solve_ground_state, verify_identities
from .params import GNParams
from .potentials import PotentialSpec, compute_lambda, validate_assumptions
from .variational import (
    FlowConfig,
    fit_tau_square_coefficient,
    gn_quotient,
    gradient_flow_minimize,
    multistart_uniqueness,
    nonexistence_probe,
    trial_quotient,
)

ENV_OUTPUT_ROOT = "CRITLAB_OUTPUT_ROOT"

# frozen reference from the independent high-accuracy shooting oracle
ORACLE_A_STAR_1_05 = 1.4729051871268528


def _floats(text: str) -> tuple:
    return tuple(float(v) for v in text.split(";") if v.strip())


def _zeros(text: str) -> tuple:
    pairs = (part.partition(":") for part in text.split(";") if part.strip())
    return tuple((float(loc), float(expo)) for loc, _, expo in pairs)


def _opt_float(text: str):
    return float(text) if text.strip() else None


_SCHEMA = {
    "problem": {
        "n": (int, "1"),
        "b": (float, "0.5"),
        "a_mult": (float, "0.5"),  # a as a multiple of the threshold a*
    },
    "domain": {
        "kind": (str, "interval"),
        "x_lo": (float, "-8.0"),
        "x_hi": (float, "8.0"),
        "radius": (float, "8.0"),
        "resolution": (int, "8192"),
    },
    "potential": {
        "kind": (str, "constant"),  # h form, or 'none' for V = 0
        "h_params": (_floats, "1.0"),
        "h_nodes": (_floats, ""),
        "p0": (float, "2.0"),
        "zeros": (_zeros, ""),
    },
    "groundstate": {
        "resolution": (int, "4096"),
        "r_max": (float, "30.0"),
    },
    "flow": {
        "tol": (float, repr(FlowConfig.tol)),
        "max_iters": (int, repr(FlowConfig.max_iters)),
        "seed": (int, "12345"),
    },
    "sweep": {
        "gap_start_mult": (float, "0.1"),
        "gap_ratio": (float, "0.5"),
        "n_points": (int, "8"),
        "extra_gap_mults": (_floats, ""),
        "drop_widest": (int, "2"),
    },
    "trial": {
        "cutoff_radius": (_opt_float, ""),
        "tau_list": (_floats, "5;10;20;40"),
    },
    "uniqueness": {
        "n_starts": (int, "10"),
    },
    "gn": {
        "n_random": (int, "500"),
    },
    "output": {
        "dir": (str, ""),
    },
}


def default_config() -> dict:
    return {
        sec: {key: conv(raw) for key, (conv, raw) in keys.items()}
        for sec, keys in _SCHEMA.items()
    }


def parse_config(text: str) -> dict:
    """Parse and validate an INI config against the schema."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    cfg = default_config()
    for sec in cp.sections():
        if sec not in _SCHEMA:
            raise ConfigError(f"unknown config section [{sec}]")
        for key, raw in cp.items(sec):
            if key not in _SCHEMA[sec]:
                raise ConfigError(f"unknown key {key!r} in section [{sec}]")
            conv, _ = _SCHEMA[sec][key]
            try:
                cfg[sec][key] = conv(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for [{sec}] {key}: {raw!r}") from exc
    return cfg


def serialize_config(cfg: dict) -> str:
    """Canonical text form; parse(serialize(parse(t))) == parse(t)."""
    buf = io.StringIO()
    for sec in _SCHEMA:
        buf.write(f"[{sec}]\n")
        for key in _SCHEMA[sec]:
            val = cfg[sec][key]
            if val is None:
                text = ""
            elif isinstance(val, tuple):
                if val and isinstance(val[0], tuple):
                    text = ";".join(f"{x:.17g}:{p:.17g}" for x, p in val)
                else:
                    text = ";".join(f"{x:.17g}" for x in val)
            elif isinstance(val, float):
                text = f"{val:.17g}"
            else:
                text = str(val)
            buf.write(f"{key} = {text}\n")
        buf.write("\n")
    return buf.getvalue()


def load_config(path: str | None) -> dict:
    if path is None:
        return default_config()
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc


# ----------------------------------------------------------------------
# config -> objects
# ----------------------------------------------------------------------

def _grid(cfg):
    d = cfg["domain"]
    if d["kind"] == "interval":
        return build_grid(Interval(d["x_lo"], d["x_hi"]), d["resolution"])
    if d["kind"] == "ball":
        return build_grid(Ball(cfg["problem"]["n"], d["radius"]), d["resolution"])
    raise ConfigError(f"unknown domain kind {d['kind']!r}")


def _spec(cfg, domain) -> PotentialSpec | None:
    """The configured potential, checked against the paper's assumptions on domain."""
    p = cfg["potential"]
    if p["kind"] == "none":
        return None
    spec = PotentialSpec(p["p0"], p["kind"], p["h_params"], p["h_nodes"], p["zeros"])
    validate_assumptions(spec, domain)
    return spec


@functools.lru_cache(maxsize=1)
def _ground_state(n, b, r_max, resolution) -> GroundStateData:
    """Ground state, kept for the last arguments so verify-all's commands share
    one solve; run_command clears it, so each command makes its own solve."""
    return solve_ground_state(GNParams(n, b), r_max=r_max, resolution=resolution)


def _solve_gs(cfg) -> GroundStateData:
    p, g = cfg["problem"], cfg["groundstate"]
    return _ground_state(p["n"], p["b"], g["r_max"], g["resolution"])


def _flow_cfg(cfg) -> FlowConfig:
    f = cfg["flow"]
    return FlowConfig(tol=f["tol"], max_iters=f["max_iters"])


# ----------------------------------------------------------------------
# subcommands: print information, fill the archive, return (name, ok, detail)
# ----------------------------------------------------------------------

def cmd_ground_state(cfg, arch) -> list:
    gs = _solve_gs(cfg)
    rep = verify_identities(gs)
    print(f"a_star = {fmt(gs.a_star)}")
    print(f"l2_sq = {fmt(gs.l2_sq)}  grad_sq = {fmt(gs.grad_sq)}  nonlinear = {fmt(gs.nonlinear_int)}")
    arch.add_json("groundstate.json", groundstate_json(gs))
    detail = (
        f"grad {rep.grad_residual:.3e}, nonlinear {rep.nonlinear_residual:.3e}, "
        f"shoot {rep.shoot_residual:.3e}, marches {gs.meta['marches']}"
    )
    return [("identity chain", rep.passed, detail)]


def cmd_minimize(cfg, arch) -> list:
    grid = _grid(cfg)
    spec = _spec(cfg, grid.domain)
    gs = _solve_gs(cfg)
    a = cfg["problem"]["a_mult"] * gs.a_star
    if spec is not None and a < gs.a_star:
        lam = compute_lambda(spec, gs)
        init = asy.limit_profile_start(gs, grid, asy.predicted_eps(gs.a_star - a, gs, lam))
    else:
        rng = np.random.default_rng(cfg["flow"]["seed"])
        init = normalize_mass(GridFunction(grid, rng.uniform(0.2, 1.0, grid.n_interior)))
    res = gradient_flow_minimize(init, gs.params.with_a(a), spec, _flow_cfg(cfg))
    print(f"a = {fmt(a)}  (a/a_star = {fmt(a / gs.a_star)})")
    print(
        f"energy = {fmt(res.energy)}  mu = {fmt(res.mu)}  eps = {fmt(res.eps)}  "
        f"iterations = {res.iterations}  newton_steps = {res.newton_steps}"
    )
    arch.add("minimizer.csv", grid_function_csv(res.u))
    # the profile itself is minimizer.csv
    record = {f.name: getattr(res, f.name) for f in fields(res) if f.name != "u"}
    arch.add_json("minimizer.json", {**record, "a": a, "profile_csv": "minimizer.csv"})
    m = mass(res.u)
    dev = res.mu - res.mu_fit
    checks = [
        ("unit mass", abs(m - 1.0) < 1e-8, f"mass - 1 = {m - 1.0:.3e}"),
        ("multiplier identity", abs(dev) <= 1e-3 * (1.0 + abs(res.mu)), f"mu - mu_fit = {dev:.3e}"),
        ("stationarity", res.residual < 1e-5, f"residual = {res.residual:.3e}"),
        ("strict local minimizer", res.tangent_negatives == 0, f"{res.tangent_negatives} tangent negatives"),
    ]
    if a >= gs.a_star:
        # with V(0) = 0, as for every critlab potential, none exists for a >= a*
        checks.append(
            ("no minimizer for a >= a*", False, f"the flow stopped at eps = {res.eps:.4g}, h = {grid.h:.4g}")
        )
    return checks


def cmd_sweep(cfg, arch) -> list:
    grid = _grid(cfg)
    spec = _spec(cfg, grid.domain)
    if spec is None:
        raise ConfigError("sweep requires a potential with an origin zero (kind != none)")
    gs = _solve_gs(cfg)
    lam = compute_lambda(spec, gs)
    s = cfg["sweep"]
    sched = asy.default_gap_schedule(gs.a_star, s["gap_start_mult"], s["gap_ratio"], s["n_points"])
    sched = sorted(set(sched) | {gs.a_star * (1.0 - m) for m in s["extra_gap_mults"]})
    asy.fit_window([gs.a_star - a for a in sched], s["drop_widest"])  # refuse before any flow
    sw = asy.run_sweep(sched, gs, spec, grid, lam, _flow_cfg(cfg))
    arch.add("sweep.csv", sweep_csv(sw.records))
    arch.add_json("groundstate.json", groundstate_json(gs))
    print(f"records: {len(sw.records)}  (a_star = {fmt(gs.a_star)}, lambda = {fmt(lam.value)})")
    if sw.aborted:
        return [("sweep completed", False, sw.message)]
    fit = asy.fit_scaling_laws(sw.records, gs, lam, drop_widest=s["drop_widest"])
    lim = asy.check_limits(sw.records, gs, lam)
    arch.add_json("fit.json", scaling_fit_json(fit))
    arch.add_json("limits.json", lim)
    en, ep = fit.energy, fit.eps
    return [
        ("energy exponent", en.exponent_ok, f"{en.exponent:.4f} vs {en.predicted_exponent:.4f}"),
        ("energy prefactor", en.prefactor_ok, f"{en.prefactor:.5g} vs {en.predicted_prefactor:.5g}"),
        ("eps exponent", ep.exponent_ok, f"{ep.exponent:.4f} vs {ep.predicted_exponent:.4f}"),
        ("eps prefactor", ep.prefactor_ok, f"{ep.prefactor:.5g} vs {ep.predicted_prefactor:.5g}"),
        ("multiplier limit", lim.mu_eps_ok, f"mu*eps^2 = {lim.mu_eps_sq:.5g}"),
        ("energy ratio", lim.energy_ratio_ok, f"tightest/widest = {lim.energy_ratio:.4g}"),
        ("energy and eps decreasing", lim.energy_decreasing and lim.eps_decreasing, ""),
        ("energy upper bound", lim.lemma_bound_ok, ""),
        ("strict local minimizers", all(r.tangent_negatives == 0 for r in sw.records), ""),
    ]


def _random_h10(grid, rng, n_modes=24):
    """Seeded random smooth function vanishing on the boundary."""
    x = grid.interior_nodes
    dom = grid.domain
    vals = np.zeros_like(x)
    amps = rng.standard_normal(n_modes) / (1.0 + np.arange(n_modes)) ** 2
    if grid.is_ball:
        R = dom.radius
        for k in range(n_modes):
            vals += amps[k] * np.cos((k + 0.5) * math.pi * x / R)
    else:
        L = dom.x_hi - dom.x_lo
        for k in range(n_modes):
            vals += amps[k] * np.sin((k + 1) * math.pi * (x - dom.x_lo) / L)
    return GridFunction(grid, vals)


def cmd_gn_check(cfg, arch) -> list:
    grid = _grid(cfg)
    gs = _solve_gs(cfg)
    bound = gs.a_star / (1.0 + gs.params.beta_sq)
    rng = np.random.default_rng(cfg["flow"]["seed"])
    n = cfg["gn"]["n_random"]
    min_ratio = min(gn_quotient(_random_h10(grid, rng), gs.params) / bound for _ in range(n))
    taus = cfg["trial"]["tau_list"]
    # keep 2 R tau_max small enough that the cutoff deficit stays resolvable
    # above the profile's accuracy floor
    R = cfg["trial"]["cutoff_radius"]
    if R is None:
        R = min(grid.domain.origin_distance / 4.0, 12.0 / (2.0 * max(taus)))
    deficits = [trial_quotient(gs, tau, R) / bound - 1.0 for tau in taus]
    dec = all(d2 < d1 for d1, d2 in zip(deficits, deficits[1:]))
    arch.add_json(
        "gn.json",
        {
            "min_ratio": min_ratio,
            "n_random": n,
            "taus": list(taus),
            "trial_deficits": deficits,
        },
    )
    return [
        ("quotient bound (random)", min_ratio >= 1.0 - 1e-6, f"min ratio = {min_ratio:.8f}"),
        (
            "trial family saturates",
            all(d > 0 for d in deficits) and dec and deficits[-1] < 1e-3,
            "deficits " + ", ".join(f"{d:.3e}" for d in deficits),
        ),
    ]


def cmd_nonexist(cfg, arch) -> list:
    grid = _grid(cfg)
    spec = _spec(cfg, grid.domain)
    gs = _solve_gs(cfg)
    a = cfg["problem"]["a_mult"] * gs.a_star
    if a <= gs.a_star:
        raise ConfigError(f"nonexist needs a > a_star; got a/a_star = {a / gs.a_star:.4f}")
    params = gs.params.with_a(a)
    taus = cfg["trial"]["tau_list"]
    R = cfg["trial"]["cutoff_radius"]
    table = nonexistence_probe(params, gs, grid, taus, spec=spec, R=R)
    print("tau      E_a(trial)")
    for tau, en in table:
        print(f"{tau:<8g} {fmt(en)}")
    energies = [en for _, en in table]
    dec = all(e2 < e1 for e1, e2 in zip(energies, energies[1:]))
    c2 = fit_tau_square_coefficient(
        [t for t, _ in table], energies, p=spec.p0 if spec is not None else None
    )
    pred = (1.0 - a / gs.a_star) / gs.params.beta_sq
    arch.add(
        "nonexist.csv",
        "# tau,energy\n" + "\n".join(f"{fmt(t)},{fmt(e)}" for t, e in table) + "\n",
    )
    arch.add_json("nonexist.json", {"a": a, "c2": c2, "predicted_c2": pred})
    return [
        ("energies decreasing", dec, ""),
        ("tau^2 coefficient", abs(c2 - pred) <= 0.05 * abs(pred), f"{c2:.5g} vs {pred:.5g}"),
    ]


def cmd_uniqueness(cfg, arch) -> list:
    grid = _grid(cfg)
    spec = _spec(cfg, grid.domain)
    gs = _solve_gs(cfg)
    a = cfg["problem"]["a_mult"] * gs.a_star
    params = gs.params.with_a(a)
    rep = multistart_uniqueness(
        params, spec, grid, cfg["uniqueness"]["n_starts"], cfg["flow"]["seed"], _flow_cfg(cfg)
    )
    print(
        f"starts {rep.n_requested}  converged {rep.n_converged}  "
        f"max L2 {rep.max_l2_distance:.3e}  max sup {rep.max_sup_distance:.3e}  "
        f"energy spread {rep.energy_spread_rel:.3e}"
    )
    for line in rep.failures:
        print("warning:", line)
    arch.add_json("uniqueness.json", {**asdict(rep), "a": a})
    converged = f"{rep.n_converged} of {rep.n_requested}"
    return [("every start converged", rep.n_converged == rep.n_requested, converged)]


# the commands verify-all runs, as overrides of the defaults at desk size;
# every ground state is (1, 0.5) at resolution 2048
_PANEL = {
    "ground-state": {},
    "gn-check": {
        "domain": {"x_lo": -1.0, "x_hi": 1.0, "resolution": 1024},
        "gn": {"n_random": 200},
        "trial": {"tau_list": (5.0, 10.0, 20.0), "cutoff_radius": 0.2},
    },
    "nonexist": {
        "problem": {"a_mult": 1.2},
        "domain": {"x_lo": -2.0, "x_hi": 2.0},
        "potential": {"kind": "none"},
        "trial": {"cutoff_radius": 0.5},
    },
    "minimize": {"domain": {"resolution": 1024}},
}


def cmd_verify_all(cfg, arch) -> list:
    """Quick smoke panel over every subsystem (desk-scale sizes).

    Runs the commands of ``_PANEL`` and adds the checks no command makes:
    the threshold against the frozen oracle, the trial energies above it
    turning negative, and the Dirichlet energy pi^2/4 of the flow at a = 0.
    The full acceptance suite with the stated tolerances lives in
    tests/test_acceptance.py; this panel is sized to run in seconds.
    """
    checks = []
    panel = RunArchive()
    for command, overrides in _PANEL.items():
        sub = default_config()
        sub["groundstate"]["resolution"] = 2048
        sub["flow"]["seed"] = cfg["flow"]["seed"]
        for sec, keys in overrides.items():
            sub[sec].update(keys)
        print(f"-- {command}")
        checks += [(f"{command}: {name}", ok, detail) for name, ok, detail in _COMMANDS[command](sub, panel)]

    a_star = json.loads(panel.files["groundstate.json"])["a_star"]
    rel = abs(a_star - ORACLE_A_STAR_1_05) / ORACLE_A_STAR_1_05
    checks.append(("threshold vs oracle", rel < 1e-5, f"rel dev {rel:.2e}"))

    energies = [float(row.split(",")[1]) for row in panel.files["nonexist.csv"].splitlines()[1:]]
    negative = all(e < 0 for e in energies[1:])
    listed = "E " + ", ".join(f"{e:.1f}" for e in energies)
    checks.append(("nonexist: energies negative past the first tau", negative, listed))

    grid1 = build_grid(Interval(-1.0, 1.0), 1024)
    init = GridFunction(grid1, np.random.default_rng(1).uniform(0.2, 1.0, grid1.n_interior))
    res0 = gradient_flow_minimize(init, GNParams(1, 0.5, 0.0), None, FlowConfig())
    err = abs(res0.energy - math.pi**2 / 4.0)
    checks.append(("Dirichlet baseline energy", err < 1e-3, f"err {err:.2e}"))

    return checks


_COMMANDS = {
    "ground-state": cmd_ground_state,
    "minimize": cmd_minimize,
    "sweep": cmd_sweep,
    "gn-check": cmd_gn_check,
    "nonexist": cmd_nonexist,
    "uniqueness": cmd_uniqueness,
    "verify-all": cmd_verify_all,
}

# flag -> (section, key) overrides applied after config load
_OVERRIDES = [
    ("--N", "problem", "n"),
    ("--b", "problem", "b"),
    ("--a-mult", "problem", "a_mult"),
    ("--resolution", "domain", "resolution"),
    ("--gs-resolution", "groundstate", "resolution"),
    ("--r-max", "groundstate", "r_max"),
    ("--seed", "flow", "seed"),
    ("--n-starts", "uniqueness", "n_starts"),
    ("--n-random", "gn", "n_random"),
    ("--taus", "trial", "tau_list"),
]


def _build_parser() -> argparse.ArgumentParser:
    # no abbreviations: a removed flag is refused, not read as a longer one
    ap = argparse.ArgumentParser(prog="critlab", description=__doc__, allow_abbrev=False)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--out", default=None, help="output directory for the run archive")
        for flag, _sec, _key in _OVERRIDES:
            p.add_argument(flag, default=None, type=str)
    return ap


def run_command(argv) -> int:
    """Execute one subcommand; returns the process exit status.

    The only place that prints verdicts, writes the run archive (the
    verdicts go to its checks.json) and maps the checks to the exit status.
    """
    args = _build_parser().parse_args(argv)
    _ground_state.cache_clear()
    try:
        cfg = load_config(args.config)
        for flag, sec, key in _OVERRIDES:
            attr = flag.lstrip("-").replace("-", "_")
            raw = getattr(args, attr, None)
            if raw is not None:
                conv, _ = _SCHEMA[sec][key]
                cfg[sec][key] = conv(raw)
        arch = RunArchive(config_text=serialize_config(cfg))
        checks = _COMMANDS[args.command](cfg, arch)
        for name, ok, detail in checks:
            print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""))
        arch.add_json("checks.json", [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks])
        root = os.environ.get(ENV_OUTPUT_ROOT, "critlab-runs")
        write_outputs(arch, args.out or cfg["output"]["dir"] or os.path.join(root, args.command))
    except (ConfigError, ValueError) as exc:
        # critlab raises ValueError for bad input, a CritlabError for solver outcomes
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NotConverged as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return 2
    except CritlabError as exc:
        print(f"solver failure: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 2
    passed = all(ok for _, ok, _ in checks)
    if args.command != "verify-all":
        return 0 if passed else 2
    print("ALL CHECKS PASS" if passed else "CHECK FAILURES PRESENT")
    return 0 if passed else 3


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
