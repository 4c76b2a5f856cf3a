"""Command-line driver: config parsing, dispatch, persistence.

Subcommands: ground-state | minimize | sweep | gn-check | nonexist |
uniqueness | verify-all.  Configuration lives in an INI-style file whose
keys are fixed by a strict schema; command-line flags override file keys.
Exit codes: 0 success, 1 config error, 2 solver failure, 3 verify-all FAIL.
"""
from __future__ import annotations

import argparse
import configparser
import io
import math
import os
import sys

import numpy as np

from . import asymptotics as asy
from .archive import RunArchive, fmt, grid_function_csv, scaling_fit_json, sweep_csv, write_outputs
from .errors import ConfigError, CritlabError, NotConverged
from .grids import Ball, GridFunction, Interval, build_grid, mass, normalize_mass
from .groundstate import GroundStateData, solve_ground_state, verify_identities
from .params import GNParams
from .potentials import PotentialSpec, compute_lambda, validate_assumptions
from .variational import (
    FlowConfig,
    evaluate_energy,
    fit_multiplier,
    fit_tau_square_coefficient,
    gn_quotient,
    gradient_flow_minimize,
    make_trial_function,
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
    out = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        loc, _, expo = part.partition(":")
        out.append((float(loc), float(expo)))
    return tuple(out)


def _opt_float(text: str):
    return float(text) if text.strip() else None


_SCHEMA = {
    "problem": {
        "n": (int, "1"),
        "b": (float, "0.5"),
        "a": (_opt_float, ""),
        "a_mult": (_opt_float, ""),
    },
    "domain": {
        "kind": (str, "interval"),
        "x_lo": (float, "-8.0"),
        "x_hi": (float, "8.0"),
        "radius": (float, "8.0"),
        "resolution": (int, "2048"),
    },
    "potential": {
        "kind": (str, "constant"),  # h form, or 'none' for V = 0
        "h_value": (float, "1.0"),
        "h_coeffs": (_floats, "1.0"),
        "h_nodes": (_floats, ""),
        "h_values": (_floats, ""),
        "p0": (float, "2.0"),
        "zeros": (_zeros, ""),
    },
    "groundstate": {
        "resolution": (int, "4096"),
        "r_max": (float, "30.0"),
        "r0": (float, "1e-4"),
        "shoot_tol": (float, "1e-13"),
        "identity_tol": (float, "1e-6"),
    },
    "flow": {
        "dt": (float, repr(FlowConfig.dt)),
        "tol": (float, repr(FlowConfig.tol)),
        "max_iters": (int, repr(FlowConfig.max_iters)),
        "dt_max": (float, repr(FlowConfig.dt_max)),
        "probe_floor": (float, repr(FlowConfig.energy_floor)),
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

def _params(cfg, a=0.0) -> GNParams:
    try:
        return GNParams(cfg["problem"]["n"], cfg["problem"]["b"], a)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _domain(cfg):
    d = cfg["domain"]
    if d["kind"] == "interval":
        return Interval(d["x_lo"], d["x_hi"])
    if d["kind"] == "ball":
        return Ball(cfg["problem"]["n"], d["radius"])
    raise ConfigError(f"unknown domain kind {d['kind']!r}")


def _grid(cfg):
    return build_grid(_domain(cfg), cfg["domain"]["resolution"])


def _spec(cfg) -> PotentialSpec | None:
    p = cfg["potential"]
    if p["kind"] == "none":
        return None
    if p["kind"] == "constant":
        return PotentialSpec(p0=p["p0"], h_kind="constant", h_params=(p["h_value"],), zeros=p["zeros"])
    if p["kind"] == "poly_abs":
        return PotentialSpec(p0=p["p0"], h_kind="poly_abs", h_params=p["h_coeffs"], zeros=p["zeros"])
    if p["kind"] == "tabulated":
        return PotentialSpec(
            p0=p["p0"], h_kind="tabulated", h_params=p["h_values"], h_nodes=p["h_nodes"], zeros=p["zeros"]
        )
    raise ConfigError(f"unknown potential kind {p['kind']!r}")


def _solve_gs(cfg) -> GroundStateData:
    g = cfg["groundstate"]
    return solve_ground_state(
        _params(cfg),
        shoot_tol=g["shoot_tol"],
        r_max=g["r_max"],
        resolution=g["resolution"],
        r0=g["r0"],
    )


def _flow_cfg(cfg, probe_mode=False) -> FlowConfig:
    f = cfg["flow"]
    return FlowConfig(
        dt=f["dt"],
        tol=f["tol"],
        max_iters=f["max_iters"],
        dt_max=f["dt_max"],
        probe_mode=probe_mode,
        energy_floor=f["probe_floor"],
    )


def _resolve_a(cfg, gs: GroundStateData) -> float:
    a_abs = cfg["problem"]["a"]
    a_mult = cfg["problem"]["a_mult"]
    if a_abs is not None and a_mult is not None:
        raise ConfigError("give either [problem] a or a_mult, not both")
    if a_abs is not None:
        return a_abs
    if a_mult is not None:
        return a_mult * gs.a_star
    return 0.5 * gs.a_star


def _out_dir(args, command: str) -> str:
    if args.out:
        return args.out
    root = os.environ.get(ENV_OUTPUT_ROOT, "critlab-runs")
    return os.path.join(root, command)


def _print_check(name: str, ok: bool, detail: str = "") -> bool:
    print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""))
    return ok


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_ground_state(cfg, args) -> int:
    gs = _solve_gs(cfg)
    rep = verify_identities(gs, cfg["groundstate"]["identity_tol"])
    print(f"a_star = {fmt(gs.a_star)}")
    print(f"l2_sq = {fmt(gs.l2_sq)}  grad_sq = {fmt(gs.grad_sq)}  nonlinear = {fmt(gs.nonlinear_int)}")
    ok = _print_check(
        "identity chain",
        rep.passed,
        f"grad {rep.grad_residual:.3e}, nonlinear {rep.nonlinear_residual:.3e}, shoot {rep.shoot_residual:.3e}",
    )
    arch = RunArchive(config_text=serialize_config(cfg))
    arch.add_json("groundstate.json", gs.to_json_dict())
    write_outputs(arch, _out_dir(args, "ground-state"))
    return 0 if ok else 2


def _default_init(cfg, gs, grid, a):
    spec = _spec(cfg)
    if spec is not None and a < gs.a_star:
        lam = compute_lambda(spec, gs)
        return asy.limit_profile_start(gs, grid, asy.predicted_eps(gs.a_star - a, gs, lam))
    rng = np.random.default_rng(cfg["flow"]["seed"])
    return normalize_mass(GridFunction(grid, rng.uniform(0.2, 1.0, grid.n_interior)))


def cmd_minimize(cfg, args) -> int:
    gs = _solve_gs(cfg)
    grid = _grid(cfg)
    spec = _spec(cfg)
    a = _resolve_a(cfg, gs)
    params = gs.params.with_a(a)
    probe = a >= gs.a_star
    init = _default_init(cfg, gs, grid, a)
    res = gradient_flow_minimize(init, params, spec, _flow_cfg(cfg, probe_mode=probe))
    print(f"a = {fmt(a)}  (a/a_star = {fmt(a / gs.a_star)})")
    print(
        f"energy = {fmt(res.energy)}  mu = {fmt(res.mu)}  eps = {fmt(res.eps)}  "
        f"iterations = {res.iterations}"
    )
    m = mass(res.u)
    ok = _print_check("unit mass", abs(m - 1.0) < 1e-8, f"mass - 1 = {m - 1.0:.3e}")
    ok &= _print_check(
        "multiplier identity",
        abs(res.mu - res.mu_fit) <= 1e-3 * (1.0 + abs(res.mu)),
        f"mu - mu_fit = {res.mu - res.mu_fit:.3e}",
    )
    ok &= _print_check("stationarity", res.residual < 1e-5, f"residual = {res.residual:.3e}")
    arch = RunArchive(config_text=serialize_config(cfg))
    arch.add("minimizer.csv", grid_function_csv(res.u))
    arch.add_json(
        "minimizer.json",
        {
            "a": a,
            "energy": res.energy,
            "mu": res.mu,
            "eps": res.eps,
            "iterations": res.iterations,
            "residual": res.residual,
            "profile_csv": "minimizer.csv",
        },
    )
    write_outputs(arch, _out_dir(args, "minimize"))
    return 0 if ok else 2


def cmd_sweep(cfg, args) -> int:
    gs = _solve_gs(cfg)
    grid = _grid(cfg)
    spec = _spec(cfg)
    if spec is None:
        raise ConfigError("sweep requires a potential with an origin zero (kind != none)")
    bad = validate_assumptions(spec, grid.domain)
    if not bad.ok:
        raise ConfigError("; ".join(bad.violations))
    lam = compute_lambda(spec, gs)
    s = cfg["sweep"]
    sched = asy.default_gap_schedule(gs.a_star, s["gap_start_mult"], s["gap_ratio"], s["n_points"])
    for m_ in s["extra_gap_mults"]:
        sched.append(gs.a_star * (1.0 - m_))
    sched = sorted(set(sched))
    sw = asy.run_sweep(sched, gs, spec, grid, lam, _flow_cfg(cfg))
    arch = RunArchive(config_text=serialize_config(cfg))
    arch.add("sweep.csv", sweep_csv(sw.records))
    arch.add_json("groundstate.json", gs.to_json_dict())
    print(f"records: {len(sw.records)}  (a_star = {fmt(gs.a_star)}, lambda = {fmt(lam.value)})")
    if sw.aborted:
        print(f"sweep aborted: {sw.message}")
        write_outputs(arch, _out_dir(args, "sweep"))
        return 2
    fit = asy.fit_scaling_laws(sw.records, gs, lam, drop_widest=s["drop_widest"])
    lim = asy.check_limits(sw.records, gs, lam)
    arch.add_json("fit.json", scaling_fit_json(fit))
    arch.add_json(
        "limits.json",
        {
            "mu_eps_sq": lim.mu_eps_sq,
            "mu_eps_sq_rel_dev": lim.mu_eps_sq_rel_dev,
            "energy_ratio": lim.energy_ratio,
            "lemma_bound_margins": list(lim.lemma_bound_margins),
        },
    )
    _print_check(
        "energy exponent",
        fit.energy.exponent_ok,
        f"{fit.energy.exponent:.4f} vs {fit.energy.predicted_exponent:.4f}",
    )
    _print_check(
        "energy prefactor",
        fit.energy.prefactor_ok,
        f"{fit.energy.prefactor:.5g} vs {fit.energy.predicted_prefactor:.5g}",
    )
    _print_check(
        "eps exponent", fit.eps.exponent_ok, f"{fit.eps.exponent:.4f} vs {fit.eps.predicted_exponent:.4f}"
    )
    _print_check(
        "eps prefactor", fit.eps.prefactor_ok, f"{fit.eps.prefactor:.5g} vs {fit.eps.predicted_prefactor:.5g}"
    )
    _print_check("multiplier limit", lim.mu_eps_ok, f"mu*eps^2 = {lim.mu_eps_sq:.5g}")
    _print_check("energy upper bound", lim.lemma_bound_ok)
    write_outputs(arch, _out_dir(args, "sweep"))
    return 0


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


def cmd_gn_check(cfg, args) -> int:
    gs = _solve_gs(cfg)
    grid = _grid(cfg)
    params = gs.params
    bs = params.beta_sq
    bound = gs.a_star / (1.0 + bs)
    rng = np.random.default_rng(cfg["flow"]["seed"])
    n = cfg["gn"]["n_random"]
    ratios = []
    for _ in range(n):
        u = _random_h10(grid, rng)
        ratios.append(gn_quotient(u, params) / bound)
    min_ratio = min(ratios)
    ok = _print_check("quotient bound (random)", min_ratio >= 1.0 - 1e-6, f"min ratio = {min_ratio:.8f}")
    taus = cfg["trial"]["tau_list"]
    # keep 2 R tau_max small enough that the cutoff deficit stays resolvable
    # above the profile's accuracy floor
    R = cfg["trial"]["cutoff_radius"] or min(
        grid.domain.origin_distance / 4.0, 12.0 / (2.0 * max(taus))
    )
    deficits = [trial_quotient(gs, tau, R) / bound - 1.0 for tau in taus]
    dec = all(d2 < d1 for d1, d2 in zip(deficits, deficits[1:]))
    ok &= _print_check(
        "trial family saturates",
        all(d > 0 for d in deficits) and dec,
        "deficits " + ", ".join(f"{d:.3e}" for d in deficits),
    )
    arch = RunArchive(config_text=serialize_config(cfg))
    arch.add_json(
        "gn.json",
        {
            "min_ratio": min_ratio,
            "n_random": n,
            "taus": list(taus),
            "trial_deficits": deficits,
        },
    )
    write_outputs(arch, _out_dir(args, "gn-check"))
    return 0 if ok else 2


def cmd_nonexist(cfg, args) -> int:
    gs = _solve_gs(cfg)
    grid = _grid(cfg)
    spec = _spec(cfg)
    a = _resolve_a(cfg, gs)
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
    ok = _print_check("energies decreasing", dec)
    ok &= _print_check(
        "tau^2 coefficient",
        abs(c2 - pred) <= 0.05 * abs(pred),
        f"{c2:.5g} vs {pred:.5g}",
    )
    arch = RunArchive(config_text=serialize_config(cfg))
    arch.add(
        "nonexist.csv",
        "# tau,energy\n" + "\n".join(f"{fmt(t)},{fmt(e)}" for t, e in table) + "\n",
    )
    arch.add_json("nonexist.json", {"a": a, "c2": c2, "predicted_c2": pred})
    write_outputs(arch, _out_dir(args, "nonexist"))
    return 0 if ok else 2


def cmd_uniqueness(cfg, args) -> int:
    gs = _solve_gs(cfg)
    grid = _grid(cfg)
    spec = _spec(cfg)
    a = _resolve_a(cfg, gs)
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
    arch = RunArchive(config_text=serialize_config(cfg))
    arch.add_json(
        "uniqueness.json",
        {
            "a": a,
            "n_converged": rep.n_converged,
            "max_l2": rep.max_l2_distance,
            "max_sup": rep.max_sup_distance,
            "energy_spread_rel": rep.energy_spread_rel,
            "energies": list(rep.energies),
        },
    )
    write_outputs(arch, _out_dir(args, "uniqueness"))
    return 0 if rep.n_converged == rep.n_requested else 2


def cmd_verify_all(cfg, args) -> int:
    """Quick smoke panel over every subsystem (desk-scale sizes).

    The full acceptance suite with the stated tolerances lives in
    tests/test_acceptance.py; this panel is sized to run in seconds.
    """
    checks: list[bool] = []
    params = GNParams(1, 0.5)
    gs = solve_ground_state(params, resolution=2048)
    rep = verify_identities(gs, 1e-6)
    checks.append(
        _print_check(
            "groundstate identities (1, 0.5)",
            rep.passed,
            f"max residual {max(rep.grad_residual, rep.nonlinear_residual):.2e}",
        )
    )
    rel = abs(gs.a_star - ORACLE_A_STAR_1_05) / ORACLE_A_STAR_1_05
    checks.append(_print_check("threshold vs oracle", rel < 1e-5, f"rel dev {rel:.2e}"))

    grid1 = build_grid(Interval(-1.0, 1.0), 1024)
    rng = np.random.default_rng(cfg["flow"]["seed"])
    bound = gs.a_star / (1.0 + params.beta_sq)
    min_ratio = min(
        gn_quotient(_random_h10(grid1, rng), params) / bound for _ in range(200)
    )
    checks.append(_print_check("quotient lower bound", min_ratio >= 1.0 - 1e-6, f"min {min_ratio:.6f}"))

    deficits = [trial_quotient(gs, tau, 0.2) / bound - 1.0 for tau in (5.0, 10.0, 20.0)]
    checks.append(
        _print_check(
            "trial family saturation",
            all(d > 0 for d in deficits)
            and all(d2 < d1 for d1, d2 in zip(deficits, deficits[1:]))
            and deficits[-1] < 1e-3,
            "deficits " + ", ".join(f"{d:.1e}" for d in deficits),
        )
    )

    init = GridFunction(grid1, np.random.default_rng(1).uniform(0.2, 1.0, grid1.n_interior))
    res0 = gradient_flow_minimize(init, GNParams(1, 0.5, 0.0), None, FlowConfig())
    err = abs(res0.energy - math.pi**2 / 4.0)
    checks.append(_print_check("Dirichlet baseline energy", err < 1e-3, f"err {err:.2e}"))

    grid8 = build_grid(Interval(-2.0, 2.0), 2048)
    table = nonexistence_probe(
        gs.params.with_a(1.2 * gs.a_star), gs, grid8, (5.0, 10.0, 20.0, 40.0), spec=None, R=0.5
    )
    energies = [en for _, en in table]
    checks.append(
        _print_check(
            "nonexistence probe",
            all(e2 < e1 for e1, e2 in zip(energies, energies[1:])) and all(e < 0 for e in energies[1:]),
            "E " + ", ".join(f"{e:.1f}" for e in energies),
        )
    )

    spec = PotentialSpec(p0=2.0)
    grid = build_grid(Interval(-8.0, 8.0), 1024)
    lam = compute_lambda(spec, gs)
    a = 0.5 * gs.a_star
    initc = asy.limit_profile_start(gs, grid, asy.predicted_eps(gs.a_star - a, gs, lam))
    resm = gradient_flow_minimize(initc, gs.params.with_a(a), spec, FlowConfig())
    mu_dev = abs(resm.mu - fit_multiplier(resm.u, gs.params.with_a(a), spec))
    checks.append(
        _print_check("multiplier identity", mu_dev <= 1e-3 * (1 + abs(resm.mu)), f"dev {mu_dev:.2e}")
    )

    ok = all(checks)
    print(f"{'ALL CHECKS PASS' if ok else 'CHECK FAILURES PRESENT'}")
    arch = RunArchive(config_text=serialize_config(cfg))
    arch.add_json("verify.json", {"n_checks": len(checks), "passed": int(sum(checks)), "ok": ok})
    write_outputs(arch, _out_dir(args, "verify-all"))
    return 0 if ok else 3


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
    ("--N", "problem", "n", int),
    ("--b", "problem", "b", float),
    ("--a", "problem", "a", float),
    ("--a-mult", "problem", "a_mult", float),
    ("--resolution", "domain", "resolution", int),
    ("--gs-resolution", "groundstate", "resolution", int),
    ("--r-max", "groundstate", "r_max", float),
    ("--seed", "flow", "seed", int),
    ("--n-starts", "uniqueness", "n_starts", int),
    ("--n-random", "gn", "n_random", int),
    ("--taus", "trial", "tau_list", str),
]


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="critlab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--out", default=None, help="output directory for the run archive")
        for flag, _sec, _key, typ in _OVERRIDES:
            p.add_argument(flag, default=None, type=str)
    return ap


def run_command(argv) -> int:
    """Execute one subcommand; returns the process exit status."""
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        for flag, sec, key, typ in _OVERRIDES:
            attr = flag.lstrip("-").replace("-", "_")
            raw = getattr(args, attr, None)
            if raw is not None:
                conv, _ = _SCHEMA[sec][key]
                cfg[sec][key] = conv(raw) if conv is not str else raw
        if args.out is None and cfg["output"]["dir"]:
            args.out = cfg["output"]["dir"]
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NotConverged as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return 2
    except CritlabError as exc:
        print(f"solver failure: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
