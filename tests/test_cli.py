import inspect
import json
from dataclasses import fields

import numpy as np
import pytest

import critlab.asymptotics
from critlab import (
    Ball,
    FlowConfig,
    Interval,
    LimitsReport,
    MinimizerResult,
    UniquenessReport,
    build_grid,
    solve_ground_state,
)
from critlab.cli import _random_h10, default_config, parse_config, run_command, serialize_config
from critlab.errors import ConfigError
from test_variational import random_h10

MINI_SWEEP_CFG = """
[problem]
n = 1
b = 0.5

[domain]
kind = interval
x_lo = -8.0
x_hi = 8.0
resolution = 512

[potential]
kind = constant
p0 = 2.0

[groundstate]
resolution = 512

[flow]
tol = 1e-8
seed = 777

[sweep]
gap_start_mult = 0.2
n_points = 5
drop_widest = 0
"""


GN_SMALL = ["gn-check", "--n-random", "50", "--gs-resolution", "1024", "--resolution", "512"]


def test_cli_defaults_match_library():
    cfg = default_config()
    lib = FlowConfig()
    flow = cfg["flow"]
    assert (flow["tol"], flow["max_iters"]) == (lib.tol, lib.max_iters)
    sig = inspect.signature(solve_ground_state).parameters
    for key in ("resolution", "r_max"):
        assert cfg["groundstate"][key] == sig[key].default, key


def test_config_round_trip():
    cfg = parse_config(MINI_SWEEP_CFG)
    text = serialize_config(cfg)
    assert parse_config(text) == cfg
    assert cfg["domain"]["resolution"] == 512
    assert cfg["flow"]["seed"] == 777


def test_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ConfigError):
        parse_config("[problem]\nn = 1\nwhatever = 2\n")
    with pytest.raises(ConfigError):
        parse_config("[mystery]\nx = 1\n")
    # keys whose values are now computed or fixed
    for sec, key in [
        ("groundstate", "r0"), ("groundstate", "identity_tol"),
        ("flow", "dt"), ("flow", "dt_max"), ("flow", "probe_floor"),
        ("potential", "h_value"), ("potential", "h_coeffs"), ("potential", "h_values"),
    ]:
        with pytest.raises(ConfigError):
            parse_config(f"[{sec}]\n{key} = 1\n")
    bad = tmp_path / "bad.cfg"
    bad.write_text("[problem]\nn = not_a_number\n")
    assert run_command(["ground-state", "--config", str(bad)]) == 1


@pytest.mark.parametrize("text", ["[groundstate]\nshoot_tol = 1e-9\n", "[problem]\na = 1.2\n"])
def test_removed_keys_are_refused(tmp_path, capsys, text):
    # the bracket width is fixed and a is set only as a_mult
    cfg = tmp_path / "old.cfg"
    cfg.write_text(text)
    assert run_command(["ground-state", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "unknown key" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_removed_a_flag_is_a_usage_error(tmp_path, capsys):
    # refused, not read as an abbreviation of --a-mult
    with pytest.raises(SystemExit) as exc:
        run_command(["nonexist", "--a", "1.2", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --a 1.2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_defaults_complete():
    cfg = default_config()
    assert set(cfg) == {
        "problem", "domain", "potential", "groundstate", "flow",
        "sweep", "trial", "uniqueness", "gn", "output",
    }


def test_ground_state_command(tmp_path, capsys):
    out = tmp_path / "gs"
    code = run_command(
        ["ground-state", "--N", "1", "--b", "0.5", "--gs-resolution", "1024", "--out", str(out)]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "a_star = 1.4729" in text
    assert "PASS" in text
    manifest = json.loads((out / "manifest.json").read_text())
    assert "groundstate.json" in manifest["files"]
    marches = json.loads((out / "groundstate.json").read_text())["meta"]["marches"]
    assert 0 < marches <= 25
    assert f"marches {marches}" in text
    assert "config.cfg" in manifest["files"]


def test_sweep_command_deterministic(tmp_path, capsys):
    # five points at 512 nodes are too coarse for the exponent checks: the
    # sweep still writes its archive, and a FAIL line means exit 2
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(MINI_SWEEP_CFG)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_command(["sweep", "--config", str(cfg), "--out", str(out1)]) == 2
    assert run_command(["sweep", "--config", str(cfg), "--out", str(out2)]) == 2
    assert "FAIL  energy exponent" in capsys.readouterr().out
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1 == m2
    assert {"sweep.csv", "fit.json", "groundstate.json", "config.cfg"} <= set(m1["files"])
    header = (out1 / "sweep.csv").read_text().splitlines()[0]
    assert header == ("# a,gap,energy,eps,mu,profile_err_l2,profile_err_sup,iterations,newton_steps,"
                      "tangent_negatives,h")
    limits = json.loads((out1 / "limits.json").read_text())
    assert set(limits) == {f.name for f in fields(LimitsReport)}


def test_sweep_abort_is_a_fail(tmp_path, capsys):
    # h = 8 / 256 cannot resolve the third gap in 2-D: its energy is negative
    cfg = tmp_path / "abort.cfg"
    cfg.write_text(
        "[problem]\nn = 2\n"
        "[domain]\nkind = ball\nradius = 8.0\nresolution = 256\n"
        "[groundstate]\nresolution = 1024\n"
    )
    out = tmp_path / "ab"
    assert run_command(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert "FAIL  sweep completed  (a = " in capsys.readouterr().out
    files = json.loads((out / "manifest.json").read_text())["files"]
    assert "sweep.csv" in files and "fit.json" not in files


def test_nonexist_command(tmp_path, capsys):
    out = tmp_path / "ne"
    code = run_command(
        [
            "nonexist", "--a-mult", "1.2", "--gs-resolution", "1024",
            "--resolution", "2048", "--taus", "5;10;20", "--out", str(out),
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "PASS  energies decreasing" in text
    assert (out / "nonexist.csv").exists()


def test_uniqueness_command(tmp_path, capsys):
    out = tmp_path / "uniq"
    cfg = tmp_path / "u.cfg"
    cfg.write_text(
        "[problem]\nb = 0.5\na_mult = 0.9\n"
        "[domain]\nresolution = 512\n"
        "[groundstate]\nresolution = 1024\n"
        "[flow]\ntol = 1e-8\n"
        "[uniqueness]\nn_starts = 3\n"
    )
    code = run_command(["uniqueness", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    rep = json.loads((out / "uniqueness.json").read_text())
    assert rep["n_converged"] == 3
    assert rep["max_l2_distance"] < 1e-4
    assert set(rep) == {f.name for f in fields(UniquenessReport)} | {"a"}
    assert "PASS  every start converged  (3 of 3)" in capsys.readouterr().out


def test_uniqueness_unconverged_starts_fail(tmp_path, capsys):
    out = tmp_path / "uniq"
    cfg = tmp_path / "u.cfg"
    cfg.write_text(
        "[problem]\nb = 0.5\na_mult = 0.9\n"
        "[domain]\nresolution = 512\n"
        "[groundstate]\nresolution = 1024\n"
        "[flow]\nmax_iters = 3\n"
        "[uniqueness]\nn_starts = 3\n"
    )
    assert run_command(["uniqueness", "--config", str(cfg), "--out", str(out)]) == 2
    assert "FAIL  every start converged  (0 of 3)" in capsys.readouterr().out

    def reject(token):
        raise ValueError(f"not JSON: {token}")

    rep = json.loads((out / "uniqueness.json").read_text(), parse_constant=reject)
    assert rep["n_converged"] == 0 and rep["energy_spread_rel"] is None


# what the message of a case names, where the test pins it
_NAMED = {
    "nonexist-one-tau": "3 fitted columns need as many taus in tau_list, got 1",
    "nonexist-no-taus": "tau_list must be nonempty",
    "gn-no-random": "[gn] n_random 0 is below 1",
    "gn-no-taus": "[trial] tau_list is empty",
    "nonexist-at-threshold": "nonexist needs a > a_star; got a/a_star = 1.0000",
    "sweep-no-potential": "sweep requires a potential",
    "unknown-domain-kind": "unknown domain kind 'square'",
    "malformed-config": "malformed config: File contains no section headers.",
    "unreadable-config": "cannot read config file",
}


@pytest.mark.parametrize(
    "argv, text",
    [
        pytest.param(["ground-state", "--r-max", "5"], "", id="argv0"),
        pytest.param(["ground-state", "--gs-resolution", "32"], "", id="argv1"),
        pytest.param(["minimize", "--resolution", "8"], "", id="argv2"),
        pytest.param(["uniqueness", "--n-starts", "2"], "", id="argv3"),
        pytest.param(["nonexist", "--a-mult", "1.2", "--taus", "10;5"], "", id="argv4"),
        # inputs that break a hypothesis are bad input, not solver outcomes
        pytest.param(["minimize"], "[domain]\nx_lo = 1.0\n", id="origin-outside"),
        pytest.param(
            ["nonexist", "--a-mult", "1.2"], "[trial]\ncutoff_radius = 5\n", id="support-past-boundary"
        ),
        # no node within R of 0, so the trial function vanishes on the grid
        pytest.param(
            ["nonexist", "--a-mult", "1.2"],
            "[trial]\ncutoff_radius = 1e-6\n[domain]\nx_hi = 8.1\n",
            id="zero-trial",
        ),
        # three records are left after dropping the widest two
        pytest.param(
            ["sweep", "--gs-resolution", "512", "--resolution", "512"],
            "[sweep]\nn_points = 5\n",
            id="short-sweep",
        ),
        # potentials outside the paper's form, for every command that builds one
        pytest.param(["uniqueness", "--n-starts", "3"], "[potential]\nzeros = 0:2\n", id="zero-at-origin"),
        pytest.param(
            ["uniqueness", "--n-starts", "3"],
            "[potential]\np0 = -1\n[flow]\nmax_iters = 50\n",
            id="negative-origin-exponent",
        ),
        pytest.param(["minimize"], "[potential]\nkind = cubic\n", id="unknown-h-kind"),
        pytest.param(["minimize"], "[potential]\nh_params =\n", id="no-h-params"),
        pytest.param(["minimize"], "[potential]\nh_params = 1.0; 2.0\n", id="constant-h-two-params"),
        pytest.param(GN_SMALL, "[trial]\ncutoff_radius = -0.5\n", id="gn-negative-cutoff"),
        pytest.param(GN_SMALL, "[trial]\ncutoff_radius = 0\n", id="gn-zero-cutoff"),
        pytest.param(
            ["nonexist", "--a-mult", "1.2"], "[trial]\ncutoff_radius = -0.5\n", id="nonexist-negative-cutoff"
        ),
        # too few or no tau values, and no random functions: nothing to fit or to take the min of
        pytest.param(["nonexist", "--a-mult", "1.2", "--taus", "5"], "", id="nonexist-one-tau"),
        pytest.param(["nonexist", "--a-mult", "1.2", "--taus", ";"], "", id="nonexist-no-taus"),
        pytest.param(["gn-check", "--n-random", "0"], "", id="gn-no-random"),
        pytest.param(["gn-check", "--taus", ";"], "", id="gn-no-taus"),
        pytest.param(["nonexist", "--a-mult", "1.0"], "", id="nonexist-at-threshold"),
        pytest.param(["sweep"], "[potential]\nkind = none\n", id="sweep-no-potential"),
        pytest.param(["minimize"], "[domain]\nkind = square\n", id="unknown-domain-kind"),
        pytest.param(["ground-state"], "[problem\nn = 1\n", id="malformed-config"),
        pytest.param(["ground-state"], None, id="unreadable-config"),  # no file at the path
    ],
)
def test_out_of_range_values_are_config_errors(tmp_path, capsys, monkeypatch, request, argv, text):
    flows = []
    flow = critlab.asymptotics.gradient_flow_minimize

    def counted(*args, **kwargs):
        flows.append(args)
        return flow(*args, **kwargs)

    monkeypatch.setattr(critlab.asymptotics, "gradient_flow_minimize", counted)
    cfg = tmp_path / "run.cfg"
    if text is not None:
        cfg.write_text(text)
    code = run_command(argv + ["--config", str(cfg), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert flows == []  # a short sweep is refused before its first flow
    assert code == 1
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert _NAMED.get(request.node.callspec.id, "") in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_minimize_solver_failure_exit_code(tmp_path):
    cfg = tmp_path / "m.cfg"
    cfg.write_text(
        "[problem]\nb = 0.5\na_mult = 0.5\n"
        "[domain]\nresolution = 256\n"
        "[groundstate]\nresolution = 512\n"
        "[flow]\nmax_iters = 2\n"  # Newton needs 3 steps here
    )
    assert run_command(["minimize", "--config", str(cfg)]) == 2


def test_minimize_reports_newton_steps(tmp_path, capsys):
    cfg = tmp_path / "m.cfg"
    cfg.write_text(
        "[problem]\nb = 0.5\na_mult = 0.5\n"
        "[domain]\nresolution = 256\n"
        "[groundstate]\nresolution = 512\n"
    )
    out = tmp_path / "min"
    assert run_command(["minimize", "--config", str(cfg), "--out", str(out)]) == 0
    assert "iterations = 0  newton_steps = 3" in capsys.readouterr().out
    record = json.loads((out / "minimizer.json").read_text())
    assert set(record) == {f.name for f in fields(MinimizerResult)} - {"u"} | {"a", "profile_csv"}
    assert (record["iterations"], record["newton_steps"], record["tangent_negatives"]) == (0, 3, 0)


@pytest.mark.parametrize("command", ["minimize", "uniqueness"])
@pytest.mark.parametrize("resolution", ["512", "2048"])
def test_minimize_above_threshold_fails(tmp_path, capsys, monkeypatch, command, resolution):
    # with V(0) = 0 no minimizer exists for a >= a*: minimize and uniqueness
    # refuse the input before the ground-state solve, and write no archive
    monkeypatch.setattr("critlab.cli.solve_ground_state", lambda *args, **kw: pytest.fail("solved"))
    for a_mult in ("1.0", "1.1"):
        out = tmp_path / f"above{a_mult}"
        code = run_command(
            [
                command, "--a-mult", a_mult, "--resolution", resolution,
                "--gs-resolution", "1024", "--n-starts", "3", "--out", str(out),
            ]
        )
        assert code == 1
        assert f"{command} needs a < a_star; got a/a_star = {float(a_mult):.4f}" in capsys.readouterr().err
        assert not out.exists()


def test_minimize_refuses_a_grid_scale_spike(tmp_path, capsys):
    # the limit-profile start at 0.999 a* on 512 cells falls into a spike
    # about one cell wide with energy -105, a tangent count of 0 and a
    # residual of 1e-9: the library refuses it, so no archive is written
    out = tmp_path / "spike"
    code = run_command(
        ["minimize", "--a-mult", "0.999", "--resolution", "512", "--gs-resolution", "2048", "--out", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("solver failure: NotConverged: ")
    assert "energy -105.3" in err and "eps = 0.0336" in err and "h = 0.03125" in err
    assert "refine the grid" in err
    assert not out.exists()


def test_verify_all_command(tmp_path, capsys, monkeypatch):
    solves = []

    def counted(*args, **kwargs):
        solves.append(args)
        return solve_ground_state(*args, **kwargs)

    monkeypatch.setattr("critlab.cli.solve_ground_state", counted)
    out = tmp_path / "va"
    assert run_command(["verify-all", "--out", str(out)]) == 0
    assert len(solves) == 1  # the four commands share the (1, 0.5) ground state
    text = capsys.readouterr().out
    assert "ALL CHECKS PASS" in text
    assert "FAIL" not in text
    # the four commands' checks plus the panel's own three
    n_pass = sum(line.startswith("PASS  ") for line in text.splitlines())
    assert n_pass == 10
    checks = json.loads((out / "checks.json").read_text())
    assert len(checks) == 10 and all(c["ok"] is True for c in checks)
    assert "verify.json" not in json.loads((out / "manifest.json").read_text())["files"]


@pytest.mark.parametrize(
    "potential",
    [
        "kind = poly_abs\nh_params = 1.0;0.5\n",
        "kind = tabulated\nh_nodes = -8;0;8\nh_params = 2;1;2\n",
    ],
    ids=["poly_abs", "tabulated"],
)
def test_minimize_h_kinds(tmp_path, capsys, potential):
    cfg = tmp_path / "m.cfg"
    cfg.write_text(
        "[problem]\nb = 0.5\na_mult = 0.5\n"
        "[domain]\nresolution = 512\n"
        "[groundstate]\nresolution = 1024\n"
        "[potential]\n" + potential
    )
    out = tmp_path / "min"
    assert run_command(["minimize", "--config", str(cfg), "--out", str(out)]) == 0
    assert "FAIL" not in capsys.readouterr().out
    checks = json.loads((out / "checks.json").read_text())
    assert len(checks) == 2 and all(c["ok"] for c in checks)


def test_minimize_without_potential(tmp_path, capsys):
    # V = 0: the minimization starts from seeded random values, not from the
    # limit profile
    cfg = tmp_path / "m.cfg"
    cfg.write_text(
        "[domain]\nx_lo = -1.0\nx_hi = 1.0\nresolution = 256\n"
        "[potential]\nkind = none\n"
        "[groundstate]\nresolution = 1024\n"
    )
    out = tmp_path / "min"
    assert run_command(["minimize", "--config", str(cfg), "--out", str(out)]) == 0
    assert "FAIL" not in capsys.readouterr().out
    record = json.loads((out / "minimizer.json").read_text())
    assert record["breakdown"]["potential_term"] == 0.0 and record["iterations"] > 0


def test_ground_state_archive_is_the_same_from_every_command(tmp_path):
    # the ground state is a value: a command that also asks it for moments
    # (sweep, for lambda) archives the same bytes as ground-state
    cfg = tmp_path / "s.cfg"
    cfg.write_text(MINI_SWEEP_CFG)
    gs_out, sweep_out = tmp_path / "gs", tmp_path / "sweep"
    assert run_command(["ground-state", "--config", str(cfg), "--out", str(gs_out)]) == 0
    run_command(["sweep", "--config", str(cfg), "--out", str(sweep_out)])
    text = (gs_out / "groundstate.json").read_bytes()
    assert (sweep_out / "groundstate.json").read_bytes() == text
    assert "moments" not in json.loads(text)


def test_gn_check_command(tmp_path):
    assert run_command(GN_SMALL + ["--out", str(tmp_path / "gn")]) == 0


def test_gn_check_on_a_ball(tmp_path, capsys):
    # the random H^1_0 functions of a ball are cosine modes vanishing at the radius
    cfg = tmp_path / "ball.cfg"
    cfg.write_text("[problem]\nn = 2\n[domain]\nkind = ball\nradius = 2.0\n")
    out = tmp_path / "gn"
    assert run_command(GN_SMALL + ["--config", str(cfg), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "PASS  quotient bound (random)" in text and "PASS  trial family saturates" in text
    assert json.loads((out / "gn.json").read_text())["min_ratio"] > 1.0


@pytest.mark.parametrize("domain", [Interval(-1.0, 1.0), Ball(2, 4.0)], ids=["interval", "ball"])
def test_random_h10_matches_the_mode_loop(domain):
    # the vectorized mode sum against the loop it replaced: the same terms
    # summed in another order, so equal to n_modes * eps * sum |amplitude|
    grid = build_grid(domain, 2048)
    got = _random_h10(grid, np.random.default_rng(7)).values
    ref = random_h10(grid, np.random.default_rng(7)).values
    amps = np.random.default_rng(7).standard_normal(24) / (1.0 + np.arange(24)) ** 2
    assert np.max(np.abs(got - ref)) <= 24 * np.finfo(float).eps * np.sum(np.abs(amps))


def test_unwritable_output_dir(tmp_path):
    # a regular file as parent defeats the archive writer even when the
    # test runs as root (plain read-only modes do not)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code = run_command(
        ["ground-state", "--gs-resolution", "512", "--out", str(blocker / "sub")]
    )
    assert code == 2


def test_output_root_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CRITLAB_OUTPUT_ROOT", str(tmp_path / "root"))
    code = run_command(["ground-state", "--gs-resolution", "512"])
    assert code == 0
    assert (tmp_path / "root" / "ground-state" / "manifest.json").exists()
