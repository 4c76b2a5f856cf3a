import inspect
import json

import pytest

from critlab import FlowConfig, solve_ground_state
from critlab.cli import default_config, parse_config, run_command, serialize_config
from critlab.errors import ConfigError

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


def test_cli_defaults_match_library():
    cfg = default_config()
    lib = FlowConfig()
    flow = cfg["flow"]
    assert (flow["dt"], flow["tol"], flow["max_iters"], flow["dt_max"], flow["probe_floor"]) == (
        lib.dt, lib.tol, lib.max_iters, lib.dt_max, lib.energy_floor
    )
    sig = inspect.signature(solve_ground_state).parameters
    for key in ("resolution", "r_max", "r0", "shoot_tol"):
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
    bad = tmp_path / "bad.cfg"
    bad.write_text("[problem]\nn = not_a_number\n")
    assert run_command(["ground-state", "--config", str(bad)]) == 1


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
    assert "config.cfg" in manifest["files"]


def test_sweep_command_deterministic(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(MINI_SWEEP_CFG)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_command(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
    assert run_command(["sweep", "--config", str(cfg), "--out", str(out2)]) == 0
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1 == m2
    assert {"sweep.csv", "fit.json", "groundstate.json", "config.cfg"} <= set(m1["files"])
    header = (out1 / "sweep.csv").read_text().splitlines()[0]
    assert header == "# a,gap,energy,eps,mu,errL2,errSup,iters"


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
    assert rep["max_l2"] < 1e-4


def test_minimize_solver_failure_exit_code(tmp_path):
    cfg = tmp_path / "m.cfg"
    cfg.write_text(
        "[problem]\nb = 0.5\na_mult = 0.5\n"
        "[domain]\nresolution = 256\n"
        "[groundstate]\nresolution = 512\n"
        "[flow]\nmax_iters = 3\n"
    )
    assert run_command(["minimize", "--config", str(cfg)]) == 2


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
