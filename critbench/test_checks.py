"""Each output check rejects a result corrupted in the way it guards against.

The passing results are synthetic (exact power laws, identical endpoints,
oracle-consistent constants), so this runs in well under a second without
critlab:

    python3 -m pytest -q critbench/test_checks.py
"""
from __future__ import annotations

import copy
import hashlib
import json
import os

import numpy as np
import pytest

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
A_STAR, BETA_SQ, P = 1.4729051871268528, 1.5, 2.0
SWEEP_H = 16.0 / 16384


def failed(results) -> set:
    return {name for name, ok, _ in results if not ok}


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

@pytest.fixture
def sweep(tmp_path):
    gaps = sorted([0.1 * A_STAR * 0.5**k for k in range(8)] + [1e-3 * A_STAR], reverse=True)
    gaps = np.array(gaps)
    energy = 0.99 * gaps**0.5
    eps = 1.17 * gaps**0.25
    data = b"# a,gap\n1,2\n"
    (tmp_path / "sweep.csv").write_bytes(data)
    (tmp_path / "manifest.json").write_text(
        json.dumps({"files": {"sweep.csv": hashlib.sha256(data).hexdigest()}}))
    res = {
        "aborted": False, "n_scheduled": gaps.size,
        "a": list(A_STAR - gaps), "gap": list(gaps), "energy": list(energy), "eps": list(eps),
        "mu": list(-BETA_SQ / eps**2 * 1.01), "err_sup": list(0.02 * gaps / gaps[0]),
        "iterations": [100] * gaps.size, "archive_dir": str(tmp_path),
    }
    # the energies sit at the bound, as the sweep's do near its tightest gaps
    ref = {"beta_sq": BETA_SQ, "p": P, "h": SWEEP_H, "lemma_bound": list(energy)}
    return res, ref


def test_sweep_passes(sweep):
    assert failed(checks.check_sweep(*sweep)) == set()


def _flip_energy_sign(res, ref):
    res["energy"][3] = -res["energy"][3]


def _energy_over_bound(res, ref):
    res["energy"][2] = 1.01 * ref["lemma_bound"][2]


def _energy_over_grid_error(res, ref):
    allow = checks.energy_allowance(ref["lemma_bound"][-1], res["eps"][-1], ref["h"])
    res["energy"][-1] = 1.001 * allow


def _swap_energies(res, ref):
    res["energy"][4], res["energy"][5] = res["energy"][5], res["energy"][4]


def _swap_eps(res, ref):
    res["eps"][4], res["eps"][5] = res["eps"][5], res["eps"][4]


def _energy_exponent(res, ref):
    res["energy"] = [g**0.45 for g in res["gap"]]
    ref["lemma_bound"] = [2.0 * e for e in res["energy"]]


def _eps_exponent(res, ref):
    res["eps"] = [g**0.28 for g in res["gap"]]
    res["mu"] = [-BETA_SQ / e**2 for e in res["eps"]]


def _mu_limit(res, ref):
    res["mu"][-1] *= 1.08


def _profile_error(res, ref):
    res["err_sup"][-1] = 0.06


def _aborted(res, ref):
    res["aborted"] = True
    for key in ("a", "gap", "energy", "eps", "mu", "err_sup", "iterations"):
        res[key] = res[key][:-1]
    ref["lemma_bound"] = ref["lemma_bound"][:-1]


def _archive_tampered(res, ref):
    with open(os.path.join(res["archive_dir"], "sweep.csv"), "ab") as fh:
        fh.write(b"3,4\n")


@pytest.mark.parametrize("corrupt, check", [
    (_flip_energy_sign, "0 < energy <= trial bound"),
    (_energy_over_bound, "0 < energy <= trial bound"),
    (_energy_over_grid_error, "0 < energy <= trial bound"),
    (_swap_energies, "energy decreasing in a"),
    (_swap_eps, "eps decreasing in a"),
    (_energy_exponent, "energy exponent"),
    (_eps_exponent, "eps exponent"),
    (_mu_limit, "mu eps^2 -> -beta^2"),
    (_profile_error, "rescaled profile sup error"),
    (_aborted, "sweep complete"),
    (_archive_tampered, "archive manifest hashes"),
])
def test_sweep_rejects(sweep, corrupt, check):
    res, ref = sweep
    corrupt(res, ref)
    assert check in failed(checks.check_sweep(res, ref))


# ----------------------------------------------------------------------
# multistart
# ----------------------------------------------------------------------

@pytest.fixture
def multistart():
    rng = np.random.default_rng(0)
    x = np.linspace(-8.0, 8.0, 2049)[1:-1]
    u = np.exp(-x * x)
    n = 12
    res = {
        "n_starts": n, "n_converged": n, "failures": [], "converged": [True] * n,
        "endpoints": [u + 1e-9 * rng.standard_normal(u.size) for _ in range(n)],
        "energy": [0.123456789 * (1.0 + 1e-12 * k) for k in range(n)],
        "iterations": [500] * n, "report_max_l2": 1e-9, "h": 16.0 / 2048,
    }
    ref = {"energy": 0.123456789, "converged": True}
    return res, ref


def test_multistart_passes(multistart):
    assert failed(checks.check_multistart(*multistart)) == set()


def _not_converged(res, ref):
    res["converged"][5] = False
    res["n_converged"] -= 1


def _endpoint_perturbed(res, ref):
    res["endpoints"][7] = res["endpoints"][7] * (1.0 + 1e-3)


def _energy_spread(res, ref):
    res["energy"][3] *= 1.0 + 1e-7


def _reference_energy(res, ref):
    ref["energy"] *= 1.0 + 1e-7


@pytest.mark.parametrize("corrupt, check", [
    (_not_converged, "every start converges"),
    (_endpoint_perturbed, "max pairwise L2 distance"),
    (_energy_spread, "energy spread"),
    (_reference_energy, "energy matches limit-profile start"),
])
def test_multistart_rejects(multistart, corrupt, check):
    res, ref = multistart
    corrupt(res, ref)
    assert check in failed(checks.check_multistart(res, ref))


# ----------------------------------------------------------------------
# constants
# ----------------------------------------------------------------------

@pytest.fixture
def constants():
    with open(os.path.join(HERE, "oracle.json")) as fh:
        rows = json.load(fh)["pairs"]
    oracle = {(r["N"], r["b"]): r for r in rows}
    table = []
    for r in rows:
        bs = (2.0 - r["b"]) / r["N"]
        l2 = r["a_star"] ** (1.0 / bs)
        table.append({
            "N": r["N"], "b": r["b"], "beta_sq": bs, "a_star": r["a_star"],
            "l2_sq": l2, "grad_sq": l2 / bs, "nonlinear_int": l2 / bs * (1.0 + bs),
            "moment_2": r["moments"]["2"], "moment_4": r["moments"]["4"],
            "lambda": r["moments"]["2"] ** 0.25, "identities_passed": True,
        })
    taus = [5.0, 10.0, 20.0, 40.0]
    c2 = (1.0 - 1.2) / BETA_SQ
    res = {
        "table": table, "probe_eigenvalue": -4.6, "probe_residual": 1.6e-5,
        "gn_min_ratio": 1.3, "trial_deficits": [0.44, 0.025, 1.3e-4, 1.9e-8],
        "nonexist_taus": taus, "nonexist_energy": [c2 * t * t - 0.1 for t in taus],
        "nonexist_a_ratio": 1.2, "nonexist_beta_sq": BETA_SQ,
    }
    return res, oracle


def test_constants_pass(constants):
    assert failed(checks.check_constants(*constants)) == set()


def _a_star_off(res, oracle):
    res["table"][4]["a_star"] *= 1.0 + 1e-4


def _identity_off(res, oracle):
    res["table"][2]["grad_sq"] *= 1.0 + 1e-5


def _pair_missing(res, oracle):
    del res["table"][-1]


def _moment_off(res, oracle):
    res["table"][6]["moment_4"] *= 1.0 + 1e-4


def _lambda_off(res, oracle):
    res["table"][0]["lambda"] *= 1.0 + 1e-4


def _quotient_below(res, oracle):
    res["gn_min_ratio"] = 1.0 - 1e-5


def _deficit_order(res, oracle):
    res["trial_deficits"][2], res["trial_deficits"][3] = 1.9e-8, 1.3e-4


def _deficit_negative(res, oracle):
    res["trial_deficits"][-1] = -1e-9


def _nonexist_positive(res, oracle):
    res["nonexist_energy"][1] = abs(res["nonexist_energy"][1])


def _nonexist_coefficient(res, oracle):
    res["nonexist_energy"] = [1.1 * e for e in res["nonexist_energy"]]


def _eigenvalue_sign(res, oracle):
    res["probe_eigenvalue"] = 0.3


def _dilation_residual(res, oracle):
    res["probe_residual"] = 2e-4


@pytest.mark.parametrize("corrupt, check", [
    (_a_star_off, "a* vs oracle"),
    (_identity_off, "identity residuals"),
    (_pair_missing, "a* vs oracle"),
    (_moment_off, "moments and lambda vs oracle"),
    (_lambda_off, "moments and lambda vs oracle"),
    (_quotient_below, "quotient bound"),
    (_deficit_order, "trial deficits"),
    (_deficit_negative, "trial deficits"),
    (_nonexist_positive, "nonexistence energies"),
    (_nonexist_coefficient, "nonexistence energies"),
    (_eigenvalue_sign, "linearized eigenvalue < 0"),
    (_dilation_residual, "dilation residual"),
])
def test_constants_rejects(constants, corrupt, check):
    res, oracle = constants
    res = copy.deepcopy(res)
    corrupt(res, oracle)
    assert check in failed(checks.check_constants(res, oracle))
