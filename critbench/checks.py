"""Output checks, run after the timed phase.

Each check compares a round's result against a property the method must
have or against an independent computation (the benchmark's own fits and
distances, a solve by another path, the scipy oracle), never against a
stored copy of critlab's output.  Inputs are plain data, so the checks can
be fed corrupted results (see test_checks.py).

A check function returns a list of (name, ok, detail) triples.
"""
from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np


def _strictly_decreasing(xs) -> bool:
    return all(b < a for a, b in zip(xs, xs[1:]))


def loglog_slope(x, y) -> float:
    """Least-squares slope of log y against log x."""
    lx, ly = np.log(np.asarray(x, float)), np.log(np.asarray(y, float))
    lx0 = lx - lx.mean()
    return float(np.dot(lx0, ly - ly.mean()) / np.dot(lx0, lx0))


# lemma_energy_bound is the leading term of the trial-function estimate of
# the continuous energy.  The P1 minimizer's energy lies above the continuous
# one by the grid's kinetic-energy error, of order h^2 / eps^4 for a profile
# of width eps on a grid of step h: about 1% of e at the sweep's tightest
# point.  So each energy may exceed its bound by h^2 / eps^4, plus a margin
# of ENERGY_MARGIN times the bound.
ENERGY_MARGIN = 0.0025


def energy_allowance(bound: float, eps: float, h: float) -> float:
    """Largest energy the upper-bound check accepts at one sweep point."""
    return bound * (1.0 + ENERGY_MARGIN) + h**2 / eps**4


def check_sweep(res: dict, ref: dict) -> list:
    out = []
    n = len(res["energy"])
    out.append(("sweep complete", not res["aborted"] and n == res["n_scheduled"],
                f"{n} of {res['n_scheduled']} points"))
    # records are in ascending a (descending gap)
    energy, eps, gap = res["energy"], res["eps"], res["gap"]
    allow = [energy_allowance(ub, ep, ref["h"]) for ub, ep in zip(ref["lemma_bound"], eps)]
    ok = n > 0 and all(0.0 < e <= ub for e, ub in zip(energy, allow))
    out.append(("0 < energy <= trial bound", ok,
                f"max e/allowance {max((e / ub for e, ub in zip(energy, allow)), default=math.nan):.4f}"))
    asc = all(a2 > a1 for a1, a2 in zip(res["a"], res["a"][1:]))
    out.append(("energy decreasing in a", asc and _strictly_decreasing(energy), ""))
    out.append(("eps decreasing in a", asc and _strictly_decreasing(eps), ""))

    p = ref["p"]
    keep = sorted(range(n), key=lambda i: gap[i])[: max(n - 2, 0)]  # drop the widest two
    if len(keep) >= 3 and min(energy[i] for i in keep) > 0.0:
        g = [gap[i] for i in keep]
        se = loglog_slope(g, [energy[i] for i in keep])
        sp = loglog_slope(g, [eps[i] for i in keep])
    else:
        se = sp = math.nan
    pe, pp = p / (p + 2.0), 1.0 / (p + 2.0)
    out.append(("energy exponent", abs(se - pe) <= 0.025, f"{se:.4f} vs {pe:.4f} +- 0.025"))
    out.append(("eps exponent", abs(sp - pp) <= 0.0125, f"{sp:.4f} vs {pp:.4f} +- 0.0125"))

    bs = ref["beta_sq"]
    tight = int(np.argmin(gap)) if n else 0
    dev = abs(res["mu"][tight] * eps[tight] ** 2 + bs) / bs if n else math.nan
    out.append(("mu eps^2 -> -beta^2", dev < 0.05, f"rel dev {dev:.4f}"))
    err = res["err_sup"][tight] if n else math.nan
    out.append(("rescaled profile sup error", err < 0.05, f"{err:.4g}"))
    out.append(check_archive(res["archive_dir"]))
    return out


def check_archive(out_dir: str):
    """Every file listed in the manifest exists with the recorded sha256."""
    try:
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            files = json.load(fh)["files"]
        bad = []
        for name, digest in files.items():
            with open(os.path.join(out_dir, name), "rb") as fh:
                if hashlib.sha256(fh.read()).hexdigest() != digest:
                    bad.append(name)
        return ("archive manifest hashes", bool(files) and not bad, f"mismatched {bad}")
    except (OSError, ValueError, KeyError) as exc:
        return ("archive manifest hashes", False, repr(exc))


def max_pairwise_l2(endpoints, h: float) -> float:
    """Largest trapezoid-rule L2 distance between endpoint arrays (zero trace)."""
    worst = 0.0
    for i in range(len(endpoints)):
        for j in range(i + 1, len(endpoints)):
            d = np.asarray(endpoints[i]) - np.asarray(endpoints[j])
            worst = max(worst, math.sqrt(h * float(np.dot(d, d))))
    return worst


def check_multistart(res: dict, ref: dict) -> list:
    out = []
    n = res["n_starts"]
    ok = (res["n_converged"] == n and len(res["converged"]) == n
          and all(res["converged"]) and not res["failures"])
    out.append(("every start converges", ok, f"{sum(res['converged'])} of {n}"))
    d = max_pairwise_l2(res["endpoints"], res["h"])
    out.append(("max pairwise L2 distance", d < 1e-4 and res["report_max_l2"] < 1e-4,
                f"{d:.3g} (report {res['report_max_l2']:.3g})"))
    en = res["energy"]
    mean = float(np.mean(en)) if en else math.nan
    spread = (max(en) - min(en)) / abs(mean) if en else math.nan
    out.append(("energy spread", spread < 1e-8, f"{spread:.3g}"))
    rel = abs(mean - ref["energy"]) / abs(ref["energy"])
    out.append(("energy matches limit-profile start", ref["converged"] and rel < 1e-8,
                f"rel {rel:.3g}"))
    return out


def tau_square_coefficient(taus, energies) -> float:
    """Least-squares c2 in E(tau) = c2 tau^2 + c0."""
    t = np.asarray(taus, float)
    A = np.stack([t * t, np.ones_like(t)], axis=1)
    coef, *_ = np.linalg.lstsq(A, np.asarray(energies, float), rcond=None)
    return float(coef[0])


def check_constants(res: dict, oracle: dict) -> list:
    out = []
    worst_id = 0.0
    worst_a = 0.0
    worst_m = 0.0
    for row in res["table"]:
        bs = row["beta_sq"]
        r1 = abs(row["grad_sq"] - row["l2_sq"] / bs) / row["l2_sq"]
        r2 = abs(row["grad_sq"] - row["nonlinear_int"] / (1.0 + bs)) / row["grad_sq"]
        worst_id = max(worst_id, r1, r2, 0.0 if row["identities_passed"] else math.inf)
        o = oracle.get((row["N"], row["b"]))
        if o is None:
            worst_a = math.inf
            continue
        worst_a = max(worst_a, abs(row["a_star"] - o["a_star"]) / o["a_star"])
        for p in ("2", "4"):
            worst_m = max(worst_m, abs(row[f"moment_{p}"] - o["moments"][p]) / o["moments"][p])
        # V = |x|^2, L0 = 1: lambda = (moment_2)^(1/4)
        lam = o["moments"]["2"] ** 0.25
        worst_m = max(worst_m, abs(row["lambda"] - lam) / lam)
    n_ok = len(res["table"]) == len(oracle)
    out.append(("identity residuals", n_ok and worst_id < 1e-6, f"worst {worst_id:.3g}"))
    out.append(("a* vs oracle", n_ok and worst_a < 1e-5, f"worst rel {worst_a:.3g}"))
    out.append(("moments and lambda vs oracle", n_ok and worst_m < 1e-5, f"worst rel {worst_m:.3g}"))

    out.append(("quotient bound", res["gn_min_ratio"] >= 1.0 - 1e-6,
                f"min ratio {res['gn_min_ratio']:.8f}"))
    d = res["trial_deficits"]
    ok = bool(d) and all(x > 0.0 for x in d) and _strictly_decreasing(d) and d[-1] < 1e-3
    out.append(("trial deficits", ok, ", ".join(f"{x:.3g}" for x in d)))

    e = res["nonexist_energy"]
    c2 = tau_square_coefficient(res["nonexist_taus"], e) if len(e) >= 2 else math.nan
    pred = (1.0 - res["nonexist_a_ratio"]) / res["nonexist_beta_sq"]
    ok = (_strictly_decreasing(e) and all(x < 0.0 for x in e[1:])
          and abs(c2 - pred) <= 0.05 * abs(pred))
    out.append(("nonexistence energies", ok, f"tau^2 coeff {c2:.5g} vs {pred:.5g}"))

    out.append(("linearized eigenvalue < 0", res["probe_eigenvalue"] < 0.0,
                f"{res['probe_eigenvalue']:.6g}"))
    out.append(("dilation residual", res["probe_residual"] < 1e-4,
                f"{res['probe_residual']:.3g}"))
    return out


CHECKS = {"sweep": check_sweep, "multistart": check_multistart, "constants": check_constants}
