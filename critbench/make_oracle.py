"""Regenerate critbench/oracle.json: threshold constants of the constants
workload from the independent scipy DOP853 shooting oracle.

Run from the repository root (takes about 15 s):

    python3 critbench/make_oracle.py

The oracle lives in tests/oracle_tools.py and shares no code with critlab.
"""
from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "tests"))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))  # for the pair list only

from oracle_tools import oracle_ground_state  # noqa: E402
from workloads import CONSTANT_PAIRS  # noqa: E402


def main() -> None:
    rows = []
    for N, b in CONSTANT_PAIRS:
        res = oracle_ground_state(N, b)
        if max(res["id_residual_grad"], res["id_residual_nl"]) > 1e-10:
            raise SystemExit(f"oracle identities not closed for N={N}, b={b}")
        rows.append({"N": N, "b": b, "a_star": float(res["a_star"]),
                     "moments": {f"{p:g}": float(v) for p, v in res["moments"].items()}})
        print(f"N={N} b={b} a*={float(res['a_star'])!r}", file=sys.stderr)
    with open(os.path.join(HERE, "oracle.json"), "w") as fh:
        json.dump({"source": "tests/oracle_tools.py oracle_ground_state (DOP853, rtol 1e-12)",
                   "pairs": rows}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
