"""Per-layer spans for the traced run (``--trace 1``).

Every public function of a measured critlab module is wrapped with a timer
at each name a critlab module binds it under (its own module, the modules
that import it with ``from .x import f``, and the package namespace), so
calls between layers and calls from the benchmark are both seen.  The
program's source is not touched.

Each call is a span with a layer and a group.  A span's self time is its
duration minus the durations of its child spans; a child in the same group
as its parent is merged into the parent instead (a recursive or helper call
inside one piece of work is not a boundary).  A function not listed in
``GROUPS`` takes its parent's group when the parent is in the same layer,
else the group ``other``.  Spans are summed in memory; ``metrics`` turns them
into the per-layer metrics.
"""
from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("groundstate", "quadrature", "grids", "potentials", "variational", "asymptotics", "archive")

GROUPS = {
    "groundstate": {
        "solve_ground_state": "solve",
        "moment": "moment",
        "linearized_probe": "probe",
        "scaling_direction_residual": "probe",
    },
    "variational": {
        "gradient_flow_minimize": "flow",
        "evaluate_energy": "result",
        "lagrange_multiplier": "result",
        "fit_multiplier": "result",
        "euler_lagrange_residual": "result",
        "gn_quotient": "quotient",
        "make_trial_function": "quotient",
        "trial_quotient": "quotient",
        "nonexistence_probe": "quotient",
        "multistart_uniqueness": "multistart",
    },
    "asymptotics": {
        "rescale_minimizer": "rescale",
        "fit_scaling_laws": "fit",
        "check_limits": "fit",
    },
}

UNITS = {
    "groundstate.solve_s": "s",
    "groundstate.solves": "count",
    "groundstate.profile_nodes": "count",
    "groundstate.moment_s": "s",
    "groundstate.probe_s": "s",
    "groundstate.probe_iterations": "count",
    "quadrature.cell_moments_calls": "count",
    "quadrature.cells": "count",
    "quadrature.s": "s",
    "grids.hat_masses_calls": "count",
    "grids.hat_masses_per_key": "ratio",
    "grids.s": "s",
    "potentials.s": "s",
    "variational.flow_s": "s",
    "variational.flow_iterations": "count",
    "variational.flow_ns_per_node_iter": "ns",
    "variational.flow_wait_s": "s",
    "variational.iterations_per_cpu_s": "1/s",
    "variational.result_s": "s",
    "variational.quotient_s": "s",
    "asymptotics.self_s": "s",
    "asymptotics.rescale_s": "s",
    "asymptotics.fit_s": "s",
    "archive.write_s": "s",
    "archive.bytes": "bytes",
}

# per-value formatting helper called once per number written; a timer
# around it would cost more than the work it measures
SKIP = {("archive", "fmt")}


class _Frame:
    __slots__ = ("layer", "group", "t0", "c0", "child")

    def __init__(self, layer, group, t0, c0):
        self.layer, self.group = layer, group
        self.t0, self.c0, self.child = t0, c0, 0.0


class Tracer:
    """Collects spans and per-call counts; one instance per process."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_s = defaultdict(float)     # (layer, group) -> seconds
        self.calls = defaultdict(int)        # (layer, name) -> calls
        self.counts = defaultdict(float)     # metric name -> summed count
        self.hat_keys = set()
        self.flow_cpu_s = 0.0

    # -- span bookkeeping ---------------------------------------------
    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, layer: str, fn):
        name = fn.__name__
        listed = GROUPS.get(layer, {}).get(name)
        observe = _OBSERVERS.get((layer, name))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            same_layer = parent is not None and parent.layer == layer
            group = listed or (parent.group if same_layer else "other")
            if same_layer and parent.group == group:
                out = fn(*args, **kwargs)  # merged into the parent span
            else:
                frame = _Frame(layer, group, time.perf_counter(), time.thread_time())
                stack.append(frame)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    dur = time.perf_counter() - frame.t0
                    cpu = time.thread_time() - frame.c0
                    with self._lock:
                        self.self_s[(layer, group)] += dur - frame.child
                        if name == "gradient_flow_minimize":
                            self.flow_cpu_s += cpu
                            self.counts["variational.flow_wait_s"] += dur - cpu
                    if parent is not None:
                        parent.child += dur
            with self._lock:
                self.calls[(layer, name)] += 1
            if observe is not None:
                observe(self, args, kwargs, out)
            return out

        traced.__wrapped_by_critbench__ = True
        return traced

    # -- metrics --------------------------------------------------------
    def layer_s(self, layer: str) -> float:
        return sum(v for (lay, _), v in self.self_s.items() if lay == layer)

    def metrics(self) -> dict:
        s = self.self_s
        c = self.counts
        node_iters = c["variational.flow_node_iterations"]
        keys = len(self.hat_keys)
        hat_calls = self.calls[("grids", "hat_masses")]
        flow_iters = c["variational.flow_iterations"]
        m = {
            "groundstate.solve_s": s[("groundstate", "solve")],
            "groundstate.solves": self.calls[("groundstate", "solve_ground_state")],
            "groundstate.profile_nodes": c["groundstate.profile_nodes"],
            "groundstate.moment_s": s[("groundstate", "moment")],
            "groundstate.probe_s": s[("groundstate", "probe")],
            "groundstate.probe_iterations": c["groundstate.probe_iterations"],
            "quadrature.cell_moments_calls": self.calls[("quadrature", "cell_moments")],
            "quadrature.cells": c["quadrature.cells"],
            "quadrature.s": self.layer_s("quadrature"),
            "grids.hat_masses_calls": hat_calls,
            "grids.hat_masses_per_key": hat_calls / keys if keys else 0.0,
            "grids.s": self.layer_s("grids"),
            "potentials.s": self.layer_s("potentials"),
            "variational.flow_s": s[("variational", "flow")],
            "variational.flow_iterations": flow_iters,
            "variational.flow_ns_per_node_iter": (
                1e9 * s[("variational", "flow")] / node_iters if node_iters else 0.0
            ),
            "variational.flow_wait_s": c["variational.flow_wait_s"],
            "variational.iterations_per_cpu_s": (
                flow_iters / self.flow_cpu_s if self.flow_cpu_s > 0 else 0.0
            ),
            "variational.result_s": s[("variational", "result")],
            "variational.quotient_s": s[("variational", "quotient")],
            "asymptotics.self_s": self.layer_s("asymptotics"),
            "asymptotics.rescale_s": s[("asymptotics", "rescale")],
            "asymptotics.fit_s": s[("asymptotics", "fit")],
            "archive.write_s": self.layer_s("archive"),
            "archive.bytes": c["archive.bytes"],
        }
        return {k: float(v) for k, v in m.items()}


# -- counts recorded at the boundaries -----------------------------------

def _obs_solve(tr, args, kwargs, out):
    with tr._lock:
        tr.counts["groundstate.profile_nodes"] += out.profile.nodes.size


def _obs_probe(tr, args, kwargs, out):
    with tr._lock:
        tr.counts["groundstate.probe_iterations"] += out.iterations


def _obs_cells(tr, args, kwargs, out):
    with tr._lock:
        tr.counts["quadrature.cells"] += out.shape[0]


def _obs_hat(tr, args, kwargs, out):
    grid = args[0] if args else kwargs["grid"]
    alpha = args[1] if len(args) > 1 else kwargs["weight_exponent"]
    with tr._lock:
        tr.hat_keys.add((grid.domain, grid.nodes.size, float(alpha)))


def _obs_flow(tr, args, kwargs, out):
    with tr._lock:
        tr.counts["variational.flow_iterations"] += out.iterations
        tr.counts["variational.flow_node_iterations"] += out.iterations * out.u.grid.n_interior


def _obs_write(tr, args, kwargs, out):
    out_dir = args[1] if len(args) > 1 else kwargs["out_dir"]
    names = list(out["files"]) + ["manifest.json"]
    total = sum(os.path.getsize(os.path.join(out_dir, n)) for n in names)
    with tr._lock:
        tr.counts["archive.bytes"] += total


_OBSERVERS = {
    ("groundstate", "solve_ground_state"): _obs_solve,
    ("groundstate", "linearized_probe"): _obs_probe,
    ("quadrature", "cell_moments"): _obs_cells,
    ("grids", "hat_masses"): _obs_hat,
    ("variational", "gradient_flow_minimize"): _obs_flow,
    ("archive", "write_outputs"): _obs_write,
}


def install(tracer: Tracer) -> None:
    """Wrap every public function of the measured modules.

    Each original function is replaced at every attribute of every loaded
    critlab module that holds it, so both intra- and inter-module calls
    go through the timer.
    """
    import critlab

    pkg_modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "critlab" or name.startswith("critlab."))]
    replaced = {}
    for layer in LAYERS:
        mod = sys.modules[f"critlab.{layer}"]
        for name, fn in vars(mod).items():
            if (name.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__ or (layer, name) in SKIP):
                continue
            replaced[id(fn)] = (fn, tracer.wrap(layer, fn))
    for m in pkg_modules:
        for attr, val in list(vars(m).items()):
            hit = replaced.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(m, attr, hit[1])
    if not getattr(critlab.solve_ground_state, "__wrapped_by_critbench__", False):
        raise RuntimeError("tracing did not reach the critlab namespace")
