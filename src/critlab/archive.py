"""Run archives: deterministic file layout with a content-hash manifest."""
from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .asymptotics import SweepRecord
from .errors import IoFailure

FORMAT = "critlab.archive/1"


def fmt(x) -> str:
    """Scalars rendered with 12 significant digits."""
    return f"{float(x):.12g}"


@dataclass
class RunArchive:
    """Named file contents to be written together with a manifest."""

    config_text: str = ""
    files: dict = field(default_factory=dict)

    def add(self, name: str, content: str) -> None:
        self.files[name] = content

    def add_json(self, name: str, obj) -> None:
        self.files[name] = json.dumps(_plain(obj), sort_keys=True, indent=1)


def _plain(obj):
    """JSON form: a dataclass is the fields it compares by (so no memo), an
    array or tuple a list, NaN null."""
    if is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in fields(obj) if f.compare}
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return None if isinstance(obj, float) and math.isnan(obj) else obj


def sweep_csv(records) -> str:
    """CSV with one column per SweepRecord field, named in the comment line."""
    names = [f.name for f in fields(SweepRecord)]
    lines = ["# " + ",".join(names)]
    for r in records:
        values = (getattr(r, name) for name in names)
        lines.append(",".join(str(v) if isinstance(v, int) else fmt(v) for v in values))
    return "\n".join(lines) + "\n"


def grid_function_csv(u) -> str:
    """CSV of (node, value) rows including the zero boundary entries."""
    lines = ["# node,value"]
    full = u.full()
    for x, v in zip(u.grid.nodes, full):
        lines.append(f"{fmt(x)},{fmt(v)}")
    return "\n".join(lines) + "\n"


def scaling_fit_json(fit) -> dict:
    return {"format": "critlab.fit/1", **_plain(fit)}


def groundstate_json(gs) -> dict:
    return {"format": "critlab.groundstate/1", **_plain(gs)}


def write_outputs(archive: RunArchive, out_dir: str) -> dict:
    """Write every file plus manifest.json; returns the manifest dict."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        names = {}
        items = dict(archive.files)
        if archive.config_text:
            items["config.cfg"] = archive.config_text
        for name in sorted(items):
            content = items[name]
            data = content.encode() if isinstance(content, str) else content
            path = os.path.join(out_dir, name)
            os.makedirs(os.path.dirname(path) or out_dir, exist_ok=True)
            with open(path, "wb") as fh:
                fh.write(data)
            names[name] = hashlib.sha256(data).hexdigest()
        manifest = {"format": FORMAT, "files": names}
        with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=1)
        return manifest
    except OSError as exc:
        raise IoFailure(f"cannot write run archive to {out_dir!r}: {exc}") from exc
