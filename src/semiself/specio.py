"""JSON spec schema, CSV export and run manifests.

A triplet spec is a JSON object

    {"schema": 1, "gauss": [[...]], "drift": [...], "levy": [component, ...]}

with component kinds "atoms", "lattice" and "semistable" (expands to its
exact scale lattice; the strict drift it induces is added to the triplet
drift unless the component sets "strict_drift": false); any other kind, or a
"schema" other than ``SCHEMA_VERSION``, is a SpecError.  A spec without
"schema" is read as the current version.  Infinite lattice bounds serialize
as the strings "-inf" / "inf".  All writers are atomic (temp file + rename)
and every output can carry the sha256 hash of the spec it came from.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import tempfile
from dataclasses import dataclass

import numpy as np

from . import measures as ms
from . import nested
from . import triplets as tp
from .errors import SemiselfError

SCHEMA_VERSION = 1


class SpecError(SemiselfError):
    """The JSON spec does not match the schema."""


# ---------------------------------------------------------------------------
# triplet <-> dict


def _bound_to_json(v):
    if v == ms.NEG_INF:
        return "-inf"
    if v == ms.POS_INF:
        return "inf"
    return int(v)


def _bound_from_json(v):
    """An integer, an integral float, "-inf" or "inf"; nothing else."""
    if v in ("-inf", "inf"):
        return float(v)
    if type(v) is int or type(v) is float and v.is_integer():
        return int(v)
    raise SpecError(f"segment bound {json.dumps(v)} is not an integer, "
                    '"-inf" or "inf"')


def _component_to_dict(comp) -> dict:
    if isinstance(comp, ms.Atoms):
        return {"kind": "atoms", "points": comp.points.tolist(),
                "weights": comp.weights.tolist()}
    return {"kind": "lattice", "direction": comp.direction.tolist(),
            "base": comp.base, "anchor": comp.anchor,
            "segments": [{"w": s.w, "r": s.r,
                          "kmin": _bound_to_json(s.kmin),
                          "kmax": _bound_to_json(s.kmax),
                          "power": s.power} for s in comp.segments]}


def _component_from_dict(obj: dict):
    """Returns (component or None, extra drift or None)."""
    kind = obj.get("kind")
    if kind == "atoms":
        return ms.Atoms(obj["points"], obj["weights"]), None
    if kind == "lattice":
        segs = tuple(ms.Segment(w=float(s["w"]), r=float(s["r"]),
                                kmin=_bound_from_json(s.get("kmin", "-inf")),
                                kmax=_bound_from_json(s.get("kmax", "inf")),
                                power=int(s.get("power", 0)))
                     for s in obj["segments"])
        return ms.ScaleLattice(direction=obj["direction"], base=float(obj["base"]),
                               segments=segs,
                               anchor=float(obj.get("anchor", 1.0))), None
    if kind == "semistable":
        spec = nested.SemiStableSpec(
            b=float(obj["b"]), alpha=float(obj["alpha"]),
            direction=tuple(obj.get("direction", (1.0,))),
            w=float(obj.get("w", 1.0)), r0=float(obj.get("r0", 1.0)))
        trip = nested.semi_stable_triplet(spec)
        drift = trip.drift if obj.get("strict_drift", True) else None
        return trip.levy.components[0], drift
    raise SpecError(f"unknown component kind {kind!r}")


def triplet_to_dict(triplet: tp.LevyTriplet) -> dict:
    return {"schema": SCHEMA_VERSION,
            "gauss": triplet.gauss.tolist(),
            "drift": triplet.drift.tolist(),
            "levy": [_component_to_dict(c) for c in triplet.levy.components]}


def triplet_from_dict(obj: dict) -> tp.LevyTriplet:
    try:
        schema = obj.get("schema", SCHEMA_VERSION)
        if type(schema) is not int or schema != SCHEMA_VERSION:
            raise SpecError(f"unsupported spec schema {schema!r}; "
                            f"this version reads schema {SCHEMA_VERSION}")
        comps = []
        extra_drift = None
        for c in obj.get("levy", []):
            comp, drift = _component_from_dict(c)
            comps.append(comp)
            if drift is not None:
                extra_drift = drift if extra_drift is None else extra_drift + drift
        levy = ms.LevyMeasure(tuple(comps))
        d = levy.dim or (len(obj["drift"]) if "drift" in obj else 1)
        gauss = np.asarray(obj.get("gauss", np.zeros((d, d))), dtype=float)
        drift = np.asarray(obj.get("drift", np.zeros(d)), dtype=float)
        if extra_drift is not None:
            drift = drift + extra_drift
        return tp.LevyTriplet(gauss, levy, drift)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"malformed triplet spec: {exc}") from exc


def load_triplet(path: str) -> tp.LevyTriplet:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecError(f"cannot read spec {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise SpecError("spec must be a JSON object")
    return triplet_from_dict(obj)


def spec_hash(obj) -> str:
    """sha256 of the canonical (sorted-keys) JSON encoding."""
    if isinstance(obj, tp.LevyTriplet):
        obj = triplet_to_dict(obj)
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


# ---------------------------------------------------------------------------
# atomic writers


def write_text_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, obj) -> None:
    write_text_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_csv(path: str, columns, rows, manifest_hash: str = "") -> None:
    """Write a CSV: the header ``columns``, then one preformatted line per
    row."""
    lines = []
    if manifest_hash:
        lines.append(f"# manifest: {manifest_hash}")
    lines.append(",".join(columns))
    lines.extend(rows)
    write_text_atomic(path, "\n".join(lines) + "\n")


def cumulant_csv_rows(grid: tp.CumulantGrid):
    """Columns (z..., re, im, err_bound) of a cumulant grid and one
    preformatted line per grid point, floats as ``repr``."""
    d = grid.grid.shape[1]
    cols = [f"z{i}" for i in range(d)] + ["re", "im", "err_bound"]
    cells = np.column_stack([grid.grid, grid.values.real, grid.values.imag,
                             grid.err_bound])
    fmt = ",".join(["%r"] * (d + 3))
    return cols, [fmt % tuple(row) for row in cells.tolist()]


def paths_csv_rows(bundle):
    """Columns (path, epoch, time, state..., increment...) of a PathBundle
    and one preformatted line per path and epoch."""
    d = bundle.dim
    cols = (["path", "epoch", "time"] + [f"z{i}" for i in range(d)]
            + [f"dx{i}" for i in range(d)])
    n, k1 = bundle.n_paths, bundle.epochs + 1
    cells = np.zeros((n, k1, 2 * d))
    cells[:, :, :d] = bundle.states
    cells[:, 1:, d:] = bundle.increments
    epochs = [f"{k},{t!r}"
              for k, t in enumerate(bundle.times().tolist())]
    fmt = "%d,%s" + ",%r" * (2 * d)
    columns = [cells[:, :, j].ravel().tolist() for j in range(2 * d)]
    rows = list(map(fmt.__mod__, zip(np.repeat(np.arange(n), k1).tolist(),
                                     epochs * n, *columns)))
    return cols, rows


# ---------------------------------------------------------------------------
# run manifest


@dataclass(frozen=True)
class RunManifest:
    command: list
    spec_hashes: dict
    seed: int | None
    tolerances: dict
    wall_time: float

    def to_dict(self) -> dict:
        from . import __version__
        v = {"semiself": __version__, "numpy": np.__version__,
             "python": platform.python_version()}
        return {"command": list(self.command), "spec_hashes": self.spec_hashes,
                "seed": self.seed, "tolerances": self.tolerances,
                "wall_time": self.wall_time, "versions": v}

    def hash(self) -> str:
        # wall time excluded so reruns of the same invocation match
        obj = self.to_dict()
        obj.pop("wall_time", None)
        return spec_hash(obj)
