"""Per-layer metrics from outside: spans around calls into semiself's modules.

The traced run replays the first cycle of a workload's commands in this
process through ``semiself.cli.main``, three times: untraced, traced, and
untraced again.  For the traced pass, the public functions listed in
``TRACED`` are replaced by wrappers set as module (or class) attributes.
Modules look their globals up in the module dict at call time, so calls
between semiself's own functions are captured too, without editing the
package.  Each wrapper records a span (name, start, end, parent span,
command id) in memory; the spans are written out at the end, and self times
are derived from them.  Import time comes from ``python -X importtime``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import os
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict

# (module, attribute) pairs wrapped in the traced pass; the layer name of a
# span is "<module>.<attribute>"
TRACED = (
    ("cli", "main"),
    ("specio", "load_triplet"), ("specio", "write_csv"),
    ("specio", "paths_csv_rows"), ("specio", "write_json"),
    ("triplets", "validate"), ("triplets", "cumulant"),
    ("triplets", "centered_exp_integrand"),
    ("measures", "log_moment"), ("measures", "sum_over_measure"),
    ("measures", "Segment.mass"), ("measures", "canonical_families"),
    ("measures", "difference_segments"), ("measures", "segments_nonnegative"),
    ("mapping", "inverse_factor"), ("mapping", "factorization_check"),
    ("mapping", "is_semi_selfdecomposable"), ("mapping", "forward_cumulant"),
    ("mapping", "forward_triplet"),
    ("nested", "is_nested_member"), ("nested", "iterated_forward_triplet"),
    ("nested", "is_semi_stable"),
    ("ou", "solve_path"), ("ou", "sample_limit_law"), ("ou", "limit_cumulant"),
    ("ou", "transition_cumulant"), ("ou", "semistationary_path"),
    ("ou", "shift_invariance_gap"), ("ou", "validate_limit"),
    ("ou", "verify_langevin"),
    ("sampling", "sample"), ("sampling", "ecf"),
    ("suites", "run_suite"),
)


def _cells(args, result):
    return args["points"].shape[0] * args["zgrid"].shape[0]


def _csv_bytes(args, result):
    return os.path.getsize(args["path"])


def _rows(args, result):
    return len(result[1])


def _path_epochs(args, result):
    return args["n_paths"] * args["epochs"]


def _draws(args, result):
    return args["n"]


# work counts: layer -> (count name, function of bound arguments and result)
WORK = {
    "triplets.centered_exp_integrand": ("cells", _cells),
    "specio.write_csv": ("bytes", _csv_bytes),
    "specio.paths_csv_rows": ("rows", _rows),
    "ou.solve_path": ("path_epochs", _path_epochs),
    "sampling.sample": ("draws", _draws),
}

# the per-layer metrics the run reports: (name, unit)
CALLS = ("triplets.cumulant", "triplets.centered_exp_integrand",
         "measures.log_moment", "measures.sum_over_measure",
         "measures.Segment.mass", "mapping.forward_cumulant",
         "mapping.forward_triplet", "sampling.sample")
PER_CMD = ("triplets.validate", "measures.log_moment")
UNITS = {"cells": "count", "bytes": "bytes", "rows": "count",
         "path_epochs": "count", "draws": "count"}


def metric_names() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    out = [("import.total_s", "s"), ("import.scipy_s", "s")]
    for module, attr in TRACED:
        layer = f"{module}.{attr}"
        if layer == "triplets.validate":
            continue
        if layer in CALLS:
            out.append((layer + ".calls", "count"))
        out.append((layer + ".self_s", "s"))
        if layer in WORK:
            kind = WORK[layer][0]
            out.append((f"{layer}.{kind}", UNITS[kind]))
    out += [(layer + ".per_cmd", "1/cmd") for layer in PER_CMD]
    out.append(("trace.overhead_s", "s"))
    return out


# ---------------------------------------------------------------------------
# in-process replay


def import_cli(src: str):
    if src not in sys.path:
        sys.path.insert(0, src)
    from semiself import cli
    return cli


def run_inprocess(cli, argv):
    """(exit code, stdout, stderr) of ``cli.main(argv)``; an exception that
    escapes ``main`` ends like an uncaught one would, with exit 1."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception:  # the CLI let it escape: report as a traceback
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def chdir(path: str):
    prev = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(prev)


class Tracer:
    """Spans kept in memory as lists [name, start, end, parent, cmd]."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.cmd = -1
        self.work = defaultdict(int)
        self._saved: list = []

    def wrap(self, layer: str, fn):
        count = WORK.get(layer)
        sig = inspect.signature(fn) if count else None
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([layer, 0.0, 0.0, stack[-1] if stack else -1,
                          self.cmd])
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx][1], spans[idx][2] = t0, t1
            if count:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.work[f"{layer}.{count[0]}"] += count[1](bound.arguments,
                                                             result)
            return result

        return wrapper

    def install(self) -> None:
        import semiself
        for module, attr in TRACED:
            owner = getattr(semiself, module)
            name = attr
            if "." in attr:
                cls, name = attr.split(".")
                owner = getattr(owner, cls)
            orig = getattr(owner, name)
            self._saved.append((owner, name, orig))
            setattr(owner, name, self.wrap(f"{module}.{attr}", orig))

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._saved):
            setattr(owner, name, orig)
        self._saved.clear()

    def self_times(self) -> dict:
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for (name, t0, t1, _, _), c in zip(self.spans, child):
            out[name] += (t1 - t0) - c
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\tcmd\n")
            for name, t0, t1, parent, cmd in self.spans:
                fh.write(f"{name}\t{t0!r}\t{t1!r}\t{parent}\t{cmd}\n")


def replay(cli, invs, workdir: str, tracer: Tracer | None = None):
    """Run ``invs`` in order through ``cli.main``; (wall s, outcomes)."""
    outcomes = []
    with chdir(workdir):
        t0 = time.perf_counter()
        for n, inv in enumerate(invs):
            if tracer is not None:
                tracer.cmd = n
            outcomes.append(run_inprocess(cli, inv.argv))
        wall = time.perf_counter() - t0
    return wall, outcomes


# ---------------------------------------------------------------------------
# import time


def import_times(env: dict, repeats: int = 3):
    """Median (total, scipy) seconds of ``import semiself`` from
    ``-X importtime``: the cumulative time of the ``semiself`` line, and the
    self times of every ``scipy`` module summed."""
    totals, scipys = [], []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import semiself"], env=env,
                              capture_output=True, text=True, check=True)
        total = scipy = 0.0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line[len("import time:"):].split("|")
            try:
                self_us, cum_us = int(fields[0]), int(fields[1])
            except ValueError:
                continue                      # the header line
            name = fields[2].strip()
            if name == "semiself":
                total = cum_us / 1e6
            if name == "scipy" or name.startswith("scipy."):
                scipy += self_us / 1e6
        totals.append(total)
        scipys.append(scipy)
    return statistics.median(totals), statistics.median(scipys)


# ---------------------------------------------------------------------------


def per_layer(args, env: dict, src: str, workdir: str, plan, judge,
              spans_path: str):
    """The traced run: (result object, timing facts).  ``judge(inv, code,
    stdout, stderr)`` returns a failure reason or None."""
    cli = import_cli(src)
    invs = plan.cycles[0]
    wall_a, _ = replay(cli, invs, workdir)
    tracer = Tracer()
    tracer.install()
    try:
        wall_t, outcomes = replay(cli, invs, workdir, tracer)
    finally:
        tracer.uninstall()
    fails = [f"{inv.cid} {inv.kind}: {why}" for inv, out in zip(invs, outcomes)
             if (why := judge(inv, *out)) is not None]
    wall_b, _ = replay(cli, invs, workdir)
    overhead = wall_t - (wall_a + wall_b) / 2.0
    tracer.write(spans_path)

    selfs = tracer.self_times()
    calls = defaultdict(int)
    for span in tracer.spans:
        calls[span[0]] += 1
    total, scipy = import_times(env)
    values = {"import.total_s": total, "import.scipy_s": scipy,
              "trace.overhead_s": overhead}
    for name, unit in metric_names():
        if name in values:
            continue
        layer, kind = name.rsplit(".", 1)
        if kind == "calls":
            values[name] = calls[layer]
        elif kind == "self_s":
            values[name] = selfs[layer]
        elif kind == "per_cmd":
            values[name] = calls[layer] / len(invs)
        else:
            values[name] = tracer.work[name]
    for line in fails:
        print("FAILED", line)
    self_sum = sum(selfs.values())
    print(f"{args.workload} seed {args.seed}: traced replay of {len(invs)} "
          f"commands in {wall_t:.2f} s (untraced {wall_a:.2f} s, "
          f"{wall_b:.2f} s); span self times sum to {self_sum:.2f} s")
    result = {"correct": not fails, "attempted": len(invs),
              "failed": len(fails),
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in metric_names()}}
    return result, {"self_sum": self_sum, "wall_traced": wall_t,
                    "overhead": overhead}
