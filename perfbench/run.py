#!/usr/bin/env python3
"""Benchmark of the semiself command line on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  With ``--trace 0`` the workload's generated
commands run as ``python -m semiself.cli`` subprocesses (``PYTHONPATH=src``),
one at a time, each sent after the previous one exits (a closed loop with
one client), for ``S`` seconds of command time.  Every outcome is judged by
the independent checker; checking is not timed.  The last stdout line is a
JSON object with the end-to-end metrics.

With ``--trace 1`` the first cycle of the same commands is replayed in this
process through ``semiself.cli.main``, untraced and traced, and the last line
carries the per-layer metrics instead (see ``layers.py``).

Either way, the commands that hit the defects in ``defects.py`` are replayed
after the measurement and reported on one line, outside the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

import check  # noqa: E402
import gen    # noqa: E402

SETUP_REPEATS = 3
TAIL_BEYOND = 10


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv, cwd: str, env: dict):
    """Run one CLI invocation; (exit code, stdout, stderr, wall s, max RSS MB)."""
    out_path = os.path.join(cwd, "stdout.txt")
    err_path = os.path.join(cwd, "stderr.txt")
    with open(out_path, "wb") as out_fh, open(err_path, "wb") as err_fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "semiself.cli", *argv],
                                cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out_fh, stderr=err_fh)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, errors="replace") as fh:
        stderr = fh.read()
    return proc.returncode, stdout, stderr, wall, usage.ru_maxrss / 1024.0


def fresh_workdir(workload: str, seed: int) -> str:
    path = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def clear_output(workdir: str, inv) -> None:
    if inv.out:
        shutil.rmtree(os.path.join(workdir, inv.out), ignore_errors=True)


def setup_once(workload: str, seed: int, env: dict):
    """Generate the inputs and run the untimed warm-up invocation.
    Returns (plan, workdir, seconds, warm-up max RSS)."""
    t0 = time.perf_counter()
    workdir = fresh_workdir(workload, seed)
    plan = gen.generate(workload, seed)
    gen.write_specs(plan.specs, workdir)
    wspecs, winv = gen.warmup_invocation(workload, seed)
    gen.write_specs(wspecs, workdir)
    code, stdout, stderr, _, rss = run_cli(winv.argv, workdir, env)
    elapsed = time.perf_counter() - t0
    why = check.judge(winv, code, stdout, stderr, workdir).failure
    if why is not None:
        raise SystemExit(f"warm-up invocation failed: {why}")
    return plan, workdir, elapsed, rss


def tail_rank(n: int) -> int:
    """1-based rank of the tail sample: the highest rank that still has
    TAIL_BEYOND samples above it (rank 1 when there are too few)."""
    return max(n - TAIL_BEYOND, 1)


def end_to_end(args, env: dict) -> dict:
    setups, rss_peak = [], 0.0
    for _ in range(SETUP_REPEATS):
        plan, workdir, seconds, rss = setup_once(args.workload, args.seed,
                                                 env)
        setups.append(seconds)
        rss_peak = max(rss_peak, rss)
    invs = plan.invocations
    times, fails, violations = [], [], []
    busy = 0.0
    i = 0
    while busy < args.seconds:
        inv = invs[i % len(invs)]
        i += 1
        t0 = time.perf_counter()
        code, stdout, stderr, wall, rss = run_cli(inv.argv, workdir, env)
        busy += time.perf_counter() - t0
        rss_peak = max(rss_peak, rss)
        verdict = check.judge(inv, code, stdout, stderr, workdir)
        clear_output(workdir, inv)
        if verdict.bound_violation:
            violations.append(f"{inv.cid} {inv.kind}: "
                              f"{verdict.bound_violation}")
        if verdict.failure is None:
            times.append(wall)
        else:
            times.append(math.inf)      # a failure misses every limit
            fails.append(f"{inv.cid} {inv.kind}: {verdict.failure}")
    shutil.rmtree(workdir, ignore_errors=True)

    ranked = sorted(times)
    n = len(ranked)
    rank = tail_rank(n)
    ok = n - len(fails)
    metrics = {
        "cmd_s.p50": (statistics.median(ranked), "s"),
        "cmd_s.tail": (ranked[rank - 1], "s"),
        "cmds_per_s": (ok / busy, "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_peak, "MB"),
    }
    fail_ratio = len(fails) / n
    for line in fails:
        print("FAILED", line)
    for line in violations:
        print("BOUND VIOLATION", line)
    print(f"{args.workload} seed {args.seed}: {n} invocations in "
          f"{busy:.1f} s, {len(fails)} failed; tail is the "
          f"p{100.0 * rank / n:.0f} sample (rank {rank} of {n}, "
          f"{n - rank} beyond)")
    print("  " + " | ".join(f"{k} {v:.4g} {u}" for k, (v, u) in metrics.items())
          + f" | fail_ratio {fail_ratio:.4g} fraction"
          + f" | bound violations {len(violations)}")
    return {"correct": not fails, "attempted": n, "failed": len(fails),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def traced(args, env: dict) -> dict:
    import layers
    workdir = fresh_workdir(args.workload, args.seed)
    plan = gen.generate(args.workload, args.seed)
    gen.write_specs(plan.specs, workdir)

    def judge(inv, code, stdout, stderr):
        return check.judge(inv, code, stdout, stderr, workdir).failure

    spans = os.path.join(WORK, f"spans-{args.workload}-{args.seed}.tsv")
    result, _ = layers.per_layer(args, env, SRC, workdir, plan, judge, spans)
    shutil.rmtree(workdir, ignore_errors=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "semiself", "cli.py")):
        print(f"error: no semiself sources under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    if args.trace:
        result = traced(args, env)
    else:
        result = end_to_end(args, env)
    import defects
    defects.report(WORK, SRC)
    with contextlib.suppress(OSError):
        os.rmdir(WORK)                  # only when nothing is left in it
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
