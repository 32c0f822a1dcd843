"""Self-tests of the benchmark: python3 -m pytest perfbench/test_bench.py"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check      # noqa: E402
import gen        # noqa: E402
import layers     # noqa: E402
import reference  # noqa: E402
import run        # noqa: E402


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_byte_deterministic(workload, tmp_path):
    first = gen.plan_bytes(gen.generate(workload, 7))
    assert first == gen.plan_bytes(gen.generate(workload, 7))
    assert first != gen.plan_bytes(gen.generate(workload, 8))
    for sub in ("a", "b"):
        gen.write_specs(gen.generate(workload, 7).specs, str(tmp_path / sub))
    names = sorted(os.listdir(tmp_path / "a" / "specs"))
    assert names == sorted(os.listdir(tmp_path / "b" / "specs"))
    for name in names:
        assert (tmp_path / "a" / "specs" / name).read_bytes() == \
            (tmp_path / "b" / "specs" / name).read_bytes()


def test_tail_rank_leaves_ten_beyond():
    assert run.tail_rank(100) == 90
    assert run.tail_rank(21) == 11
    assert run.tail_rank(5) == 1


def test_tail_weights_closed_form():
    with mpmath.workdps(30):
        for m in range(3):
            for J in (0, 1, 7):
                y = mpmath.mpf("0.37")
                brute = mpmath.fsum(math.comb(j + m, m) * y ** j
                                    for j in range(J, 400))
                assert abs(reference.tail_weights(y, J, m) - brute) < 1e-25


def test_regrouped_sum_matches_direct_sum():
    spec, _ = gen.geometric_spec(random.Random(3), 2.0, True, (0.4, 0.6))
    lat = reference.law_from_spec(spec).lattices[0]
    with mpmath.workdps(reference.DPS):
        for m in (0, 1):
            direct, e1 = reference._lattice_direct(lat, [0.5, 3.0], 2.0, m,
                                                   "forward", 1e-15)
            regrouped, e2 = reference._lattice_regrouped(lat, [0.5, 3.0], m,
                                                         1e-15)
            for a, b in zip(direct, regrouped):
                assert abs(a - b) <= e1 + e2 + 1e-14


# ---------------------------------------------------------------------------
# the checker flags bad outputs


def _map_output(tmp_path, values, bound):
    """A map invocation on an atom spec and a fake output directory."""
    spec, _ = gen.atoms_spec(random.Random(1), with_gauss=True)
    inv = gen.Invocation("c000", "map-atoms", [], 0,
                         {"type": "map", "spec": spec, "b": 1.7, "m": 0,
                          "inverse": False, "grid": "3:7", "out": "out/c000"})
    out = tmp_path / "out" / "c000"
    out.mkdir(parents=True, exist_ok=True)
    zs = np.linspace(-3.0, 3.0, 7)
    lines = ["# manifest: abc", "z0,re,im,err_bound"]
    lines += [",".join(repr(float(x)) for x in (z, v.real, v.imag, bound))
              for z, v in zip(zs, values)]
    (out / "cumulant.csv").write_text("\n".join(lines) + "\n")
    (out / "report.json").write_text(json.dumps(
        {"manifest": "abc", "max_err_bound": bound}))
    return inv, zs


def _reference_values(inv, zs):
    law = reference.law_from_spec(inv.check["spec"])
    vals, _ = reference.cumulant_series(law, inv.check["b"],
                                        [float(z) for z in zs])
    return np.array(vals)


def test_checker_accepts_exact_and_flags_nudged_cumulant(tmp_path):
    inv, zs = _map_output(tmp_path, np.zeros(7), 1e-12)
    exact = _reference_values(inv, zs)
    _map_output(tmp_path, exact, 1e-12)
    verdict = check.judge(inv, 0, "", "", str(tmp_path))
    assert verdict.failure is None and verdict.bound_violation is None

    nudged = exact.copy()
    nudged[4] += 1e-9                 # beyond err_bound: a bound violation
    _map_output(tmp_path, nudged, 1e-12)
    verdict = check.judge(inv, 0, "", "", str(tmp_path))
    assert verdict.failure is None and "z=1" in verdict.bound_violation

    nudged[4] += 0.5                  # a wrong answer: the invocation fails
    _map_output(tmp_path, nudged, 1e-12)
    assert "z=1" in check.judge(inv, 0, "", "", str(tmp_path)).failure


def test_checker_flags_wrong_exit_code():
    inv = gen.Invocation("c000", "check-span-gauss", [], 0,
                         {"type": "check", "want": {"verdict": True}})
    stdout = json.dumps({"verdict": True})
    assert check.judge(inv, 0, stdout, "", ".").failure is None
    assert "exit 1" in check.judge(inv, 1, stdout, "", ".").failure
    traced = "Traceback (most recent call last):\nValueError: x\n"
    assert "traceback" in check.judge(inv, 0, stdout, traced, ".").failure


def _simulate_output(tmp_path, n=3000, steps=20, b=2.0, c=1.0):
    """Exact compound Poisson paths of the recursion, written like the CLI."""
    spec, _ = gen.atoms_spec(random.Random(2))
    law = reference.law_from_spec(spec)
    rng = np.random.default_rng(0)
    xs = np.array([x for x, _ in law.atoms])
    ws = np.array([w for _, w in law.atoms])
    shift = (law.drift - np.sum(ws * xs / (1 + xs * xs))) / c
    dX = shift + rng.poisson(ws / c, size=(n, steps, xs.size)) @ xs
    Z = np.zeros((n, steps + 1))
    for k in range(steps):
        Z[:, k + 1] = (Z[:, k] + dX[:, k]) / b
    lines = ["# manifest: abc", "path,epoch,time,z0,dx0"]
    for p in range(n):
        for k in range(steps + 1):
            inc = dX[p, k - 1] if k else 0.0
            lines.append(f"{p},{k},{k / c!r},{float(Z[p, k])!r},"
                         f"{float(inc)!r}")
    out = tmp_path / "out" / "c000"
    out.mkdir(parents=True)
    (out / "paths.csv").write_text("\n".join(lines) + "\n")
    (out / "report.json").write_text(json.dumps(
        {"manifest": "abc", "langevin_residual": 0.0}))
    return gen.Invocation("c000", "simulate-atoms-export", [], 0, {
        "type": "simulate", "spec": spec, "b": b, "c": c, "steps": steps,
        "paths": n, "init": "zero", "semistationary": False, "export": n,
        "out": "out/c000"}), out / "paths.csv"


def test_checker_flags_truncated_paths_csv(tmp_path):
    inv, csv = _simulate_output(tmp_path)
    assert check.judge(inv, 0, "", "", str(tmp_path)).failure is None
    lines = csv.read_text().splitlines(keepends=True)
    csv.write_text("".join(lines[:-1]))
    assert "rows" in check.judge(inv, 0, "", "", str(tmp_path)).failure


# ---------------------------------------------------------------------------
# tracing


def test_span_self_times_sum_to_traced_wall(tmp_path):
    plan = gen.generate("membership-sweep", 5, cycles=1)
    plan.cycles = [plan.cycles[0][:6]]
    gen.write_specs(plan.specs, str(tmp_path))
    args = SimpleNamespace(workload="membership-sweep", seed=5)

    def judge(inv, code, stdout, stderr):
        return check.judge(inv, code, stdout, stderr, str(tmp_path)).failure

    result, info = layers.per_layer(args, run.child_env(), run.SRC,
                                    str(tmp_path), plan, judge,
                                    str(tmp_path / "spans.tsv"))
    assert result["correct"] and result["attempted"] == 6
    assert [n for n, _ in layers.metric_names()] == list(result["metrics"])
    gap = info["wall_traced"] - info["self_sum"]
    assert 0.0 <= gap <= max(info["overhead"], 0.0) + 0.05 * info["wall_traced"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "series-map", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0 and not proc.stdout.strip()
