"""Independent output checker.

``judge(inv, code, stdout, stderr, workdir)`` returns a ``Verdict``: a
failure reason (``None`` when the invocation did what its generator
promised) and, for ``map``, whether the reported error bounds held.  The
references come from ``reference.py`` (mpmath and numpy), never from
``semiself``.

* ``map``: two tests per cumulant value.  The *bound* test: the value must
  lie within its reported ``err_bound`` of the reference, plus the
  reference's own error and the final rounding of the value
  (``EPS * |value|``), nothing else.  A miss is a bound violation: it is
  counted and printed on every run, but it is not a failed invocation,
  because the program's bounds leave out rounding and a few phase errors
  today (see ``defects.py``).  The *value* test: a value further than
  ``err_bound + VALUE_RTOL * (1 + |reference|)`` from the reference is a
  wrong answer, and the invocation fails.
* ``simulate``: ``paths.csv`` must hold one row per exported path and epoch,
  follow the recursion ``Z_k = (Z_{k-1} + dX_k) / b`` exactly, satisfy the
  Langevin identity, and its terminal states' empirical characteristic
  function must match the exact one within ``ECF_Q / sqrt(n)`` plus
  ``ECF_BIAS`` (the sampler's small-jump compensation and the limit-law
  truncation).
* ``check``: the verdict (and the nested ladder) built into the spec.
* ``verify``: every check passes.
* Expected errors: the documented exit code and a one-line message.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

import reference as ref

EPS = 2.0 ** -52
VALUE_RTOL = 1e-3
ECF_Q = 5.0
ECF_BIAS = 0.01
LANGEVIN_TOL = 1e-10


class CheckFailure(Exception):
    pass


@dataclass
class Verdict:
    failure: str | None = None     # why the invocation failed, if it did
    bound_violation: str | None = None   # worst miss of the err_bound test


def _require(ok: bool, why: str) -> None:
    if not ok:
        raise CheckFailure(why)


def judge(inv, code: int, stdout: str, stderr: str, workdir: str) -> Verdict:
    verdict = Verdict()
    try:
        _require("Traceback" not in stderr,
                 "traceback: " + stderr.strip().splitlines()[-1][:120]
                 if stderr.strip() else "traceback")
        _require(code == inv.expect, f"exit {code}, expected {inv.expect}")
        kind = inv.check.get("type")
        if kind == "error" or inv.expect not in (0, 1):
            lines = [ln for ln in stderr.strip().splitlines()
                     if not ln.startswith("usage:")]
            _require(len(lines) == 1, "expected a one-line error message")
        elif kind == "check":
            _check_check(inv, stdout)
        elif kind == "map":
            verdict.bound_violation = _check_map(inv, workdir)
        elif kind == "simulate":
            _check_simulate(inv, workdir)
        elif kind == "verify":
            _check_verify(inv, stdout)
    except CheckFailure as exc:
        verdict.failure = str(exc)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        verdict.failure = f"unreadable output: {type(exc).__name__}: {exc}"
    return verdict


# ---------------------------------------------------------------------------


def _check_check(inv, stdout: str) -> None:
    cert = json.loads(stdout)
    want = inv.check["want"]
    if "verdicts" in want:
        _require(list(cert["verdicts"]) == want["verdicts"],
                 f"ladder {cert['verdicts']}, expected {want['verdicts']}")
    else:
        _require(bool(cert["verdict"]) == want["verdict"],
                 f"verdict {cert['verdict']}, expected {want['verdict']}")


def read_csv(path: str):
    """(manifest hash, header, float matrix) of a CSV the CLI wrote."""
    with open(path) as fh:
        text = fh.read()
    _require(text.endswith("\n"), "CSV does not end with a newline")
    first, header, body = text.split("\n", 2)
    _require(first.startswith("# manifest: "), "CSV lacks its manifest line")
    cols = header.split(",")
    body = body.rstrip("\n")
    n_rows = body.count("\n") + 1 if body else 0
    data = np.fromstring(body.replace("\n", ","), sep=",") if body else \
        np.zeros(0)
    _require(data.size == n_rows * len(cols),
             f"CSV has ragged rows ({data.size} cells, {n_rows} rows)")
    return first[len("# manifest: "):], cols, data.reshape(n_rows, len(cols))


def _check_map(inv, workdir: str) -> str | None:
    out = os.path.join(workdir, inv.out)
    mhash, cols, data = read_csv(os.path.join(out, "cumulant.csv"))
    with open(os.path.join(out, "report.json")) as fh:
        report = json.load(fh)
    _require(report["manifest"] == mhash, "report and CSV manifests differ")
    zmax, n = inv.check["grid"].split(":")
    zs = np.linspace(-float(zmax), float(zmax), int(n))
    _require(cols == ["z0", "re", "im", "err_bound"], f"columns {cols}")
    _require(data.shape[0] == zs.size, f"{data.shape[0]} rows, "
             f"expected {zs.size}")
    _require(np.array_equal(data[:, 0], zs), "grid differs from --grid")
    _require(bool(np.all(np.isfinite(data))), "non-finite values")
    vals = data[:, 1] + 1j * data[:, 2]
    bounds = data[:, 3]
    _require(float(report["max_err_bound"]) == float(np.max(bounds)),
             "report max_err_bound differs from the CSV")
    law = ref.law_from_spec(inv.check["spec"])
    # C(-z) is the conjugate of C(z): evaluate z >= 0 only
    half = [float(z) for z in zs if z >= 0.0]
    target = max(float(np.min(bounds)) / 100.0, 1e-15)
    rvals, rerr = ref.cumulant_series(law, inv.check["b"], half,
                                      m=inv.check["m"],
                                      inverse=inv.check["inverse"],
                                      target=target)
    lookup = dict(zip(half, rvals))
    worst, violation = 1.0, None
    for z, v, eb in zip(zs, vals, bounds):
        r = lookup[abs(float(z))]
        r = r if z >= 0 else r.conjugate()
        gap = abs(v - r)
        _require(gap <= eb + VALUE_RTOL * (1.0 + abs(r)),
                 f"z={z:g}: value {v:.12g} is {gap:.3e} from the reference "
                 f"{r:.12g} (err_bound {eb:.3e})")
        allowed = eb + rerr + EPS * abs(r)
        if gap > allowed * worst:
            worst = gap / allowed
            violation = (f"z={z:g}: |value - reference| = {gap:.3e} > "
                         f"err_bound {eb:.3e} + reference error {rerr:.1e} "
                         f"+ final rounding {EPS * abs(r):.1e}")
    return violation


def _check_simulate(inv, workdir: str) -> None:
    c = inv.check
    out = os.path.join(workdir, inv.out)
    mhash, cols, data = read_csv(os.path.join(out, "paths.csv"))
    with open(os.path.join(out, "report.json")) as fh:
        report = json.load(fh)
    _require(report["manifest"] == mhash, "report and CSV manifests differ")
    _require(cols == ["path", "epoch", "time", "z0", "dx0"], f"columns {cols}")
    epochs = c["steps"]
    want_rows = c["export"] * (epochs + 1)
    _require(data.shape[0] == want_rows,
             f"paths.csv has {data.shape[0]} rows, expected {want_rows}")
    _require(bool(np.all(np.isfinite(data))), "non-finite values")
    Z = data[:, 3].reshape(c["export"], epochs + 1)
    dX = data[:, 4].reshape(c["export"], epochs + 1)[:, 1:]
    _require(bool(np.all(data[:, 0].reshape(c["export"], -1)
                         == np.arange(c["export"])[:, None])),
             "path column out of order")
    b = c["b"]
    _require(bool(np.array_equal(Z[:, 1:], (Z[:, :-1] + dX) / b)),
             "states do not follow Z_k = (Z_{k-1} + dX_k) / b")
    # Langevin identity, recomputed from the exported rows
    res = Z[:, 1:] - Z[:, :1] - np.cumsum(dX, axis=1) + \
        (b - 1.0) * np.cumsum(Z[:, 1:], axis=1)
    scale = max(float(np.max(np.abs(Z))), 1.0)
    _require(float(np.max(np.abs(res))) / scale <= LANGEVIN_TOL,
             "exported paths break the Langevin identity")
    _require(float(report["langevin_residual"]) <= LANGEVIN_TOL,
             f"langevin_residual {report['langevin_residual']:.2e}")
    # terminal empirical CF against the exact CF
    law = ref.law_from_spec(c["spec"])
    zs = np.linspace(-3.0, 3.0, 13)
    limit = c["init"] == "limit" or c["semistationary"]
    logcf = np.zeros(zs.size, dtype=complex)
    i = 1
    while True:
        term = ref.cumulant_np(law, zs * b ** -i) / c["c"]
        logcf += term
        if i >= epochs if not limit else np.max(np.abs(term)) < 1e-14:
            break
        i += 1
    if not limit:
        logcf += 1j * zs * b ** -float(epochs) * float(Z[0, 0])
    ecf = np.mean(np.exp(1j * np.outer(Z[:, -1], zs)), axis=0)
    gap = float(np.max(np.abs(ecf - np.exp(logcf))))
    radius = ECF_Q / math.sqrt(c["export"]) + ECF_BIAS
    _require(gap <= radius, f"terminal ECF gap {gap:.3f} > {radius:.3f}")


def _check_verify(inv, stdout: str) -> None:
    lines = stdout.strip().splitlines()
    checks = [ln for ln in lines if ln.startswith(("PASS ", "FAIL "))]
    _require(bool(checks), "no check lines printed")
    failed = [ln.split()[1] for ln in checks if ln.startswith("FAIL ")]
    _require(not failed, "failed checks: " + ", ".join(failed))
    _require(lines[-1] == f"suite {inv.check['suite']} PASS",
             f"last line {lines[-1]!r}")
