"""Command-line surface: map / check / simulate / verify.

Exit codes: 0 success (and "member" for check), 1 failed verdict or suite,
2 spec or usage error, 3 domain violation, 4 tolerance failure.  All file
output is atomic and carries the hash of its run manifest.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import mapping as mp
from . import nested
from . import ou
from . import sampling as sp
from . import specio
from . import suites
from . import triplets as tp
from .errors import (DomainError, InvalidTripletError, ToleranceError,
                     UnsupportedComponentError)
from .specio import SpecError

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_TOLERANCE = 4


# (flag, what its value must do, the rule): main checks these in order before
# any spec is read, skipping flags the subcommand does not take
FLAG_RULES = (
    ("b", "be a finite span above 1",
     lambda v: math.isfinite(v) and v > 1.0 + mp.MIN_SPAN_MARGIN),
    ("level", f"lie in 0..{nested.M_MAX}", lambda v: 0 <= v <= nested.M_MAX),
    ("m", f"lie in 0..{nested.M_MAX}", lambda v: 0 <= v <= nested.M_MAX),
    ("c", "be a finite positive epoch rate",
     lambda v: math.isfinite(v) and v > 0.0),
    ("steps", "be nonnegative", lambda v: v >= 0),
    ("paths", "be positive", lambda v: v > 0),
    ("max-export", "be nonnegative", lambda v: v >= 0),
    ("tol", "be a finite positive tolerance",
     lambda v: math.isfinite(v) and v > 0.0))


def _parse_grid(text: str, dim: int) -> np.ndarray:
    """Grid flag "ZMAX:N" -> axis-aligned grid with N points per axis."""
    try:
        zmax_s, n_s = text.split(":")
        zmax, n = float(zmax_s), int(n_s)
        if not 0.0 < zmax < math.inf or n < 2:
            raise ValueError
    except ValueError:
        raise SpecError(f"bad --grid {text!r}; expected ZMAX:N") from None
    return mp.default_grid(dim, zmax=zmax, n=n)


def _parse_init(text: str, dim: int):
    if text == "zero":
        return np.zeros(dim)
    if text == "limit":
        return "limit"
    try:
        vals = np.asarray([float(v) for v in text.split(",")], dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError
    except ValueError:
        raise SpecError(
            f"bad --init {text!r}; expected zero, limit or floats") from None
    if vals.shape != (dim,):
        raise SpecError(f"--init needs {dim} coordinates")
    return vals


def _manifest(args, spec_hashes: dict, tolerances: dict,
              t0: float) -> specio.RunManifest:
    return specio.RunManifest(
        command=list(args.argv),
        spec_hashes=spec_hashes,
        seed=getattr(args, "seed", None),
        tolerances=tolerances,
        wall_time=time.time() - t0)


def _violations_json(violations) -> list:
    """Factor violations as JSON lists ``[direction, lattice_index]``."""
    return [[list(direction), k] for direction, k in violations]


def _emit(path_or_none: str | None, obj: dict) -> None:
    if path_or_none:
        specio.write_json(path_or_none, obj)
    else:
        json.dump(obj, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_map(args) -> int:
    t0 = time.time()
    mu = specio.load_triplet(args.spec)
    tol = args.tol

    # an overflowing grid is refused below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        zgrid = _parse_grid(args.grid, mu.dim)
        if args.inverse:
            inv = mp.inverse_factor(mu, args.b, tol=tol)
            out_trip = inv.rho
            grid = tp.cumulant(inv.rho, zgrid, tol=tol)
            extra = {"inverse": True, "nonnegative": bool(inv.nonnegative),
                     "violations": _violations_json(inv.violations)}
        else:
            try:
                out_trip = nested.iterated_forward_triplet(mu, args.b, args.m)
            except UnsupportedComponentError:
                # no exact triplet for this measure; the series still runs
                out_trip = None
            grid = mp.forward_cumulant(mu, args.b, zgrid, m=args.m, tol=tol)
            extra = {"inverse": False, "m": args.m,
                     "exact_triplet": out_trip is not None}
    if not (np.all(np.isfinite(grid.values))
            and np.all(np.isfinite(grid.err_bound))):
        raise ToleranceError("cumulant grid has non-finite values or error "
                             "bounds; use a smaller --grid ZMAX")

    manifest = _manifest(args, {"spec": specio.spec_hash(mu)},
                         {"tol": tol}, t0)
    mhash = manifest.hash()
    os.makedirs(args.out, exist_ok=True)
    if out_trip is not None:
        trip_dict = specio.triplet_to_dict(out_trip)
        trip_dict["manifest"] = mhash
        specio.write_json(os.path.join(args.out, "triplet.json"), trip_dict)
    cols, rows = specio.cumulant_csv_rows(grid)
    specio.write_csv(os.path.join(args.out, "cumulant.csv"), cols, rows,
                     manifest_hash=mhash)
    report = dict(extra, b=args.b, manifest=mhash,
                  max_err_bound=float(np.max(grid.err_bound)))
    specio.write_json(os.path.join(args.out, "report.json"), report)
    specio.write_json(os.path.join(args.out, "manifest.json"),
                      manifest.to_dict())
    names = "cumulant.csv, report.json" if out_trip is None \
        else "triplet.json, cumulant.csv, report.json"
    print(f"wrote {names} to {args.out}")
    return EXIT_OK


def cmd_check(args) -> int:
    t0 = time.time()
    mu = specio.load_triplet(args.spec)
    if args.semistable:
        fit = nested.is_semi_stable(mu, args.b, tol=args.tol)
        verdict = fit.verdict
        cert = {"kind": "semistable", "b": fit.b, "verdict": verdict,
                "a": fit.a, "alpha": fit.alpha if fit.a > 0 else None,
                "c": fit.c.tolist(), "max_residual": fit.max_residual,
                "tol": fit.tol}
    elif args.level > 0:
        nc = nested.is_nested_member(mu, args.b, args.level)
        verdict = nc.verdict
        cert = {"kind": "nested", "b": nc.b, "m": nc.m,
                "verdicts": list(nc.verdicts),
                "first_violation": list(nc.first_violation)
                if nc.first_violation else None,
                "factors": [specio.triplet_to_dict(f) for f in nc.factors]}
    else:
        sc = mp.is_semi_selfdecomposable(mu, args.b, tol=max(args.tol, 1e-12))
        verdict = bool(sc.verdict)
        cert = {"kind": "span", "b": sc.b, "verdict": verdict,
                "nonnegative": bool(sc.nonnegative),
                "violations": _violations_json(sc.violations),
                "max_residual": sc.max_residual,
                "residual_tol": sc.residual_tol,
                "factor": specio.triplet_to_dict(sc.factor)}

    # the nested ladder is exact lattice algebra: it reads no tolerance
    tolerances = {} if cert["kind"] == "nested" else {"tol": args.tol}
    manifest = _manifest(args, {"spec": specio.spec_hash(mu)}, tolerances, t0)
    cert["manifest"] = manifest.hash()
    _emit(args.out, cert)
    if args.out:
        specio.write_json(os.path.splitext(args.out)[0] + ".manifest.json",
                          manifest.to_dict())
    return EXIT_OK if verdict else EXIT_VERDICT


def cmd_simulate(args) -> int:
    t0 = time.time()
    noise = specio.load_triplet(args.spec)
    cfg = ou.OUConfig(b=args.b, c=args.c)
    init = _parse_init(args.init, noise.dim)

    limit_mode = isinstance(init, str) or args.semistationary

    report: dict = {"b": args.b, "c": args.c, "steps": args.steps,
                    "paths": args.paths, "seed": args.seed}
    if args.semistationary:
        horizon = args.steps / args.c
        bundle, shift_rep = ou.semistationary_path(
            noise, cfg, horizon, n=args.paths, seed=args.seed,
            keep=args.max_export)
        report["shift_invariance"] = {
            "times": list(shift_rep.times), "shift": shift_rep.shift,
            "marginal_gap": shift_rep.marginal_gap,
            "joint_gap": shift_rep.joint_gap,
            "conf_radius": shift_rep.conf_radius,
            "invariant": bool(shift_rep.invariant())}
    else:
        if isinstance(init, str):
            init = ou.sample_limit_law(noise, cfg, args.paths, args.seed + 1)
        bundle = ou.solve_path(noise, cfg, init, args.steps,
                               n_paths=args.paths, seed=args.seed,
                               keep=args.max_export)
    report["langevin_residual"] = ou.verify_langevin(bundle)

    # terminal ECF against the exact finite-epoch characteristic function;
    # a reference that overflows is refused below, not warned about
    zgrid = ou.ecf_grid(noise.dim)
    emp = sp.ecf(bundle.terminal, zgrid)
    with np.errstate(over="ignore", invalid="ignore"):
        if limit_mode:
            ref = np.exp(ou.limit_cumulant(noise, cfg, zgrid).values)
            label = "limit"
        else:
            x0 = bundle.at_epoch(0)[0]
            fin = ou.transition_cumulant(noise, cfg, 0.0,
                                         bundle.epochs / cfg.c, zgrid, x=x0)
            ref = np.exp(fin.values)
            label = "transition"
        max_gap = float(np.max(np.abs(emp.values - ref)))
    report["ecf"] = {"reference": label,
                     "max_gap": max_gap,
                     "conf_radius": emp.conf_radius}
    gaps = [report["langevin_residual"], max_gap]
    if args.semistationary:
        gaps += [shift_rep.marginal_gap, shift_rep.joint_gap]
    if not np.all(np.isfinite(gaps)):
        raise ToleranceError("non-finite Langevin residual, ECF gap or shift "
                             "gap: the states or their reference overflow")

    manifest = _manifest(args, {"spec": specio.spec_hash(noise)}, {}, t0)
    mhash = manifest.hash()
    report["manifest"] = mhash
    os.makedirs(args.out, exist_ok=True)
    if bundle.n_paths > args.max_export:
        report["exported_paths"] = args.max_export
    cols, rows = specio.paths_csv_rows(bundle)
    specio.write_csv(os.path.join(args.out, "paths.csv"), cols, rows,
                     manifest_hash=mhash)
    specio.write_json(os.path.join(args.out, "report.json"), report)
    specio.write_json(os.path.join(args.out, "manifest.json"),
                      manifest.to_dict())
    print(f"wrote paths.csv, report.json to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    t0 = time.time()
    result = suites.run_suite(args.suite, seed=args.seed)
    parts = result.get("parts", [result])
    for part in parts:
        for c in part["checks"]:
            status = "PASS" if c["pass"] else "FAIL"
            print(f"{status} {part['suite']}.{c['name']} value={c['value']:.3e}")
    manifest = _manifest(args, {}, {}, t0)
    summary = dict(result, manifest=manifest.hash())
    if args.out:
        specio.write_json(args.out, summary)
        specio.write_json(os.path.splitext(args.out)[0] + ".manifest.json",
                          manifest.to_dict())
    print("suite", args.suite, "PASS" if result["pass"] else "FAIL")
    return EXIT_OK if result["pass"] else EXIT_VERDICT


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semiself",
        description="Mappings, membership checks and simulations for "
                    "semi-selfdecomposable laws.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_map = sub.add_parser("map", help="forward or inverse span-b map")
    p_map.add_argument("spec", help="triplet spec JSON")
    p_map.add_argument("--b", type=float, required=True, help="span b > 1")
    p_map.add_argument("--inverse", action="store_true",
                       help="peel the inverse factor instead")
    p_map.add_argument("--m", type=int, default=0,
                       help="iteration level (m+1 applications)")
    p_map.add_argument("--grid", default="5:101", help="cumulant grid ZMAX:N")
    p_map.add_argument("--tol", type=float, default=1e-10)
    p_map.add_argument("--out", required=True, help="output directory")
    p_map.set_defaults(func=cmd_map)

    p_check = sub.add_parser("check", help="membership certificate")
    p_check.add_argument("spec")
    p_check.add_argument("--b", type=float, required=True)
    p_check.add_argument("--level", type=int, default=0,
                         help="nested class level m")
    p_check.add_argument("--semistable", action="store_true",
                         help="fit the semi-stable scaling relation instead")
    p_check.add_argument("--tol", type=float, default=1e-8)
    p_check.add_argument("--out", default=None,
                         help="certificate JSON path (default: stdout)")
    p_check.set_defaults(func=cmd_check)

    p_sim = sub.add_parser("simulate", help="run the epoch recursion")
    p_sim.add_argument("spec")
    p_sim.add_argument("--b", type=float, required=True)
    p_sim.add_argument("--c", type=float, default=1.0, help="epoch rate")
    p_sim.add_argument("--steps", type=int, default=60, help="epoch count")
    p_sim.add_argument("--paths", type=int, default=1000)
    p_sim.add_argument("--init", default="zero",
                       help="zero, limit, or comma-separated coordinates")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--semistationary", action="store_true",
                       help="limit-law start plus period shift check")
    p_sim.add_argument("--max-export", type=int, default=1000,
                       help="cap on paths written to CSV")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="run a validation suite")
    p_ver.add_argument("--suite", default="all",
                       choices=["core", "ou", "iterate", "all"])
    p_ver.add_argument("--seed", type=int, default=42)
    p_ver.add_argument("--out", default=None, help="summary JSON path")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit 2 for usage errors, matching the parse-error code
        return int(exc.code or 0)
    args.argv = argv            # the manifest records the command that ran
    try:
        for flag, rule, ok in FLAG_RULES:
            value = getattr(args, flag.replace("-", "_"), None)
            if value is not None and not ok(value):
                raise SpecError(f"--{flag} must {rule} (got {value!r})")
        return args.func(args)
    except (SpecError, InvalidTripletError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DomainError, UnsupportedComponentError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ToleranceError as exc:
        print(f"tolerance error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE


if __name__ == "__main__":
    sys.exit(main())
