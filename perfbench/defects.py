"""Known defects of the program, replayed on every run.

The seeded workloads avoid inputs that end in a wrong exit code, because a
measured run must have no failed invocation.  The commands below hit those
defects on purpose.  They run in-process after the measurement, outside every
metric, and one line per defect says whether it is still present, so a fix
(or a new symptom) shows on the next run.  Each entry names the exit code
and output the documented behaviour calls for.
"""

from __future__ import annotations

import json
import os
import shutil

import check
import gen
import layers

CORPUS_LATTICE_B11 = {
    "schema": 1, "gauss": [[0.5]], "drift": [0.3],
    "levy": [{"kind": "lattice", "direction": [1.0], "base": 1.1,
              "anchor": 1.0,
              "segments": [{"w": 0.7, "r": 0.4, "kmin": 0, "kmax": "inf"},
                           {"w": 0.5, "r": 0.605, "kmin": -30, "kmax": -1}]}]}
ATOMS = {"schema": 1, "drift": [0.1],
         "levy": [{"kind": "atoms", "points": [[1.0], [-0.5]],
                   "weights": [1.0, 0.3]}]}
GAUSS = {"schema": 1, "gauss": [[1.0]], "drift": [0.2], "levy": []}
FINITE_LATTICE = {"schema": 1, "levy": [{
    "kind": "lattice", "direction": [1.0], "base": 2.0, "anchor": 1.0,
    "segments": [{"w": 0.7, "r": 0.4, "kmin": 0, "kmax": "inf"}]}]}
HEAVY_TOP_LATTICE = {"schema": 1, "drift": [-0.342104], "levy": [{
    "kind": "lattice", "direction": [1.0], "base": 1.8, "anchor": 1.4563,
    "segments": [{"w": 0.5665, "r": 0.8644, "kmin": "-inf", "kmax": "inf"}]}]}
FULL_LATTICE = {"schema": 1, "levy": [{
    "kind": "lattice", "direction": [1.0], "base": 2.0, "anchor": 1.3,
    "segments": [{"w": 0.8, "r": 0.6, "kmin": "-inf", "kmax": "inf"}]}]}


def _map(spec, b, *extra, grid="5:11", m=0, inverse=False):
    argv = ["map", spec, "--b", repr(b)] + (["--inverse"] if inverse else
                                            ["--m", str(m)])
    return argv + ["--grid", grid, *extra, "--out", "{out}"], \
        {"type": "map", "b": b, "m": m, "inverse": inverse, "grid": grid}


# (id, cause, spec as a dict or raw text or None, argv with "SPEC",
#  checker facts)
KNOWN_DEFECTS = (
    ("map-m1-atoms",
     "iterated_forward_triplet raises an uncaught InvalidTripletError "
     "(constant lattice mass is not summable) instead of falling back to "
     "the cumulant series",
     ATOMS, *_map("SPEC", 2.0, m=1)),
    ("map-m1-finite-lattice",
     "same as map-m1-atoms, for a base-b lattice with a finite lowest index",
     FINITE_LATTICE, *_map("SPEC", 2.0, m=1)),
    ("negative-atom-weight",
     "an uncaught InvalidTripletError instead of exit 2",
     {"schema": 1, "levy": [{"kind": "atoms", "points": [[1.0]],
                             "weights": [-0.5]}]},
     ["check", "SPEC", "--b", "2"], {"type": "error"}),
    ("nan-gaussian",
     "an uncaught InvalidTripletError instead of exit 2",
     '{"schema": 1, "gauss": [[NaN]], "drift": [0.0], "levy": []}',
     ["check", "SPEC", "--b", "2"], {"type": "error"}),
    ("levy-object",
     "an uncaught AttributeError instead of exit 2",
     {"schema": 1, "levy": {"kind": "atoms", "points": [[1.0]],
                            "weights": [1.0]}},
     ["check", "SPEC", "--b", "2"], {"type": "error"}),
    ("level-minus-one",
     "--level -1 silently runs the span check and exits 0",
     GAUSS, ["check", "SPEC", "--b", "2", "--level", "-1"], {"type": "error"}),
    ("span-one",
     "--b 1 ends in an uncaught ValueError instead of exit 2",
     GAUSS, ["check", "SPEC", "--b", "1"], {"type": "error"}),
    ("rounding-b1.1",
     "err_bound leaves out rounding: 2.1e-9 off at b=1.1, z=4.9, "
     "err_bound 2.6e-11",
     CORPUS_LATTICE_B11, *_map("SPEC", 1.1, grid="4.9:2")),
    ("phase-anchor-rounding",
     "huge lattice phases are reduced from the rounded product anchor*z, "
     "so mass beyond radius ~1e14 gets wrong phases (1e-5 off)",
     HEAVY_TOP_LATTICE, *_map("SPEC", 1.8, inverse=True)),
    ("series-m1-same-base",
     "the m=1 series at b equal to the lattice base misses its err_bound",
     FULL_LATTICE, *_map("SPEC", 2.0, m=1)),
    ("verify-core-seed-553",
     "ecf_matches_cf uses a 3-sigma radius over 26 points, so some seeds "
     "fail the core suite (553 does)",
     None, ["verify", "--suite", "core", "--seed", "553"],
     {"type": "verify", "suite": "core"}),
)

EXPECT = {"error": gen.EXIT_PARSE, "map": gen.EXIT_OK, "verify": gen.EXIT_OK}


def report(root: str, src: str) -> None:
    """Replay every known defect and print one line each."""
    workdir = os.path.join(root, f"defects-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(os.path.join(workdir, "specs"))
    cli = layers.import_cli(src)
    present = []
    lines = []
    for n, (did, cause, spec, argv, facts) in enumerate(KNOWN_DEFECTS):
        path = f"specs/d{n}.json"
        if spec is not None:
            with open(os.path.join(workdir, path), "w") as fh:
                fh.write(spec if isinstance(spec, str) else json.dumps(spec))
        facts = dict(facts)
        if isinstance(spec, dict):
            facts["spec"] = spec
        argv = [path if a == "SPEC" else a for a in argv]
        out = f"out/d{n}"
        if "{out}" in argv:
            argv = [out if a == "{out}" else a for a in argv]
            facts["out"] = out
        inv = gen.Invocation(did, did, argv, EXPECT[facts["type"]], facts)
        with layers.chdir(workdir):
            code, stdout, stderr = layers.run_inprocess(cli, argv)
        v = check.judge(inv, code, stdout, stderr, workdir)
        symptom = v.failure or v.bound_violation
        if symptom:
            present.append(did)
        lines.append(f"  {did}: {'PRESENT' if symptom else 'not seen'}"
                     f" - {symptom or cause}")
    shutil.rmtree(workdir, ignore_errors=True)
    print(f"known defects: {len(present)} of {len(KNOWN_DEFECTS)} present "
          "(replayed outside the metrics)")
    for line in lines:
        print(line)
