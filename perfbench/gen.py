"""Seeded workload generator.

``generate(workload, seed)`` turns a seed into spec files and a list of CLI
invocations.  Each invocation carries the exit code it must end with and what
the output checker needs to judge its outputs.  Nothing here imports
``semiself``: expected verdicts follow from how each spec is built.

Every workload is a sequence of *cycles*.  A cycle holds each template of the
workload once, in a fixed interleaved order, with seeded parameters; sizes
that set a command's cost (grids, paths, epochs) are fixed per template, so
every run of a workload sees the same mix of command kinds and costs.  Each
cycle also carries a small fixed share of commands from the other workloads,
so every per-layer metric is exercised on every workload.

The seeded inputs avoid the defects listed in ``defects.py``; those are
replayed separately on every run so they stay visible.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("membership-sweep", "series-map", "ou-simulate")

EXIT_OK, EXIT_VERDICT, EXIT_PARSE, EXIT_DOMAIN, EXIT_TOLERANCE = 0, 1, 2, 3, 4


@dataclass
class Invocation:
    cid: str                 # command id, unique within a generated list
    kind: str                # template name
    argv: list               # arguments after ``python -m semiself.cli``
    expect: int              # expected exit code
    check: dict = field(default_factory=dict)   # facts for the checker

    @property
    def out(self):
        """Output path the command writes (directory or file), if any."""
        return self.check.get("out")


@dataclass
class Plan:
    workload: str
    seed: int
    specs: dict              # file name -> file text
    cycles: list             # list of lists of Invocation

    @property
    def invocations(self) -> list:
        return [inv for cyc in self.cycles for inv in cyc]


def _r(x: float, digits: int = 6) -> float:
    """Round generated reals so spec files print short and stable."""
    return float(round(x, digits))


# ---------------------------------------------------------------------------
# spec builders: each returns (spec dict, facts) where facts record the
# law's parameters and the membership that holds by construction


def gauss_spec(rng: random.Random, d: int = 1):
    if d == 1:
        A = [[_r(rng.uniform(0.2, 3.0))]]
    else:
        l11, l21, l22 = rng.uniform(0.4, 1.5), rng.uniform(-0.8, 0.8), \
            rng.uniform(0.4, 1.5)
        A = [[_r(l11 * l11), _r(l11 * l21)],
             [_r(l11 * l21), _r(l21 * l21 + l22 * l22)]]
    drift = [_r(rng.uniform(-1.0, 1.0)) for _ in range(d)]
    spec = {"schema": 1, "gauss": A, "drift": drift, "levy": []}
    # a Gaussian is in every nested class and is (2-)stable
    return spec, {"law": "gauss", "levels": 99, "semistable": True}


def atoms_spec(rng: random.Random, with_gauss: bool = False,
               n_atoms: int | None = None):
    n = n_atoms or rng.randint(1, 4)
    points, weights = [], []
    while len(points) < n:
        x = _r(rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 5.0), 4)
        if all(abs(x - p[0]) > 0.05 for p in points):
            points.append([x])
            weights.append(_r(rng.uniform(0.1, 2.0), 4))
    spec = {"schema": 1, "drift": [_r(rng.uniform(-0.5, 0.5))],
            "levy": [{"kind": "atoms", "points": points, "weights": weights}]}
    if with_gauss:
        spec["gauss"] = [[_r(rng.uniform(0.1, 1.0))]]
    # a nonzero finite atom set is never semi-selfdecomposable: peeling the
    # factor leaves negative mass just below the lowest atom
    return spec, {"law": "atoms", "levels": -1, "semistable": False}


def fwd_image_spec(rng: random.Random, b: float):
    """Exact forward image of atoms on base ``b``: mass ``w`` at every index
    ``k <= k0`` of one skeleton.  Its factor is the atom itself, so it is a
    member at level 0 and never at level 1."""
    comps = []
    for _ in range(rng.randint(1, 2)):
        segs = [{"w": _r(rng.uniform(0.2, 1.5), 4), "r": 1.0, "kmin": "-inf",
                 "kmax": rng.randint(-2, 3)}]
        comps.append({"kind": "lattice",
                      "direction": [rng.choice((-1.0, 1.0))], "base": b,
                      "anchor": _r(rng.uniform(1.0, b), 4), "segments": segs})
    spec = {"schema": 1, "gauss": [[_r(rng.uniform(0.0, 1.0))]],
            "drift": [_r(rng.uniform(-0.5, 0.5))], "levy": comps}
    return spec, {"law": "fwd_image", "levels": 0, "semistable": False}


def geometric_spec(rng: random.Random, base: float, full: bool = True,
                   r_range=None):
    """Lattice mass ``w r**k`` on base ``base``.  With ``full`` the law runs
    over all integers and is a member at every level; otherwise it starts at
    a finite index (only used where membership is not asked).  ``r_range``
    keeps the ratio where series and samplers stay cheap."""
    if r_range is None:
        lo = 1.0 / (base * base)
        r_range = (lo + (1.0 - lo) * 0.25, lo + (1.0 - lo) * 0.85)
    r = _r(rng.uniform(*r_range), 4)
    seg = {"w": _r(rng.uniform(0.2, 1.2), 4), "r": r,
           "kmin": "-inf" if full else rng.randint(-3, 0), "kmax": "inf"}
    spec = {"schema": 1, "drift": [_r(rng.uniform(-0.5, 0.5))],
            "levy": [{"kind": "lattice", "direction": [rng.choice((-1.0, 1.0))],
                      "base": base, "anchor": _r(rng.uniform(1.0, base), 4),
                      "segments": [seg]}]}
    return spec, {"law": "geometric", "levels": 99 if full else None,
                  "semistable": False}


def semistable_spec(rng: random.Random, b: float):
    alpha = _r(rng.uniform(0.3, 1.8), 3)
    spec = {"schema": 1, "levy": [{"kind": "semistable", "b": b,
                                   "alpha": alpha,
                                   "w": _r(rng.uniform(0.3, 1.5), 4)}]}
    return spec, {"law": "semistable", "levels": 99, "semistable": True}


def power_spec(rng: random.Random, power: int):
    """Power-tail lattice like the acceptance EDGE spec: ``w k**-power`` at
    radii ``2**k`` for ``k >= 1``."""
    spec = {"schema": 1, "levy": [{"kind": "lattice", "direction": [1.0],
                                   "base": 2.0, "anchor": 1.0,
                                   "segments": [{"w": _r(rng.uniform(0.8, 1.2), 3),
                                                 "r": 1.0, "kmin": 1,
                                                 "kmax": "inf",
                                                 "power": power}]}]}
    return spec


def lattice_noise_spec(rng: random.Random):
    """OU noise whose small jumps need Gaussian compensation."""
    spec, _ = geometric_spec(rng, 2.0, full=True, r_range=(0.45, 0.5))
    spec["levy"][0]["direction"] = [1.0]
    return spec


# ---------------------------------------------------------------------------
# the builder: collects spec files and invocations


class _Builder:
    def __init__(self, workload: str, seed: int, prefix: str = "s"):
        self.rng = random.Random(f"{workload}:{seed}")
        self.prefix = prefix
        self.specs: dict = {}
        self.n = 0

    def spec(self, obj, text: str | None = None) -> str:
        name = f"{self.prefix}{len(self.specs):03d}.json"
        self.specs[name] = text if text is not None else \
            json.dumps(obj, sort_keys=True) + "\n"
        return "specs/" + name

    def inv(self, kind, argv, expect, **check) -> Invocation:
        cid = f"c{self.n:03d}"
        self.n += 1
        if "{out}" in argv:
            out = f"out/{cid}"
            argv = [out if a == "{out}" else a for a in argv]
            check["out"] = out
        return Invocation(cid, kind, list(argv), expect, check)

    def span_b(self) -> float:
        return _r(self.rng.uniform(1.1, 3.0), 3)

    # --- command templates shared by the workloads

    def check_cmd(self, kind, spec, facts, b, mode):
        rng = self.rng
        path = self.spec(spec)
        argv = ["check", path, "--b", repr(b)]
        if mode == "span":
            ok = facts["levels"] >= 0
            want = {"verdict": ok}
        elif mode == "level":
            level = rng.randint(1, 5)
            argv += ["--level", str(level)]
            ok = facts["levels"] >= level
            want = {"verdict": ok,
                    "verdicts": [facts["levels"] >= j for j in range(level + 1)]}
        else:
            argv += ["--semistable"]
            ok = facts["semistable"]
            want = {"verdict": ok}
        return self.inv(kind, argv, EXIT_OK if ok else EXIT_VERDICT,
                        type="check", mode=mode, spec=spec, want=want)

    def map_cmd(self, kind, spec, b, *, m=0, grid="5:11", tol=None,
                inverse=False, expect=EXIT_OK):
        path = self.spec(spec)
        argv = ["map", path, "--b", repr(b)]
        if inverse:
            argv.append("--inverse")
        else:
            argv += ["--m", str(m)]
        argv += ["--grid", grid]
        if tol is not None:
            argv += ["--tol", tol]
        argv += ["--out", "{out}"]
        return self.inv(kind, argv, expect, type="map", spec=spec, b=b, m=m,
                        inverse=inverse, grid=grid)

    def simulate_cmd(self, kind, spec, b, *, c=1.0, steps=60, paths=1000,
                     init="zero", semistationary=False, max_export=100):
        path = self.spec(spec)
        argv = ["simulate", path, "--b", repr(b), "--c", repr(c),
                "--steps", str(steps), "--paths", str(paths),
                "--init", init, "--seed", str(self.rng.randint(0, 10_000)),
                "--max-export", str(max_export)]
        if semistationary:
            argv.append("--semistationary")
        argv += ["--out", "{out}"]
        return self.inv(kind, argv, EXIT_OK, type="simulate", spec=spec, b=b,
                        c=c, steps=steps, paths=paths, init=init,
                        semistationary=semistationary,
                        export=min(paths, max_export))

    def verify_cmd(self, suite):
        # the documented default seed: some seeds fail the suites' 3-sigma
        # Monte Carlo checks (see defects.py)
        return self.inv(f"verify-{suite}", ["verify", "--suite", suite],
                        EXIT_OK, type="verify", suite=suite)

    def bad_cmd(self, kind, spec_text, argv_tail, expect):
        path = self.spec(None, text=spec_text)
        return self.inv(kind, [argv_tail[0], path] + argv_tail[1:], expect,
                        type="error")


# ---------------------------------------------------------------------------
# workloads


def _membership_cycle(g: _Builder, index: int) -> list:
    rng = g.rng
    b = g.span_b()
    cyc = []
    for mode in ("span", "level", "semistable"):
        cyc.append(g.check_cmd(f"check-{mode}-gauss",
                               *gauss_spec(rng, rng.choice((1, 2))),
                               g.span_b(), mode))
        cyc.append(g.check_cmd(f"check-{mode}-atoms",
                               *atoms_spec(rng, rng.random() < 0.5),
                               g.span_b(), mode))
        bb = g.span_b()
        cyc.append(g.check_cmd(f"check-{mode}-fwdimage",
                               *fwd_image_spec(rng, bb), bb, mode))
        bb = g.span_b()
        cyc.append(g.check_cmd(f"check-{mode}-semistable",
                               *semistable_spec(rng, bb), bb, mode))
    bb = g.span_b()
    cyc.append(g.check_cmd("check-level-geometric",
                           *geometric_spec(rng, bb), bb, "level"))
    bb = g.span_b()
    cyc.append(g.check_cmd("check-span-geometric",
                           *geometric_spec(rng, bb), bb, "span"))
    for kind, (spec, _) in (("map-inverse-fwdimage", fwd_image_spec(rng, b)),
                            ("map-inverse-atoms", atoms_spec(rng, True)),
                            ("map-inverse-geometric", geometric_spec(rng, b))):
        cyc.append(g.map_cmd(kind, spec, b, inverse=True, grid="5:11"))
    cyc.append(g.verify_cmd("iterate"))
    # malformed specs and out-of-domain requests
    cyc.append(g.bad_cmd("bad-json", '{"schema": 1, "levy": [\n',
                         ["check", "--b", "2"], EXIT_PARSE))
    cyc.append(g.bad_cmd(
        "bad-kind", json.dumps({"schema": 1, "levy": [{"kind": "cauchy"}]}),
        ["check", "--b", repr(g.span_b())], EXIT_PARSE))
    spec, _ = atoms_spec(rng)
    del spec["levy"][0]["points"]
    cyc.append(g.bad_cmd("bad-missing-key", json.dumps(spec),
                         ["check", "--b", repr(g.span_b())], EXIT_PARSE))
    spec, _ = gauss_spec(rng)
    cyc.append(g.bad_cmd("bad-grid", json.dumps(spec),
                         ["map", "--b", "2", "--grid", "5", "--out", "out/x"],
                         EXIT_PARSE))
    spec, _ = geometric_spec(rng, 2.0)
    cyc.append(g.bad_cmd("domain-base-mismatch", json.dumps(spec),
                         ["check", "--b", repr(_r(rng.uniform(2.2, 3.0), 3))],
                         EXIT_DOMAIN))
    heavy = {"schema": 1, "levy": [{"kind": "lattice", "direction": [1.0],
                                    "base": 2.0, "anchor": 1.0,
                                    "segments": [{"w": 1.0, "r": 1.0,
                                                  "kmin": 1, "kmax": "inf",
                                                  "power": 2}]}]}
    cyc.append(g.bad_cmd("domain-log-moment", json.dumps(heavy),
                         ["map", "--b", "2", "--out", "out/x"], EXIT_DOMAIN))
    # coverage share
    cyc.append(g.verify_cmd("core"))
    cyc.append(g.verify_cmd("ou"))
    cyc.append(g.simulate_cmd("simulate-semistationary-small",
                              atoms_spec(rng)[0], 2.0, steps=10, paths=400,
                              semistationary=True, max_export=20))
    return cyc


# EDGE-like power-tail maps: (power, m, grid, tol), run in this order
POWER_MAPS = ((3, 0, "2:3", "1e-4"), (4, 0, "2:3", "1e-4"),
              (4, 1, "2:3", "1e-4"), (4, 0, "2:3", "1e-5"),
              (4, 0, "2:3", "1e-6"), (3, 0, "2:3", "1e-5"),
              (4, 1, "2:3", "1e-5"), (4, 0, "3:5", "1e-4"))


def _series_cycle(g: _Builder, index: int) -> list:
    rng = g.rng
    edge = [g.map_cmd(f"map-power{p}-m{m}", power_spec(rng, p), 2.0, m=m,
                      grid=grid, tol=tol) for p, m, grid, tol in POWER_MAPS]
    # geometric lattices, at the lattice base and off it; odd cycles swap
    # which of the two runs the iterated map (m >= 1)
    m_same, m_other = (rng.randint(1, 2), 0) if index % 2 == 0 else \
        (0, rng.randint(1, 2))
    if m_same:
        # m >= 1 at the lattice base needs a lattice over all integers
        base = _r(rng.uniform(1.6, 3.0), 3)
        spec = geometric_spec(rng, base, True,
                              (max(1.5 / base ** 2, 0.3), 0.6))[0]
    else:
        base = g.span_b()
        spec = geometric_spec(rng, base, False, (0.3, 0.6))[0]
    same = g.map_cmd(f"map-geometric-same-base-m{min(m_same, 1)}", spec, base,
                     m=m_same, grid="5:21")
    other = g.map_cmd(f"map-geometric-other-base-m{min(m_other, 1)}",
                      geometric_spec(rng, g.span_b(), False, (0.3, 0.5))[0],
                      g.span_b(), m=m_other, grid="5:21")
    # the log-moment guard gives up on a ratio this close to 1 (exit 4)
    slow = {"schema": 1, "levy": [{"kind": "lattice", "direction": [1.0],
                                   "base": 2.0, "anchor": 1.0,
                                   "segments": [{"w": _r(rng.uniform(0.5, 1.5), 3),
                                                 "r": 0.999999, "kmin": 1,
                                                 "kmax": "inf"}]}]}
    tolerance = g.map_cmd("map-tolerance-slow-lattice", slow, 2.0, m=0,
                          grid="2:3", expect=EXIT_TOLERANCE)
    # "all" is core plus the ou and iterate suites, which cover the layers
    # of the other workloads
    return [edge[0], same, edge[1], edge[2], edge[3], tolerance, edge[4],
            g.verify_cmd("all"), edge[5], other, edge[6], edge[7],
            g.simulate_cmd("simulate-semistationary", atoms_spec(rng)[0],
                           2.0, steps=60, paths=8000, semistationary=True,
                           max_export=20)]


def _ou_cycle(g: _Builder, index: int) -> list:
    rng = g.rng

    def sim(kind, law, **kw):
        # narrow ranges: the law and span set the sampler's cost per epoch
        spec = atoms_spec(rng, n_atoms=3)[0] if law == "atoms" else \
            lattice_noise_spec(rng)
        return g.simulate_cmd(f"simulate-{law}-{kind}", spec,
                              _r(rng.uniform(1.9, 2.1), 3), **kw)

    base = g.span_b()
    # heavy and light commands alternate, so a window that ends inside a
    # cycle keeps the mix; verify core, verify iterate and the map are the
    # coverage share
    return [
        sim("sampling", "lattice", c=1.0, steps=100, paths=5000),
        g.map_cmd("map-geometric-same-base-m0",
                  geometric_spec(rng, base, False, (0.3, 0.6))[0], base,
                  m=0, grid="5:11"),
        g.verify_cmd("ou"),
        g.verify_cmd("iterate"),
        sim("semistationary", "lattice", c=2.0, steps=40, paths=1000,
            semistationary=True, max_export=1000),
        sim("semistationary", "atoms", c=1.0, steps=60, paths=8000,
            semistationary=True),
        sim("limit", "lattice", steps=60, paths=4000, init="limit"),
        g.verify_cmd("core"),
        sim("export", "atoms", c=2.0, steps=60, paths=3000, max_export=3000),
        sim("limit", "atoms", steps=30, paths=2000, init="limit",
            max_export=2000),
        sim("export", "lattice", c=1.0, steps=30, paths=2000,
            max_export=2000),
        sim("sampling", "atoms", c=1.0, steps=200, paths=20_000),
    ]


_CYCLES = {"membership-sweep": _membership_cycle,
           "series-map": _series_cycle,
           "ou-simulate": _ou_cycle}


def warmup_invocation(workload: str, seed: int) -> tuple:
    """The untimed warm-up command of a workload: (spec text, Invocation)."""
    g = _Builder(workload + ":warmup", seed, prefix="warmup")
    spec, facts = gauss_spec(g.rng)
    inv = g.check_cmd("warmup", spec, facts, 2.0, "span")
    return g.specs, inv


def generate(workload: str, seed: int, cycles: int = 4) -> Plan:
    if workload not in _CYCLES:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    g = _Builder(workload, seed)
    out = []
    for index in range(cycles):
        out.append(_CYCLES[workload](g, index))
    return Plan(workload, seed, g.specs, out)


def write_specs(specs: dict, workdir: str) -> None:
    os.makedirs(os.path.join(workdir, "specs"), exist_ok=True)
    os.makedirs(os.path.join(workdir, "out"), exist_ok=True)
    for name, text in specs.items():
        with open(os.path.join(workdir, "specs", name), "w") as fh:
            fh.write(text)


def plan_bytes(plan: Plan) -> bytes:
    """Canonical serialization of a plan (spec files and argv lists)."""
    obj = {"specs": plan.specs,
           "invocations": [[i.cid, i.kind, i.argv, i.expect]
                           for i in plan.invocations]}
    return json.dumps(obj, sort_keys=True).encode()
