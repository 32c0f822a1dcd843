"""Acceptance gate: ten end-to-end criteria, one printed verdict line each."""

import hashlib
import json
import math
import sys

import numpy as np
import pytest

from semiself import cli
from semiself import mapping as mp
from semiself import nested as nt
from semiself import ou
from semiself import suites
from semiself import triplets as tp

MC_N = 100_000


def _verdict(number, label, ok, detail=""):
    line = f"criterion {number:2d} {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, file=sys.stderr, flush=True)
    assert ok, line


def test_criterion_01_factorization_identity():
    worst = 0.0
    for d in (1, 2):
        grid = mp.default_grid(d, zmax=5.0, n=41)
        for b in (1.1, 2.0, 10.0):
            for rho in suites.corpus(d, b):
                fwd = mp.forward_triplet(rho, b, tol=1e-12)
                rep = mp.factorization_check(fwd, rho, b, grid=grid)
                worst = max(worst, rep.max_residual)
    _verdict(1, "factorization_identity", worst <= 1e-8,
             f"max residual {worst:.2e}")


def test_criterion_02_triplet_roundtrip():
    worst = 0.0
    for d in (1, 2):
        for b in (1.1, 2.0, 10.0):
            for rho in suites.corpus(d, b):
                fwd = mp.forward_triplet(rho, b, tol=1e-12)
                inv = mp.inverse_factor(fwd, b, tol=1e-12)
                worst = max(
                    worst,
                    float(np.max(np.abs(inv.rho.gauss - rho.gauss))),
                    float(np.max(np.abs(inv.rho.drift - rho.drift))))
    fwd = mp.forward_triplet(tp.gaussian(1.0), 2.0)
    exact = abs(fwd.gauss[0, 0] - 1.0 / (1.0 - 0.25)) < 1e-15
    _verdict(2, "triplet_roundtrip", worst <= 1e-10 and exact,
             f"max gap {worst:.2e}")


def test_criterion_03_langevin_identity():
    bundle = ou.solve_path(tp.gaussian(1.0), ou.OUConfig(2.0, 1.0),
                           np.zeros(1), epochs=200, n_paths=100, seed=42)
    res = ou.verify_langevin(bundle)
    _verdict(3, "langevin_identity", res <= 1e-10, f"residual {res:.2e}")


def test_criterion_04_limit_law():
    ok = True
    worst = 0.0
    for noise in (tp.gaussian(1.0), tp.poisson_unit()):
        for c in (1.0, 2.0):
            rep = ou.validate_limit(noise, ou.OUConfig(2.0, c), n=MC_N,
                                    seed=42)
            ok = ok and rep.ok
            worst = max(worst, rep.ecf_gap_first, rep.ecf_gap_second,
                        rep.start_gap, *rep.stationary_gaps)
    _verdict(4, "limit_law", ok, f"max ECF gap {worst:.3f}")


def test_criterion_05_divergence_diagnostic():
    div = ou.divergence_diagnostic(tp.poisson_unit(), ou.OUConfig(2.0, 1.0),
                                   [math.pi], [10.0, 20.0, 40.0],
                                   n=MC_N, seed=42)
    _verdict(5, "divergence_diagnostic", div.ok,
             f"max estimate {max(div.estimates):.4f} "
             f"vs bound {div.bound:.4f}")


def test_criterion_06_semi_stationarity():
    cfg = ou.OUConfig(2.0, 1.0)
    pu = tp.poisson_unit()
    good = ou.shift_invariance_gap(pu, cfg, (0.9, 1.0), 1.0, n=MC_N, seed=42)
    bad = ou.shift_invariance_gap(pu, cfg, (0.9, 1.0), 0.5, n=MC_N, seed=42)
    ok = good.invariant() and not bad.invariant()
    _verdict(6, "semi_stationarity", ok,
             f"period gap {good.joint_gap:.4f}, "
             f"control gap {bad.joint_gap:.4f}")


def test_criterion_07_iteration():
    z = np.linspace(-5.0, 5.0, 21)
    pu = tp.poisson_unit()
    twice = mp.forward_cumulant(mp.forward_triplet(pu, 2.0), 2.0, z,
                                tol=1e-10).values
    direct = mp.forward_cumulant(pu, 2.0, z, m=1).values
    comp_gap = float(np.max(np.abs(twice - direct)))
    v = mp.forward_cumulant(tp.gaussian(1.0), 2.0, 1.0, m=1).values[0]
    oracle_gap = abs(v + 8.0 / 9.0)
    ok = comp_gap <= 5e-8 and oracle_gap <= 1e-10
    _verdict(7, "iteration", ok,
             f"composition gap {comp_gap:.2e}, oracle gap {oracle_gap:.2e}")


def test_criterion_08_nested_membership():
    ok = True
    for alpha in (0.5, 1.0, 1.5):
        mu = nt.semi_stable_triplet(nt.SemiStableSpec(b=2.0, alpha=alpha))
        cert = nt.is_nested_member(mu, 2.0, 5)
        ok = ok and all(cert.verdicts)
        w = cert.factors[0].levy.components[0].segments[0].w
        ok = ok and abs(w - (1.0 - 2.0 ** (-alpha))) < 1e-14
    c0 = nt.is_nested_member(tp.poisson_unit(), 2.0, 0)
    c1 = nt.is_nested_member(mp.forward_triplet(tp.poisson_unit(), 2.0),
                             2.0, 1)
    ok = ok and not c0.verdicts[0] and c1.verdicts[0] and not c1.verdicts[1]
    _verdict(8, "nested_membership", ok)


HEAVY = {"schema": 1, "levy": [{"kind": "lattice", "direction": [1.0],
                                "base": 2.0, "anchor": 1.0,
                                "segments": [{"w": 1.0, "r": 1.0, "kmin": 1,
                                              "kmax": "inf", "power": 2}]}]}
EDGE = {"schema": 1, "levy": [{"kind": "lattice", "direction": [1.0],
                               "base": 2.0, "anchor": 1.0,
                               "segments": [{"w": 1.0, "r": 1.0, "kmin": 1,
                                             "kmax": "inf", "power": 3}]}]}
GAUSS = {"schema": 1, "gauss": [[1.0]], "drift": [0.0], "levy": []}
SLOW = {"schema": 1, "levy": [{"kind": "lattice", "direction": [1.0],
                               "base": 2.0, "anchor": 1.0,
                               "segments": [{"w": 1.0, "r": 0.999999,
                                             "kmin": 1, "kmax": "inf",
                                             "power": 0}]}]}


def _spec(tmp_path, name, obj):
    path = str(tmp_path / name)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def test_criterion_09_domain_boundaries(tmp_path):
    heavy = _spec(tmp_path, "heavy.json", HEAVY)
    edge = _spec(tmp_path, "edge.json", EDGE)
    e_heavy = cli.main(["map", heavy, "--b", "2",
                        "--out", str(tmp_path / "a")])
    e_m0 = cli.main(["map", edge, "--b", "2", "--m", "0", "--grid", "2:3",
                     "--tol", "1e-4", "--out", str(tmp_path / "b")])
    e_m1 = cli.main(["map", edge, "--b", "2", "--m", "1", "--grid", "2:3",
                     "--out", str(tmp_path / "c")])
    ok = e_heavy == 3 and e_m0 == 0 and e_m1 == 3
    _verdict(9, "domain_boundaries", ok,
             f"exits {e_heavy}/{e_m0}/{e_m1}, want 3/0/3")


# sha256 of the seed-42 verify summary without its manifest: it pins every
# ECF gap and confidence radius the suites report
VERIFY_ALL_42_SHA = \
    "57c3af38d87c48fe12672ce693f31f17457fb3da9a317abde3e359a2092ff661"


def test_criterion_10_cli_determinism(tmp_path):
    out = str(tmp_path / "summary.json")
    e1 = cli.main(["verify", "--suite", "all", "--seed", "42", "--out", out])
    first = json.load(open(out))
    e2 = cli.main(["verify", "--suite", "all", "--seed", "42", "--out", out])
    identical = json.load(open(out)) == first
    first.pop("manifest")
    pinned = hashlib.sha256(json.dumps(first, sort_keys=True).encode()) \
        .hexdigest() == VERIFY_ALL_42_SHA
    gauss = _spec(tmp_path, "g.json", GAUSS)
    bad = str(tmp_path / "bad.json")
    open(bad, "w").write("{not json")
    codes = (
        cli.main(["check", bad, "--b", "2"]),                       # parse
        cli.main(["map", _spec(tmp_path, "h.json", HEAVY), "--b", "2",
                  "--out", str(tmp_path / "x")]),                   # domain
        cli.main(["map", _spec(tmp_path, "s.json", SLOW), "--b", "2",
                  "--grid", "2:3", "--out", str(tmp_path / "y")]),  # tolerance
        cli.main(["check", gauss, "--b", "2"]),                     # member
    )
    ok = (e1 == 0 and e2 == 0 and identical and pinned
          and codes == (2, 3, 4, 0))
    _verdict(10, "cli_determinism", ok,
             f"identical={identical}, pinned={pinned}, "
             f"exit codes {codes}, want (2, 3, 4, 0)")
