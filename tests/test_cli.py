import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest

from semiself import cli
from semiself import mapping as mp
from semiself import measures as ms
from semiself import nested
from semiself import sampling as sp
from semiself import specio
from semiself import triplets as tp


def write_spec(tmp_path, name, obj):
    path = str(tmp_path / name)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


GAUSS = {"schema": 1, "gauss": [[1.0]], "drift": [0.0], "levy": []}
GAUSS2 = {"schema": 1, "gauss": [[1.0, 0.0], [0.0, 1.0]], "drift": [0.0, 0.0],
          "levy": []}
CP1 = {"schema": 1, "levy": [{"kind": "atoms", "points": [[1.0]],
                              "weights": [1.0]}]}
HEAVY = {"schema": 1, "levy": [{"kind": "lattice", "direction": [1.0],
                                "base": 2.0, "anchor": 1.0,
                                "segments": [{"w": 1.0, "r": 1.0, "kmin": 1,
                                              "kmax": "inf", "power": 2}]}]}
ATOMS3 = {"schema": 1, "drift": [0.15],
          "levy": [{"kind": "atoms", "points": [[1.3], [-0.6], [2.4]],
                    "weights": [0.9, 0.4, 0.25]}]}
# infinitely many small jumps: sampled with Gaussian compensation
FULL_LATTICE = {"schema": 1, "drift": [0.2],
                "levy": [{"kind": "lattice", "direction": [1.0], "base": 2.0,
                          "anchor": 1.0,
                          "segments": [{"w": 0.8, "r": 0.47, "kmin": "-inf",
                                        "kmax": "inf"}]}]}
EDGE = {"schema": 1, "levy": [{"kind": "lattice", "direction": [1.0],
                               "base": 2.0, "anchor": 1.0,
                               "segments": [{"w": 1.0, "r": 1.0, "kmin": 1,
                                             "kmax": "inf", "power": 3}]}]}
NOISE2D = {"schema": 1, "gauss": [[0.3, 0.1], [0.1, 0.2]], "drift": [0.1, -0.2],
           "levy": [{"kind": "atoms", "points": [[0.4, 0.3], [-2.0, 1.0]],
                     "weights": [0.6, 0.2]}]}
# power 4: the log^2-moment an --m 1 map needs is finite
EDGE4 = {"schema": 1, "levy": [dict(EDGE["levy"][0], segments=[
    dict(EDGE["levy"][0]["segments"][0], power=4)])]}


def test_map_forward_gaussian(tmp_path):
    spec = write_spec(tmp_path, "g.json", GAUSS)
    out = str(tmp_path / "fwd")
    assert cli.main(["map", spec, "--b", "2", "--grid", "5:11",
                     "--out", out]) == 0
    trip = json.load(open(os.path.join(out, "triplet.json")))
    assert trip["gauss"][0][0] == pytest.approx(4.0 / 3.0)
    lines = open(os.path.join(out, "cumulant.csv")).read().splitlines()
    assert lines[0].startswith("# manifest: ")
    assert os.path.exists(os.path.join(out, "manifest.json"))


def test_map_inverse_roundtrip(tmp_path):
    spec = write_spec(tmp_path, "g.json", GAUSS)
    fwd = str(tmp_path / "fwd")
    assert cli.main(["map", spec, "--b", "2", "--grid", "3:5",
                     "--out", fwd]) == 0
    inv = str(tmp_path / "inv")
    assert cli.main(["map", os.path.join(fwd, "triplet.json"), "--b", "2",
                     "--inverse", "--grid", "3:5", "--out", inv]) == 0
    back = json.load(open(os.path.join(inv, "triplet.json")))
    assert back["gauss"][0][0] == pytest.approx(1.0, abs=1e-12)


def test_map_m1_csv_value(tmp_path):
    spec = write_spec(tmp_path, "g.json", GAUSS)
    out = str(tmp_path / "m1")
    assert cli.main(["map", spec, "--b", "2", "--m", "1", "--grid", "1:3",
                     "--out", out]) == 0
    rows = open(os.path.join(out, "cumulant.csv")).read().splitlines()[2:]
    vals = {float(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
    assert vals[1.0] == pytest.approx(-8.0 / 9.0, abs=1e-10)


def test_check_exit_codes(tmp_path):
    g = write_spec(tmp_path, "g.json", GAUSS)
    cp = write_spec(tmp_path, "cp.json", CP1)
    out = str(tmp_path / "cert.json")
    assert cli.main(["check", g, "--b", "2", "--out", out]) == 0
    assert json.load(open(out))["verdict"] is True
    assert cli.main(["check", cp, "--b", "2", "--out", out]) == 1
    cert = json.load(open(out))
    assert cert["verdict"] is False and cert["violations"]
    assert cli.main(["check", g, "--b", "2", "--level", "5",
                     "--out", out]) == 0


def test_check_level_records_no_tolerance(tmp_path):
    # the nested ladder reads no --tol: two tolerances give the same
    # certificate and manifests that differ only in the command line
    g = write_spec(tmp_path, "g.json", GAUSS)
    certs, manifests = [], []
    for tol in ("1e-3", "1e-8"):
        out = str(tmp_path / f"cert{tol}.json")
        assert cli.main(["check", g, "--b", "2", "--level", "1", "--tol", tol,
                         "--out", out]) == 0
        certs.append(json.load(open(out)))
        manifests.append(json.load(open(out[:-len(".json")]
                                        + ".manifest.json")))
    for cert in certs:
        cert.pop("manifest")
    for manifest in manifests:
        assert manifest.pop("command")[-3] in ("1e-3", "1e-8")
        manifest.pop("wall_time")
        assert manifest["tolerances"] == {}
    assert json.dumps(certs[0], sort_keys=True) == \
        json.dumps(certs[1], sort_keys=True)
    assert manifests[0] == manifests[1]


def test_check_semistable(tmp_path):
    ss = write_spec(tmp_path, "ss.json", {
        "schema": 1, "levy": [{"kind": "semistable", "b": 2.0, "alpha": 1.0}]})
    out = str(tmp_path / "cert.json")
    assert cli.main(["check", ss, "--b", "2", "--level", "0",
                     "--out", out]) == 0
    assert cli.main(["check", ss, "--b", "2", "--semistable",
                     "--out", out]) == 0
    assert json.load(open(out))["a"] == pytest.approx(2.0, abs=1e-6)


def test_parse_error_exit_2(tmp_path):
    missing = str(tmp_path / "none.json")
    assert cli.main(["map", missing, "--b", "2",
                     "--out", str(tmp_path / "x")]) == 2
    bad = str(tmp_path / "bad.json")
    open(bad, "w").write("{not json")
    assert cli.main(["check", bad, "--b", "2"]) == 2


def test_domain_error_exit_3(tmp_path):
    spec = write_spec(tmp_path, "heavy.json", HEAVY)
    assert cli.main(["map", spec, "--b", "2",
                     "--out", str(tmp_path / "x")]) == 3


def test_log_moment_edge_accept_reject(tmp_path, monkeypatch):
    # the guard reads its verdict off the segments: no log-moment is summed
    calls = []
    monkeypatch.setattr(ms, "log_moment", lambda *a: calls.append(a) or 0.0)
    monkeypatch.setattr(ms, "_lattice_log_moment",
                        lambda *a: calls.append(a) or 0.0)
    spec = write_spec(tmp_path, "edge.json", EDGE)
    out0 = str(tmp_path / "m0")
    assert cli.main(["map", spec, "--b", "2", "--m", "0", "--grid", "2:3",
                     "--tol", "1e-4", "--out", out0]) == 0
    assert cli.main(["map", spec, "--b", "2", "--m", "1", "--grid", "2:3",
                     "--out", str(tmp_path / "m1")]) == 3
    assert calls == []


def test_map_m1_on_atoms_falls_back_to_series(tmp_path):
    # the second iterate of an atom has no geometric-segment form, so only
    # the cumulant series runs; it must equal the map of the exact first map
    spec = write_spec(tmp_path, "cp.json", ATOMS3)
    out = str(tmp_path / "m1")
    assert cli.main(["map", spec, "--b", "2", "--m", "1", "--grid", "3:5",
                     "--out", out]) == 0
    assert not os.path.exists(os.path.join(out, "triplet.json"))
    assert json.load(open(os.path.join(out, "report.json")))[
        "exact_triplet"] is False
    rows = open(os.path.join(out, "cumulant.csv")).read().splitlines()[2:]
    z, re_, im = np.array([[float(v) for v in r.split(",")[:3]]
                           for r in rows]).T
    rho = specio.triplet_from_dict(ATOMS3)
    once = mp.forward_cumulant(mp.forward_triplet(rho, 2.0), 2.0, z)
    np.testing.assert_allclose(re_ + 1j * im, once.values, atol=1e-8)


def test_simulate_writes_report(tmp_path):
    spec = write_spec(tmp_path, "g.json", GAUSS)
    out = str(tmp_path / "sim")
    assert cli.main(["simulate", spec, "--b", "2", "--c", "1", "--steps",
                     "15", "--paths", "400", "--seed", "1",
                     "--out", out]) == 0
    rep = json.load(open(os.path.join(out, "report.json")))
    assert rep["langevin_residual"] < 1e-10
    assert rep["ecf"]["max_gap"] < 3.0 * rep["ecf"]["conf_radius"]
    lines = open(os.path.join(out, "paths.csv")).read().splitlines()
    assert lines[1] == "path,epoch,time,z0,dx0"
    # header + 400 paths * 16 states
    assert len(lines) == 2 + 400 * 16


@pytest.mark.parametrize("mode", [["--init", "zero"], ["--init", "limit"],
                                  ["--semistationary"]], ids=lambda m: m[-1])
def test_simulate_two_dimensional(tmp_path, monkeypatch, mode):
    spec = write_spec(tmp_path, "g2.json", GAUSS2)
    grids = []
    ecf = cli.sp.ecf

    def spy(x, z):
        grids.append(np.shape(z))
        return ecf(x, z)

    monkeypatch.setattr(cli.sp, "ecf", spy)
    out = str(tmp_path / "sim")
    assert cli.main(["simulate", spec, "--b", "2", "--steps", "5",
                     "--paths", "50", *mode, "--out", out]) == 0
    assert grids[-1] == (42, 2)     # the terminal ECF, on both axes
    rep = json.load(open(os.path.join(out, "report.json")))
    assert rep["ecf"]["max_gap"] < 3.0 * rep["ecf"]["conf_radius"]


def test_simulate_limit_requires_log_moment(tmp_path):
    spec = write_spec(tmp_path, "heavy.json", HEAVY)
    assert cli.main(["simulate", spec, "--b", "2", "--init", "limit",
                     "--paths", "10", "--steps", "2",
                     "--out", str(tmp_path / "x")]) == 3


def test_verify_deterministic(tmp_path, capsys):
    out1 = str(tmp_path / "v1.json")
    assert cli.main(["verify", "--suite", "iterate", "--seed", "42",
                     "--out", out1]) == 0
    first = json.load(open(out1))
    assert cli.main(["verify", "--suite", "iterate", "--seed", "42",
                     "--out", out1]) == 0
    assert json.load(open(out1)) == first
    text = capsys.readouterr().out
    assert "PASS iterate." in text


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# sha256 of paths.csv after its manifest line and of report.json without its
# manifest field; the manifest hash covers library versions, so it is left
# out of the pin and checked for consistency instead
GOLDEN = {
    "atoms-export": (
        ATOMS3, ["--b", "2.05", "--c", "2", "--steps", "30", "--paths", "300",
                 "--max-export", "300", "--seed", "11"],
        "4f1e806f104f8d2816e851a29c9d05c2f5ddbbb90582e42527eaafc19f0f8ff5",
        "e920f4e675ee268b2360547af7482105848f605b14acc47cb7d2ac3c49aa3e22"),
    "lattice-limit": (
        FULL_LATTICE, ["--b", "1.95", "--steps", "20", "--paths", "200",
                       "--init", "limit", "--max-export", "50", "--seed", "5"],
        "c2205d4a1d71ba6cf00a33501c0b242d76089eac12f5d992e0ad075ba17d073b",
        "317640ae85ee32ab26631195e232911bd5b8e4c648609b90ef2218ca896a0a18"),
    # the shift check runs to epoch 2, past the one epoch exported
    "semistationary-steps-1": (
        ATOMS3, ["--b", "2", "--steps", "1", "--paths", "400",
                 "--semistationary", "--max-export", "30", "--seed", "3"],
        "fe1d253d474bc85b079f526de28099c2f6216d2c9d7bae1daa62f5cc4759e26a",
        "0b7943f4600e9bfffa433a086bff10044e94c6c65d93c69b9d1139ba01ba8658"),
    "noise-2d": (
        NOISE2D, ["--b", "1.9", "--c", "1.5", "--steps", "12", "--paths", "150",
                  "--init", "0.5,-1", "--max-export", "40", "--seed", "8"],
        "71acd58e0f697576a5f062c24c7e98b0aaa364cc7b423842e58ffedbe2831e1b",
        "c3e05ad61b32c11040f63874c7a39e13757a45475c147290b745fbdae151fd73"),
    # 450 paths x 41 epochs: more rows than one CSV write block
    "export-blocks": (
        ATOMS3, ["--b", "2.1", "--steps", "40", "--paths", "500",
                 "--max-export", "450", "--seed", "13"],
        "319ae629064ed45e5d1350f836738102ebe537ac6ae2726fcf068add78f6fb4a",
        "6dbe455e71863d9dc1573b84029a9348fb1ced281502da0e199cf018e45e7b42"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_simulate_golden_bytes(tmp_path, name):
    spec_obj, flags, csv_sha, report_sha = GOLDEN[name]
    spec = write_spec(tmp_path, "noise.json", spec_obj)
    out = str(tmp_path / "sim")
    assert cli.main(["simulate", spec, *flags, "--out", out]) == 0
    head, body = open(os.path.join(out, "paths.csv"), "rb").read() \
        .split(b"\n", 1)
    report = json.load(open(os.path.join(out, "report.json")))
    assert head.decode() == "# manifest: " + report.pop("manifest")
    assert _sha(body) == csv_sha
    assert _sha(json.dumps(report, sort_keys=True).encode()) == report_sha


# sha256 of cumulant.csv after its manifest line and of report.json without
# its manifest field, for maps whose lattice phases run through the exact
# reduction.  The two power-tail windows end at radius e^700 (index 1009),
# and err_bound holds the closed-form remainder past it.  The geometric
# lattice on the span has points on both sides of radius 1, so it takes the
# sum by phase index and the per-point series; the base-3 lattice beside
# atoms takes the per-point series under off-base argument scales
BOTH_SIDES = {"schema": 1, "drift": [0.1],
              "levy": [{"kind": "lattice", "direction": [1.0], "base": 2.0,
                        "anchor": 1.3,
                        "segments": [{"w": 0.8, "r": 0.47, "kmin": "-inf",
                                      "kmax": "inf"}]}]}
ATOMS_OFF_BASE = {"schema": 1, "levy": [
    {"kind": "atoms", "points": [[1.3], [-0.6]], "weights": [0.9, 0.4]},
    {"kind": "lattice", "direction": [1.0], "base": 3.0, "anchor": 0.7,
     "segments": [{"w": 1.0, "r": 0.5, "kmin": 0, "kmax": "inf"}]}]}
MAP_GOLDEN = {
    "both-sides-m1": (
        BOTH_SIDES, ["--m", "1", "--grid", "5:21"],
        "f9d9d8c88b850eba0544fdf9ec65af9fb1a03025c3b536f7cf9e6278152abb54",
        "1c47cbf88ec1f1a98cc1ea8a1c0eb1d6646bc8987c6439e23acc7ace92783b19"),
    "atoms-off-base": (
        ATOMS_OFF_BASE, ["--grid", "5:21"],
        "5f1523819d67ec3f2572700ba67d0ebab266a61afc51a58920964e3921989100",
        "286a44532e1701871201359a9f675f82ce07ecaf1934188d45fda71b8a6df91e"),
    "edge-m0": (
        EDGE, ["--m", "0", "--grid", "2:3", "--tol", "1e-4"],
        "c79415c35c84be40b0adce99cfa023f1006c892de01cf53e5fa53da4746ccbd5",
        "2b37b7d27dbe4bab288462f6c57d5c5f530257f2de07c9e04a97fb03a229466a"),
    "edge4-m1": (
        EDGE4, ["--m", "1", "--grid", "2:3", "--tol", "1e-4"],
        "f5fef5615c2234439f47b76984f10bb3a3c8ac1c3cc355241bb21b88d970c9b4",
        "3b2783ddfd50529dd2ef58c9be8bd19ecc87d1016c7b3912d42f817be167af28"),
}


@pytest.mark.parametrize("name", sorted(MAP_GOLDEN))
def test_map_golden_bytes(tmp_path, name):
    spec_obj, flags, csv_sha, report_sha = MAP_GOLDEN[name]
    spec = write_spec(tmp_path, "spec.json", spec_obj)
    out = str(tmp_path / "map")
    assert cli.main(["map", spec, "--b", "2", *flags, "--out", out]) == 0
    head, body = open(os.path.join(out, "cumulant.csv"), "rb").read() \
        .split(b"\n", 1)
    report = json.load(open(os.path.join(out, "report.json")))
    assert head.decode() == "# manifest: " + report.pop("manifest")
    assert _sha(body) == csv_sha
    assert _sha(json.dumps(report, sort_keys=True).encode()) == report_sha


def test_edge_map_work_guards(tmp_path, monkeypatch):
    # the EDGE lattice lies above radius 1, so the sum by phase index
    # evaluates no (point, term) cell, and window ends come from closed-form
    # tails, so masses are read once per window
    cells, mass_calls = [], []
    integrand, mass = tp.centered_exp_integrand, ms.Segment.mass

    def counted_integrand(zgrid, points, *args, **kwargs):
        cells.append(points.shape[0] * zgrid.shape[0])
        return integrand(zgrid, points, *args, **kwargs)

    def counted_mass(self, k):
        mass_calls.append(1)
        return mass(self, k)

    monkeypatch.setattr(tp, "centered_exp_integrand", counted_integrand)
    monkeypatch.setattr(ms.Segment, "mass", counted_mass)
    spec = write_spec(tmp_path, "edge.json", EDGE)
    assert cli.main(["map", spec, "--b", "2", "--m", "0", "--grid", "2:3",
                     "--tol", "1e-4", "--out", str(tmp_path / "map")]) == 0
    assert sum(cells) == 0
    assert len(mass_calls) <= 36


# simulate's own flags, then the span and level flags all subcommands share
BAD_FLAGS = [
    ("simulate", "--paths", "0"), ("simulate", "--steps", "-1"),
    ("simulate", "--c", "0"), ("simulate", "--c", "nan"),
    ("simulate", "--b", "1"), ("simulate", "--b", "nan"),
    ("simulate", "--b", "inf"), ("simulate", "--max-export", "-5"),
    ("map", "--b", "1"), ("check", "--b", "1"), ("check", "--b", "nan"),
    ("check", "--level", "-1"), ("check", "--level", str(nested.M_MAX + 1)),
    ("map", "--m", "-1"), ("map", "--m", str(nested.M_MAX + 1)),
    ("map", "--tol", "nan"), ("map", "--tol", "0"), ("map", "--tol", "inf"),
    ("check", "--tol", "nan"), ("check", "--tol", "-1"),
    ("map", "--grid", "nan:3"), ("map", "--grid", "inf:3"),
    ("simulate", "--init", "nan"), ("simulate", "--init", "inf")]
BASE_FLAGS = {"simulate": ["--paths", "30", "--steps", "3"],
              "map": ["--grid", "3:5"], "check": []}


@pytest.mark.parametrize("command,flag,value", BAD_FLAGS, ids=[
    f"{f}-{v}" if c == "simulate" else f"{c}{f}-{v}" for c, f, v in BAD_FLAGS])
def test_simulate_bad_flags_exit_2(tmp_path, capsys, command, flag, value):
    spec = write_spec(tmp_path, "g.json", GAUSS)
    argv = [command, spec, "--b", "2", *BASE_FLAGS[command],
            "--out", str(tmp_path / "x")]
    assert cli.main(argv + [flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert flag in err
    assert not os.path.exists(tmp_path / "x")


INVALID_SPECS = {
    "negative-weight": '{"schema": 1, "levy": [{"kind": "atoms", '
                       '"points": [[1.0]], "weights": [-0.5]}]}',
    "nan-gauss": '{"schema": 1, "gauss": [[NaN]], "drift": [0.0], "levy": []}',
    "levy-object": '{"schema": 1, "levy": {"kind": "atoms", '
                   '"points": [[1.0]], "weights": [1.0]}}',
    "schema-99": '{"schema": 99, "gauss": [[1.0]], "drift": [0.0], "levy": []}',
    "radial": '{"schema": 1, "levy": [{"kind": "radial", "direction": [1.0], '
              '"form": "power_exp", "params": {"w": 1.0, "p": 1.5}}]}'}
# every entry that builds on a law: (subcommand, flags after the spec)
GUARDED = {"check": ("check", []),
           "check--semistable": ("check", ["--semistable"]),
           "map--inverse": ("map", ["--inverse", "--grid", "3:5"]),
           "map": ("map", ["--grid", "3:5"]),
           "simulate": ("simulate", ["--paths", "30", "--steps", "3"])}
INVALID_CASES = [(c, s) for c in GUARDED for s in INVALID_SPECS]


@pytest.mark.parametrize("command,spec_id", INVALID_CASES, ids=[
    s if c == "check" else f"{c}-{s}" for c, s in INVALID_CASES])
def test_invalid_spec_exit_2(tmp_path, capsys, command, spec_id):
    spec = str(tmp_path / "bad.json")
    open(spec, "w").write(INVALID_SPECS[spec_id])
    sub, flags = GUARDED[command]
    out = tmp_path / "x"
    assert cli.main([sub, spec, "--b", "2", *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


# a lattice that is both invalid and outside the domain, one whose mass
# decays too slowly to bound, and a constant mass running to +inf that only
# the validity guard refuses: each exits alike on every command, because the
# validity guard runs first
GUARD_ORDER = {
    "divergent-mass": ({"schema": 1, "levy": [{
        "kind": "lattice", "direction": [1.0], "base": 2.0, "anchor": 1.0,
        "segments": [{"w": 1.0, "r": 1.5, "kmin": 1, "kmax": "inf"}]}]}, 2),
    "slow-lattice": ({"schema": 1, "levy": [{
        "kind": "lattice", "direction": [1.0], "base": 2.0, "anchor": 1.0,
        "segments": [{"w": 1.0, "r": 0.999999, "kmin": 1, "kmax": "inf"}]}]},
        4),
    "constant-mass-to-inf": ({"schema": 1, "levy": [{
        "kind": "lattice", "direction": [1.0], "base": 2.0, "anchor": 1.0,
        "segments": [{"w": 1.0, "r": 1.0, "kmin": 1, "kmax": "inf"}]}]}, 2)}
GUARD_COMMANDS = {"check": ["check"],
                  "map": ["map", "--grid", "2:3"],
                  "simulate-limit": ["simulate", "--init", "limit",
                                     "--paths", "10", "--steps", "2"]}


@pytest.mark.parametrize("spec_id", GUARD_ORDER)
@pytest.mark.parametrize("command", GUARD_COMMANDS)
def test_validity_guard_runs_first(tmp_path, capsys, command, spec_id):
    spec_obj, code = GUARD_ORDER[spec_id]
    spec = write_spec(tmp_path, "lat.json", spec_obj)
    sub, *flags = GUARD_COMMANDS[command]
    out = tmp_path / "x"
    assert cli.main([sub, spec, "--b", "2", *flags, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def _one_segment(**bounds):
    seg = dict({"w": 1.0, "r": 0.5, "kmin": 0, "kmax": "inf"}, **bounds)
    return {"schema": 1, "levy": [{"kind": "lattice", "direction": [1.0],
                                   "base": 2.0, "anchor": 1.0,
                                   "segments": [seg] if bounds else []}]}


# specs the reader or the validity guard refuses on every command, and an
# atom weight whose Poisson intensity no draw can take
REFUSED = {
    "kmin-fraction": _one_segment(kmin=0.5),
    "kmin-string": _one_segment(kmin="3"),
    "kmin-bool": _one_segment(kmin=True),
    "ends-neg-inf": _one_segment(kmin="-inf", kmax="-inf"),
    "ends-inf": _one_segment(kmin="inf", kmax="inf"),
    "no-segments": _one_segment(),
    "atom-overflow": {"schema": 1, "levy": [
        {"kind": "atoms", "points": [[1e300]], "weights": [1.0]}]},
    "atom-origin": {"schema": 1, "levy": [
        {"kind": "atoms", "points": [[0.0]], "weights": [1.0]}]},
    "atom-underflow": {"schema": 1, "levy": [
        {"kind": "atoms", "points": [[1e-200]], "weights": [1.0]}]},
    "atom-weight": {"schema": 1, "levy": [
        {"kind": "atoms", "points": [[1.0]], "weights": [1e300]}]}}
REFUSED_COMMANDS = {"map": ["map", "--grid", "2:3"], "check": ["check"],
                    "simulate": ["simulate", "--paths", "20", "--steps", "3"]}
REFUSED_CASES = [(s, c, 2) for s in REFUSED if s != "atom-weight"
                 for c in REFUSED_COMMANDS] + [("atom-weight", "simulate", 4)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spec_id,command,code", REFUSED_CASES,
                         ids=[f"{c}-{s}" for s, c, _ in REFUSED_CASES])
def test_refused_spec_exits_with_one_line(tmp_path, capsys, spec_id, command,
                                          code):
    spec = write_spec(tmp_path, "spec.json", REFUSED[spec_id])
    sub, *flags = REFUSED_COMMANDS[command]
    out = tmp_path / "x"
    assert cli.main([sub, spec, "--b", "2", *flags, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("x,code,message", [
    (0.0, 2, "error: mass at origin\n"),
    (1e-200, 2, "error: atom too near the origin: |x|^2 underflows\n"),
    (1e-150, 0, "")])
def test_atom_near_origin(tmp_path, capsys, x, code, message):
    # 1e-200 is off the origin, but its |x|^2 underflows; 1e-150's does not
    spec = write_spec(tmp_path, "spec.json", {"schema": 1, "levy": [
        {"kind": "atoms", "points": [[x]], "weights": [1.0]}]})
    assert cli.main(["map", spec, "--b", "2", "--grid", "2:3",
                     "--out", str(tmp_path / "x")]) == code
    assert capsys.readouterr().err == message


def test_semistable_degenerate_law_exit_3(tmp_path, capsys):
    # Re C vanishes on the whole grid: no scaling exponent to fit
    spec = write_spec(tmp_path, "det.json",
                      {"schema": 1, "drift": [1.0], "levy": []})
    assert cli.main(["check", spec, "--b", "2", "--semistable"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("domain error: degenerate law") and \
        err.count("\n") == 1


def _lattice_spec(*segments):
    return {"schema": 1, "levy": [{"kind": "lattice", "direction": [1.0],
                                   "base": 2.0, "anchor": 1.0,
                                   "segments": [dict(s, kmax="inf")
                                                for s in segments]}]}


# m(k) = 2^-k - 0.5 4^-k on k >= 0: nonnegative, with a negative segment
SIGNED = _lattice_spec({"w": 1.0, "r": 0.5, "kmin": 0},
                       {"w": -0.5, "r": 0.25, "kmin": 0})
# m(k) = 0.97^k (1.01^k - 1.01^300)(1.01^k - 1.01^600): zero at k = 300
# and 600, negative between, positive as k -> inf
THREE = _lattice_spec({"w": 1.01 ** 900, "r": 0.97, "kmin": 0},
                      {"w": -(1.01 ** 300 + 1.01 ** 600), "r": 0.97 * 1.01,
                       "kmin": 0},
                      {"w": 1.0, "r": 0.97 * 1.01 ** 2, "kmin": 0})
# m(k) = k^-3 - 0.001 k^-2: zero at k = 1000, negative for every k > 1000
POWER_PAIR = _lattice_spec({"w": 1.0, "r": 1.0, "kmin": 1, "power": 3},
                           {"w": -0.001, "r": 1.0, "kmin": 1, "power": 2})


def test_signed_lattice_maps_and_samples(tmp_path, capsys):
    spec = write_spec(tmp_path, "signed.json", SIGNED)
    assert cli.main(["map", spec, "--b", "2", "--grid", "2:3",
                     "--out", str(tmp_path / "map")]) == 0
    assert cli.main(["simulate", spec, "--b", "2", "--steps", "3",
                     "--paths", "20", "--out", str(tmp_path / "sim")]) == 0
    # the factor nu - nu(2 .) has mass -m(0) at index -1, below the lattice
    cert = str(tmp_path / "cert.json")
    assert cli.main(["check", spec, "--b", "2", "--out", cert]) == 1
    assert json.load(open(cert))["violations"] == [[[1.0], -1]]


@pytest.mark.parametrize("spec_obj,index", [(THREE, 301), (POWER_PAIR, 1001)],
                         ids=["three-segments", "power-pair"])
def test_negative_lattice_far_from_boundaries_exit_2(tmp_path, capsys,
                                                    spec_obj, index):
    # the negative masses lie hundreds of indices past every finite segment
    # boundary; the sign rule checks up to where the dominant term wins
    spec = write_spec(tmp_path, "neg.json", spec_obj)
    assert cli.main(["check", spec, "--b", "2",
                     "--out", str(tmp_path / "c.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: negative lattice mass at index ")
    assert int(err.split()[-1]) == index


def test_wide_grid_map_ends_cleanly(tmp_path, capsys):
    # phases at |z| = 1e5 against radii up to e^700
    spec = write_spec(tmp_path, "edge.json", EDGE)
    code = cli.main(["map", spec, "--b", "2", "--grid", "100000:3",
                     "--tol", "1e-4", "--out", str(tmp_path / "map")])
    err = capsys.readouterr().err
    assert code == 0 or (code == 4 and err.count("\n") == 1)
    assert "Traceback" not in err


def test_sampler_build_reads_masses_once_per_window(monkeypatch):
    # epsilon comes from closed-form variances, and the pool and the
    # compensation moments each read one block of masses
    mass_calls = []
    mass = ms.Segment.mass

    def counted_mass(self, k):
        mass_calls.append(1)
        return mass(self, k)

    monkeypatch.setattr(ms.Segment, "mass", counted_mass)
    sampler = sp.Sampler(specio.triplet_from_dict(FULL_LATTICE))
    sampler.draw(10, seed=0)
    assert len(mass_calls) <= 4


def test_map_refuses_non_finite_cumulants(tmp_path, capsys):
    spec = write_spec(tmp_path, "g.json", GAUSS)
    out = tmp_path / "x"
    assert cli.main(["map", spec, "--b", "2", "--grid", "1e308:3",
                     "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("tolerance error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_simulate_refuses_non_finite_results(tmp_path, capsys):
    # a finite start whose <z, x> overflows the transition reference
    spec = write_spec(tmp_path, "g.json", GAUSS)
    out = tmp_path / "x"
    assert cli.main(["simulate", spec, "--b", "2", "--init", "1e308",
                     "--paths", "10", "--steps", "3", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("tolerance error: ") and err.count("\n") == 1
    assert not out.exists()


# one command of each kind on a law with nonnegative factors at every level,
# so the nested ladder and the iterated map pass through inherited verdicts
ONE_VALIDATION = {
    "map-m0": ["map", "--m", "0", "--grid", "3:5"],
    "map-m1": ["map", "--m", "1", "--grid", "3:5"],
    "map-inverse": ["map", "--inverse", "--grid", "3:5"],
    "check-span": ["check"],
    "check-level2": ["check", "--level", "2"],
    "check-semistable": ["check", "--semistable"],
    "simulate-zero": ["simulate", "--init", "zero", "--paths", "50",
                      "--steps", "3"],
    "simulate-limit": ["simulate", "--init", "limit", "--paths", "50",
                       "--steps", "3"],
    "simulate-semistationary": ["simulate", "--semistationary", "--paths",
                                "50", "--steps", "3"]}


@pytest.mark.parametrize("name", ONE_VALIDATION)
def test_each_command_validates_once(tmp_path, monkeypatch, name):
    calls = []
    validate = tp.validate
    monkeypatch.setattr(tp, "validate", lambda t: calls.append(t) or validate(t))
    spec = write_spec(tmp_path, "lat.json", FULL_LATTICE)
    sub, *flags = ONE_VALIDATION[name]
    assert cli.main([sub, spec, "--b", "2", *flags,
                     "--out", str(tmp_path / "x")]) in (0, 1)
    assert len(calls) == 1


def test_violations_are_numbers(tmp_path):
    # one negative mass of the factor: direction [1.0], lattice index -1
    spec = write_spec(tmp_path, "cp.json", CP1)
    cert = str(tmp_path / "cert.json")
    assert cli.main(["check", spec, "--b", "2", "--out", cert]) == 1
    assert json.load(open(cert))["violations"] == [[[1.0], -1]]
    out = str(tmp_path / "inv")
    assert cli.main(["map", spec, "--b", "2", "--inverse", "--grid", "3:5",
                     "--out", out]) == 0
    report = json.load(open(os.path.join(out, "report.json")))
    assert report["violations"] == [[[1.0], -1]]


def test_semistationary_exports_the_requested_steps(tmp_path):
    # the shifted times run past a one-step horizon; only the horizon is kept
    spec = write_spec(tmp_path, "cp.json", CP1)
    out = str(tmp_path / "sim")
    assert cli.main(["simulate", spec, "--b", "2", "--steps", "1", "--paths",
                     "20", "--semistationary", "--out", out]) == 0
    lines = open(os.path.join(out, "paths.csv")).read().splitlines()
    assert len(lines) == 2 + 20 * 2


def test_simulate_max_export_zero_writes_header_only(tmp_path):
    spec = write_spec(tmp_path, "g.json", GAUSS)
    out = str(tmp_path / "sim")
    assert cli.main(["simulate", spec, "--b", "2", "--paths", "30",
                     "--steps", "3", "--max-export", "0", "--out", out]) == 0
    lines = open(os.path.join(out, "paths.csv")).read().splitlines()
    assert lines[1:] == ["path,epoch,time,z0,dx0"]
    assert json.load(open(os.path.join(out, "report.json")))[
        "exported_paths"] == 0


# (paths, epochs, --max-export, bound in MB): holding paths x epochs peaked
# at 71.7 and 42.5 MB; the streamed recursion and export hold the exported
# trajectories, a few per-path vectors and one block of CSV lines
SIMULATE_MEMORY = {"sampling": (20_000, 200, 100, 16),
                   "full-export": (3000, 60, 3000, 12)}


@pytest.mark.parametrize("case", sorted(SIMULATE_MEMORY))
def test_simulate_peak_memory(tmp_path, case):
    paths, steps, export, bound_mb = SIMULATE_MEMORY[case]
    spec = write_spec(tmp_path, "atoms.json", ATOMS3)
    out = str(tmp_path / "sim")
    tracemalloc.start()
    try:
        assert cli.main(["simulate", spec, "--b", "2", "--steps", str(steps),
                         "--paths", str(paths), "--max-export", str(export),
                         "--out", out]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 2 ** 20
    rows = open(os.path.join(out, "paths.csv")).read().count("\n") - 2
    assert rows == min(paths, export) * (steps + 1)


def test_manifest_records_main_argv(tmp_path):
    spec = write_spec(tmp_path, "g.json", GAUSS)
    out = str(tmp_path / "sim")
    argv = ["simulate", spec, "--b", "2", "--paths", "20", "--steps", "2",
            "--out", out]
    assert cli.main(argv) == 0
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["command"] == argv
    assert manifest["tolerances"] == {}     # simulate takes no tolerance
