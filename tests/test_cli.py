import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_check_records_no_tolerance(tmp_path):
    # every check mode is exact algebra: none reads or records a tolerance
    g = write_spec(tmp_path, "g.json", GAUSS)
    for flags in ([], ["--level", "1"], ["--semistable"]):
        out = str(tmp_path / "cert.json")
        assert cli.main(["check", g, "--b", "2", *flags, "--out", out]) == 0
        assert json.load(open(str(tmp_path / "cert.manifest.json")))[
            "tolerances"] == {}


# the exact key set of each check kind's certificate
CERT_KEYS = {
    "span": ([], {"kind", "b", "verdict", "violations", "factor",
                  "manifest"}),
    "nested": (["--level", "2"], {"kind", "b", "m", "verdicts",
                                  "first_violation", "factors", "manifest"}),
    "semistable": (["--semistable"], {"kind", "b", "verdict", "a", "alpha",
                                      "c", "witness", "manifest"})}


@pytest.mark.parametrize("kind", sorted(CERT_KEYS))
def test_certificate_formats(tmp_path, kind):
    flags, keys = CERT_KEYS[kind]
    spec = write_spec(tmp_path, "lat.json", FULL_LATTICE)
    out = str(tmp_path / "cert.json")
    assert cli.main(["check", spec, "--b", "2", *flags, "--out", out]) == 0
    cert = json.load(open(out))
    assert cert["kind"] == kind and set(cert) == keys


def test_check_semistable(tmp_path):
    ss = write_spec(tmp_path, "ss.json", {
        "schema": 1, "levy": [{"kind": "semistable", "b": 2.0, "alpha": 1.0}]})
    out = str(tmp_path / "cert.json")
    assert cli.main(["check", ss, "--b", "2", "--level", "0",
                     "--out", out]) == 0
    assert cli.main(["check", ss, "--b", "2", "--semistable",
                     "--out", out]) == 0
    assert json.load(open(out))["a"] == pytest.approx(2.0, abs=1e-6)


def _geometric_lattice(base, r, **bounds):
    seg = dict({"w": 1.0, "r": r, "kmin": "-inf", "kmax": "inf"}, **bounds)
    return {"schema": 1, "drift": [0.1], "levy": [{
        "kind": "lattice", "direction": [1.0], "base": base, "anchor": 1.0,
        "segments": [seg]}]}


def test_semistable_verdict_agrees_with_the_ladder(tmp_path):
    # m(k) = 2^-1.5k on -60..60 only: m(-60) != r m(-61) = 0, so the
    # semi-stable witness is the index where level 0 of the ladder fails
    spec = write_spec(tmp_path, "cut.json",
                      _geometric_lattice(2.0, 2 ** -1.5, kmin=-60, kmax=60))
    cert, level = str(tmp_path / "ss.json"), str(tmp_path / "level.json")
    assert cli.main(["check", spec, "--b", "2", "--semistable",
                     "--out", cert]) == 1
    assert cli.main(["check", spec, "--b", "2", "--level", "3",
                     "--out", level]) == 1
    ss = json.load(open(cert))
    assert ss["witness"] == [[1.0], -61] and ss["verdict"] is False
    assert ss["a"] is None and ss["alpha"] is None and ss["c"] is None
    assert json.load(open(level))["first_violation"] == [0, -61]
    # the verdict is exact: it records no tolerance
    assert json.load(open(str(tmp_path / "ss.manifest.json")))[
        "tolerances"] == {}


@pytest.mark.parametrize("b", ["1e4", "1e8", "1e20"])
def test_gaussian_is_semi_stable_at_large_spans(tmp_path, b):
    spec = write_spec(tmp_path, "g.json", GAUSS)
    out = str(tmp_path / "ss.json")
    assert cli.main(["check", spec, "--b", b, "--semistable",
                     "--out", out]) == 0
    cert = json.load(open(out))
    assert cert["alpha"] == 2.0 and cert["a"] == float(b) ** 2
    assert cert["c"] == [0.0] and cert["witness"] is None


def test_root_base_lattice_is_a_member_on_every_command(tmp_path):
    # base 2^(1/2) at span 2 splits into two families on base 2; m(k) =
    # 2^(-k/4) scales by 2^-0.5 over two indices: alpha 0.5
    spec = write_spec(tmp_path, "root.json",
                      _geometric_lattice(2 ** 0.5, 2 ** -0.25))
    out = str(tmp_path / "c.json")
    assert cli.main(["check", spec, "--b", "2", "--out", out]) == 0
    assert cli.main(["check", spec, "--b", "2", "--level", "3",
                     "--out", out]) == 0
    assert cli.main(["check", spec, "--b", "2", "--semistable",
                     "--out", out]) == 0
    assert json.load(open(out))["alpha"] == pytest.approx(0.5, abs=1e-12)
    assert cli.main(["map", spec, "--b", "2", "--grid", "3:5",
                     "--out", str(tmp_path / "map")]) == 0
    assert json.load(open(str(tmp_path / "map" / "report.json")))[
        "exact_triplet"] is True


@pytest.mark.parametrize("base,r,anchor", [
    (2 ** 0.5, 2 ** -0.75, 1.0), (2.0, 2 ** -1.5, 2 ** 0.5)],
    ids=["base-root-2", "anchor-root-2"])
def test_root_lattice_at_alpha_one_and_a_half_is_a_span_member(
        tmp_path, base, r, anchor):
    # radii off the powers of 2: the span verdict is the factor's sign, the
    # same decision as level 0 of the ladder
    obj = _geometric_lattice(base, r)
    obj["levy"][0]["anchor"] = anchor
    spec = write_spec(tmp_path, "root.json", obj)
    assert cli.main(["check", spec, "--b", "2"]) == 0
    assert cli.main(["check", spec, "--b", "2", "--level", "3"]) == 0
    assert cli.main(["check", spec, "--b", "2", "--semistable"]) == 0


def test_span_check_evaluates_no_cumulant(tmp_path, monkeypatch):
    calls = []
    cumulant = tp.cumulant
    monkeypatch.setattr(tp, "cumulant",
                        lambda *a, **kw: calls.append(a) or cumulant(*a, **kw))
    for name, obj in (("g.json", GAUSS), ("cp.json", CP1),
                      ("lat.json", FULL_LATTICE),
                      ("root.json", _geometric_lattice(2 ** 0.5, 2 ** -0.75))):
        spec = write_spec(tmp_path, name, obj)
        assert cli.main(["check", spec, "--b", "2"]) in (0, 1)
    assert calls == []


@st.composite
def span_laws(draw):
    """A Gaussian, atoms, or one or two lattices on base ``b`` or ``b^(1/n)``:
    geometric on all integers, cut at either end, or two segments that meet
    at an index, with ratios ``r`` on both sides of ``1/b``."""
    b = draw(st.sampled_from([2.0, 3.0]))
    kind = draw(st.sampled_from(["gauss", "atoms", "lattice", "lattice"]))
    if kind == "gauss":
        return tp.gaussian(draw(st.floats(0.1, 2.0))), b
    if kind == "atoms":
        return tp.compound_poisson(
            [[draw(st.floats(0.2, 3.0))], [-draw(st.floats(0.2, 3.0))]],
            [draw(st.floats(0.1, 2.0)), draw(st.floats(0.1, 2.0))]), b
    comps = []
    for _ in range(draw(st.integers(1, 2))):
        n = draw(st.sampled_from([1, 1, 2, 3]))
        ratio = [b ** (-draw(st.floats(0.2, 1.8)) / n) for _ in range(2)]
        w = [draw(st.floats(0.1, 2.0)) for _ in range(2)]
        shape = draw(st.sampled_from(["whole", "cut-below", "cut-above",
                                      "two"]))
        if shape == "two":
            k = draw(st.integers(-5, 5))
            segs = (ms.Segment(w[0], ratio[0], ms.NEG_INF, k),
                    ms.Segment(w[1], ratio[1], k + 1, ms.POS_INF))
        else:
            segs = (ms.Segment(
                w[0], ratio[0], -40 if shape == "cut-below" else ms.NEG_INF,
                40 if shape == "cut-above" else ms.POS_INF),)
        comps.append(ms.ScaleLattice([1.0], b ** (1.0 / n), segs,
                                     draw(st.floats(0.5, 2.0))))
    return tp.LevyTriplet(np.zeros((1, 1)), ms.LevyMeasure(tuple(comps)),
                          np.array([draw(st.floats(-1.0, 1.0))])), b


@settings(max_examples=40, deadline=None, derandomize=True)
@given(span_laws())
def test_span_verdict_is_level_zero_of_the_ladder(tmp_path_factory, case):
    mu, b = case
    verdict = mp.is_semi_selfdecomposable(mu, b).verdict
    assert verdict == nested.is_nested_member(mu, b, 0).verdicts[0]
    spec = write_spec(tmp_path_factory.mktemp("span"), "law.json",
                      specio.triplet_to_dict(mu))
    assert cli.main(["check", spec, "--b", repr(b)]) == (0 if verdict else 1)


def test_other_lattice_bases_exit_3_on_every_membership_command(tmp_path,
                                                                capsys):
    spec = write_spec(tmp_path, "b15.json", _geometric_lattice(1.5, 0.5))
    for flags in ([], ["--level", "2"], ["--semistable"]):
        assert cli.main(["check", spec, "--b", "2", *flags]) == 3
        err = capsys.readouterr().err
        assert err.startswith("domain error: lattice base") and \
            err.count("\n") == 1


def test_parse_error_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "none.json")
    assert cli.main(["map", missing, "--b", "2",
                     "--out", str(tmp_path / "x")]) == 2
    bad = str(tmp_path / "bad.json")
    open(bad, "w").write("{not json")
    assert cli.main(["check", bad, "--b", "2"]) == 2
    # check takes no --tol, and --semistable excludes --level
    g = write_spec(tmp_path, "g.json", GAUSS)
    out = tmp_path / "cert.json"
    for flags, message in ((["--tol", "1e-8"], "unrecognized arguments"),
                           (["--semistable", "--level", "3"], "not allowed"),
                           (["--level", "0", "--semistable"], "not allowed")):
        assert cli.main(["check", g, "--b", "2", *flags,
                         "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


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
    # a large start that the ECF rounding check lets run, byte for byte as
    # it ran before the check
    "init-1e12": (
        GAUSS, ["--b", "2", "--steps", "3", "--paths", "2000", "--init", "1e12",
                "--max-export", "50", "--seed", "1"],
        "38efc914730288c498185a6b895e0fdc879283c11551db851e8b34bec0076f6d",
        "346deb89a7afbafbf851f5aad7518af1031694c4b2951a3e70739c6cfa227b24"),
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
    ("map", "--grid", "nan:3"), ("map", "--grid", "inf:3"),
    ("simulate", "--init", "nan"), ("simulate", "--init", "inf"),
    ("simulate", "--seed", "-1"),
    # steps / c overflows; the shift check runs to epoch 2 even at steps 0
    ("simulate", "--c", "1e-308"),
    ("simulate", "--c", "1e-308", "--steps", "0", "--semistationary")]
BASE_FLAGS = {"simulate": ["--paths", "30", "--steps", "3"],
              "map": ["--grid", "3:5"], "check": []}


@pytest.mark.parametrize("command,flag,value,more", [
    (c, f, v, more) for c, f, v, *more in BAD_FLAGS], ids=[
    "-".join([f"{f}-{v}" if c == "simulate" else f"{c}{f}-{v}",
              *(m.lstrip("-") for m in more)]) for c, f, v, *more in BAD_FLAGS])
def test_simulate_bad_flags_exit_2(tmp_path, capsys, command, flag, value,
                                   more):
    spec = write_spec(tmp_path, "g.json", GAUSS)
    argv = [command, spec, "--b", "2", *BASE_FLAGS[command],
            "--out", str(tmp_path / "x")]
    assert cli.main(argv + [flag, value, *more]) == 2
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


# a lattice that is both invalid and outside the domain, and a constant
# mass running to +inf that only the validity guard refuses: each exits
# alike on every command, because the validity guard runs first
GUARD_ORDER = {
    "divergent-mass": ({"schema": 1, "levy": [{
        "kind": "lattice", "direction": [1.0], "base": 2.0, "anchor": 1.0,
        "segments": [{"w": 1.0, "r": 1.5, "kmin": 1, "kmax": "inf"}]}]}, 2),
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


def _base2_lattice(*segments, anchor=1.0):
    return {"schema": 1, "levy": [{
        "kind": "lattice", "direction": [1.0], "base": 2.0, "anchor": anchor,
        "segments": [dict({"kmin": "-inf", "kmax": "inf"}, **seg)
                     for seg in segments]}]}


# valid laws near alpha = 2, slowly decaying lattices, finite ends whose
# mass leaves double range and far radii, with the exit code of each command
# below: the segment rules decide validity exactly, so the checks give their
# verdicts, and a walk that passes the enumeration cap, radius e^700 or
# double range exits 4
NEAR_QUARTER = 0.25 * (1.0 + 1e-11)   # r b^2 = 1 + 4e-11
VALIDITY_TABLE = {
    "semistable-1.95": ({"schema": 1, "levy": [
        {"kind": "semistable", "b": 2, "alpha": 1.95}]},
        (0, 0, 0, 4, 4, 4, 4)),
    "r0.26": (_base2_lattice({"w": 1.0, "r": 0.26}), (0, 0, 0, 4, 4, 4, 4)),
    "r0.26-kmax0": (_base2_lattice({"w": 1.0, "r": 0.26, "kmax": 0}),
                    (0, 0, 1, 4, 4, 4, 4)),
    "near-quarter": (_base2_lattice({"w": 1.0, "r": NEAR_QUARTER}),
                     (0, 0, 0, 4, 4, 4, 4)),
    "near-quarter-kmax0": (
        _base2_lattice({"w": 1.0, "r": NEAR_QUARTER, "kmax": 0}),
        (0, 0, 1, 4, 4, 4, 4)),
    "slow-lattice": (_base2_lattice({"w": 1.0, "r": 0.999999, "kmin": 1}),
                     (1, 1, 1, 4, 4, 4, 4)),
    "r0.9998-kmin1": (_base2_lattice({"w": 1.0, "r": 0.9998, "kmin": 1}),
                      (1, 1, 1, 4, 4, 4, 4)),
    "w1e-3-r0.97-kmin1": (
        _base2_lattice({"w": 1e-3, "r": 0.97, "kmin": 1}),
        (1, 1, 1, 4, 0, 4, 4)),
    "mass-overflow-low-end": (
        _base2_lattice({"w": 1.0, "r": 0.01, "kmin": -1000, "kmax": 0}),
        (2,) * 7),
    "mass-overflow-weight": (
        _base2_lattice({"w": 1e300, "r": 0.5, "kmin": -100, "kmax": 5}),
        (2,) * 7),
    # radii up to 2^1005, where |x|^2 overflows: no warning, and an exact map
    "far-top-k1005": (
        _base2_lattice({"w": 1.0, "r": 0.5, "kmin": 0, "kmax": 1005}),
        (1, 1, 1, 0, 0, 0, 0)),
}
VALIDITY_COMMANDS = {
    "check": ["check"], "level": ["check", "--level", "2"],
    "semistable": ["check", "--semistable"],
    "map": ["map", "--grid", "2:3"], "inverse": ["map", "--inverse"],
    "simulate": ["simulate", "--steps", "3", "--paths", "50"],
    "simulate-limit": ["simulate", "--steps", "3", "--paths", "50",
                       "--init", "limit"]}
VALIDITY_CASES = [(s, c, code) for s, (_, codes) in VALIDITY_TABLE.items()
                  for c, code in zip(VALIDITY_COMMANDS, codes)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spec_id,command,code", VALIDITY_CASES,
                         ids=[f"{s}-{c}" for s, c, _ in VALIDITY_CASES])
def test_validity_decision_exits(tmp_path, capsys, spec_id, command, code):
    spec = write_spec(tmp_path, "lat.json", VALIDITY_TABLE[spec_id][0])
    sub, *flags = VALIDITY_COMMANDS[command]
    out = tmp_path / ("cert.json" if sub == "check" else "x")
    assert cli.main([sub, spec, "--b", "2", *flags, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code >= 2:
        assert err.count("\n") == 1 and not out.exists()
        if spec_id.startswith("mass-overflow"):
            assert "leaves double range" in err and "index -" in err
        return
    assert err == ""
    written = [out] if out.is_file() else list(out.iterdir())
    for path in written:
        text = path.read_text()
        assert "NaN" not in text and "Infinity" not in text


# a law with a negative factor mass at index -1, moved 332 indices out: the
# verdict of each check and the span witness move with it, and no mass is
# dropped against the large weight the rebasing gives it
@pytest.mark.parametrize("flags", [[], ["--level", "1"], ["--semistable"]],
                         ids=["span", "level", "semistable"])
def test_checks_do_not_depend_on_the_anchor(tmp_path, capsys, flags):
    certs = []
    for anchor in (1.0, 2.0 ** 332):
        spec = write_spec(tmp_path, "lat.json", _base2_lattice(
            {"w": 1.0, "r": 0.5, "kmin": 0, "kmax": 10}, anchor=anchor))
        out = tmp_path / "cert.json"
        assert cli.main(["check", spec, "--b", "2", *flags,
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == ""
        certs.append(json.load(open(out)))
    if not flags:
        assert [c["violations"] for c in certs] == [[[[1.0], -1]],
                                                    [[[1.0], 331]]]


def _one_segment(**bounds):
    seg = dict({"w": 1.0, "r": 0.5, "kmin": 0, "kmax": "inf"}, **bounds)
    return {"schema": 1, "levy": [{"kind": "lattice", "direction": [1.0],
                                   "base": 2.0, "anchor": 1.0,
                                   "segments": [seg] if bounds else []}]}


# specs the reader or the validity guard refuses on every command, an atom
# weight whose Poisson intensity no draw can take, and far anchors whose
# rebased weight or small-jump variance leaves double range
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
        {"kind": "atoms", "points": [[1.0]], "weights": [1e300]}]},
    # rebasing to the span-2 skeleton takes 0.1 to the power -996
    "anchor-rebase": _base2_lattice({"w": 1.0, "r": 0.1, "kmin": 0,
                                     "kmax": 10}, anchor=1e300),
    # valid, but the sampler's small-jump variance squares the anchor
    "variance-overflow": _base2_lattice({"w": 0.7, "r": 0.5, "kmax": 5},
                                        anchor=1e300)}
NAN, INF = float("nan"), float("inf")


def _rebased(spec, base):
    spec["levy"][0]["base"] = base
    return spec


# non-finite lattice numbers and finite ends at radii past double range,
# refused on every command, semi-stability included
REFUSED_EVERYWHERE = {
    "anchor-inf": _base2_lattice({"w": 0.7, "r": 0.5}, anchor=INF),
    "anchor-nan": _base2_lattice({"w": 0.7, "r": 0.5}, anchor=NAN),
    "base-inf": _rebased(_base2_lattice({"w": 0.7, "r": 0.5, "kmin": 0}),
                         INF),
    "base-nan": _rebased(_base2_lattice({"w": 0.7, "r": 0.5}), NAN),
    "w-nan": _base2_lattice({"w": NAN, "r": 0.5}),
    "w-nan-finite": _base2_lattice({"w": NAN, "r": 0.5, "kmin": 0, "kmax": 5}),
    "r-nan": _base2_lattice({"w": 0.7, "r": NAN, "kmin": 0, "kmax": 5}),
    "semistable-w-inf": {"schema": 1, "levy": [
        {"kind": "semistable", "b": 2.0, "alpha": 1.5, "w": INF}]},
    "semistable-r0-inf": {"schema": 1, "levy": [
        {"kind": "semistable", "b": 2.0, "alpha": 1.5, "r0": INF}]},
    "semistable-w-nan": {"schema": 1, "levy": [
        {"kind": "semistable", "b": 2.0, "alpha": 1.5, "w": NAN}]},
    "radius-k2000": _base2_lattice({"w": 1.0, "r": 0.5, "kmin": 0,
                                    "kmax": 2000}),
    "radius-anchor": _base2_lattice({"w": 1.0, "r": 0.1, "kmin": 0,
                                     "kmax": 1005}, anchor=1e300)}
REFUSED.update(REFUSED_EVERYWHERE)
REFUSED_COMMANDS = {"map": ["map", "--grid", "2:3"], "check": ["check"],
                    "simulate": ["simulate", "--paths", "20", "--steps", "3"],
                    "semistable": ["check", "--semistable"]}
# specs only some commands refuse, with exit 4
LATE_REFUSALS = [("atom-weight", "simulate", 4), ("anchor-rebase", "map", 4),
                 ("anchor-rebase", "check", 4),
                 ("anchor-rebase", "semistable", 4),
                 ("variance-overflow", "simulate", 4)]
REFUSED_CASES = [(s, c, 2) for s in REFUSED
                 if s not in {late for late, _, _ in LATE_REFUSALS}
                 for c in ("map", "check", "simulate")] + LATE_REFUSALS + [
    (s, "semistable", 2) for s in REFUSED_EVERYWHERE]


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
    (1e-150, 0, ""),
    (None, 2, "error: malformed triplet spec: empty atoms component: "
              "no points\n")])
def test_atom_near_origin(tmp_path, capsys, x, code, message):
    # 1e-200 is off the origin, but its |x|^2 underflows; 1e-150's does not;
    # None stands for an atoms component without points
    spec = write_spec(tmp_path, "spec.json", {"schema": 1, "levy": [
        {"kind": "atoms", "points": [] if x is None else [[x]],
         "weights": [] if x is None else [1.0]}]})
    assert cli.main(["map", spec, "--b", "2", "--grid", "2:3",
                     "--out", str(tmp_path / "x")]) == code
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("suite", ["core", "iterate"])
def test_verify_negative_seed_exit_2(tmp_path, capsys, suite):
    out = tmp_path / "v.json"
    assert cli.main(["verify", "--suite", suite, "--seed", "-1",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--seed" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("b", ["1e160", "1e308"])
def test_semistable_non_finite_fit_exit_4(tmp_path, capsys, b):
    # a = b^2 overflows on a Gaussian: the verdict is refused, not written
    spec = write_spec(tmp_path, "g.json", GAUSS)
    cert = tmp_path / "cert.json"
    assert cli.main(["check", spec, "--b", b, "--semistable",
                     "--out", str(cert)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("tolerance error: ") and err.count("\n") == 1
    assert not os.path.exists(cert)


def test_semistable_degenerate_law_exit_3(tmp_path, capsys):
    # a pure drift has no Gaussian part and no jumps: no scaling index
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


@pytest.mark.parametrize("init", ["1e16", "1e17"])
def test_simulate_refuses_a_start_its_ecf_check_cannot_resolve(
        tmp_path, capsys, init):
    # at 3 epochs of span 2 the terminal phases reach 4e15 and 4e16, where
    # their rounding moves the ECF gap from 0.028 to 0.086 and 0.73, past
    # the radius 0.067
    spec = write_spec(tmp_path, "g.json", GAUSS)
    out = tmp_path / "x"
    assert cli.main(["simulate", spec, "--b", "2", "--init", init,
                     "--paths", "2000", "--steps", "3", "--seed", "1",
                     "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("tolerance error: --init") and err.count("\n") == 1
    assert not out.exists()


def test_map_refuses_a_grid_above_the_cap(tmp_path, capsys, monkeypatch):
    # refused before the grid is built: N times the dimension counts
    def no_grid(*args, **kwargs):
        raise AssertionError("default_grid ran")

    monkeypatch.setattr(mp, "default_grid", no_grid)
    cap = cli.MAX_GRID_POINTS
    for spec_obj, n in ((GAUSS, cap + 1), (GAUSS2, cap // 2 + 1)):
        spec = write_spec(tmp_path, "s.json", spec_obj)
        out = tmp_path / "x"
        assert cli.main(["map", spec, "--b", "2", "--grid", f"5:{n}",
                         "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("tolerance error: --grid") and \
            err.count("\n") == 1 and f"cap of {cap}" in err
        assert not out.exists()


def test_grid_at_the_cap_is_built():
    assert cli._parse_grid(f"5:{cli.MAX_GRID_POINTS}", 1).shape == \
        (cli.MAX_GRID_POINTS, 1)
    assert cli._parse_grid(f"5:{cli.MAX_GRID_POINTS // 2}", 2).shape == \
        (cli.MAX_GRID_POINTS, 2)


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
