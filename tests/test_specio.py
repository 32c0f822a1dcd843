import json
import math
import os

import numpy as np
import pytest

from semiself import measures as ms
from semiself import specio
from semiself import triplets as tp
from semiself.specio import SpecError


def _roundtrip(mu):
    return specio.triplet_from_dict(specio.triplet_to_dict(mu))


def test_atoms_roundtrip(cp1):
    back = _roundtrip(cp1)
    z = np.linspace(-3.0, 3.0, 7)
    np.testing.assert_allclose(tp.cumulant(back, z).values,
                               tp.cumulant(cp1, z).values, atol=1e-14)


def test_lattice_roundtrip(lat1):
    back = _roundtrip(lat1)
    np.testing.assert_allclose(back.gauss, lat1.gauss)
    np.testing.assert_allclose(back.drift, lat1.drift)
    a, b = back.levy.components[0], lat1.levy.components[0]
    k = np.arange(-35, 20)
    np.testing.assert_allclose(a.mass(k), b.mass(k))


def test_infinite_bounds_serialize():
    lat = ms.ScaleLattice([1.0], 2.0, (ms.Segment(w=1.0, r=0.3),))
    d = specio._component_to_dict(lat)
    assert d["segments"][0]["kmin"] == "-inf"
    assert d["segments"][0]["kmax"] == "inf"
    back, _ = specio._component_from_dict(d)
    assert back.segments[0].kmin == ms.NEG_INF


def test_segment_bounds_are_integers_or_infinities():
    assert [specio._bound_from_json(v) for v in (3, -2.0, "-inf", "inf")] \
        == [3, -2, ms.NEG_INF, ms.POS_INF]
    for v in (0.5, "3", True, None, float("inf"), float("nan"), [1]):
        with pytest.raises(SpecError, match="segment bound"):
            specio._bound_from_json(v)


def test_semistable_expands_with_strict_drift():
    obj = {"levy": [{"kind": "semistable", "b": 2.0, "alpha": 0.5}]}
    mu = specio.triplet_from_dict(obj)
    from semiself import nested as nt
    want = nt.semi_stable_triplet(nt.SemiStableSpec(b=2.0, alpha=0.5))
    np.testing.assert_allclose(mu.drift, want.drift)
    obj = {"levy": [{"kind": "semistable", "b": 2.0, "alpha": 0.5,
                     "strict_drift": False}]}
    assert specio.triplet_from_dict(obj).drift[0] == 0.0


def test_malformed_specs_raise():
    with pytest.raises(SpecError):
        specio.triplet_from_dict({"levy": [{"kind": "mystery"}]})
    with pytest.raises(SpecError):
        specio.triplet_from_dict({"levy": [{"kind": "atoms"}]})
    with pytest.raises(SpecError):
        specio.load_triplet("/nonexistent/spec.json")
    # the schema is the integer SCHEMA_VERSION, or absent
    for schema in (99, True, "1", 1.0):
        with pytest.raises(SpecError, match="schema"):
            specio.triplet_from_dict({"schema": schema, "drift": [0.0]})
    specio.triplet_from_dict({"schema": 1, "drift": [0.0]})


def test_spec_hash_stable_and_sensitive(gauss1):
    h1 = specio.spec_hash(gauss1)
    h2 = specio.spec_hash(specio.triplet_to_dict(gauss1))
    assert h1 == h2
    h3 = specio.spec_hash(tp.gaussian(2.0))
    assert h1 != h3


def test_atomic_json_and_csv(tmp_path):
    path = str(tmp_path / "out.json")
    specio.write_json(path, {"a": 1})
    assert json.load(open(path)) == {"a": 1}
    csv_path = str(tmp_path / "out.csv")
    specio.write_csv(csv_path, ["x", "y"], ["1,2.5"], manifest_hash="abc")
    lines = open(csv_path).read().splitlines()
    assert lines[0] == "# manifest: abc"
    assert lines[1] == "x,y"
    assert not any(name.endswith(".tmp") for name in os.listdir(tmp_path))


def test_manifest_hash_ignores_wall_time():
    a = specio.RunManifest(["map"], {}, 1, {"tol": 1e-10}, 0.5)
    b = specio.RunManifest(["map"], {}, 1, {"tol": 1e-10}, 2.5)
    assert a.hash() == b.hash()
    c = specio.RunManifest(["map"], {}, 2, {"tol": 1e-10}, 0.5)
    assert a.hash() != c.hash()


def test_cumulant_csv_rows(lat1):
    grid = tp.cumulant(lat1, np.linspace(-1, 1, 5))
    cols, rows = specio.cumulant_csv_rows(grid)
    assert cols == ["z0", "re", "im", "err_bound"]
    assert len(rows) == 5
