import math

import numpy as np
import pytest

from semiself import measures as ms
from semiself.errors import DomainError, InvalidTripletError


def test_segment_mass_law():
    seg = ms.Segment(w=2.0, r=0.5, kmin=0, kmax=3)
    np.testing.assert_allclose(seg.mass(np.array([-1, 0, 1, 2, 3, 4])),
                               [0.0, 2.0, 1.0, 0.5, 0.25, 0.0])


def test_segment_power_law():
    seg = ms.Segment(w=1.0, r=1.0, kmin=1, power=3)
    assert seg.mass(np.array([2]))[0] == pytest.approx(1.0 / 8.0)
    with pytest.raises(ValueError):
        ms.Segment(w=1.0, r=1.0, kmin=0, power=2)


def test_lattice_radius_and_mass():
    lat = ms.ScaleLattice([1.0], 2.0, (ms.Segment(w=1.0, r=0.5, kmin=0),),
                          anchor=3.0)
    assert lat.radius(2) == pytest.approx(12.0)
    assert lat.mass(np.array([1]))[0] == pytest.approx(0.5)


def test_lattice_rejects_bad_base():
    with pytest.raises(ValueError):
        ms.ScaleLattice([1.0], 1.0, (ms.Segment(w=1.0, r=0.5, kmin=0),))


def test_log_moment_atoms():
    # single atom at radius e contributes exactly w * 1**p
    levy = ms.LevyMeasure((ms.Atoms([[math.e]], [2.0]),))
    assert ms.log_moment(levy, 1) == pytest.approx(2.0)
    assert ms.log_moment(levy, 2) == pytest.approx(2.0)


def test_log_moment_geometric_lattice():
    # sum_{k>=1} r^k * k log b = log b * r/(1-r)^2 with r = 1/4, b = 2
    lat = ms.ScaleLattice([1.0], 2.0, (ms.Segment(w=1.0, r=0.25, kmin=1),))
    expect = math.log(2.0) * 0.25 / 0.5625
    assert ms.log_moment(ms.LevyMeasure((lat,)), 1) == pytest.approx(expect)


def test_log_moment_divergence_split():
    # m(k) = k^-2: log^1 diverges; m(k) = k^-3: log^1 finite, log^2 infinite
    heavy = ms.LevyMeasure((ms.ScaleLattice(
        [1.0], 2.0, (ms.Segment(w=1.0, r=1.0, kmin=1, power=2),)),))
    assert math.isinf(ms.log_moment(heavy, 1))
    edge = ms.LevyMeasure((ms.ScaleLattice(
        [1.0], 2.0, (ms.Segment(w=1.0, r=1.0, kmin=1, power=3),)),))
    assert math.isfinite(ms.log_moment(edge, 1))
    assert math.isinf(ms.log_moment(edge, 2))


def _power_lattice(power):
    # m(k) = k^-power at radii 2^k, k >= 1
    return ms.LevyMeasure((ms.ScaleLattice(
        [1.0], 2.0, (ms.Segment(w=1.0, r=1.0, kmin=1, power=power),)),))


def test_require_log_moment_names_the_order():
    with pytest.raises(DomainError, match=r"log\^1-moment"):
        ms.require_log_moment(_power_lattice(2))
    edge = _power_lattice(3)
    ms.require_log_moment(edge, 1)
    with pytest.raises(DomainError, match=r"log\^2-moment"):
        ms.require_log_moment(edge, 2)


def test_require_log_moment_keeps_its_verdict(monkeypatch):
    lat = ms.ScaleLattice([1.0], 2.0, (ms.Segment(w=1.0, r=0.25, kmin=1),))
    levy = ms.LevyMeasure((lat,))
    ms.require_log_moment(levy, 2)
    calls = []
    monkeypatch.setattr(ms, "log_moment",
                        lambda *args: calls.append(args) or 0.0)
    # finite at order 2 implies every lower order: nothing is recomputed
    ms.require_log_moment(levy, 2)
    ms.require_log_moment(levy, 1)
    assert calls == []
    # a fresh measure with the same components is computed afresh
    ms.require_log_moment(ms.LevyMeasure((lat,)), 1)
    assert len(calls) == 1


def test_square_one_integral_atoms():
    levy = ms.LevyMeasure((ms.Atoms([[0.5], [3.0]], [2.0, 1.0]),))
    # 2 * 0.25 + 1 * 1
    assert ms.square_one_integral(levy) == pytest.approx(1.5)


def test_measure_refuses_other_components():
    # every function branches on Atoms or else ScaleLattice
    with pytest.raises(TypeError, match="Atoms or ScaleLattice"):
        ms.LevyMeasure((object(),))


def test_origin_mass_rejected():
    from semiself import triplets as tp
    mu = tp.compound_poisson([[0.0]], [1.0])
    assert "mass at origin" in tp.validate(mu)


def test_lower_tail_divergence_detected():
    lat = ms.ScaleLattice([1.0], 2.0, (ms.Segment(w=1.0, r=0.25),))
    with pytest.raises(InvalidTripletError):
        ms.square_one_integral(ms.LevyMeasure((lat,)))


def test_difference_segments_geometric():
    # difference law at index k is m(k) - m(k+1); decaying tails stay >= 0
    segs = [ms.Segment(w=1.0, r=0.5, kmin=0)]
    diff = ms.difference_segments(segs)
    k = np.arange(-1, 20)
    m = lambda j: np.where(j >= 0, 0.5 ** np.maximum(j, 0), 0.0)
    want = m(k) - m(k + 1)
    got = sum(s.mass(k) for s in diff)
    np.testing.assert_allclose(got, want, atol=1e-15)


def test_segments_nonnegative_witness():
    # increasing masses 1, 3 at k = 0, 1 push -1 below the lattice at k = -1
    segs = [ms.Segment(w=1.0, r=3.0, kmin=0, kmax=1)]
    diff = ms.difference_segments(segs)
    ok, witness = ms.segments_nonnegative(diff)
    assert not ok and witness == -1
    segs = [ms.Segment(w=1.0, r=1.0, kmin=0, kmax=0),
            ms.Segment(w=-2.0, r=1.0, kmin=1, kmax=1)]
    ok, witness = ms.segments_nonnegative(segs)
    assert not ok and witness == 1


def test_canonical_families_rejects_foreign_base():
    lat = ms.ScaleLattice([1.0], 3.0, (ms.Segment(w=1.0, r=0.5, kmin=0),))
    from semiself.errors import UnsupportedComponentError
    with pytest.raises(UnsupportedComponentError):
        ms.canonical_families(ms.LevyMeasure((lat,)), 2.0)


def test_sum_over_measure_matches_direct_atoms():
    levy = ms.LevyMeasure((ms.Atoms([[1.0], [2.0]], [0.5, 0.25]),))

    def f(pts, lattice=None):
        return np.sum(pts, axis=1)

    v, err = ms.sum_over_measure(levy, f, small_c=1.0, small_p=2,
                                 large_bound=lambda R: R, tol=1e-12,
                                 out_shape=(), dtype=float)
    assert v == pytest.approx(0.5 * 1.0 + 0.25 * 2.0)
    assert err <= 1e-12
