import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semiself import mapping as mp
from semiself import measures as ms
from semiself import triplets as tp
from semiself.errors import DomainError, InvalidTripletError, ToleranceError


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
    assert sum(s.mass(np.array([1])) for s in lat.segments)[0] == \
        pytest.approx(0.5)


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


def _lattice(seg, anchor=1.0):
    return ms.LevyMeasure((ms.ScaleLattice([1.0], 2.0, (seg,), anchor=anchor),))


def _power_lattice(power):
    # m(k) = k^-power at radii 2^k, k >= 1
    return _lattice(ms.Segment(w=1.0, r=1.0, kmin=1, power=power))


@pytest.mark.parametrize("P,p", [(P, p) for P in range(3, 7)
                                 for p in range(1, P - 1)])
def test_power_tail_log_moment_oracle(P, p):
    # sum_k k^p log(2)^p k^-P = log(2)^p zeta(P - p); the slowly decaying
    # tails are finished by an integral past k = 10,000
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        ref = float(mpmath.log(2) ** p * mpmath.zeta(P - p))
    assert ms.log_moment(_power_lattice(P), p) == pytest.approx(ref, rel=1e-12)


def test_require_log_moment_names_the_order():
    with pytest.raises(DomainError, match=r"log\^1-moment"):
        ms.require_log_moment(_power_lattice(2))
    edge = _power_lattice(3)
    ms.require_log_moment(edge, 1)
    with pytest.raises(DomainError, match=r"log\^2-moment"):
        ms.require_log_moment(edge, 2)


# (measure, order, finite): the guard reads each verdict off the segments
GUARD_CASES = {
    "power3-p1": (_power_lattice(3), 1, True),
    "power3-p2": (_power_lattice(3), 2, False),
    "power5-p3": (_power_lattice(5), 3, True),
    "power2-p1": (_power_lattice(2), 1, False),
    "r<1": (_lattice(ms.Segment(w=1.0, r=0.25, kmin=1)), 3, True),
    "r>1": (_lattice(ms.Segment(w=1.0, r=1.5, kmin=1)), 1, False),
    "r>1-finite-kmax": (_lattice(ms.Segment(w=1.0, r=1.5, kmin=1, kmax=40)),
                        2, True),
    "power1-finite-kmax": (_lattice(ms.Segment(w=1.0, r=1.0, kmin=1, kmax=9,
                                               power=1)), 3, True),
    "r>1-inside-unit-ball": (_lattice(ms.Segment(w=1.0, r=1.5, kmax=-2),
                                      anchor=0.5), 1, True),
    "atoms": (ms.LevyMeasure((ms.Atoms([[1e300]], [1.0]),)), 3, True)}


@pytest.mark.parametrize("case", GUARD_CASES)
def test_require_log_moment_sums_nothing(monkeypatch, case):
    levy, p, finite = GUARD_CASES[case]

    def no_sum(*args):
        raise AssertionError("the guard summed a log-moment")

    monkeypatch.setattr(ms, "log_moment", no_sum)
    monkeypatch.setattr(ms, "_lattice_log_moment", no_sum)
    if finite:
        ms.require_log_moment(levy, p)
    else:
        with pytest.raises(DomainError, match=rf"log\^{p}-moment"):
            ms.require_log_moment(levy, p)


def test_require_log_moment_accepts_beyond_the_summing_cap():
    # valid, and r < 1 makes every log-moment finite; the ratio is so close
    # to 1 that the head runs to some 3.8e6 indices before the closed-form
    # tail is negligible: sum_k w r^k k^-2 k log 2 = -w log 2 log(1 - r)
    mpmath = pytest.importorskip("mpmath")
    levy = _lattice(ms.Segment(w=1e-8, r=0.99999, kmin=1, power=2))
    assert tp.validate(tp.LevyTriplet(np.zeros((1, 1)), levy, [0.0])) == ()
    with mpmath.workdps(30):
        want = float(mpmath.mpf(1e-8) * mpmath.log(2)
                     * -mpmath.log(1 - mpmath.mpf(0.99999)))
    assert ms.log_moment(levy, 1) == pytest.approx(want, rel=1e-12)
    ms.require_log_moment(levy, 1)


def _valid_lattice_measures():
    def segment(r, power, kmin, kmax, w):
        if power:
            kmin = max(kmin, 1)
        return ms.Segment(w=w, r=r, kmin=kmin, power=power,
                          kmax=max(kmax, kmin) if kmax is not None else ms.POS_INF)

    seg = st.builds(segment,
                    r=st.floats(min_value=1e-3, max_value=0.94) | st.just(1.0),
                    power=st.integers(0, 5),
                    kmin=st.integers(-3, 6) | st.just(ms.NEG_INF),
                    kmax=st.none() | st.integers(-3, 30),
                    w=st.floats(min_value=0.1, max_value=2.0))
    return st.builds(
        lambda segs, anchor, base: ms.LevyMeasure(
            (ms.ScaleLattice([1.0], base, tuple(segs), anchor=anchor),)),
        st.lists(seg, min_size=1, max_size=3),
        st.sampled_from([0.3, 1.0, 2.7]), st.sampled_from([2.0, 3.0]))


@settings(max_examples=60, deadline=None)
@given(levy=_valid_lattice_measures(), p=st.integers(1, 3))
def test_require_log_moment_agrees_with_the_sum(levy, p):
    try:
        valid = tp.validate(tp.LevyTriplet(np.zeros((1, 1)), levy, [0.0])) == ()
    except ToleranceError:
        valid = False
    assume(valid)
    finite = math.isfinite(ms.log_moment(levy, p))
    try:
        ms.require_log_moment(levy, p)
        accepted = True
    except DomainError:
        accepted = False
    assert accepted == finite


def test_measure_refuses_other_components():
    # every function branches on Atoms or else ScaleLattice
    with pytest.raises(TypeError, match="Atoms or ScaleLattice"):
        ms.LevyMeasure((object(),))


def test_origin_mass_rejected():
    from semiself import triplets as tp
    mu = tp.compound_poisson([[0.0]], [1.0])
    assert "mass at origin" in tp.validate(mu)


def test_lower_tail_divergence_detected():
    # r b^2 = 1: the |x|^2 mass near the origin sums to infinity
    lat = ms.ScaleLattice([1.0], 2.0, (ms.Segment(w=1.0, r=0.25),))
    mu = tp.LevyTriplet(np.zeros((1, 1)), ms.LevyMeasure((lat,)), [0.0])
    assert tp.validate(mu) == ("integral of |x|^2 near 0 diverges",)
    with pytest.raises(InvalidTripletError, match="near 0 diverges"):
        tp.require_valid(mu)


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


def test_segments_nonnegative_sees_small_negative_masses():
    # m(40) = 2^-40 - 2 * 2^-40 is negative, yet 1e-12 of the largest mass
    segs = [ms.Segment(w=1.0, r=0.5, kmin=0),
            ms.Segment(w=-2.0, r=0.5, kmin=40, kmax=40)]
    assert ms.segments_nonnegative(segs) == (False, 40)
    # an exact cancellation stays a zero: m(40) = 0 here
    segs[1] = ms.Segment(w=-1.0, r=0.5, kmin=40, kmax=40)
    assert ms.segments_nonnegative(segs) == (True, None)


def test_canonical_families_rejects_foreign_base():
    lat = ms.ScaleLattice([1.0], 3.0, (ms.Segment(w=1.0, r=0.5, kmin=0),))
    from semiself.errors import UnsupportedComponentError
    with pytest.raises(UnsupportedComponentError):
        ms.canonical_families(ms.LevyMeasure((lat,)), 2.0)


def test_root_base_lattice_splits_into_families():
    # base 8^(1/3) at span 8: index 3 i + j is index i of family j, with
    # anchor 0.7 * 2^j and mass 0.5^j (0.5^3)^i on ceil((k - j)/3) ..
    lat = ms.ScaleLattice([1.0], 8.0 ** (1 / 3),
                          (ms.Segment(w=0.9, r=0.5, kmin=-4, kmax=7),), 0.7)
    fams = ms.canonical_families(ms.LevyMeasure((lat,)), 8.0)
    points = {}
    for fam in fams.values():
        for seg in fam.segments:
            for i in range(int(seg.kmin), int(seg.kmax) + 1):
                points[fam.anchor * 8.0 ** i] = seg.w * seg.r ** i
    assert len(fams) == 3 and len(points) == 12
    for k in range(-4, 8):
        radius = min(points, key=lambda x: abs(x - lat.radius(k)))
        assert radius == pytest.approx(float(lat.radius(k)), rel=1e-12)
        assert points[radius] == pytest.approx(0.9 * 0.5 ** k, rel=1e-12)


@pytest.mark.parametrize("n,r", [(300_000, 0.5), (40, 1e-30)])
def test_root_base_split_beyond_range_is_a_tolerance_error(n, r):
    # n families above the enumeration cap, or r^n below double range
    lat = ms.ScaleLattice([1.0], 2.0 ** (1 / n),
                          (ms.Segment(w=1.0, r=r, kmin=0, kmax=3),))
    with pytest.raises(ToleranceError):
        ms.canonical_families(ms.LevyMeasure((lat,)), 2.0)


def test_sum_over_measure_matches_direct_atoms():
    levy = ms.LevyMeasure((ms.Atoms([[1.0], [2.0]], [0.5, 0.25]),))

    def f(pts, lattice=None):
        return np.sum(pts, axis=1)

    v, err = ms.sum_over_measure(levy, f, envelope=ms.Envelope(1.0, 2, (1.0,)),
                                 tol=1e-12)
    assert v == pytest.approx(0.5 * 1.0 + 0.25 * 2.0)
    assert err <= 1e-12


def _window_or_error(lat, seg, envelope, tol):
    try:
        return ms._segment_window(lat, seg, envelope, tol)
    except ToleranceError as exc:
        return str(exc)


# segments whose window ends past radius 1: power tails up to radius e^700,
# geometric ones from a finite and from an infinite lowest index, and a
# negative one
WINDOW_CASES = {
    "power3": (2.0, 1.0, ms.Segment(w=1.0, r=1.0, kmin=1, power=3)),
    "power4": (2.0, 1.0, ms.Segment(w=1.1, r=1.0, kmin=1, power=4)),
    "geometric": (1.8, 1.4563, ms.Segment(w=0.5665, r=0.8644, kmin=-3)),
    "kmin-inf": (2.0, 1.3, ms.Segment(w=0.8, r=0.6)),
    "signed": (2.0, 1.0, ms.Segment(w=-0.2, r=0.5, kmin=3)),
}
# (envelope, tol) of the integrand |x|^2 ^ 1, of tp.cumulant at |z| <= 5,
# of an envelope growing like log R, and of the --m 1 forward series at
# |z| <= 2 with --tol 1e-4
WINDOW_ENVELOPES = {
    "square-one": (ms.Envelope(1.0, 2, (1.0,)), 1e-10),
    "cumulant": (ms.Envelope(17.5, 2, (4.5,)), 1e-12),
    "growing": (ms.Envelope(4.0, 2, (9.0, 9.0)), 1e-6),
    "series-m1": (mp._series_envelope(2.0, 1, 1.0, 2.0), 5e-5),
}
# (klo, khi) of each window at the parent commit, whose upper end was a
# ratio scan; "growing" then was 9 max(log R, 1), and "signed" raised
PARENT_WINDOWS = {
    ("geometric", "cumulant"): (-3, 220), ("geometric", "growing"): (-3, 162),
    ("geometric", "square-one"): (-3, 178), ("geometric", "series-m1"): (-3, 172),
    ("kmin-inf", "cumulant"): (-38, 64), ("kmin-inf", "growing"): (-20, 45),
    ("kmin-inf", "square-one"): (-29, 52), ("kmin-inf", "series-m1"): (-17, 46),
    ("power3", "cumulant"): (1, 1009), ("power3", "growing"): (1, 1009),
    ("power3", "square-one"): (1, 1009),
    ("power4", "cumulant"): (1, 1009), ("power4", "growing"): (1, 1009),
    ("power4", "square-one"): (1, 1009), ("power4", "series-m1"): (1, 1009),
}


def _log_terms(lat, seg, env, ks):
    """log of |m(k)| env(R_k) at the float indices ``ks``, radii kept as
    logs so that indices past radius e^700 stay finite."""
    L = math.log(lat.anchor) + ks * math.log(lat.base)
    log_m = math.log(abs(seg.w)) + ks * math.log(seg.r) \
        - seg.power * np.log(np.maximum(ks, 1.0))
    poly = sum(c * np.maximum(L, 0.0) ** i for i, c in enumerate(env.poly))
    with np.errstate(divide="ignore"):
        inner = math.log(env.small_c) + env.small_p * L
    return log_m + np.where(L < 0.0, inner, np.log(poly) - env.decay * L)


@pytest.mark.parametrize("envelope", sorted(WINDOW_ENVELOPES))
@pytest.mark.parametrize("case", sorted(WINDOW_CASES))
def test_block_window_scan_matches_scalar_scan(case, envelope):
    # the window [klo, khi] that the closed-form tails pick, against a
    # scalar scan of the dropped indices (the next 10^6 above the window,
    # and every one below it): its tail is at least their sum of
    # |m(k)| env, and no window is shorter than at the parent commit
    base, anchor, seg = WINDOW_CASES[case]
    lat = ms.ScaleLattice([1.0], base, (seg,), anchor)
    env, tol = WINDOW_ENVELOPES[envelope]
    window = _window_or_error(lat, seg, env, tol)
    if case == "power3" and envelope == "series-m1":
        # k^-3 (log R)^2 is not summable, so no bound exists
        assert window == "lattice tail bound did not converge"
        return
    klo, khi, tail_bound = window
    if (case, envelope) in PARENT_WINDOWS:
        lo, hi = PARENT_WINDOWS[case, envelope]
        assert klo <= lo and khi >= hi
    above = np.arange(khi + 1, khi + 1 + 10 ** 6, dtype=float)
    dropped = math.fsum(np.exp(_log_terms(lat, seg, env, above)).tolist())
    if seg.kmin == ms.NEG_INF:
        below = np.arange(klo - 2000, klo, dtype=float)
        dropped += math.fsum(np.exp(_log_terms(lat, seg, env, below)).tolist())
    assert tail_bound >= dropped > 0.0
