"""Checks against independent high-precision references (mpmath)."""

import numpy as np
import pytest

from semiself import measures as ms
from semiself import ou
from semiself import triplets as tp


def test_huge_lattice_phases():
    mpmath = pytest.importorskip("mpmath")
    comp = ms.ScaleLattice([1.0], 2.0, (ms.Segment(w=1.0, r=0.5, kmin=1),))
    ks = np.array([400, 500, 600, 640, 700, 800, 900, 1009])
    zbase = np.array([[0.7], [-1.3]])
    u = (comp.radius(ks)[:, None] * comp.direction[None, :]) @ zbase.T
    got = tp._reduced_phases(u, zbase, (comp, ks))
    with mpmath.workdps(400):
        two_pi = 2 * mpmath.pi
        ref = np.array([[float(mpmath.fmod(mpmath.mpf(float(z)) * 2 ** int(k),
                                           two_pi))
                         for z in zbase[:, 0]] for k in ks])
    # distance on the circle, so 2 pi - tiny and tiny agree
    miss = np.abs(np.angle(np.exp(1j * (got - ref))))
    assert float(np.max(miss)) <= 1e-12


def _power_lattice_reference(mpmath, p, kmax, m, z):
    """mpmath value of the forward series ``sum_j C(j+m, m) C(2^-j z)`` of
    the lattice ``k^-p`` at radii ``2^k``, ``1 <= k <= kmax``, summed by the
    phase index ``n = k - j``:

        sum_{n <= kmax} (e^{i z 2^n} - 1) M_n
            - i z 2^(m+1) sum_k m(k) 2^k / (1 + 4^k),

    ``M_n = sum_{k >= max(n, 1)} C(k - n + m, m) m(k)``, read off suffix sums
    of ``m(k)`` and ``k m(k)`` (m is 0 or 1).  Below ``n = -200`` the terms
    are under 2^-190 and are left out."""
    with mpmath.workdps(40):
        mass = [mpmath.mpf(0)] + [mpmath.mpf(k) ** -p
                                  for k in range(1, kmax + 1)]
        s0, s1 = [mpmath.mpf(0)] * (kmax + 2), [mpmath.mpf(0)] * (kmax + 2)
        for k in range(kmax, 0, -1):
            s0[k], s1[k] = s0[k + 1] + mass[k], s1[k + 1] + k * mass[k]
        total = mpmath.mpc(0)
        for n in range(-200, kmax + 1):
            lo = max(n, 1)
            big_m = s0[lo] if m == 0 else s1[lo] + (1 - n) * s0[lo]
            with mpmath.workdps(40 + max(n, 0) * 302 // 1000):
                theta = mpmath.fmod(mpmath.mpf(z) * mpmath.mpf(2) ** n,
                                    2 * mpmath.pi)
            total += (mpmath.expj(theta) - 1) * big_m
        centering = mpmath.fsum(mass[k] * mpmath.mpf(2) ** k
                                / (1 + mpmath.mpf(4) ** k)
                                for k in range(1, kmax + 1))
        total -= 1j * z * 2 ** (m + 1) * centering
        return complex(total)


@pytest.mark.parametrize("kmax", [700, 1009])
@pytest.mark.parametrize("p,m", [(3, 0), (4, 1)])
def test_forward_series_at_huge_phases(kmax, p, m):
    # lattice phases up to 2 * 2^1009 ~ 1e304: the sum by phase index and
    # the exact reduction keep the map within its bound of the exact sum
    mpmath = pytest.importorskip("mpmath")
    from semiself import mapping as mp
    lat = ms.ScaleLattice([1.0], 2.0, (ms.Segment(w=1.0, r=1.0, kmin=1,
                                                  kmax=kmax, power=p),))
    rho = tp.LevyTriplet(np.zeros((1, 1)), ms.LevyMeasure((lat,)),
                         np.zeros(1))
    zs = [0.7, 2.0]
    got = mp.forward_cumulant(rho, 2.0, zs, m=m)
    for z, value, bound in zip(zs, got.values, got.err_bound):
        ref = _power_lattice_reference(mpmath, p, kmax, m, z)
        assert abs(value - ref) <= bound


def test_phase_beyond_the_held_digits_is_a_tolerance_error():
    # a base-10 scale of 10^700 puts the phase near 1e700, past the digits
    # of 2 pi held
    from semiself.errors import ToleranceError
    comp = ms.ScaleLattice([1.0], 2.0, (ms.Segment(w=1.0, r=0.5, kmin=1),))
    ks = np.array([10])
    with pytest.raises(ToleranceError):
        tp._reduced_phases(np.array([[np.inf]]), np.array([[1.0]]),
                           (comp, ks), arg_pow=(10.0, 700))


def test_huge_phases_of_an_inexact_anchor():
    # anchor * z rounds in double precision; the reduction must start from
    # the exact product of the float inputs, here at phases up to ~1e52
    mpmath = pytest.importorskip("mpmath")
    comp = ms.ScaleLattice([1.0], 1.8, (ms.Segment(w=0.5665, r=0.8644),),
                           anchor=1.4563)
    ks = np.array([40, 80, 120, 160, 200])
    zbase = np.array([[-3.0], [4.9]])
    u = (comp.radius(ks)[:, None] * comp.direction[None, :]) @ zbase.T
    got = tp._reduced_phases(u, zbase, (comp, ks))
    with mpmath.workdps(120):
        ref = np.array([[float(mpmath.fmod(
            mpmath.mpf(comp.anchor) * mpmath.mpf(float(z))
            * mpmath.mpf(comp.base) ** int(k), 2 * mpmath.pi))
            for z in zbase[:, 0]] for k in ks])
    miss = np.abs(np.angle(np.exp(1j * (got - ref))))
    assert float(np.max(miss)) <= 1e-12


def _fmod_reference(mpmath, comp, ks, zbase, arg_pow=None):
    """``anchor <z, direction> pbase**power base**k mod 2 pi`` in mpmath,
    from the exact values of the float inputs, as a (len(ks), n_z) array."""
    with mpmath.workdps(60 + int(max(ks) * np.log10(comp.base))):
        scale = mpmath.mpf(1) if arg_pow is None else \
            mpmath.mpf(arg_pow[0]) ** int(arg_pow[1])
        zdirs = [mpmath.fsum(mpmath.mpf(float(zi)) * mpmath.mpf(float(xi))
                             for zi, xi in zip(z, comp.direction))
                 for z in zbase]
        return np.array([[float(mpmath.fmod(
            mpmath.mpf(comp.anchor) * zd * scale
            * mpmath.mpf(comp.base) ** int(k), 2 * mpmath.pi))
            for zd in zdirs] for k in ks])


def _circle_miss(got, ref) -> float:
    return float(np.max(np.abs(np.angle(np.exp(1j * (got - ref))))))


@pytest.mark.parametrize("base,anchor,arg_pow,ks", [
    (2.0, 1.0, (3.0, -2), np.arange(30, 400, 7)),
    (1.485, 1.3, (2.0, -3), np.arange(40, 900, 13)),
])
def test_off_base_scales_reduce_exactly(base, anchor, arg_pow, ks):
    # an argument scale on another base than the lattice's, and a base that
    # is no dyadic rational, both sit inside the exact product
    mpmath = pytest.importorskip("mpmath")
    comp = ms.ScaleLattice([1.0], base, (ms.Segment(w=1.0, r=0.5, kmin=1),),
                           anchor=anchor)
    zbase = np.array([[0.7], [-1.3], [2.1]])
    pts = comp.radius(ks)[:, None] * comp.direction[None, :]
    u = pts @ (zbase * arg_pow[0] ** arg_pow[1]).T
    huge = np.abs(u) > tp.PHASE_SAFE
    assert huge.sum() > 100
    got = tp._reduced_phases(u, zbase, (comp, ks), arg_pow)
    ref = _fmod_reference(mpmath, comp, ks, zbase, arg_pow)
    assert _circle_miss(got[huge], ref[huge]) <= 1e-12


def test_repeated_index_of_two_segments_reduces_to_one_float():
    # the windows of two overlapping segments list indices 50..79 twice;
    # each copy of a (column, index) pair gets the same float, and that float
    # is the exact reduction
    mpmath = pytest.importorskip("mpmath")
    comp = ms.ScaleLattice([1.0, 2.0], 2.0,
                           (ms.Segment(w=1.0, r=0.5, kmin=30, kmax=79),
                            ms.Segment(w=0.3, r=0.6, kmin=50)), anchor=1.3)
    ks = np.concatenate([np.arange(30, 80), np.arange(50, 200)])
    zbase = np.array([[0.7, -0.2], [-1.3, 0.9]])
    u = (comp.radius(ks)[:, None] * comp.direction[None, :]) @ zbase.T
    assert np.all(np.abs(u) > tp.PHASE_SAFE)
    got = tp._reduced_phases(u, zbase, (comp, ks))
    assert np.array_equal(got[20:50], got[50:80])
    assert _circle_miss(got, _fmod_reference(mpmath, comp, ks, zbase)) \
        <= 1e-12


@pytest.mark.xfail(strict=True, reason=(
    "the rounding of each e^{iu} - 1 times masses that grow as k falls is "
    "in no err_bound (ROADMAP item 2)"))
def test_cumulant_bound_holds_on_a_plain_2d_lattice():
    # masses 0.5 * 2^-k for k <= 2 on direction (1, 2): each term's float
    # rounding, about 1e-16, is multiplied by masses up to 2^200
    mpmath = pytest.importorskip("mpmath")
    comp = ms.ScaleLattice([1.0, 2.0], 2.0,
                           (ms.Segment(w=0.5, r=0.5, kmax=2),))
    mu = tp.LevyTriplet(np.zeros((2, 2)), ms.LevyMeasure((comp,)),
                        np.zeros(2))
    z = (1.1, -0.7)
    got = tp.cumulant(mu, np.array([z]))
    with mpmath.workdps(120):
        xs = [mpmath.mpf(float(x)) for x in comp.direction]
        zd = mpmath.fsum(mpmath.mpf(zi) * x for zi, x in zip(z, xs))
        ref = mpmath.mpc(0)
        for k in range(-200, 3):
            r = mpmath.mpf(2) ** k
            u = zd * r
            ref += mpmath.mpf(0.5) * mpmath.mpf(2) ** -k * (
                mpmath.expj(u) - 1 - 1j * u / (1 + r * r))
    assert abs(got.values[0] - complex(ref)) <= got.err_bound[0]


@pytest.mark.xfail(strict=True, reason=(
    "cos u rounds to 1 for tiny u, and the masses that multiply e^{iu} - 1 "
    "grow as k falls when r b < 1; no err_bound counts it (ROADMAP 1(a))"))
def test_transition_bound_holds_on_lattice_noise_below_radius_one():
    # base-2 lattice noise over all integers with r b < 1, as ou-simulate
    # draws it: the terms near u = 1e-8 lose about 1e-16 of m(k) ~ 1e8 each
    mpmath = pytest.importorskip("mpmath")
    lat = ms.ScaleLattice([1.0], 2.0, (ms.Segment(w=0.8, r=0.47),), 1.3)
    noise = tp.LevyTriplet(np.zeros((1, 1)), ms.LevyMeasure((lat,)),
                           np.zeros(1))
    delta, z = 2, 3.0
    got = ou.transition_cumulant(noise, ou.OUConfig(2.0, 1.0), 0.0,
                                 float(delta), [[z]])
    with mpmath.workdps(80):
        ref = mpmath.mpc(0)
        for t in range(delta):
            zt = mpmath.mpf(z) * mpmath.mpf(2) ** (-1 - t)
            for k in range(-250, 121):
                r = mpmath.mpf(lat.anchor) * mpmath.mpf(2) ** k
                u = zt * r
                ref += mpmath.mpf(0.8) * mpmath.mpf(0.47) ** k * (
                    mpmath.expj(u) - 1 - 1j * u / (1 + r * r))
    assert abs(got.values[0] - complex(ref)) <= got.err_bound[0]
