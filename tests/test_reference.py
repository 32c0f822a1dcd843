"""Checks against independent high-precision references (mpmath)."""

import numpy as np
import pytest

from semiself import measures as ms
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
