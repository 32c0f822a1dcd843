"""Checks against independent high-precision references (mpmath)."""

import numpy as np
import pytest

from semiself import measures as ms
from semiself import triplets as tp


@pytest.mark.xfail(strict=True, reason="_TWO_PI_STR holds 191 digits, but "
                   "EDGE phases reach 1e304: the reduction loses every digit "
                   "past k ~ 640 on base 2")
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
