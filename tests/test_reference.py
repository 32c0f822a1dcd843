"""Checks against independent high-precision references (mpmath)."""

import csv
import json
import math

import numpy as np
import pytest

from semiself import cli
from semiself import mapping as mp
from semiself import measures as ms
from semiself import ou
from semiself import suites
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


def test_cumulant_bound_holds_on_a_plain_2d_lattice():
    # masses 0.5 * 2^-k for k <= 2 on direction (1, 2), up to 2^200: the
    # real part -2 sin^2(u/2) loses no bits where e^{iu} - 1 would cancel
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


def test_transition_bound_holds_on_lattice_noise_below_radius_one():
    # base-2 lattice noise over all integers with r b < 1, as ou-simulate
    # draws it: masses m(k) ~ 1e8 meet phases near u = 1e-8, where cos u
    # rounds to 1 but sin^2(u/2) keeps its bits
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


def test_inverse_map_bound_holds_on_a_heavy_top_lattice(tmp_path):
    # masses 0.8644^k at radii 1.4563 * 1.8^k fall slowly, so the window
    # tail of the factor's centering shift moves its drift by about 2.5e-12:
    # |z| times that belongs in err_bound
    mpmath = pytest.importorskip("mpmath")
    w, r, base, anchor, drift = 0.5665, 0.8644, 1.8, 1.4563, -0.342104
    spec = tmp_path / "heavy.json"
    spec.write_text(json.dumps({"schema": 1, "drift": [drift], "levy": [{
        "kind": "lattice", "direction": [1.0], "base": base,
        "anchor": anchor, "segments": [
            {"w": w, "r": r, "kmin": "-inf", "kmax": "inf"}]}]}))
    out = tmp_path / "inv"
    assert cli.main(["map", str(spec), "--b", repr(base), "--inverse",
                     "--grid", "5:11", "--out", str(out)]) == 0
    with open(out / "cumulant.csv") as fh:
        rows = list(csv.DictReader(line for line in fh
                                   if not line.startswith("#")))
    with mpmath.workdps(120):
        b, a = mpmath.mpf(base), mpmath.mpf(anchor)

        def c_mu(z):  # the terms left out are below 1e-19
            total = 1j * z * mpmath.mpf(drift)
            for k in range(-60, 321):
                x = a * b ** k
                total += mpmath.mpf(w) * mpmath.mpf(r) ** k * (
                    mpmath.expj(z * x) - 1 - 1j * z * x / (1 + x * x))
            return total

        for row in rows:
            z = mpmath.mpf(float(row["z0"]))
            ref = complex(c_mu(z) - c_mu(z / b))
            got = complex(float(row["re"]), float(row["im"]))
            assert abs(got - ref) <= float(row["err_bound"]), row["z0"]


def _forward_drift_reference(mpmath, mu, b):
    """mpmath value of the mapped law's drift from its series definition,
    ``gamma / (1 - 1/b) + sum_k m(k) sum_{j>=1} s_j x_k (1/(1 + s_j^2 |x_k|^2)
    - 1/(1 + |x_k|^2))`` with ``s_j = b^-j``, on the float inputs of one
    lattice whose masses fall geometrically from ``kmin``.

    Per unit mass a point's j sum is below ``2.5 / (1 - 1/b)``: the terms
    are at most ``min(t_j, 1/t_j) + t_j / (1 + |x|^2)`` with ``t_j = s_j |x|``.
    The points with ``m(k) < 2^-80`` are left out, which drops below 1e-22
    on these lattices, and each j sum stops at ``t_j < 2^-100``, whose rest
    is below ``t_j / (1 - 1/b)``."""
    (lat,) = mu.levy.components
    (seg,) = lat.segments
    with mpmath.workdps(40):
        bb = mpmath.mpf(b)
        base, anchor = mpmath.mpf(lat.base), mpmath.mpf(lat.anchor)
        direction = [mpmath.mpf(float(x)) for x in lat.direction]
        total = [mpmath.mpf(float(g)) / (1 - 1 / bb) for g in mu.drift]
        k = int(seg.kmin)
        while k <= seg.kmax:
            mass = mpmath.mpf(seg.w) * mpmath.mpf(seg.r) ** k
            if mass < mpmath.mpf(2) ** -80:
                break
            radius = anchor * base ** k
            n2 = radius * radius * mpmath.fsum(x * x for x in direction)
            acc, s = mpmath.mpf(0), 1 / bb
            while s * mpmath.sqrt(n2) >= mpmath.mpf(2) ** -100:
                acc += s * (1 / (1 + s * s * n2) - 1 / (1 + n2))
                s /= bb
            total = [t + mass * acc * radius * x
                     for t, x in zip(total, direction)]
            k += 1
        return np.array([float(t) for t in total])


@pytest.mark.parametrize("case", ["far-top-k1005", "corpus-2d-b1.1"])
def test_forward_drift_matches_its_series(case):
    # the exact map's drift against the per-point series it replaces; the
    # far lattice has radii up to 2^1005, where |x|^2 overflows
    mpmath = pytest.importorskip("mpmath")
    tol = 1e-10
    if case == "far-top-k1005":
        b = 2.0
        lat = ms.ScaleLattice([1.0], 2.0, (ms.Segment(w=1.0, r=0.5, kmin=0,
                                                      kmax=1005),))
        mu = tp.LevyTriplet(np.zeros((1, 1)), ms.LevyMeasure((lat,)),
                            np.zeros(1))
    else:
        b = 1.1
        mu = suites.corpus(2, b)[2]
    got = mp.forward_triplet(mu, b, tol=tol).drift
    ref = _forward_drift_reference(mpmath, mu, b)
    # the window tails are within tol; the float radii and masses of the
    # inputs move each of the few hundred terms by a few ulps
    assert float(np.max(np.abs(got - ref))) <= tol + 1e-13


EPS = 2.0 ** -52
# the base-2 lattice noise of ou-simulate over all integers, r b < 1
NOISE_W, NOISE_R, NOISE_ANCHOR = 0.8, 0.47, 1.3


def _noise_reference(mpmath, zs, weights, a, m, j_tail):
    """mpmath values of ``sum_t w_t sum_k m(k) g(2^(a-t) z, x_k)`` on the
    noise lattice ``m(k) = 0.8 * 0.47^k``, ``x_k = 1.3 * 2^k`` (``a <= 0``,
    ``0 <= w_t <= C(t+m, m)``), and a bound on what they leave out.

    The points ``-70 <= k <= 70`` are summed by the phase index ``n = k -
    t``; at 40 digits the halves that cancel there lose nothing, and 1e-30
    covers the arithmetic.  With ``u = s x``, ``|g| <= u^2/2 + |u|^3/6 + |u|
    min(x^2, 1)`` and ``|g| <= 3 + |u|/(1 + x^2) <= 3 + |z|``.  So at a
    point below radius 1 the weights' sum of ``|g|`` is below ``(4/3)^(m+1)
    z^2 x^2/2 + ((8/7)^(m+1) |z|^3/6 + 2^(m+1) |z|) x^3``, a geometric sum
    over ``k < -70`` (ratios 1.88 and 3.76).  Above radius 1 it is below
    ``(3 + |z|) C(j+m, m+1) + (5/3) 2^(m+1) C(j+m, m)``, with ``j =
    ceil(log2(|z| x))`` the first term where ``|u| <= 1``, and past ``k =
    70`` that bound times ``m(k)`` falls by more than half per step.
    ``j_tail`` adds the terms ``t >= len(weights)`` of the infinite series,
    where ``|u| <= 1`` on the window: below ``(5/3) |z| x C(J+m, m)
    2^(m+1-J)`` per point."""
    k0, k1, J = -70, 70, len(weights)
    with mpmath.workdps(40):
        mpf, two = mpmath.mpf, mpmath.mpf(2)
        w, r, anchor = mpf(NOISE_W), mpf(NOISE_R), mpf(NOISE_ANCHOR)
        mass = {k: w * r ** k for k in range(k0, k1 + 1)}
        x = {k: anchor * two ** k for k in range(k0 - J, k1 + 2)}
        big_m = {n: mpmath.fsum(weights[t] * mass[n + t] for t in range(
            max(0, k0 - n), min(J, k1 - n + 1)))
            for n in range(k0 - J + 1, k1 + 1)}
        centering = sum(weights[t] * two ** (a - t) for t in range(J)) \
            * mpmath.fsum(mass[k] * x[k] / (1 + x[k] ** 2) for k in mass)
        values, errs = [], []
        for z in map(mpf, zs):
            values.append(complex(mpmath.fsum(
                (mpmath.expj(z * two ** a * x[n]) - 1) * big_m[n]
                for n in big_m) - 1j * z * centering))
            below = sum(c * w * anchor ** p * (r * two ** p) ** k0
                        / (r * two ** p - 1) for p, c in (
                            (2, (mpf(4) / 3) ** (m + 1) * z * z / 2),
                            (3, (mpf(8) / 7) ** (m + 1) * abs(z) ** 3 / 6
                             + two ** (m + 1) * abs(z))))
            j = int(mpmath.ceil(mpmath.log(abs(z) * x[k1 + 1], 2)))
            above = 2 * w * r ** (k1 + 1) * (
                (3 + abs(z)) * mpmath.binomial(j + m, m + 1)
                + mpf(5) / 3 * two ** (m + 1) * mpmath.binomial(j + m, m))
            rest = 0
            if j_tail:
                assert abs(z) * x[k1] * two ** -J <= 1
                rest = mpf(5) / 3 * abs(z) * mpmath.binomial(J + m, m) \
                    * two ** (m + 1 - J) * mpmath.fsum(
                        mass[k] * x[k] for k in mass)
            errs.append(float(below + above + rest) + 1e-30)
        return values, errs


def _judge(got, refs, ref_errs):
    # check.judge's bound test: the value lies within its err_bound of the
    # reference, plus the reference's own error and the final rounding
    for value, bound, ref, ref_err in zip(got.values, got.err_bound, refs,
                                          ref_errs):
        assert abs(value - ref) <= bound + ref_err + EPS * abs(ref), \
            (value, ref, bound)


NOISE_ZS = [0.6, 3.5, 4.9]


def _noise():
    lat = ms.ScaleLattice([1.0], 2.0, (ms.Segment(w=NOISE_W, r=NOISE_R),),
                          NOISE_ANCHOR)
    return tp.LevyTriplet(np.zeros((1, 1)), ms.LevyMeasure((lat,)),
                          np.zeros(1))


def test_noise_cumulant_bound_holds():
    mpmath = pytest.importorskip("mpmath")
    got = tp.cumulant(_noise(), np.array(NOISE_ZS)[:, None])
    _judge(got, *_noise_reference(mpmath, NOISE_ZS, [1], 0, 0, False))


@pytest.mark.parametrize("m", [1, 2])
def test_noise_forward_series_bound_holds(m):
    # b equal to the lattice base: every point is summed by phase index
    mpmath = pytest.importorskip("mpmath")
    got = mp.forward_cumulant(_noise(), 2.0, NOISE_ZS, m=m)
    weights = [math.comb(t + m, m) for t in range(110)]
    _judge(got, *_noise_reference(mpmath, NOISE_ZS, weights, 0, m, True))


@pytest.mark.parametrize("epochs", [0, 1, 3])
def test_noise_transition_bound_holds(epochs):
    # 0 epochs is the empty series: no kick, the value 0
    mpmath = pytest.importorskip("mpmath")
    got = ou.transition_cumulant(_noise(), ou.OUConfig(2.0, 1.0), 0.0,
                                 float(epochs), np.array(NOISE_ZS)[:, None])
    if not epochs:
        assert np.all(got.values == 0.0)
        return
    _judge(got, *_noise_reference(mpmath, NOISE_ZS, [1] * epochs, -1, 0,
                                  False))
