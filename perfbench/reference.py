"""Independent reference values for the checker, built with mpmath and numpy.

Nothing here imports ``semiself``.  A spec dict is read into plain tuples
and the cumulants are summed directly:

* Gaussian and drift parts in closed form;
* atoms and lattices by the binomial-weighted series
  ``sum_j C(j+m, m) C_rho(b**-j z)`` summed point by point in mpmath (the
  direct double sum).  When the span equals the lattice base, the phase of
  term ``(k, j)`` depends on ``k - j`` only; the double sum is then regrouped
  by that phase index, with the regrouped masses from exact recurrences, so
  power tails with thousands of lattice indices stay cheap.

Every sum stops with an explicit bound on what it left out, returned as the
reference's own error.  Phases are reduced modulo 2 pi at the precision their
size needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

DPS = 30           # working digits for ordinary terms
SMALL_U = 0.1      # |u| below this: Taylor tail in closed form
TAYLOR = 14        # Taylor order of the tail (0.1**15 / 15! ~ 1e-27)
NEG, POS = float("-inf"), float("inf")


@dataclass(frozen=True)
class Seg:
    w: float
    r: float
    kmin: float
    kmax: float
    power: int = 0

    def mass(self, k: int):
        if k < self.kmin or k > self.kmax:
            return mpmath.mpf(0)
        m = mpmath.mpf(self.w) * mpmath.mpf(self.r) ** k
        return m / mpmath.mpf(k) ** self.power if self.power else m

    def mass_float(self, k: int) -> float:
        if k < self.kmin or k > self.kmax:
            return 0.0
        lm = math.log(self.w) + k * math.log(self.r) - \
            (self.power * math.log(k) if self.power else 0.0)
        return math.exp(lm) if lm < 700 else math.inf


@dataclass(frozen=True)
class Lattice:
    sign: float        # direction (1-d): +1 or -1
    base: float
    anchor: float
    segs: tuple


@dataclass(frozen=True)
class Law:
    gauss: float       # 1-d variance
    drift: float
    atoms: tuple       # ((x, w), ...)
    lattices: tuple


def _bound(v):
    return {"-inf": NEG, "inf": POS}.get(v, v) if isinstance(v, str) else \
        int(v)


def law_from_spec(spec: dict) -> Law:
    """Read a one-dimensional spec dict (atoms and lattices only)."""
    atoms, lats = [], []
    for comp in spec.get("levy", []):
        if comp["kind"] == "atoms":
            atoms += [(float(p[0]), float(w))
                      for p, w in zip(comp["points"], comp["weights"])]
        elif comp["kind"] == "lattice":
            segs = tuple(Seg(float(s["w"]), float(s["r"]),
                             _bound(s.get("kmin", "-inf")),
                             _bound(s.get("kmax", "inf")),
                             int(s.get("power", 0)))
                         for s in comp["segments"])
            lats.append(Lattice(1.0 if comp["direction"][0] > 0 else -1.0,
                                float(comp["base"]),
                                float(comp.get("anchor", 1.0)), segs))
        else:
            raise ValueError(f"no reference for component {comp['kind']!r}")
    gauss = spec.get("gauss", [[0.0]])
    drift = spec.get("drift", [0.0])
    if len(drift) != 1:
        raise ValueError("references are one-dimensional")
    return Law(float(gauss[0][0]), float(drift[0]), tuple(atoms), tuple(lats))


# ---------------------------------------------------------------------------
# binomial-weighted geometric sums


def weight(j: int, m: int) -> int:
    return math.comb(j + m, m)


def tail_weights(y, J: int, m: int):
    """``sum_{j >= J} C(j+m, m) y**j`` for ``|y| < 1``, in closed form:
    ``y**J * sum_l C(J+m, m-l) y**l / (1-y)**(l+1)``."""
    one = 1 - y
    return y ** J * mpmath.fsum(math.comb(J + m, m - l) * y ** l / one ** (l + 1)
                                for l in range(m + 1))


def _inner(U, c, b: float, m: int, series: str):
    """``sum_j a_j g(U b**-j)`` with ``g(u) = e^{iu} - 1 - i u c``, at the
    current precision.

    ``series`` is ``"forward"`` (``a_j = C(j+m, m)``, all ``j >= 0``) or
    ``"inverse"`` (``a_0 = 1``, ``a_1 = -1``)."""
    q = 1 / mpmath.mpf(b)
    if series == "inverse":
        return (mpmath.expj(U) - mpmath.expj(U * q)) - 1j * U * c * (1 - q)
    total = mpmath.mpc(0)
    j, u = 0, U
    while abs(u) >= SMALL_U:
        total += weight(j, m) * (mpmath.expj(u) - 1 - 1j * u * c)
        j += 1
        u = u * q
    # tail j >= J: g(u) = i u (1 - c) + sum_{t >= 2} (i u)^t / t!
    total += 1j * U * (1 - c) * tail_weights(q, j, m)
    iu = 1j * U
    fact = mpmath.mpf(1)
    for t in range(2, TAYLOR + 1):
        fact *= t
        total += iu ** t / fact * tail_weights(q ** t, j, m)
    return total


def _point_bound(zmax: float, x: float, b: float, m: int, series: str) -> float:
    """Upper bound of ``|_inner|`` over ``|z| <= zmax`` for a point at
    radius ``x``: ``|g(u)| <= 2 + zmax/2`` always (as ``x/(1+x^2) <= 1/2``)
    and ``|g(u)| <= u^2/2 + |u|(1 - c)``."""
    q = 1.0 / b
    U = zmax * x
    one_c = x * x / (1.0 + x * x)
    big = 2.0 + zmax / 2.0
    if series == "inverse":
        return min(big, U * U * (1 + q * q) / 2 + U * (1 - q) * one_c)
    n_big = int(math.floor(math.log(U) / math.log(b))) + 1 if U >= 1.0 else 0
    u0 = U * q ** n_big
    return big * math.comb(n_big + m, m + 1) + (u0 * u0 / 2 + u0 * one_c) * \
        math.comb(n_big + m, m) / (1 - q) ** (m + 1)


# ---------------------------------------------------------------------------
# the jump part, point by point (any span)


def _lattice_direct(lat: Lattice, zs, b: float, m: int, series: str,
                    target: float):
    """Direct double sum over lattice indices and series terms."""
    zmax = max(abs(z) for z in zs)
    out = [mpmath.mpc(0)] * len(zs)
    err = 0.0
    logB = math.log(lat.base)

    def bound(seg, k):
        return seg.mass_float(k) * _point_bound(
            zmax, lat.anchor * math.exp(k * logB), b, m, series)

    for seg in lat.segs:
        if seg.power:
            raise ValueError("power segments need the span to equal the base")
        kc = math.floor(-math.log(lat.anchor) / logB)
        start = int(min(max(kc, seg.kmin), seg.kmax))
        for step in (+1, -1):
            k = start if step > 0 else start - 1
            quiet = 0
            while seg.kmin <= k <= seg.kmax:
                bnd = bound(seg, k)
                quiet = quiet + 1 if bnd < target * 1e-6 else 0
                if quiet >= 3:
                    # geometric decay from here on: bound the rest
                    vals = [bound(seg, k + i * step) for i in range(4)]
                    ratio = max((v2 / v1 for v1, v2 in zip(vals, vals[1:])
                                 if v1 > 0), default=0.0)
                    if ratio >= 0.99:
                        raise ValueError("lattice terms decay too slowly")
                    err += bnd / (1.0 - max(ratio, 0.5))
                    break
                xk = lat.anchor * math.exp(k * logB)
                dps = DPS + max(0, int(math.log10(max(zmax * xk, 1.0))))
                with mpmath.workdps(dps):
                    x = mpmath.mpf(lat.anchor) * mpmath.mpf(lat.base) ** k
                    c = 1 / (1 + x * x)
                    mass = seg.mass(k)
                    for i, z in enumerate(zs):
                        if z != 0.0:
                            out[i] += mass * _inner(z * lat.sign * x, c, b, m,
                                                    series)
                k += step
    return out, err


# ---------------------------------------------------------------------------
# the jump part regrouped by phase index (span equal to the lattice base)


def _regrouped_top(seg: Seg, N: int, t: int):
    """``sum_{k >= N} C(k-N+t, t) m(k)`` in closed form (``N >= kmin``)."""
    if seg.kmax != POS:
        raise ValueError("regrouped sums need an infinite top range")
    if seg.power:
        # expand C(k-N+t, t) as a polynomial in k; Hurwitz zeta per power
        coeffs = [mpmath.mpf(1)]                  # poly in k, low -> high
        for i in range(1, t + 1):
            shift = mpmath.mpf(i - N)
            new = [mpmath.mpf(0)] * (len(coeffs) + 1)
            for d, cf in enumerate(coeffs):
                new[d] += cf * shift / i
                new[d + 1] += cf / i
            coeffs = new
        return seg.w * mpmath.fsum(cf * mpmath.zeta(seg.power - d, N)
                                   for d, cf in enumerate(coeffs) if cf)
    r = mpmath.mpf(seg.r)
    return seg.w * r ** N / (1 - r) ** (t + 1)


def _lattice_regrouped(lat: Lattice, zs, m: int, target: float):
    B = mpmath.mpf(lat.base)
    q = 1 / B
    logB = math.log(lat.base)
    zmax = max(abs(z) for z in zs)
    out = [mpmath.mpc(0)] * len(zs)
    err = 0.0
    # k <= ks: every phase is small, per-point Taylor sums
    ks = math.floor((math.log(SMALL_U / zmax) - math.log(lat.anchor)) / logB)
    small = Lattice(lat.sign, lat.base, lat.anchor,
                    tuple(Seg(s.w, s.r, s.kmin, min(s.kmax, ks), s.power)
                          for s in lat.segs if s.kmin <= ks))
    if small.segs:
        part, e = _lattice_direct(small, zs, lat.base, m, "forward", target)
        out = [a + p for a, p in zip(out, part)]
        err += e
    for seg in lat.segs:
        lo = int(max(seg.kmin, ks + 1))
        if lo > seg.kmax:
            continue
        # top index N: everything at n >= N is left out, and
        # |sum_{n >= N} (E(n) - 1) M_n| <= 2 sum_{n >= N} M_n = 2 M^(m+1)_N
        if seg.kmax != POS:
            N = int(seg.kmax) + 1
            M = [mpmath.mpf(0)] * (m + 1)
        elif seg.r < 1.0 or (seg.r == 1.0 and seg.power > m + 2):
            N = _top_index(seg, lo, m, target)
            err += float(2 * _regrouped_top(seg, N, m + 1))
            M = [_regrouped_top(seg, N, t) for t in range(m + 1)]
        else:
            raise ValueError("unsupported segment for regrouped sums")
        # centering: -i z (1-q)^-(m+1) sum_k m(k) x_k / (1 + x_k^2)
        cen = mpmath.mpf(0)
        k = lo
        while k <= seg.kmax:
            x = mpmath.mpf(lat.anchor) * B ** k
            term = seg.mass(k) * x / (1 + x * x)
            cen += term
            if k > lo + 5 and term < 1e-32 * abs(cen):
                break
            k += 1
        # M^(t)_n by backward recursion from the values at N
        Ms = {}
        n = N - 1
        while n >= lo:
            mass = seg.mass(n)
            for t in range(m + 1):
                mass = M[t] = M[t] + mass
            Ms[n] = M[m]
            n -= 1
        # below lo the regrouped masses keep growing polynomially
        w1 = (1 - q) ** (-(m + 1))
        for i, z in enumerate(zs):
            if z == 0.0:
                continue
            zz = z * lat.sign
            acc = -1j * zz * w1 * cen
            for n, Mn in Ms.items():
                acc += (_expj_big(zz, lat.anchor, lat.base, n) - 1) * Mn
            Mrun = list(M)
            n = lo - 1
            while True:
                for t in range(1, m + 1):
                    Mrun[t] = Mrun[t] + Mrun[t - 1]
                term = (_expj_big(zz, lat.anchor, lat.base, n) - 1) * Mrun[m]
                acc += term
                if abs(zz) * lat.anchor * math.exp(n * logB) * \
                        float(Mrun[m]) < 1e-30 * target:
                    break
                n -= 1
            out[i] += acc
    return out, err


def _top_index(seg: Seg, lo: int, m: int, target: float) -> int:
    """Smallest N >= lo with ``2 M^(m+1)_N <= target`` (bisection)."""
    def ok(N):
        return 2 * _regrouped_top(seg, N, m + 1) <= target

    hi = lo + 8
    while not ok(hi):
        hi = lo + 2 * (hi - lo)
    low = lo + (hi - lo) // 2 if hi > lo + 8 else lo
    while hi - low > 1:
        mid = (hi + low) // 2
        if ok(mid):
            hi = mid
        else:
            low = mid
    return hi


def _expj_big(z: float, anchor: float, base: float, n: int):
    """``exp(i z anchor base**n)`` with the phase reduced exactly."""
    mag = math.log2(max(abs(z) * anchor, 1e-300)) + n * math.log2(base)
    with mpmath.workprec(max(int(mag), 0) + 3 * 64):
        x = mpmath.mpf(z) * mpmath.mpf(anchor) * mpmath.mpf(base) ** n
        if mag > 20:
            x = mpmath.fmod(x, 2 * mpmath.pi)
    return mpmath.expj(x)


# ---------------------------------------------------------------------------
# public entry points


def cumulant_series(law: Law, b: float, zs, m: int = 0, inverse: bool = False,
                    target: float = 1e-14):
    """Reference for ``map`` output: the forward map's cumulant
    ``sum_j C(j+m, m) C(b**-j z)`` or, with ``inverse``, the factor's
    cumulant ``C(z) - C(z/b)``.  Returns (values, own error bound)."""
    with mpmath.workdps(DPS):
        q = 1 / mpmath.mpf(b)
        if inverse:
            g2, g1 = 1 - q * q, 1 - q
        else:
            g2, g1 = (1 - q * q) ** (-(m + 1)), (1 - q) ** (-(m + 1))
        out = [-mpmath.mpf(law.gauss) / 2 * z * z * g2
               + 1j * mpmath.mpf(law.drift) * z * g1 for z in zs]
        err = 0.0
        series = "inverse" if inverse else "forward"
        for x, w in law.atoms:
            c = 1 / (1 + mpmath.mpf(x) ** 2)
            for i, z in enumerate(zs):
                if z != 0.0:
                    out[i] += w * _inner(mpmath.mpf(z) * x, c, b, m, series)
        for lat in law.lattices:
            if not inverse and lat.base == b:
                part, e = _lattice_regrouped(lat, zs, m, target)
            else:
                part, e = _lattice_direct(lat, zs, b, m, series, target)
            out = [a + p for a, p in zip(out, part)]
            err += e
        return [complex(v) for v in out], err


def cumulant_np(law: Law, z: np.ndarray) -> np.ndarray:
    """Plain double-precision cumulant ``C(z)`` on a grid (for Monte Carlo
    references, where 1e-12 accuracy is plenty)."""
    z = np.asarray(z, dtype=float)
    vals = -0.5 * law.gauss * z * z + 1j * law.drift * z
    pts, wts = [], []
    for x, w in law.atoms:
        pts.append(x)
        wts.append(w)
    for lat in law.lattices:
        for seg in lat.segs:
            lo = seg.kmin if seg.kmin != NEG else -5000
            hi = seg.kmax if seg.kmax != POS else 5000
            ks = np.arange(int(lo), int(hi) + 1)
            lx = math.log(lat.anchor) + ks * math.log(lat.base)
            lm = math.log(seg.w) + ks * math.log(seg.r)
            if seg.power:
                lm = lm - seg.power * np.log(ks.astype(float))
            keep = (lm + np.minimum(2.0 * lx, 0.0) > -70.0) & (lx < 700.0)
            pts += list(lat.sign * np.exp(lx[keep]))
            wts += list(np.exp(lm[keep]))
    if pts:
        x = np.asarray(pts)[:, None]
        w = np.asarray(wts)[:, None]
        u = x * z[None, :]
        vals = vals + np.sum(w * (np.expm1(1j * u) - 1j * u / (1 + x * x)),
                             axis=0)
    return vals
