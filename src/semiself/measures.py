"""Levy measures assembled from atoms and geometric scale lattices.

A measure is a finite list of components of two kinds:

* ``Atoms`` -- finitely many point masses.
* ``ScaleLattice`` -- mass on the geometric radius lattice ``anchor * base**k``
  along a single direction, with the mass law stored symbolically as
  piecewise-geometric segments ``m(k) = w * r**k * k**(-power)``.  Keeping the
  law symbolic makes rescaling by ``base`` and differencing exact
  integer-index operations.

``LevyMeasure`` refuses any other component, so every function here and in
the mapping, triplet and sampling modules handles exactly these two kinds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (DomainError, InvalidTripletError, ToleranceError,
                     UnsupportedComponentError)

NEG_INF = float("-inf")
POS_INF = float("inf")

_ENUM_CAP = 200_000
_DIR_DECIMALS = 9
DROP_TOL = 1e-12     # relative size below which a merged segment is dropped
SIGN_WINDOW = 96     # indices checked around each finite segment boundary
FAMILY_TOL = 1e-9    # relative slack of skeleton offsets and lattice bases
_SCAN_BLOCK = 256    # indices per block of a lattice window's upper-end scan


def unit_direction(v) -> np.ndarray:
    v = np.atleast_1d(np.asarray(v, dtype=float))
    n = float(np.linalg.norm(v))
    if not np.isfinite(n) or n <= 0.0:
        raise ValueError("direction must be a nonzero finite vector")
    u = v / n
    u.setflags(write=False)
    return u


@dataclass(frozen=True)
class Atoms:
    """Finitely many point masses ``weights[i]`` at ``points[i]``.

    Negative weights are representable (they appear in factorization
    residues) but are flagged by :func:`component_violations`.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if pts.shape[0] != w.shape[0]:
            raise ValueError("points and weights length mismatch")
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class Segment:
    """Mass law ``m(k) = w * r**k / k**power`` on integer indices
    ``kmin <= k <= kmax`` (ends may be infinite)."""

    w: float
    r: float
    kmin: float = NEG_INF
    kmax: float = POS_INF
    power: int = 0

    def __post_init__(self):
        if self.r <= 0.0:
            raise ValueError("segment ratio must be positive")
        if self.kmin > self.kmax:
            raise ValueError("empty segment range")
        if self.power and (self.kmin == NEG_INF or self.kmin < 1):
            raise ValueError("power segments require kmin >= 1")

    def mass(self, k: np.ndarray) -> np.ndarray:
        k = np.asarray(k, dtype=float)
        inside = (k >= self.kmin) & (k <= self.kmax)
        out = np.where(inside, self.w * np.exp(k * math.log(self.r)), 0.0)
        if self.power:
            out = np.where(inside, out * np.where(k > 0, k, 1.0) ** (-self.power), out)
        return out


@dataclass(frozen=True)
class ScaleLattice:
    """Mass on radii ``anchor * base**k`` along ``direction``."""

    direction: np.ndarray
    base: float
    segments: tuple
    anchor: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "direction", unit_direction(self.direction))
        object.__setattr__(self, "segments", tuple(self.segments))
        if self.base <= 1.0 + 1e-9:
            raise ValueError("lattice base must exceed 1")
        if self.anchor <= 0.0:
            raise ValueError("lattice anchor must be positive")

    @property
    def dim(self) -> int:
        return self.direction.shape[0]

    def radius(self, k) -> np.ndarray:
        return self.anchor * np.exp(np.asarray(k, dtype=float) * math.log(self.base))

    def mass(self, k) -> np.ndarray:
        k = np.asarray(k, dtype=float)
        return sum((seg.mass(k) for seg in self.segments), np.zeros_like(k))


@dataclass(frozen=True)
class LevyMeasure:
    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        for c in comps:
            if not isinstance(c, (Atoms, ScaleLattice)):
                raise TypeError("Levy measure components are Atoms or "
                                f"ScaleLattice, not {type(c).__name__}")
        dims = {c.dim for c in comps}
        if len(dims) > 1:
            raise ValueError("mixed component dimensions")
        object.__setattr__(self, "components", comps)

    @property
    def dim(self) -> int:
        return self.components[0].dim if self.components else 0


EMPTY = LevyMeasure(())


# ---------------------------------------------------------------------------
# lattice enumeration with analytic tail bounds


def _segment_window(lat: ScaleLattice, seg: Segment, small_c, small_p,
                    large_bound, tol):
    """Finite index window [klo, khi] for one segment plus tail bounds.

    ``small_c * |x|**small_p`` (small_p >= 2) bounds the integrand below
    radius 1; ``large_bound(R)`` bounds it at radius R >= 1 and may grow
    slowly with R.
    """
    b = lat.base
    logb = math.log(b)
    loga = math.log(lat.anchor)
    tol_part = max(tol, 1e-300) / 4.0

    # --- lower end
    if seg.kmin != NEG_INF:
        klo, tail_lo = int(seg.kmin), 0.0
    else:
        q = seg.r * b * b
        if q <= 1.0:
            raise InvalidTripletError("lattice mass diverges near the origin")
        # tail_{k<=K} m(k)|x_k|^2 <= w * anchor^2 * q^(K+1)/(q-1); the extra
        # |x|^(small_p-2) factor is bounded by R_K^(small_p-2).
        k_unit = math.floor(-loga / logb)  # radius <= 1 from here down
        lw = math.log(seg.w) + 2.0 * loga - math.log(q - 1.0) + math.log(max(small_c, 1e-300))
        slope = math.log(q) + (small_p - 2) * logb

        def bound_log(K):
            return lw + (K + 1) * math.log(q) + (small_p - 2) * (loga + K * logb)

        K = min(k_unit, int(seg.kmax) if seg.kmax != POS_INF else k_unit)
        need = math.log(tol_part)
        if bound_log(K) > need:
            K = K - int(math.ceil((bound_log(K) - need) / slope)) - 1
        klo, tail_lo = K + 1, math.exp(min(bound_log(K), 300.0))

    # --- upper end
    if seg.kmax != POS_INF:
        khi, tail_hi = int(seg.kmax), 0.0
    else:
        k = max(klo, math.floor(-loga / logb))
        prev = None
        ratio_hits = 0
        tail_hi = None
        k0, block = k, np.zeros(0)
        while k - klo < _ENUM_CAP:
            if k - k0 == block.size:
                # radii and masses a block at a time; the rule below reads
                # the same floats as one index at a time
                k0 = k
                block = np.arange(k, min(k + _SCAN_BLOCK, klo + _ENUM_CAP),
                                  dtype=float)
                with np.errstate(over="ignore"):
                    radii, masses = lat.radius(block), seg.mass(block)
            if loga + k * logb > 700.0:
                # radii beyond double range; only slowly decaying power tails
                # get here, and their remainder goes to the error budget
                env_cap = float(large_bound(math.exp(700.0)))
                flat_env = env_cap <= float(large_bound(math.exp(350.0))) * \
                    (1.0 + 1e-9)
                p, kk = seg.power, float(k)
                if seg.r != 1.0 or p <= (1 if flat_env else 2):
                    raise ToleranceError("lattice tail bound did not converge")
                if flat_env:
                    tail_hi = env_cap * seg.w * kk ** (1 - p) / (p - 1)
                else:
                    # envelope grows at most linearly in log radius
                    scale = max(1.0, (loga + kk * logb) / 700.0)
                    tail_hi = env_cap * seg.w * scale * (
                        kk ** (1 - p) / (p - 1)
                        + logb / 700.0 * kk ** (2 - p) / (p - 2))
                khi = k - 1
                return klo, khi, tail_lo + tail_hi
            R = radii[k - k0]
            env = small_c * R**small_p if R < 1.0 else float(large_bound(R))
            term = float(masses[k - k0]) * env
            if prev is not None and prev > 0:
                ratio = term / prev
                ratio_hits = ratio_hits + 1 if ratio < 0.95 else 0
                if term < tol_part / 8.0 and ratio_hits >= 3:
                    rho = min(max(ratio, 1e-12), 0.95)
                    tail_hi = term * rho / (1.0 - rho)
                    break
                if term < tol_part / 8.0 and 0.95 <= ratio < 1.0 and seg.power:
                    # algebraic decay: estimate exponent and integral tail
                    p_hat = -math.log(ratio) / math.log((k) / (k - 1.0)) if k > 1 else 0.0
                    if p_hat > 1.05:
                        tail_hi = term * k / (p_hat - 1.0)
                        if tail_hi < tol_part:
                            break
                        tail_hi = None
            prev = term
            k += 1
        else:
            raise ToleranceError("lattice enumeration cap exceeded")
        if tail_hi is None:
            raise ToleranceError("lattice tail bound did not converge")
        khi = k
    return klo, khi, tail_lo + tail_hi


def _enumerate_component(lat: ScaleLattice, small_c, small_p, large_bound, tol):
    """All lattice points needed to evaluate an integrand within ``tol``."""
    radii, masses, indices = [], [], []
    err = 0.0
    for seg in lat.segments:
        klo, khi, tail = _segment_window(lat, seg, small_c, small_p, large_bound, tol)
        ks = np.arange(klo, khi + 1, dtype=float)
        radii.append(lat.radius(ks))
        masses.append(seg.mass(ks))
        indices.append(ks.astype(int))
        err += tail
    if not radii:
        return np.zeros(0), np.zeros(0), np.zeros(0, dtype=int), 0.0
    return (np.concatenate(radii), np.concatenate(masses),
            np.concatenate(indices), err)


# ---------------------------------------------------------------------------
# generic integration against a measure


def sum_over_measure(levy: LevyMeasure, f, *, small_c, small_p, large_bound,
                     tol, out_shape=(), dtype=complex):
    """Evaluate ``integral f(x) nu(dx)`` with an error bound.

    ``f(points, lattice=None)`` maps an ``(n, d)`` array to ``(n,) + out_shape``;
    for lattice components it also receives ``lattice=(component, indices)``
    so it can reduce huge oscillatory phases exactly.
    ``small_c * |x|**small_p`` must dominate ``|f|`` for ``|x| <= 1``
    (``small_p >= 2``) and ``large_bound(R)`` for ``|x| = R >= 1``.
    """
    total = np.zeros(out_shape, dtype=dtype)
    err = 0.0
    for comp in levy.components:
        if isinstance(comp, Atoms):
            vals = f(comp.points)
            total = total + np.tensordot(comp.weights, vals, axes=(0, 0))
        else:
            r, m, ks, tail = _enumerate_component(comp, small_c, small_p,
                                                  large_bound, tol)
            if r.size:
                pts = r[:, None] * comp.direction[None, :]
                vals = f(pts, lattice=(comp, ks))
                total = total + np.tensordot(m, vals, axes=(0, 0))
            err += tail
    return total, err


# ---------------------------------------------------------------------------
# structural checks


def component_violations(comp) -> list:
    out = []
    if isinstance(comp, Atoms):
        radii = np.linalg.norm(comp.points, axis=1)
        if np.any(radii == 0.0):
            out.append("mass at origin")
        if np.any(comp.weights <= 0.0):
            out.append("nonpositive atom weight")
        if not np.all(np.isfinite(comp.points)) or not np.all(np.isfinite(comp.weights)):
            out.append("non-finite atom data")
    else:
        b = comp.base
        # signed segment pairs are fine as long as the summed law is >= 0
        ok, witness = segments_nonnegative(comp.segments)
        if not ok:
            out.append(f"negative lattice mass at index {witness}")
        for seg in comp.segments:
            if seg.kmax == POS_INF and not (seg.r < 1.0 or (seg.r == 1.0 and seg.power > 1)):
                out.append("total mass beyond radius 1 diverges")
            if seg.kmin == NEG_INF and seg.r * b * b <= 1.0 + 1e-12:
                out.append("integral of |x|^2 near 0 diverges")
    return out


def square_one_integral(levy: LevyMeasure) -> float:
    """``integral (|x|^2 ^ 1) nu(dx)`` -- finite iff the measure is valid."""

    def f(pts, lattice=None):
        with np.errstate(over="ignore"):
            n2 = np.sum(pts * pts, axis=1)
        return np.minimum(n2, 1.0)

    v, _ = sum_over_measure(levy, f, small_c=1.0, small_p=2,
                            large_bound=lambda R: 1.0, tol=1e-10,
                            out_shape=(), dtype=float)
    return float(v)


# ---------------------------------------------------------------------------
# log-moments


def _outer_segments(lat: ScaleLattice, p: int):
    """``(segment, first index beyond radius 1)`` of each segment with mass
    outside the unit ball, or None when the log^p-moment diverges."""
    kc = -math.log(lat.anchor) / math.log(lat.base)  # radius 1 index
    out = []
    for seg in lat.segments:
        kstart = max(math.floor(kc) + 1, seg.kmin)
        if kstart > seg.kmax:
            continue
        if seg.kmax == POS_INF and (
                seg.r > 1.0 or seg.r == 1.0 and seg.power - p <= 1):
            return None
        out.append((seg, int(kstart)))
    return out


def _lattice_log_moment(lat: ScaleLattice, p: int) -> float:
    logb, loga = math.log(lat.base), math.log(lat.anchor)
    outer = _outer_segments(lat, p)
    if outer is None:
        return math.inf
    total = 0.0
    for seg, kstart in outer:
        k = kstart
        acc, prev = 0.0, None
        while True:
            if seg.kmax != POS_INF and k > seg.kmax:
                break
            term = float(seg.mass(np.array([k]))[0]) * (loga + k * logb) ** p
            acc += term
            if seg.kmax == POS_INF and prev is not None and term < 1e-17 * max(acc, 1e-300):
                break
            if seg.kmax == POS_INF and seg.r == 1.0 and k - kstart >= 10_000:
                # slowly decaying power tail: finish with the integral of
                # w x^-P (loga + x logb)^p from k + 1/2, in closed form
                # (finite since P - p > 1, see _outer_segments)
                x, P = k + 0.5, seg.power
                acc += seg.w * sum(
                    math.comb(p, i) * loga ** (p - i) * logb ** i
                    * x ** (i - P + 1) / (P - i - 1) for i in range(p + 1))
                break
            if k - kstart > _ENUM_CAP:
                raise ToleranceError("log-moment summation cap exceeded")
            prev = term
            k += 1
        total += acc
    return total


def log_moment(levy: LevyMeasure, p: int = 1) -> float:
    """``integral_{|x|>1} (log|x|)**p nu(dx)``, or ``inf`` when divergent."""
    if p < 1 or int(p) != p:
        raise ValueError("log-moment order must be an integer >= 1")
    total = 0.0
    for comp in levy.components:
        if isinstance(comp, Atoms):
            radii = np.linalg.norm(comp.points, axis=1)
            sel = radii > 1.0
            total += float(np.sum(comp.weights[sel] * np.log(radii[sel]) ** p))
        else:
            v = _lattice_log_moment(comp, p)
            if math.isinf(v):
                return math.inf
            total += v
    return total


def require_log_moment(levy: LevyMeasure, p: int = 1) -> None:
    """Domain of the span-b map (p = 1), of its p-fold iterate and of the
    OU-type limit law: raise DomainError unless the log^p-moment is finite.

    The verdict is read off the segments in O(segments), without summing:
    atoms, and segments with a finite top index or inside the unit ball,
    are finite; one running to index +inf is finite iff ``r < 1``, or
    ``r == 1`` and ``power - p > 1``.  So it also accepts a valid lattice
    whose ratio is so close to 1 that ``log_moment`` exceeds its cap."""
    if any(isinstance(c, ScaleLattice) and _outer_segments(c, p) is None
           for c in levy.components):
        raise DomainError(f"log^{p}-moment of the Levy measure is infinite; "
                          "input outside the domain")


# ---------------------------------------------------------------------------
# exact lattice algebra used by the span-b mapping


@dataclass
class Family:
    """All mass of one measure lying on a single geometric skeleton:
    direction ``direction``, radii ``anchor * b**k``."""

    direction: np.ndarray
    base: float
    anchor: float
    segments: list


def _family_key(direction, frac):
    return (tuple(np.round(direction, _DIR_DECIMALS)), round(frac, 7))


def canonical_families(levy: LevyMeasure, b: float) -> dict:
    """Sort atoms and lattices into skeleton families for span ``b``.

    Lattice components must already use base ``b``; atoms are converted to
    single-point segments on the skeleton they fall on.
    """
    logb = math.log(b)
    fams: dict = {}

    def add(direction, anchor, seg):
        la = math.log(anchor) / logb
        shift = math.floor(la + FAMILY_TOL)
        frac = la - shift
        if frac > 1.0 - FAMILY_TOL:
            shift += 1
            frac -= 1.0
        a0 = math.exp(frac * logb)
        key = _family_key(direction, frac)
        fam = fams.setdefault(key, Family(np.asarray(direction), b, a0, []))
        fam.segments.append(Segment(
            w=seg.w * seg.r ** (-shift) if seg.r != 1.0 else seg.w,
            r=seg.r,
            kmin=seg.kmin + shift if seg.kmin != NEG_INF else NEG_INF,
            kmax=seg.kmax + shift if seg.kmax != POS_INF else POS_INF,
        ))

    for comp in levy.components:
        if isinstance(comp, Atoms):
            radii = np.linalg.norm(comp.points, axis=1)
            if np.any(radii == 0.0):
                raise InvalidTripletError("mass at origin")
            for x, w, r in zip(comp.points, comp.weights, radii):
                add(x / r, r, Segment(w=float(w), r=1.0, kmin=0, kmax=0))
        else:
            if abs(comp.base - b) > FAMILY_TOL * b:
                raise UnsupportedComponentError(
                    "lattice base must match the mapping span for exact algebra")
            for seg in comp.segments:
                if seg.power:
                    raise UnsupportedComponentError(
                        "power-law lattice segments support cumulant-level maps only")
                add(comp.direction, comp.anchor, seg)
    return fams


def simplify_segments(segments: Sequence[Segment]) -> list:
    """Merge same-ratio segments over the common refinement of their ranges."""
    if not segments:
        return []
    bounds = set()
    for s in segments:
        if s.kmin != NEG_INF:
            bounds.add(s.kmin)
        if s.kmax != POS_INF:
            bounds.add(s.kmax + 1)
    cuts = [NEG_INF] + sorted(bounds) + [POS_INF]
    wmax = max(abs(s.w) for s in segments)
    out = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        kmax = hi - 1 if hi != POS_INF else POS_INF
        if lo > kmax:
            continue
        by_r: dict = {}
        for s in segments:
            if s.kmin <= lo and s.kmax >= kmax:
                by_r[s.r] = by_r.get(s.r, 0.0) + s.w
        for r, w in sorted(by_r.items()):
            scale = abs(w)
            if r != 1.0 and lo != NEG_INF and kmax != POS_INF:
                scale = max(abs(w * r**lo), abs(w * r**kmax))
            elif r != 1.0 and lo != NEG_INF:
                scale = abs(w * r**lo)
            if scale > DROP_TOL * wmax:
                out.append(Segment(w=w, r=r, kmin=lo, kmax=kmax))
    return out


def difference_segments(segments: Sequence[Segment]) -> list:
    """Segments of ``nu - nu(b .)`` given the segments of ``nu`` (same family).

    ``nu(b .)`` has mass ``m(k+1)`` at index ``k``, i.e. each segment shifted
    down by one with weight multiplied by its ratio.
    """
    shifted = [Segment(w=-s.w * s.r, r=s.r,
                       kmin=s.kmin - 1 if s.kmin != NEG_INF else NEG_INF,
                       kmax=s.kmax - 1 if s.kmax != POS_INF else POS_INF)
               for s in segments]
    return simplify_segments(list(segments) + shifted)


def segments_nonnegative(segments: Sequence[Segment]):
    """Decide ``m(k) >= 0`` for all integer k; returns (ok, witness_index).

    Checks an explicit window around every finite boundary plus sign of the
    asymptotically dominant term on each infinite side.
    """
    if not segments:
        return True, None
    finite = [s.kmin for s in segments if s.kmin != NEG_INF] + \
             [s.kmax for s in segments if s.kmax != POS_INF]
    lo = (min(finite) if finite else 0) - SIGN_WINDOW
    hi = (max(finite) if finite else 0) + SIGN_WINDOW
    ks = np.arange(lo, hi + 1, dtype=float)
    m = sum((s.mass(ks) for s in segments), np.zeros_like(ks))
    scale = max(float(np.max(np.abs(m))), 1e-300)
    bad = np.nonzero(m < -1e-10 * scale)[0]
    if bad.size:
        return False, int(ks[bad[0]])
    # infinite tails: dominant ratio wins
    for side in (-1, +1):
        live = [s for s in segments
                if (s.kmin == NEG_INF if side < 0 else s.kmax == POS_INF)]
        if not live:
            continue
        # as k -> -inf, smaller r dominates; as k -> +inf, larger r dominates
        dom = min(s.r for s in live) if side < 0 else max(s.r for s in live)
        wdom = sum(s.w for s in live if s.r == dom)
        if wdom < -1e-12:
            return False, lo - 1 if side < 0 else hi + 1
    return True, None


def segments_to_components(direction, b, anchor, segments) -> list:
    """Wrap a (possibly empty) segment list back into measure components."""
    segs = [s for s in segments if s.w != 0.0]
    if not segs:
        return []
    return [ScaleLattice(direction=direction, base=b,
                         segments=tuple(segs), anchor=anchor)]
