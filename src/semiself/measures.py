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
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (DomainError, InvalidTripletError, ToleranceError,
                     UnsupportedComponentError)

NEG_INF = float("-inf")
POS_INF = float("inf")

_ENUM_CAP = 200_000
_LOG_HEAD = 1 << 14  # log-moment head of a power tail, and its block size
_LOG_CAP = 1 << 23   # longest log-moment head
_DIR_DECIMALS = 9
DROP_TOL = 1e-12     # relative size below which a merged segment is dropped
FAMILY_TOL = 1e-9    # relative slack of skeleton offsets and lattice bases
_ROUNDING = 1.0 + 2.0 ** -32  # relative rounding of a closed-form tail
_LOG_MAX = math.log(np.finfo(float).max)  # log of the largest double


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
        if pts.size == 0:
            raise ValueError("empty atoms component: no points")
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
        if self.kmin > self.kmax or (self.kmin == self.kmax
                                     and math.isinf(self.kmin)):
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
        if not self.segments:
            raise ValueError("lattice has no segments")

    @property
    def dim(self) -> int:
        return self.direction.shape[0]

    def radius(self, k) -> np.ndarray:
        return self.anchor * np.exp(np.asarray(k, dtype=float) * math.log(self.base))


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
# lattice enumeration with closed-form tail bounds


class Envelope(NamedTuple):
    """``|f(x)| <= small_c |x|**small_p`` (``small_p >= 2``) for ``|x| <= 1``,
    and ``sum_i poly[i] (log R)**i / R**decay`` (``poly >= 0``) at ``R >= 1``."""
    small_c: float
    small_p: int
    poly: tuple
    decay: int = 0


def tail(lat: ScaleLattice, seg: Segment, K, env: Envelope) -> float:
    """Closed-form bound on ``sum_{k > K} |m(k)| env(R_k)`` for ``K`` at or
    past radius 1: the smaller of a geometric sum in ``rho = r b^-decay`` and,
    for ``power > deg + 1``, an integral from ``K + 1/2`` (see README)."""
    if seg.kmax <= K:
        return 0.0
    k1, P = max(K + 1, seg.kmin), seg.power
    logb, loga = math.log(lat.base), math.log(lat.anchor)
    log_rho = math.log(seg.r) - env.decay * logb
    log_head = math.log(max(abs(seg.w), 1e-300)) - env.decay * loga \
        + k1 * log_rho
    if log_head > 700.0 or log_rho > 0.0:
        return math.inf

    def expand(x0, sums):  # sum_i poly_i (x0 + j log b)^i, sums[t] for j^t
        return math.exp(log_head) * sum(
            c * math.comb(i, t) * x0 ** (i - t) * logb ** t * sums[t]
            for i, c in enumerate(env.poly) for t in range(i + 1))

    bound = math.inf
    if log_rho < 0.0:
        rho = math.exp(log_rho)
        S = [1.0 / (1.0 - rho)]
        for t in range(1, len(env.poly)):
            S.append(rho / (1.0 - rho)
                     * sum(math.comb(t, s) * S[s] for s in range(t)))
        bound = k1 ** -P * expand(max(loga + k1 * logb, 0.0), S)
    if P > len(env.poly):
        bound = min(bound, expand(max(loga, 0.0), [
            (k1 - 0.5) ** (t - P + 1) / (P - t - 1) for t in range(P - 1)]))
    return bound * _ROUNDING


def _first_within(bound, lo: int, hi: int, budget: float):
    """The first ``K`` in ``[lo, hi]`` with ``bound(K) <= budget`` for a
    nonincreasing ``bound``, by bisection, or None."""
    if lo > hi or bound(hi) > budget:
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if bound(mid) > budget else (lo, mid)
    return lo


def _lower_end(lat: ScaleLattice, seg: Segment, small_c, small_p, budget):
    """Lowest window index ``klo`` and a bound within ``budget`` on
    ``sum_{k < klo} |m(k)| small_c R_k**small_p``, a geometric sum."""
    if seg.kmin != NEG_INF:
        return int(seg.kmin), 0.0
    b = lat.base
    logb, loga = math.log(b), math.log(lat.anchor)
    q = seg.r * b * b
    if q <= 1.0:
        raise InvalidTripletError("lattice mass diverges near the origin")
    # tail_{k<=K} m(k)|x_k|^2 <= w * anchor^2 * q^(K+1)/(q-1); the extra
    # |x|^(small_p-2) factor is bounded by R_K^(small_p-2)
    lw = math.log(max(abs(seg.w), 1e-300)) + 2.0 * loga - math.log(q - 1.0) \
        + math.log(max(small_c, 1e-300))
    slope = math.log(q) + (small_p - 2) * logb

    def bound_log(K):
        return lw + (K + 1) * math.log(q) + (small_p - 2) * (loga + K * logb)

    k_unit = math.floor(-loga / logb)  # radius <= 1 from here down
    K = int(min(k_unit, seg.kmax))
    need = math.log(budget)
    if bound_log(K) > need:
        K = K - int(math.ceil((bound_log(K) - need) / slope)) - 1
    return K + 1, math.exp(min(bound_log(K), 300.0))


def _out_of_range(ratio: float, scale: float, ends):
    """The first finite index of ``ends`` where ``ratio^k`` or ``scale
    ratio^k`` passes the largest double, or None: ``k log ratio + log
    max(|scale|, 1) > log DBL_MAX``.  That is where ``Segment.mass`` (ratio
    ``r``, scale ``w``; the power only divides) or ``ScaleLattice.radius``
    (``base``, ``anchor``) forms no finite double."""
    log_s = math.log(max(abs(scale), 1.0))
    return next((int(k) for k in ends if abs(k) != POS_INF
                 and k * math.log(ratio) + log_s > _LOG_MAX), None)


def radius_edge(lat: ScaleLattice) -> int:
    """Last index at radius <= e^700, where every upward walk stops."""
    return math.floor((700.0 - math.log(lat.anchor)) / math.log(lat.base))


def require_walk(seg: Segment, klo, khi) -> None:
    """The one bound on a walk over indices ``klo..khi`` of a segment: raise
    ToleranceError past ``_ENUM_CAP`` indices, or where the mass at an end
    leaves double range.  ``log m(k)`` is convex in ``k``, so the masses
    between the ends stay in range with them."""
    if khi - klo + 1 > _ENUM_CAP:
        raise ToleranceError("lattice enumeration cap exceeded")
    k = _out_of_range(seg.r, seg.w, (klo, khi) if klo <= khi else ())
    if k is not None:
        raise ToleranceError(f"lattice mass at index {k} leaves double range")


def _segment_window(lat: ScaleLattice, seg: Segment, env: Envelope, tol):
    """Index window ``[klo, khi]`` of one segment and a bound on ``|m| env``
    outside it: ``khi`` is the first index whose ``tail`` is within budget,
    or radius e^700 for a power tail (the remainder goes to the bound).
    Every window passes ``require_walk``."""
    loga = math.log(lat.anchor)
    tol_part = max(tol, 1e-300) / 4.0
    klo, tail_bound = _lower_end(lat, seg, env.small_c, env.small_p, tol_part)
    if seg.kmax != POS_INF:
        khi = int(seg.kmax)
    else:
        k_edge = radius_edge(lat)
        k_last = min(k_edge, klo + _ENUM_CAP - 1)
        khi = _first_within(lambda K: tail(lat, seg, K, env),
                            max(klo, math.floor(-loga / math.log(lat.base))),
                            k_last, tol_part / 8.0)
        if khi is None:
            if k_last < k_edge:
                raise ToleranceError("lattice enumeration cap exceeded")
            khi = k_edge
            if not seg.power or math.isinf(tail(lat, seg, khi, env)):
                raise ToleranceError("lattice tail bound did not converge")
        tail_bound += tail(lat, seg, khi, env)
    require_walk(seg, klo, khi)
    return klo, khi, tail_bound


def _enumerate_component(comp, env: Envelope, tol):
    """``(points, masses, lattice indices, window tail)`` of a component,
    the one walk over a measure: atoms with no indices and no tail, or each
    lattice point needed to integrate a function under ``env`` within
    ``tol``."""
    if isinstance(comp, Atoms):
        return comp.points, comp.weights, None, 0.0
    ks, masses, err = [np.zeros(0, dtype=int)], [np.zeros(0)], 0.0
    for seg in comp.segments:
        klo, khi, tail_bound = _segment_window(comp, seg, env, tol)
        ks.append(np.arange(klo, khi + 1))
        masses.append(seg.mass(ks[-1]))
        err += tail_bound
    ks = np.concatenate(ks)
    points = comp.radius(ks)[:, None] * comp.direction[None, :]
    return points, np.concatenate(masses), ks, err


# ---------------------------------------------------------------------------
# generic integration against a measure


def sum_over_measure(levy: LevyMeasure, f, *, envelope: Envelope, tol):
    """Evaluate ``integral f(x) nu(dx)`` with an error bound.

    ``f(points)`` maps an ``(n, d)`` array to ``(n,) + shape``, the shape of
    the total, and ``envelope`` must dominate ``|f|``.  Cumulants, whose
    phases need the lattice indices, are summed by ``triplets.jump_series``
    instead.
    """
    total, err = 0.0, 0.0
    for comp in levy.components:
        pts, masses, _, tail_bound = _enumerate_component(comp, envelope, tol)
        if masses.size:
            total = total + np.tensordot(masses, f(pts), axes=(0, 0))
        err += tail_bound
    return total, err


# ---------------------------------------------------------------------------
# structural checks


def component_violations(comp) -> list:
    """Why a component is not part of a valid Levy measure, decided exactly
    from its data: ``integral (|x|^2 ^ 1) nu(dx)`` is finite iff each
    segment reaching index -inf has ``r b^2 > 1`` and each reaching +inf
    has ``r < 1`` (or ``r == 1`` and ``power > 1``).  Non-finite data, and
    a finite end whose mass or radius leaves double range, are refused too.
    Empty when valid."""
    out = []
    if isinstance(comp, Atoms):
        with np.errstate(over="ignore"):
            n2 = np.sum(comp.points * comp.points, axis=1)
        origin = ~np.any(comp.points, axis=1)
        if np.any(origin):
            out.append("mass at origin")
        if np.any((n2 < np.finfo(float).tiny) & ~origin):
            out.append("atom too near the origin: |x|^2 underflows")
        if np.any(comp.weights <= 0.0):
            out.append("nonpositive atom weight")
        if not np.all(np.isfinite(comp.points)) or not np.all(np.isfinite(comp.weights)):
            out.append("non-finite atom data")
        elif not np.all(np.isfinite(n2)):
            out.append("atom too far out: |x|^2 overflows")
    elif not np.all(np.isfinite([comp.base, comp.anchor, *(
            v for seg in comp.segments for v in (seg.w, seg.r))])):
        out.append("non-finite lattice data")
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
            k = _out_of_range(seg.r, seg.w, (seg.kmin, seg.kmax))
            if k is not None:
                out.append(f"lattice mass at index {k} leaves double range")
            k = _out_of_range(b, comp.anchor, (seg.kmin, seg.kmax))
            if k is not None:
                out.append(f"lattice radius at index {k} leaves double range")
    return out


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
    """Per segment an exactly rounded head, ending where its ``tail`` is below
    2^-60 of its first term (at most ``_LOG_HEAD`` indices of a power tail at
    r == 1, ``_LOG_CAP`` of others), plus that tail."""
    logb, loga = math.log(lat.base), math.log(lat.anchor)
    outer = _outer_segments(lat, p)
    if outer is None:
        return math.inf
    env = Envelope(0.0, 2, (0.0,) * p + (1.0,))
    total = 0.0
    for seg, k0 in outer:
        first = abs(seg.w) * seg.r ** k0 * k0 ** -seg.power \
            * (loga + k0 * logb) ** p
        khi = int(min(seg.kmax, k0 + (_LOG_HEAD if seg.r == 1.0 else _LOG_CAP)))
        K = _first_within(lambda K: tail(lat, seg, K, env), k0, khi,
                          2.0 ** -60 * first)
        K = khi if K is None else K
        blocks = (np.arange(k, min(k + _LOG_HEAD, K + 1), dtype=float)
                  for k in range(k0, K + 1, _LOG_HEAD))
        total += math.fsum(x for ks in blocks for x in (
            seg.mass(ks) * (loga + ks * logb) ** p).tolist()) + tail(lat, seg, K, env)
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
    ``r == 1`` and ``power - p > 1``."""
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
    anchor: float
    segments: list


def _family_key(direction, frac):
    return (tuple(np.round(direction, _DIR_DECIMALS)), round(frac, 7))


def canonical_families(levy: LevyMeasure, b: float) -> dict:
    """Sort atoms and lattices into skeleton families for span ``b``.

    The measure must be valid.  Atoms are converted to single-point segments
    on the skeleton they fall on.  A lattice on base ``beta = b^(1/n)``
    (integer ``n >= 1`` within ``FAMILY_TOL``) splits into ``n`` families on
    base ``b``: index ``n i + j`` is index ``i`` of family ``j``, whose anchor
    is ``anchor beta^j`` and whose mass is ``w r^j (r^n)^i``.
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
        try:
            w = seg.w * seg.r ** (-shift)
        except OverflowError:
            w = math.inf
        # rebasing keeps every mass, but the weight and the ends' r^k move
        moved = Segment(w=w, r=seg.r, kmin=seg.kmin + shift,
                        kmax=seg.kmax + shift)
        if math.isinf(w) or (seg.w and not w) \
                or _out_of_range(seg.r, w, (moved.kmin, moved.kmax)) is not None:
            raise ToleranceError(f"lattice weight {seg.w!r} rebased by "
                                 f"{shift} indices leaves double range")
        key = _family_key(direction, frac)
        fam = fams.setdefault(key, Family(np.asarray(direction), a0, []))
        fam.segments.append(moved)

    for comp in levy.components:
        if isinstance(comp, Atoms):
            radii = np.linalg.norm(comp.points, axis=1)
            for x, w, r in zip(comp.points, comp.weights, radii):
                add(x / r, r, Segment(w=float(w), r=1.0, kmin=0, kmax=0))
        else:
            n = round(logb / math.log(comp.base))
            if n < 1 or abs(n * math.log(comp.base) - logb) > FAMILY_TOL:
                raise UnsupportedComponentError(
                    "lattice base must be the mapping span b or a root "
                    "b^(1/n) of it for exact algebra")
            if n > _ENUM_CAP:
                raise ToleranceError(f"lattice base b^(1/{n}) splits into "
                                     "more families than the enumeration cap")
            for seg in comp.segments:
                if seg.power:
                    raise UnsupportedComponentError(
                        "power-law lattice segments support cumulant-level maps only")
                if n > 1 and n * abs(math.log(seg.r)) > 700.0:
                    raise ToleranceError(f"lattice ratio {seg.r!r} to the "
                                         f"power {n} leaves double range")
                for j in range(n):  # ceil and floor of (k - j) / n
                    lo = seg.kmin if seg.kmin == NEG_INF \
                        else -((j - seg.kmin) // n)
                    hi = seg.kmax if seg.kmax == POS_INF \
                        else (seg.kmax - j) // n
                    if lo <= hi:
                        add(comp.direction, comp.anchor * comp.base ** j,
                            Segment(seg.w * seg.r ** j, seg.r ** n, lo, hi))
    return fams


def _log_scale(seg: Segment) -> float:
    """``log |m(k)|`` at the larger of a segment's finite ends, or ``log |w|``
    when its lower end is infinite, formed without ``r^k``."""
    ends = [0] if seg.kmin == NEG_INF else [k for k in (seg.kmin, seg.kmax)
                                            if k != POS_INF]
    lw = math.log(abs(seg.w)) if seg.w else NEG_INF
    return lw + max(k * math.log(seg.r) for k in ends)


def simplify_segments(segments: Sequence[Segment]) -> list:
    """Merge same-ratio segments over the common refinement of their ranges,
    dropping a piece whose scale (``_log_scale``) is below ``DROP_TOL`` of
    the largest input's, so that the result does not depend on the anchor."""
    if not segments:
        return []
    bounds = set()
    for s in segments:
        if s.kmin != NEG_INF:
            bounds.add(s.kmin)
        if s.kmax != POS_INF:
            bounds.add(s.kmax + 1)
    cuts = [NEG_INF] + sorted(bounds) + [POS_INF]
    floor = math.log(DROP_TOL) + max(_log_scale(s) for s in segments)
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
            piece = Segment(w=w, r=r, kmin=lo, kmax=kmax)
            if _log_scale(piece) > floor:
                out.append(piece)
    return out


def difference_segments(segments: Sequence[Segment]) -> list:
    """Segments of ``nu - nu(b .)`` given the segments of ``nu`` (same family).

    ``nu(b .)`` has mass ``m(k+1)`` at index ``k``, i.e. each segment shifted
    down by one with weight multiplied by its ratio.
    """
    shifted = [Segment(w=-s.w * s.r, r=s.r, kmin=s.kmin - 1, kmax=s.kmax - 1)
               for s in segments]
    return simplify_segments(list(segments) + shifted)


def _dominance(terms):
    """The weight ``W`` of the dominant term of ``terms`` ``(w, log r, power)``
    as ``k -> +inf`` (largest ``r``, then smallest power) and an index ``K``
    past which it outweighs the other terms together (see README)."""
    groups: dict = {}
    for w, lr, p in terms:
        groups[lr, p] = groups.get((lr, p), 0.0) + w
    wmax = max(abs(w) for w, _, _ in terms)
    live = [g for g in groups if abs(groups[g]) > DROP_TOL * wmax]
    if not live:
        return 0.0, NEG_INF
    lr_d, p_d = max(live, key=lambda g: (g[0], -g[1]))
    n, W, K = len(groups), groups.pop((lr_d, p_d)), NEG_INF
    for (lr, p), w in groups.items():
        if w != 0.0:
            c, lam, delta = math.log(n * abs(w) / abs(W)), lr_d - lr, p_d - p
            k = _first_within(lambda k: c + delta * math.log(k) - lam * k,
                              max(math.ceil(delta / lam), 1) if lam else 1,
                              1 << 62, 0.0)
            K = max(K, math.inf if k is None else k)
    return W, K


def segments_nonnegative(segments: Sequence[Segment]):
    """Decide ``m(k) >= 0`` for all integer k; returns (ok, witness_index):
    at once when no weight is negative, else each index up to where
    ``_dominance`` fixes the sign, then its weight."""
    if all(s.w >= 0.0 for s in segments):
        return True, None
    finite = [k for s in segments for k in (s.kmin, s.kmax) if abs(k) != POS_INF]
    lo, hi = (int(min(finite)), int(max(finite))) if finite else (0, 0)
    sides = []
    for side in (-1, +1):
        live = [(s.w, side * math.log(s.r), s.power) for s in segments
                if (s.kmin if side < 0 else s.kmax) == side * POS_INF]
        if live:
            W, K = _dominance(live)
            sides.append((side, W))
            if K != NEG_INF:
                K = math.ceil(min(K, 1e18))
                lo, hi = (min(lo, -K), hi) if side < 0 else (lo, max(hi, K))
    if hi - lo > _ENUM_CAP:
        raise ToleranceError("lattice sign check exceeds the enumeration cap")
    ks = np.arange(lo, hi + 1, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        parts = [s.mass(ks) for s in segments]
        m = sum(parts, np.zeros_like(ks))
        # m(k) is known to a few half-ulps of the terms' moduli: |k| + 1 from
        # w and r, themselves rounded, 2 |k log r| + 5 from evaluating each
        # term and n - 1 from their sum; a mass within them counts as zero
        slack = sum(np.abs(part) * (np.abs(ks) + 2.0 * np.abs(ks * math.log(s.r))
                                    + len(parts) + 5.0)
                    for part, s in zip(parts, segments))
    bad = np.nonzero(m < -2.0 ** -53 * slack)[0]
    if bad.size:
        return False, int(ks[bad[0]])
    for side, W in sides:
        if W < 0.0:
            return False, lo - 1 if side < 0 else hi + 1
    return True, None


def segments_to_components(direction, b, anchor, segments) -> list:
    """Wrap a (possibly empty) segment list back into measure components."""
    segs = [s for s in segments if s.w != 0.0]
    if not segs:
        return []
    return [ScaleLattice(direction=direction, base=b,
                         segments=tuple(segs), anchor=anchor)]
