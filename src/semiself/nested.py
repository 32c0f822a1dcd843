"""Iterates of the span-b map and the nested membership ladder.

The (m+1)-fold iterate has cumulant ``sum_k C(k+m, m) C_mu(b^{-k} z)``; the
binomial weights arise because the iterate is a stochastic time change by the
inverse of the piecewise-linear ramp ``f(u) = integral_0^u C([v]+m, m) dv``.
Membership at level m is decided by peeling off inverse factors m+1 times and
requiring every factor's measure to stay nonnegative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mapping as mp
from . import measures as ms
from . import triplets as tp
from .errors import DomainError

M_MAX = 8


def _check_level(m: int) -> int:
    if int(m) != m or m < 0:
        raise ValueError("level m must be a nonnegative integer")
    if m > M_MAX:
        raise ValueError(f"level m capped at {M_MAX}")
    return int(m)


# ---------------------------------------------------------------------------
# iterated forward map


def iterated_cumulant(mu: tp.LevyTriplet, b: float, m: int,
                      z) -> tp.CumulantGrid:
    """Cumulant of the (m+1)-fold mapped law; requires a finite (m+1)-th
    log-moment (the exact domain of the iterate)."""
    m = _check_level(m)
    return mp.forward_cumulant(mu, b, z, m=m)


def iterated_forward_triplet(mu: tp.LevyTriplet, b: float, m: int) -> tp.LevyTriplet:
    """Exact triplet of the (m+1)-fold mapped law (repeated pushforward)."""
    m = _check_level(m)
    tp.require_valid(mu)
    ms.require_log_moment(mu.levy, m + 1)
    out = mu
    for _ in range(m + 1):
        out = mp.forward_triplet(out, b)
    return out


@dataclass(frozen=True)
class NestedCertificate:
    """Membership ladder: ``verdicts[j]`` decides level j, which needs the
    first j+1 inverse factors to all have nonnegative measures."""

    b: float
    m: int
    verdicts: tuple           # bool per level 0..m
    factors: tuple            # peeled factor triplets rho^(1)..rho^(m+1)
    first_violation: tuple | None   # (level, lattice index) or None

    @property
    def verdict(self) -> bool:
        return self.verdicts[-1]


def is_nested_member(mu: tp.LevyTriplet, b: float, m: int) -> NestedCertificate:
    """Decide membership in the nested classes up to level m by iterated
    exact differencing of the measure."""
    m = _check_level(m)
    factors = []
    first_violation = None
    current = mu
    for level in range(m + 1):
        inv = mp.inverse_factor(current, b)
        factors.append(inv.rho)
        if not inv.nonnegative:
            # deeper factors of a signed measure are not meaningful
            first_violation = (level, inv.violations[0][1])
            break
        current = inv.rho
    passed = first_violation[0] if first_violation else m + 1
    return NestedCertificate(b=float(b), m=m,
                             verdicts=tuple(j < passed for j in range(m + 1)),
                             factors=tuple(factors),
                             first_violation=first_violation)


# ---------------------------------------------------------------------------
# semi-stable laws on a scale lattice


@dataclass(frozen=True)
class SemiStableSpec:
    """Scale-lattice law with exact b-scaling: mass ``w b^{-alpha k}`` at
    radius ``r0 b^k`` for every integer k along ``direction``."""

    b: float
    alpha: float
    direction: tuple = (1.0,)
    w: float = 1.0
    r0: float = 1.0

    def __post_init__(self):
        mp.check_span(self.b)
        if not 0.0 < self.alpha < 2.0:
            raise ValueError("index alpha must lie strictly in (0, 2)")
        if self.w <= 0.0 or self.r0 <= 0.0:
            raise ValueError("w and r0 must be positive")


def semi_stable_triplet(spec: SemiStableSpec) -> tp.LevyTriplet:
    """Triplet whose measure satisfies ``nu(bB) = b^{-alpha} nu(B)`` exactly.

    For alpha != 1 the drift is set so the law is strictly semi-stable
    (``a C(z) = C(bz)`` with a = b^alpha and no extra linear term); at
    alpha = 1 no drift achieves strictness, so the drift is left at zero and
    :func:`is_semi_stable` reports the linear term ``c`` instead.
    """
    b, a = spec.b, spec.b ** spec.alpha
    lat = ms.ScaleLattice(
        direction=np.asarray(spec.direction, dtype=float),
        base=b,
        segments=(ms.Segment(w=spec.w, r=b ** (-spec.alpha)),),
        anchor=spec.r0)
    d = lat.dim
    driftless = tp.LevyTriplet(np.zeros((d, d)), ms.LevyMeasure((lat,)),
                               np.zeros(d))
    if abs(spec.alpha - 1.0) <= 1e-12:
        return driftless
    # the drift h of b X (its centering shift) makes
    # C(bz) - a C(z) = i<z, gamma (b - a) + h> vanish
    h = tp.scale(driftless, b).drift
    return tp.LevyTriplet(driftless.gauss, driftless.levy, h / (a - b))


@dataclass(frozen=True)
class SemiStableCertificate:
    """Verdict on ``a C(z) = C(bz) + i <c, z>``, ``a = b^alpha``, with ``a``,
    ``alpha`` and ``c`` of a semi-stable law; else a ``witness`` ``[direction,
    k]``, the first ``k`` with ``m(k+1) != r m(k)`` (None at -inf)."""

    b: float
    verdict: bool
    a: float | None
    alpha: float | None
    c: list | None
    witness: list | None


def is_semi_stable(mu: tp.LevyTriplet, b: float) -> SemiStableCertificate:
    """Decide exactly from the canonical families: with jumps, semi-stable
    iff no Gaussian part and every family is one ``w r^k`` on all integers,
    one ``r`` for all within ``FAMILY_TOL``; ``alpha = -log r / log b``."""
    b = mp.check_span(b)
    tp.require_valid(mu)
    fams = [(f.direction, segs) for f in ms.canonical_families(
        mu.levy, b).values() if (segs := ms.simplify_segments(f.segments))]
    if not fams and not np.any(mu.gauss):
        raise DomainError("degenerate law: a pure drift has no scaling index")
    r = fams[0][1][0].r if fams else None
    for direction, segs in fams:
        # m(k+1) != r m(k) where m(k) r^-k changes (ratios near 1 are 1)
        k = min((s.kmin for s in ms.difference_segments([ms.Segment(
            s.w, 1.0 if abs(s.r / r - 1.0) <= ms.FAMILY_TOL else s.r / r,
            s.kmin, s.kmax) for s in segs])), default=None)
        if k is not None:
            return SemiStableCertificate(b, False, None, None, None, [
                np.round(direction, 9).tolist(), None if k == ms.NEG_INF
                else int(k)])
    if fams and np.any(mu.gauss):
        return SemiStableCertificate(b, False, None, None, None, None)
    alpha = -math.log(r) / math.log(b) if fams else 2.0
    a = float(np.power(b, alpha))  # b^2 overflows past b ~ 1e154
    # c = (a - b) gamma - h, with b gamma + h the drift of b X
    c = a * mu.drift - tp.scale(mu, b).drift
    return SemiStableCertificate(b, True, a, alpha, c.tolist(), None)
