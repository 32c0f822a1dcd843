"""The span-b mapping between infinitely divisible laws.

``forward_cumulant`` evaluates the cumulant of the mapped law as the series
``sum_j C_rho(b^{-j} z)`` (optionally with binomial weights, which realizes
the iterated map).  ``forward_triplet`` performs the same map exactly at
triplet level for atoms / scale lattices.  ``inverse_factor`` computes the
unique candidate factor ``rho`` with ``C_mu(z) = C_mu(z/b) + C_rho(z)``; the
mapped-law class membership criterion is exactly nonnegativity of the
factor's Levy measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import measures as ms
from . import triplets as tp
from .errors import ToleranceError, UnsupportedComponentError

MIN_SPAN_MARGIN = 1e-9
DEFAULT_TOL = 1e-10
CLASSIC_TOL = 1e-9   # error estimate allowed to the classical map
CLASSIC_PANELS = 128  # dyadic panels of its quadrature, down to u = 2^-128
CLASSIC_CALLS = 1024  # cumulant calls of its quadrature
MAX_SERIES_TERMS = 100_000


def check_span(b: float) -> float:
    b = float(b)
    if not (b > 1.0 + MIN_SPAN_MARGIN):
        raise ValueError(f"span must exceed 1 (got {b})")
    return b


def default_grid(dim: int, zmax: float = 5.0, n: int = 101) -> np.ndarray:
    """Axis-aligned grid: n points per coordinate axis with |z| <= zmax."""
    lines = []
    for axis in range(dim):
        g = np.zeros((n, dim))
        g[:, axis] = np.linspace(-zmax, zmax, n)
        lines.append(g)
    return np.concatenate(lines, axis=0)


def _binom_weight_iter(m: int):
    """Yields C(j+m, m) for j = 0, 1, ... by multiplicative recurrence."""
    w = 1.0
    j = 0
    while True:
        yield w
        j += 1
        w *= (j + m) / j


def _series_envelope(b, m, arg_scale, zmax) -> ms.Envelope:
    """Bound on the series term sum: at radius ``R``, a constant times
    ``C(n, m+1) <= (n0 + log_b R)^(m+1) / (m+1)!``, a polynomial in ``log R``."""
    gm1 = (1.0 - 1.0 / b) ** (-(m + 1))
    gm2 = (1.0 - 1.0 / (b * b)) ** (-(m + 1))
    small_c = 0.5 * (arg_scale * zmax) ** 2 * gm2 + arg_scale * zmax * gm1
    logb = math.log(b)
    n0 = max(math.log(arg_scale * zmax), 0.0) / logb + m + 5.0
    c = (4.0 + 1.0 / (1.0 - 1.0 / b)) * (1.0 + zmax) / math.factorial(m + 1)
    return ms.Envelope(small_c, 2, tuple(
        c * math.comb(m + 1, i) * n0 ** (m + 1 - i) / logb ** i
        for i in range(m + 2)))


def _series_weights(b, m, arg_scale, zmax, xmax, tol) -> list:
    """Weights ``C(j+m, m)`` of the terms ``j < J`` that the series sums for
    points of 1-norm at most ``xmax``: it stops once the geometric bound on
    the terms left falls below ``tol / 4``."""
    weights = []
    for j, wj in enumerate(_binom_weight_iter(m)):
        weights.append(wj)
        u_next = arg_scale * b ** (-(j + 1)) * zmax * xmax
        rho1 = (j + 2 + m) / ((j + 2) * b)
        rho2 = (j + 2 + m) / ((j + 2) * b * b)
        if u_next <= 1.0 and rho1 < 1.0:
            w_next = wj * (j + 1 + m) / (j + 1)
            tail = w_next * (0.5 * u_next * u_next / (1.0 - rho2)
                             + u_next / (1.0 - rho1))
            if tail < tol / 4.0:
                return weights
        if j + 1 > MAX_SERIES_TERMS:
            raise ToleranceError("forward series term cap exceeded")


def forward_cumulant(rho: tp.LevyTriplet, b: float, z, *, m: int = 0,
                     arg_pow: int = 0,
                     tol: float = DEFAULT_TOL) -> tp.CumulantGrid:
    """Cumulant of the (m+1 times iterated) mapped law on a grid:

        sum_{j>=0} C(j+m, m) * C_rho(b^{arg_pow - j} z)

    Gaussian and drift parts are summed in closed form; the jump part is
    ``tp.jump_series`` over the weights ``_series_weights``, which stop at an
    analytic geometric tail bound.
    """
    b = check_span(b)
    tp.require_valid(rho)
    ms.require_log_moment(rho.levy, m + 1)
    zgrid = tp._as_grid(z, rho.dim)
    zmax = float(np.max(np.linalg.norm(zgrid, axis=1))) or 1.0
    s = b ** float(arg_pow)

    gm1 = (1.0 - 1.0 / b) ** (-(m + 1))
    gm2 = (1.0 - 1.0 / (b * b)) ** (-(m + 1))
    quad_part = -0.5 * s * s * gm2 * np.einsum("ij,jk,ik->i", zgrid, rho.gauss, zgrid)
    drift_part = 1j * s * gm1 * (zgrid @ rho.drift)

    jump, err = 0.0, 0.0
    if rho.levy.components:
        jump, err = tp.jump_series(
            rho.levy, zgrid, b, arg_pow,
            lambda xmax: _series_weights(b, m, s, zmax, xmax, tol),
            _series_envelope(b, m, s, zmax), tol / 2.0)
        err += tol / 4.0  # per-point series truncation

    values = quad_part + drift_part + jump
    return tp.CumulantGrid(grid=zgrid, values=values,
                           err_bound=np.full(zgrid.shape[0], err))


# ---------------------------------------------------------------------------
# exact triplet-level forward map


def _tail_sum_segments(seg: ms.Segment) -> list:
    """Segments of ``m'(i) = sum_{k >= i} m(k)`` for one segment of a valid
    measure, without a power (``canonical_families`` refuses those)."""
    out = []
    if seg.r == 1.0:
        if seg.kmin == ms.NEG_INF:
            # m'(i) = (kmax - i + 1) w grows linearly as i -> -inf: a valid
            # measure (the second iterate of an atom), but no sum of
            # geometric segments, so only the cumulant series maps it
            raise UnsupportedComponentError(
                "constant lattice mass down to index -inf has no "
                "geometric-segment image")
        if seg.kmax - seg.kmin + 1 > 10_000:
            raise ToleranceError("flat lattice range too long to split")
        for k0 in range(int(seg.kmin), int(seg.kmax) + 1):
            out.append(ms.Segment(w=seg.w, r=1.0, kmin=ms.NEG_INF, kmax=k0))
        return out
    head = seg.w / (1.0 - seg.r)
    out.append(ms.Segment(w=head, r=seg.r, kmin=seg.kmin, kmax=seg.kmax))
    if seg.kmax != ms.POS_INF:
        out.append(ms.Segment(w=-head * seg.r ** (seg.kmax + 1), r=1.0,
                              kmin=seg.kmin, kmax=seg.kmax))
        if seg.kmin != ms.NEG_INF:
            total = head * (seg.r ** seg.kmin - seg.r ** (seg.kmax + 1))
            out.append(ms.Segment(w=total, r=1.0, kmin=ms.NEG_INF,
                                  kmax=seg.kmin - 1))
    elif seg.kmin != ms.NEG_INF:
        out.append(ms.Segment(w=head * seg.r ** seg.kmin, r=1.0,
                              kmin=ms.NEG_INF, kmax=seg.kmin - 1))
    return out


def forward_triplet(rho: tp.LevyTriplet, b: float,
                    tol: float = DEFAULT_TOL) -> tp.LevyTriplet:
    """Exact triplet of the mapped law (atoms / scale lattices only)."""
    b = check_span(b)
    tp.require_valid(rho)
    ms.require_log_moment(rho.levy)

    A_out = rho.gauss / (1.0 - b ** (-2))

    comps = []
    if rho.levy.components:
        fams = ms.canonical_families(rho.levy, b)
        for fam in fams.values():
            segs = []
            for seg in fam.segments:
                segs.extend(_tail_sum_segments(seg))
            segs = ms.simplify_segments(segs)
            comps.extend(ms.segments_to_components(fam.direction, b, fam.anchor, segs))
    levy_out = ms.LevyMeasure(tuple(comps))

    gamma_out = rho.drift / (1.0 - 1.0 / b)
    if rho.levy.components:

        def centering_series(points):
            n2 = np.sum(points * points, axis=1)
            xmax = math.sqrt(float(np.max(n2))) if n2.size else 0.0
            acc = np.zeros_like(points)
            j = 0
            while True:
                bj = b ** (-j)
                factor = bj * (1.0 / (1.0 + bj * bj * n2) - 1.0 / (1.0 + n2))
                acc += factor[:, None] * points
                tail = b ** (-(j + 1)) * xmax / (1.0 - 1.0 / b)
                if tail < tol / 4.0:
                    break
                j += 1
                if j > MAX_SERIES_TERMS:
                    raise ToleranceError("centering series cap exceeded")
            return acc

        shift, _ = ms.sum_over_measure(
            rho.levy, centering_series,
            envelope=ms.Envelope(1.0 / (1.0 - 1.0 / b), 3,
                                 (3.0 / (1.0 - 1.0 / b),)),
            tol=tol, out_shape=(rho.dim,), dtype=float)
        gamma_out = gamma_out + shift

    return tp._inherit_valid(tp.LevyTriplet(A_out, levy_out, gamma_out), rho)


# ---------------------------------------------------------------------------
# inverse factorization


@dataclass(frozen=True)
class InverseFactor:
    """Candidate factor ``rho`` with ``C_mu(z) = C_mu(z/b) + C_rho(z)``.

    ``nonnegative`` is the exact lattice-level membership criterion;
    ``violations`` lists ``(direction, lattice_index)`` of negative mass,
    as a tuple of floats and an int."""

    rho: tp.LevyTriplet
    nonnegative: bool
    violations: tuple


def inverse_factor(mu: tp.LevyTriplet, b: float,
                   tol: float = DEFAULT_TOL) -> InverseFactor:
    b = check_span(b)
    tp.require_valid(mu)
    A_rho = (1.0 - b ** (-2)) * mu.gauss

    comps = []
    violations = []
    if mu.levy.components:
        fams = ms.canonical_families(mu.levy, b)
        for fam in fams.values():
            segs = ms.difference_segments(fam.segments)
            ok, witness = ms.segments_nonnegative(segs)
            if not ok:
                violations.append((tuple(np.round(fam.direction, 9).tolist()),
                                   int(witness)))
            comps.extend(ms.segments_to_components(fam.direction, b, fam.anchor, segs))
    levy_rho = ms.LevyMeasure(tuple(comps))

    gamma_rho = (1.0 - 1.0 / b) * mu.drift
    if mu.levy.components:

        def pushforward_centering(points):
            n2 = np.sum(points * points, axis=1)
            scaled = points / b
            s2 = n2 / (b * b)
            return scaled * (1.0 / (1.0 + s2) - 1.0 / (1.0 + n2))[:, None]

        T, _ = ms.sum_over_measure(
            mu.levy, pushforward_centering,
            envelope=ms.Envelope((1.0 - b ** (-2)) / b, 3, (b,), decay=1),
            tol=tol, out_shape=(mu.dim,), dtype=float)
        gamma_rho = gamma_rho - T

    rho = tp._inherit_valid(tp.LevyTriplet(A_rho, levy_rho, gamma_rho), mu,
                            not violations)
    return InverseFactor(rho=rho, nonnegative=not violations,
                         violations=tuple(violations))


# ---------------------------------------------------------------------------
# diagnostics and certificates


@dataclass(frozen=True)
class FactorizationReport:
    grid: np.ndarray
    residuals: np.ndarray
    err_bound: float

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals)) if self.residuals.size else 0.0


def factorization_check(mu: tp.LevyTriplet, rho: tp.LevyTriplet, b: float,
                        grid=None, tol: float = DEFAULT_TOL) -> FactorizationReport:
    """Residual ``|C_mu(z) - C_mu(z/b) - C_rho(z)|`` on a grid (cumulant
    level, so branch-free)."""
    b = check_span(b)
    zgrid = tp._as_grid(grid if grid is not None else default_grid(mu.dim), mu.dim)
    if zgrid.shape[0] == 0:
        raise ValueError("empty residual grid")
    c_mu = tp.cumulant(mu, zgrid, tol=tol)
    c_mu_b = tp.cumulant(mu, zgrid, tol=tol, arg_pow=(b, -1))
    c_rho = tp.cumulant(rho, zgrid, tol=tol)
    res = np.abs(c_mu.values - c_mu_b.values - c_rho.values)
    err = c_mu.max_err() + c_mu_b.max_err() + c_rho.max_err()
    return FactorizationReport(grid=zgrid, residuals=res, err_bound=err)


@dataclass(frozen=True)
class SpanMembershipCertificate:
    """Verdict for membership in the span-b semi-selfdecomposable class."""

    b: float
    verdict: bool
    factor: tp.LevyTriplet
    nonnegative: bool
    violations: tuple
    max_residual: float
    residual_tol: float


def is_semi_selfdecomposable(mu: tp.LevyTriplet, b: float,
                             tol: float = 1e-8) -> SpanMembershipCertificate:
    """Membership test: exact nonnegativity of the inverse factor's measure,
    with the cumulant-level factorization residual as a secondary diagnostic."""
    b = check_span(b)
    inv = inverse_factor(mu, b)
    rep = factorization_check(mu, inv.rho, b, tol=tol / 10.0)
    verdict = inv.nonnegative and rep.max_residual < tol + rep.err_bound
    return SpanMembershipCertificate(
        b=b, verdict=verdict, factor=inv.rho, nonnegative=inv.nonnegative,
        violations=inv.violations, max_residual=rep.max_residual,
        residual_tol=tol)


# ---------------------------------------------------------------------------
# the classical (continuous) selfdecomposable map, used for cross-checks


def classic_selfdecomposable_cumulant(mu0: tp.LevyTriplet, z) -> complex:
    """``integral_0^inf C_mu0(e^{-t} z) dt = integral_0^1 C_mu0(u z) du / u``
    over the dyadic panels ``[2^-j-1, 2^-j]``, summed from the smallest once
    the geometric remainder of the panels is below an ulp of their sum.  A
    panel takes 20-point Gauss-Legendre, on halves wherever it is more than
    CLASSIC_TOL / 256 from the 10-point rule.  The error estimate adds those
    gaps, the cumulant bounds and the remainder; ToleranceError when it
    exceeds CLASSIC_TOL or the CLASSIC_CALLS cumulant calls run out."""
    ms.require_log_moment(mu0.levy)
    zv = np.atleast_1d(np.asarray(z, dtype=float))
    (x20, w20), (x10, w10) = (np.polynomial.legendre.leggauss(n)
                              for n in (20, 10))
    x = np.concatenate([x20, x10]) / 2.0 + 0.5      # both rules on [0, 1]
    w = np.concatenate([w20, w10]) / 2.0
    unsettled = f"classical map quadrature did not settle to {CLASSIC_TOL:g}"
    panels, err, rest, calls = [], 0.0, math.inf, 0
    for j in range(CLASSIC_PANELS):
        # panel j is u = 2^-j s with s in [1/2, 1], where du / u = ds / s
        p, todo = 0.0, [(0.5, 1.0)]
        while todo:
            a, b = todo.pop()
            s = a + (b - a) * x
            # a law with a mean settles in about 55 panels: their bounds
            # sum to below CLASSIC_TOL
            c = tp.cumulant(mu0, np.ldexp(s, -j)[:, None] * zv,
                            tol=CLASSIC_TOL / 64.0)
            f = (b - a) * w * c.values / s
            gap = abs(np.sum(f[:20]) - np.sum(f[20:]))
            bound = math.log(b / a) * c.err_bound[0]   # halves keep its sum
            calls += 1
            if calls == CLASSIC_CALLS or err + bound > CLASSIC_TOL:
                raise ToleranceError(unsettled)
            if gap > CLASSIC_TOL / 256.0:
                todo += [(a, 0.5 * (a + b)), (0.5 * (a + b), b)]
            else:
                p += np.sum(f[:20])
                err += gap + bound
        if panels:
            q = abs(p) / abs(panels[-1]) if panels[-1] else 0.0
            rest = abs(p) * q / (1.0 - q) if q < 1.0 else math.inf
        panels.append(p)
        if rest <= 2.0 ** -53 * abs(sum(panels)):
            break
    if not err + rest <= CLASSIC_TOL:
        raise ToleranceError(unsettled)
    return complex(sum(reversed(panels)))


def period_function(b: float, t) -> np.ndarray:
    """The bounded log-b-periodic profile g with ``e^{-t} g(t) = b^{-[t/log b]}``."""
    b = check_span(b)
    t = np.asarray(t, dtype=float)
    frac = t / math.log(b) - np.floor(t / math.log(b))
    out = b ** frac
    return out if out.ndim else float(out)
