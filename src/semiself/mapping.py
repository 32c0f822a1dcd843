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
MAX_SERIES_TERMS = 100_000


def check_span(b: float) -> float:
    b = float(b)
    if not 1.0 + MIN_SPAN_MARGIN < b < math.inf:
        raise ValueError(f"span must be finite and above 1 (got {b})")
    return b


def default_grid(dim: int, zmax: float = 5.0, n: int = 101) -> np.ndarray:
    """Axis-aligned grid: n points per coordinate axis with |z| <= zmax."""
    lines = []
    for axis in range(dim):
        g = np.zeros((n, dim))
        g[:, axis] = np.linspace(-zmax, zmax, n)
        lines.append(g)
    return np.concatenate(lines, axis=0)


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
    weights, wj = [], 1.0
    for j in range(MAX_SERIES_TERMS + 1):
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
        wj *= (j + 1 + m) / (j + 1)
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

    # read off the inverse relation gamma_rho = (1 - 1/b) gamma_out - T
    # with T the centering shift of the image measure at s = 1/b; T's
    # budget is scaled so that gamma_out stays within tol after the division
    shift, _ = tp.centering_shift(levy_out, 1.0 / b, tol * (1.0 - 1.0 / b))
    gamma_out = (rho.drift + shift) / (1.0 - 1.0 / b)

    return tp._inherit_valid(tp.LevyTriplet(A_out, levy_out, gamma_out), rho)


# ---------------------------------------------------------------------------
# inverse factorization


@dataclass(frozen=True)
class InverseFactor:
    """Candidate factor ``rho`` with ``C_mu(z) = C_mu(z/b) + C_rho(z)``.

    ``nonnegative`` is the exact lattice-level membership criterion;
    ``violations`` lists ``(direction, lattice_index)`` of negative mass,
    as a tuple of floats and an int.  ``drift_err`` bounds the norm of the
    error of ``rho``'s drift (the window tails of its centering shift)."""

    rho: tp.LevyTriplet
    nonnegative: bool
    violations: tuple
    drift_err: float


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

    T, drift_err = tp.centering_shift(mu.levy, 1.0 / b, tol)
    gamma_rho = (1.0 - 1.0 / b) * mu.drift - T

    rho = tp._inherit_valid(tp.LevyTriplet(A_rho, levy_rho, gamma_rho), mu,
                            not violations)
    return InverseFactor(rho=rho, nonnegative=not violations,
                         violations=tuple(violations), drift_err=drift_err)


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
                        grid) -> FactorizationReport:
    """Residual ``|C_mu(z) - C_mu(z/b) - C_rho(z)|`` on a grid (cumulant
    level, so branch-free)."""
    b = check_span(b)
    zgrid = tp._as_grid(grid, mu.dim)
    if zgrid.shape[0] == 0:
        raise ValueError("empty residual grid")
    c_mu = tp.cumulant(mu, zgrid, tol=DEFAULT_TOL)
    c_mu_b = tp.cumulant(mu, zgrid, tol=DEFAULT_TOL, arg_pow=(b, -1))
    c_rho = tp.cumulant(rho, zgrid, tol=DEFAULT_TOL)
    res = np.abs(c_mu.values - c_mu_b.values - c_rho.values)
    err = c_mu.max_err() + c_mu_b.max_err() + c_rho.max_err()
    return FactorizationReport(grid=zgrid, residuals=res, err_bound=err)


@dataclass(frozen=True)
class SpanMembershipCertificate:
    """Verdict for membership in the span-b semi-selfdecomposable class."""

    b: float
    verdict: bool
    factor: tp.LevyTriplet
    violations: tuple


def is_semi_selfdecomposable(mu: tp.LevyTriplet,
                             b: float) -> SpanMembershipCertificate:
    """Membership test: exact nonnegativity of the inverse factor's measure."""
    b = check_span(b)
    inv = inverse_factor(mu, b)
    return SpanMembershipCertificate(b=b, verdict=inv.nonnegative,
                                     factor=inv.rho,
                                     violations=inv.violations)
