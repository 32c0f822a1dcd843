"""Exact and compensated sampling from infinitely divisible triplets.

Finite-activity jump parts are simulated exactly as compound Poisson sums.
Lattices with infinitely many small jumps are truncated at a radius
``epsilon`` and the removed part is replaced by its Gaussian approximation
(mean and covariance matched); ``epsilon`` is pushed down until the removed
part's standard deviation dominates the cutoff, and the choice is recorded in
the batch metadata.  A ``Sampler`` does this preparation once for a triplet
that is drawn from repeatedly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import measures as ms
from . import triplets as tp
from .errors import ToleranceError, UnsupportedComponentError

MASS_TOL = 1e-12
COMPENSATION_FACTOR = 100.0  # require sigma(eps)^2 >= factor * eps^2
EPS_FLOOR = 1e-9
_I64 = np.iinfo(np.int64).max
POISSON_LAM_MAX = _I64 - 10.0 * math.sqrt(_I64)  # numpy's largest Poisson mean
ECF_BLOCK = 1024             # draws per block of an ECF sum


@dataclass(frozen=True)
class SampleBatch:
    """iid draws from the law of ``X_t`` under a given triplet."""

    values: np.ndarray      # (n, d)
    t: float
    seed: int
    metadata: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class EmpiricalCF:
    """Empirical characteristic function with its ``conf_radius``."""

    grid: np.ndarray
    values: np.ndarray
    conf_radius: float


def _segment_upper_points(seg: ms.Segment, lat: ms.ScaleLattice, k_from):
    """Indices >= k_from carrying all but MASS_TOL of the segment mass: to
    two past the first ``K`` where the ``tail`` of ``r^(k - k_from)`` is,
    within ``ms.radius_edge`` and ``ms.require_walk``.  A valid segment
    without a power that runs to ``+inf`` has ``r < 1``."""
    if seg.kmin != ms.NEG_INF:
        k_from = max(k_from, int(seg.kmin))
    if seg.kmax != ms.POS_INF:
        k_to = int(seg.kmax)
    else:
        unit = ms.Segment(w=1.0, r=seg.r)
        J = ms._first_within(lambda J: ms.tail(lat, unit, J, ms.Envelope(
            0.0, 2, (1.0,))), 0, ms.radius_edge(lat) - k_from - 2, MASS_TOL)
        if J is None:
            raise ToleranceError("lattice jump pool passes radius e^700")
        k_to = k_from + J + 2
    ms.require_walk(seg, k_from, k_to)
    return np.arange(k_from, k_to + 1)


def _small_jump_variance(lat: ms.ScaleLattice, k_eps: int) -> float:
    """``sigma^2 = sum_{k < k_eps} m(k) R_k^2``: per segment the geometric
    sum of ``w a^2 q^k``, ``q = r b^2``, over its ``n`` indices to ``top``."""
    total = 0.0
    for seg in lat.segments:
        top = min(k_eps - 1, seg.kmax)
        n, q = top - seg.kmin + 1, seg.r * lat.base * lat.base  # n = inf: q > 1
        if n > 0:
            try:  # a^2 or q^top alone can leave double range
                geometric = n if q == 1.0 else q ** top * (
                    -math.expm1(-n * math.log(q))) / (1.0 - 1.0 / q)
                total += seg.w * lat.anchor ** 2 * geometric
            except OverflowError:
                raise ToleranceError("lattice small-jump variance leaves "
                                     "double range") from None
    return total


def _lattice_jump_pool(lat: ms.ScaleLattice, k_eps: int):
    """Split one lattice at index ``k_eps``: (points, masses) above, one mass
    per index, and the exact (mean, cov) compensation moments of the part
    below, summed from ``k_eps - 1`` down to where 1e-17 of sigma^2 is left."""
    d = lat.dim
    budget = 1e-17 * abs(_small_jump_variance(lat, k_eps))
    up_ks, up_masses = [], []
    acc = np.zeros((1, 1 + d + d * d))  # running sigma^2, mean and cov
    xi = lat.direction
    for seg in lat.segments:
        if seg.power:
            raise UnsupportedComponentError(
                "power-law lattice segments are not samplable")
        ks = _segment_upper_points(seg, lat, k_eps)
        up_ks.append(ks)
        up_masses.append(seg.mass(ks))
        top = int(min(k_eps - 1, seg.kmax))
        if top < seg.kmin or budget == 0.0:
            continue
        klo, _ = ms._lower_end(lat, seg, 1.0, 2, budget)
        ms.require_walk(seg, klo, top)
        ks = np.arange(top, klo - 1, -1, dtype=float)
        r, m = lat.radius(ks), seg.mass(ks)
        term2 = m * r * r
        rows = np.column_stack([term2, (m * r * r * r / (1.0 + r * r))[:, None]
                                * xi, term2[:, None] * np.outer(xi, xi).ravel()])
        # running sums in index order, as one loop over k would add them
        acc = np.cumsum(np.concatenate([acc[-1:], rows]), axis=0)
    idx, where = np.unique(np.concatenate([np.zeros(0, dtype=int)] + up_ks),
                           return_inverse=True)
    masses = np.maximum(np.bincount(
        where, weights=np.concatenate([np.zeros(0)] + up_masses),
        minlength=idx.size), 0.0)
    pts = lat.radius(idx)[:, None] * xi[None, :]
    sigma2, mean, cov = acc[-1, 0], acc[-1, 1:d + 1], acc[-1, d + 1:]
    return pts, masses, mean, cov.reshape(d, d), float(sigma2)


def _choose_epsilon(lat: ms.ScaleLattice) -> int:
    """Index of the largest lattice radius eps below 1 whose removed
    small-jump variance dominates it, sigma(eps)^2 >= COMPENSATION_FACTOR
    * eps^2, or that is below EPS_FLOOR."""
    k0 = int(math.floor(-math.log(lat.anchor) / math.log(lat.base)))
    for k in range(k0, k0 - 2000, -1):
        eps = float(lat.radius(k))
        if eps < EPS_FLOOR or \
                _small_jump_variance(lat, k) >= COMPENSATION_FACTOR * eps * eps:
            return k
    return k0 - 2000


def _jump_pools(levy: ms.LevyMeasure, d: int):
    """Collect (points, masses) for the compound Poisson part and the
    Gaussian compensation moments across all components."""
    pts_list, mass_list = [], []
    mean = np.zeros(d)
    cov = np.zeros((d, d))
    meta = {"scheme": "exact"}
    for comp in levy.components:
        if isinstance(comp, ms.Atoms):
            pts_list.append(comp.points)
            mass_list.append(comp.weights)
        else:
            infinite_small = any(s.kmin == ms.NEG_INF for s in comp.segments)
            k_eps = _choose_epsilon(comp) if infinite_small else \
                min(int(s.kmin) for s in comp.segments)
            pts, m, mu_c, cov_c, sigma2 = _lattice_jump_pool(comp, k_eps)
            mean += mu_c
            cov += cov_c
            if infinite_small:
                eps = float(comp.radius(k_eps))
                meta = {"scheme": "gaussian_compensation", "epsilon": eps,
                        "compensation_ratio": math.sqrt(sigma2) / eps}
            pts_list.append(pts)
            mass_list.append(m)
    points = np.concatenate([np.zeros((0, d))] + pts_list, axis=0)
    return points, np.concatenate([np.zeros(0)] + mass_list), mean, cov, meta


def _gaussian_factor(A: np.ndarray) -> np.ndarray:
    """Matrix L with L L^T = A, robust to semidefinite A."""
    lam, V = np.linalg.eigh(0.5 * (A + A.T))
    lam = np.clip(lam, 0.0, None)
    return V * np.sqrt(lam)[None, :]


class Sampler:
    """A triplet prepared for repeated draws of ``X_t``.

    The triplet is validated once, and the compound Poisson pool, the
    Gaussian compensation of the small jumps and the centring shift are built
    on the first draw with ``t > 0``; the Gaussian factor is cached per ``t``.
    Preparation consumes no randomness, so ``draw`` returns exactly what a
    fresh sampler's first draw with the same arguments returns.
    """

    def __init__(self, triplet: tp.LevyTriplet):
        tp.require_valid(triplet)
        self.triplet = triplet
        self._pools = None
        self._factors: dict = {}

    def _prepared(self):
        if self._pools is None:
            trip = self.triplet
            points, masses, comp_mean, comp_cov, meta = _jump_pools(trip.levy,
                                                                    trip.dim)
            # drift of the non-jump part: remove the centering of simulated
            # jumps, add the mean of the compensated small jumps
            shift = trip.drift.astype(float).copy()
            if points.shape[0]:
                # past |x| ~ 1.3e154, |x|^2 overflows to inf and the
                # centering x / (1 + |x|^2) reads its limit 0; the term it
                # drops is below 1 / |x| per unit mass
                with np.errstate(over="ignore"):
                    n2 = np.sum(points * points, axis=1)
                shift -= (masses / (1.0 + n2)) @ points
            shift += comp_mean
            self._pools = (points, masses, trip.gauss + comp_cov, shift, meta)
        return self._pools

    def draw(self, n: int, seed: int, t: float = 1.0) -> SampleBatch:
        """Draw ``n`` iid samples from the law of ``X_t``."""
        if n <= 0:
            raise ValueError("sample count must be positive")
        if t < 0.0:
            raise ValueError("time must be nonnegative")
        if t == 0.0:
            return SampleBatch(np.zeros((n, self.triplet.dim)), t=0.0,
                               seed=seed, metadata={"scheme": "degenerate"})
        rng = np.random.default_rng(seed)
        points, masses, cov, shift, meta = self._prepared()
        L = self._factors.get(t)
        if L is None:
            L = self._factors[t] = _gaussian_factor(t * cov)
        values = rng.standard_normal((n, L.shape[0])) @ L.T + t * shift
        meta = dict(meta)
        if points.shape[0]:
            lam = t * masses
            if not np.max(lam) <= POISSON_LAM_MAX:
                raise ToleranceError(f"compound Poisson intensity "
                                     f"{np.max(lam):.3g} exceeds the limit "
                                     "of numpy's Poisson sampler")
            counts = rng.poisson(lam=lam, size=(n, masses.shape[0]))
            values = values + counts @ points
            meta["cp_intensity"] = float(t * np.sum(masses))
        return SampleBatch(values, t=float(t), seed=int(seed), metadata=meta)


def sample(triplet: tp.LevyTriplet, n: int, seed: int) -> SampleBatch:
    """Draw ``n`` iid samples from the law of ``X_1``."""
    return Sampler(triplet).draw(n, seed)


def conf_radius(n: int) -> float:
    """The one Monte Carlo radius rule: 3 sigma of an ECF value over ``n``
    draws (each has modulus at most 1, so sigma is at most 1/sqrt(n))."""
    return 3.0 / math.sqrt(n)


def expi(u: np.ndarray) -> np.ndarray:
    """``exp(1j * u)`` of real phases, bit for bit: ``cos u`` and ``sin u``
    written into the real and imaginary parts of one complex buffer."""
    out = np.empty(np.shape(u), dtype=complex)
    np.cos(u, out=out.real)
    np.sin(u, out=out.imag)
    np.add(out.imag, 0.0, out=out.imag)  # exp(1j * -0.0) is 1 + 0j, not 1 - 0j
    return out


def _mean_expi(phases, n: int, width: int):
    """``np.mean(expi(phases(0, n)), axis=0)`` bit for bit, with the phases
    of draws ``i:j`` formed by ``phases(i, j)`` one block at a time.

    That mean sums rows of ``width > 1`` phases row after row, so its sum
    is continued here from the running total over blocks of ``ECF_BLOCK``
    draws; a single column it sums pairwise, so that is summed whole.  No
    block has one row unless ``n`` is 1 (see ``ecf``).
    """
    step = ECF_BLOCK if width > 1 else n
    total = None
    i = 0
    while i < n:
        j = n if n - i <= step + 1 else i + step
        terms = expi(phases(i, j))
        if total is not None:
            terms = np.concatenate([total[None], terms])
        total = np.add.reduce(terms, axis=0)
        i = j
    return total / n


def ecf(values: np.ndarray, grid) -> EmpiricalCF:
    """Empirical characteristic function of the ``(n, d)`` draws ``values``
    on a grid, with the radius ``conf_radius(n)``.

    It equals ``np.mean(expi(values @ grid.T), axis=0)`` bit for bit, with
    no ``(n, m)`` array: ``_mean_expi`` forms the product block by block.
    Its blocks never have one row unless ``n`` is 1, because numpy forms a
    ``(1, d) @ (d, m)`` product by another path, whose last bits differ for
    ``d >= 2``.
    """
    zgrid = tp._as_grid(grid, values.shape[1])
    n = values.shape[0]
    radius = conf_radius(n)
    vals = _mean_expi(lambda i, j: values[i:j] @ zgrid.T, n, zgrid.shape[0])
    return EmpiricalCF(grid=zgrid, values=vals, conf_radius=radius)
