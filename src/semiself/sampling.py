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
    """Indices >= k_from carrying all but MASS_TOL of the segment mass."""
    if seg.kmin != ms.NEG_INF:
        k_from = max(k_from, int(seg.kmin))
    if seg.kmax != ms.POS_INF:
        if k_from > seg.kmax:
            return np.zeros(0, dtype=int)
        return np.arange(k_from, int(seg.kmax) + 1)
    if seg.r >= 1.0:
        raise ToleranceError("segment mass not summable upward")
    # w r^{K+1} / (1 - r) < MASS_TOL * w r^{k_from}
    extra = math.log(MASS_TOL * (1.0 - seg.r)) / math.log(seg.r)
    k_hi = k_from + max(int(math.ceil(extra)), 0) + 1
    return np.arange(k_from, k_hi + 1)


def _lattice_jump_pool(lat: ms.ScaleLattice, eps: float):
    """Split one lattice at radius ``eps``: (points, masses) above, and the
    exact (mean, cov) compensation moments of the part below."""
    d = lat.dim
    logb = math.log(lat.base)
    k_eps = int(math.ceil((math.log(eps) - math.log(lat.anchor)) / logb - 1e-12))
    radii, masses = [], []
    mean = np.zeros(d)
    cov = np.zeros((d, d))
    sigma2 = 0.0
    xi = lat.direction
    for seg in lat.segments:
        if seg.power:
            raise UnsupportedComponentError(
                "power-law lattice segments are not samplable")
        ks = _segment_upper_points(seg, lat, k_eps)
        if ks.size:
            radii.append(lat.radius(ks))
            masses.append(seg.mass(ks))
        # below eps: enumerate down; terms m(k) r_k^2 decay geometrically
        k = min(k_eps - 1, int(seg.kmax)) if seg.kmax != ms.POS_INF else k_eps - 1
        k_stop = int(seg.kmin) if seg.kmin != ms.NEG_INF else None
        steps = 0
        while k_stop is None or k >= k_stop:
            r = float(lat.radius(k))
            m = float(seg.mass(np.array([k]))[0])
            term2 = m * r * r
            sigma2 += term2
            mean += (m * r * r * r / (1.0 + r * r)) * xi
            cov += term2 * np.outer(xi, xi)
            if k_stop is None and term2 < 1e-16 * max(sigma2, 1e-300):
                break
            k -= 1
            steps += 1
            if steps > ms._ENUM_CAP:
                raise ToleranceError("small-jump enumeration cap exceeded")
    if radii:
        r_all = np.concatenate(radii)
        m_all = np.concatenate(masses)
        pts = r_all[:, None] * xi[None, :]
    else:
        pts = np.zeros((0, d))
        m_all = np.zeros(0)
    return pts, m_all, mean, cov, sigma2


def _choose_epsilon(lat: ms.ScaleLattice) -> float:
    """Largest lattice radius below 1 whose removed small-jump variance
    dominates the cutoff, sigma(eps)^2 >= COMPENSATION_FACTOR * eps^2."""
    k0 = int(math.floor(-math.log(lat.anchor) / math.log(lat.base)))
    for k in range(k0, k0 - 2000, -1):
        eps = float(lat.radius(k))
        if eps < EPS_FLOOR:
            return eps
        *_, sigma2 = _lattice_jump_pool(lat, eps)
        if sigma2 >= COMPENSATION_FACTOR * eps * eps:
            return eps
    return float(lat.radius(k0 - 2000))


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
            eps = _choose_epsilon(comp) if infinite_small else 0.0
            if infinite_small:
                pts, m, mu_c, cov_c, sigma2 = _lattice_jump_pool(comp, eps)
                mean += mu_c
                cov += cov_c
                meta = {"scheme": "gaussian_compensation",
                        "epsilon": eps,
                        "compensation_ratio": math.sqrt(sigma2) / eps if eps else None}
            else:
                k_lo = min(int(s.kmin) for s in comp.segments)
                pts, m, *_ = _lattice_jump_pool(comp, float(comp.radius(k_lo)))
            pts_list.append(pts)
            mass_list.append(m)
    if pts_list:
        points = np.concatenate(pts_list, axis=0)
        masses = np.concatenate(mass_list)
    else:
        points = np.zeros((0, d))
        masses = np.zeros(0)
    return points, masses, mean, cov, meta


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
    fresh ``sample`` call with the same arguments returns.
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
            counts = rng.poisson(lam=t * masses, size=(n, masses.shape[0]))
            values = values + counts @ points
            meta["cp_intensity"] = float(t * np.sum(masses))
        return SampleBatch(values, t=float(t), seed=int(seed), metadata=meta)


def sample(triplet: tp.LevyTriplet, n: int, seed: int, t: float = 1.0) -> SampleBatch:
    """Draw ``n`` iid samples from the law of ``X_t``."""
    return Sampler(triplet).draw(n, seed, t)


def conf_radius(n: int) -> float:
    """The one Monte Carlo radius rule: 3 sigma of an ECF value over ``n``
    draws (each has modulus at most 1, so sigma is at most 1/sqrt(n))."""
    return 3.0 / math.sqrt(n)


def ecf(values: np.ndarray, grid) -> EmpiricalCF:
    """Empirical characteristic function of the ``(n, d)`` draws ``values``
    on a grid, with the radius ``conf_radius(n)``."""
    zgrid = tp._as_grid(grid, values.shape[1])
    vals = np.mean(np.exp(1j * (values @ zgrid.T)), axis=0)
    return EmpiricalCF(grid=zgrid, values=vals,
                       conf_radius=conf_radius(values.shape[0]))
