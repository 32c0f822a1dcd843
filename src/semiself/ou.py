"""Discrete-kick Ornstein-Uhlenbeck type processes.

The process is piecewise constant with epochs at k/c; at each epoch the state
contracts by 1/b after absorbing one noise increment:

    Z_k = (Z_{k-1} + dX_k) / b,     dX_k iid distributed as X_{1/c}.

With a finite log-moment on the noise, Z_k converges in law to the limit with
cumulant ``(1/c) sum_{k>=0} C_{X_1}(b^{-k-1} z)``; without it the process
does not settle, which the divergence diagnostic detects through a one-step
characteristic-function bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mapping as mp
from . import measures as ms
from . import sampling as sp
from . import triplets as tp
from .errors import ToleranceError

DEFAULT_N = 100_000
LIMIT_TAIL_TOL = 1e-4       # cumulant bound of the dropped limit-series tail
STATIONARY_CHECKS = 5       # epochs checked for stationarity of a limit start
LIMIT_EPOCHS = 60           # epochs run by the limit-law validation
RESIDUAL_BLOCK = 1024       # paths per block of the Langevin residual


@dataclass(frozen=True)
class OUConfig:
    """Contraction span b > 1 and epoch rate c > 0; time starts at 0."""

    b: float
    c: float

    def __post_init__(self):
        mp.check_span(self.b)
        if self.c <= 0.0:
            raise ValueError("epoch rate c must be positive")

    def epoch(self, t: float) -> int:
        """Index of the last epoch at or before time t (state at k/c already
        includes the k-th kick)."""
        return int(math.floor(self.c * t + 1e-12))


@dataclass(frozen=True)
class PathBundle:
    """Simulated paths indexed by epoch; states are right-continuous."""

    config: OUConfig
    states: np.ndarray       # (n_paths, epochs + 1, d), states[:, 0] = M
    increments: np.ndarray   # (n_paths, epochs, d)
    seed: int

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def epochs(self) -> int:
        return self.increments.shape[1]

    @property
    def dim(self) -> int:
        return self.states.shape[2]

    def times(self) -> np.ndarray:
        return np.arange(self.epochs + 1) / self.config.c

    def head(self, n_paths: int, epochs: int) -> PathBundle:
        """The first ``n_paths`` paths over the first ``epochs`` epochs."""
        return PathBundle(self.config, self.states[:n_paths, :epochs + 1],
                          self.increments[:n_paths, :epochs], self.seed)

    def state_at(self, t: float) -> np.ndarray:
        k = self.config.epoch(t)
        if not 0 <= k <= self.epochs:
            raise ValueError("time outside the simulated window")
        return self.states[:, k, :]


def _resolve_init(init, n_paths: int, dim: int) -> np.ndarray:
    if isinstance(init, sp.SampleBatch):
        if init.n != n_paths or init.dim != dim:
            raise ValueError("initial batch shape mismatch")
        return np.asarray(init.values, dtype=float)
    m = np.asarray(init, dtype=float)
    if m.ndim <= 1:
        return np.broadcast_to(np.atleast_1d(m), (n_paths, dim)).copy()
    if m.shape != (n_paths, dim):
        raise ValueError("initial states must be (d,) or (n_paths, d)")
    return m.copy()


def _recursion(sampler: sp.Sampler, cfg: OUConfig, Z: np.ndarray,
               epochs: int, seed: int):
    """Yield ``(dX_k, Z_k)`` for k = 1..epochs, one draw of ``X_{1/c}`` per
    epoch from the prepared noise sampler."""
    seeds = np.random.SeedSequence(seed).generate_state(max(epochs, 1))
    for k in range(epochs):
        dX = sampler.draw(Z.shape[0], int(seeds[k]), t=1.0 / cfg.c).values
        Z = (Z + dX) / cfg.b
        yield dX, Z


def solve_path(noise: tp.LevyTriplet, cfg: OUConfig, init, epochs: int,
               n_paths: int = 1, seed: int = 0) -> PathBundle:
    """Run the epoch recursion from ``init`` for ``epochs`` kicks."""
    if epochs < 0:
        raise ValueError("epochs must be nonnegative")
    d = noise.dim
    Z = _resolve_init(init, n_paths, d)
    states = np.empty((n_paths, epochs + 1, d))
    states[:, 0, :] = Z
    increments = np.empty((n_paths, epochs, d))
    steps = _recursion(sp.Sampler(noise), cfg, Z, epochs, seed)
    for k, (dX, Z) in enumerate(steps):
        increments[:, k, :] = dX
        states[:, k + 1, :] = Z
    return PathBundle(config=cfg, states=states, increments=increments,
                      seed=int(seed))


def closed_form_states(bundle: PathBundle) -> np.ndarray:
    """States recomputed from the explicit solution
    ``Z_k = b^{-k} M + b^{-k} sum_l b^{l-1} dX_l``."""
    b = bundle.config.b
    K = bundle.epochs
    out = np.empty_like(bundle.states)
    out[:, 0, :] = bundle.states[:, 0, :]
    for k in range(1, K + 1):
        w = b ** (np.arange(1, k + 1) - 1.0 - k)        # b^{l-1-k}
        out[:, k, :] = b ** (-float(k)) * bundle.states[:, 0, :] + \
            np.einsum("l,nld->nd", w, bundle.increments[:, :k, :])
    return out


def verify_langevin(bundle: PathBundle) -> float:
    """Max relative residual of the pathwise balance identity

        Z_k - M - sum_{l<=k} dX_l + (b - 1) sum_{l<=k} Z_l = 0,

    over blocks of ``RESIDUAL_BLOCK`` paths, so that no temporary spans the
    bundle; the sums run along epochs within a path, so blocks do not change
    a bit of the value.
    """
    b = bundle.config.b
    peaks = []     # per block: max |Z|, max |sum dX|, max |residual|
    for i in range(0, bundle.n_paths, RESIDUAL_BLOCK):
        states = bundle.states[i:i + RESIDUAL_BLOCK]
        cum = np.cumsum(bundle.increments[i:i + RESIDUAL_BLOCK], axis=1)
        res = states[:, 1:, :] - states[:, :1, :]
        res -= cum
        dx_peak = np.max(np.abs(cum, out=cum), initial=0.0)
        np.cumsum(states[:, 1:, :], axis=1, out=cum)
        cum *= b - 1.0
        res += cum
        peaks.append((max(np.max(states), -np.min(states)), dx_peak,
                      np.max(np.abs(res, out=res), initial=0.0)))
    z_peak, dx_peak, res_peak = np.max(peaks, axis=0)
    return float(res_peak) / max(float(z_peak), float(dx_peak), 1.0)


# ---------------------------------------------------------------------------
# limit law


def limit_cumulant(noise: tp.LevyTriplet, cfg: OUConfig, z) -> tp.CumulantGrid:
    """Cumulant ``(1/c) sum_{k>=0} C_{X_1}(b^{-k-1} z)`` of the limit law.

    Requires a finite log-moment on the noise measure; raises DomainError
    otherwise (the recursion then has no limit in law).
    """
    out = mp.forward_cumulant(noise, cfg.b, z, m=0, arg_pow=-1,
                              tol=1e-10 * cfg.c)
    return tp.CumulantGrid(grid=out.grid, values=out.values / cfg.c,
                           err_bound=out.err_bound / cfg.c)


def transition_cumulant(noise: tp.LevyTriplet, cfg: OUConfig, s: float,
                        t: float, z, x=None) -> tp.CumulantGrid:
    """Cumulant of ``Z_t`` given ``Z_s = x``: the kernel is a deterministic
    contraction ``b^{-D} x`` plus D independent scaled kicks, D the number of
    epochs in (s, t], whose cumulant ``(1/c) sum_{k<D} C_{X_1}(b^{-k-1} z)``
    has its jump part as one series of D unit weights."""
    if t < s:
        raise ValueError("needs s <= t")
    delta = cfg.epoch(t) - cfg.epoch(s)
    if delta > 100_000:
        raise ToleranceError("transition window spans too many epochs")
    b = cfg.b
    zgrid = tp._as_grid(z, noise.dim)
    x = np.zeros(noise.dim) if x is None else np.atleast_1d(np.asarray(x, float))
    scales = b ** -np.arange(1.0, delta + 1.0)
    kicks = -0.5 * np.sum(scales * scales) * np.einsum(
        "ij,jk,ik->i", zgrid, noise.gauss, zgrid) \
        + 1j * np.sum(scales) * (zgrid @ noise.drift)
    jump, err = 0.0, 0.0
    if noise.levy.components:
        zmax = float(np.max(np.linalg.norm(zgrid, axis=1))) or 1.0
        jump, err = tp.jump_series(
            noise.levy, zgrid, b, -1, lambda xmax: [1.0] * delta,
            mp._series_envelope(b, 0, 1.0 / b, zmax), 1e-12)
    vals = 1j * b ** (-float(delta)) * (zgrid @ x) + (kicks + jump) / cfg.c
    return tp.CumulantGrid(grid=zgrid, values=vals,
                           err_bound=np.full(zgrid.shape[0], err / cfg.c))


def sample_limit_law(noise: tp.LevyTriplet, cfg: OUConfig, n: int, seed: int,
                     zmax: float = 5.0) -> sp.SampleBatch:
    """Draws from the limit law via the truncated series
    ``sum_{k<=K} b^{-k-1} dX_k`` with the discarded tail's cumulant bound
    below ``LIMIT_TAIL_TOL`` at |z| = zmax."""
    sampler = sp.Sampler(noise)      # validity before domain, as everywhere
    ms.require_log_moment(noise.levy)
    b, c = cfg.b, cfg.c
    # once C is in its near-linear regime terms shrink at least like 1/b
    K, bound = 8, math.inf
    while K < 400:
        term = abs(tp.cumulant_at(noise, b ** (-(K + 1.0)) *
                                  np.full(noise.dim, zmax / math.sqrt(noise.dim))))
        bound = term / c * b / (b - 1.0) * 2.0
        if bound < LIMIT_TAIL_TOL:
            break
        K += 4
    else:
        raise ToleranceError("limit-law truncation did not reach tolerance")
    seeds = np.random.SeedSequence(seed).generate_state(K + 1)
    total = np.zeros((n, noise.dim))
    for k in range(K + 1):
        total += b ** (-(k + 1.0)) * sampler.draw(n, int(seeds[k]),
                                                  t=1.0 / c).values
    return sp.SampleBatch(total, t=1.0 / c, seed=int(seed),
                          metadata={"scheme": "truncated_series",
                                    "terms": K + 1, "tail_bound": bound})


@dataclass(frozen=True)
class LimitReport:
    """Monte Carlo validation of convergence to the limit law."""

    grid: np.ndarray
    ecf_gap_first: float        # terminal ECF (first start) vs finite-epoch CF
    ecf_gap_second: float       # same for the second start
    start_gap: float            # terminal ECFs of the two starts vs each other
    limit_gap: float            # finite-epoch CF vs limit CF (truncation bias)
    stationary_gaps: tuple      # ECF-vs-limit gaps at checked epochs, limit start
    conf_radius: float
    ok: bool


def ecf_grid(dim: int) -> np.ndarray:
    """Grid on which simulated ECFs are checked against the exact
    characteristic function: 21 points per axis with |z| <= 3."""
    return mp.default_grid(dim, zmax=3.0, n=21)


def validate_limit(noise: tp.LevyTriplet, cfg: OUConfig, n: int = DEFAULT_N,
                   seed: int = 0) -> LimitReport:
    """Check that the recursion forgets its start and lands on the limit law,
    and that a limit-law start is stationary across epochs."""
    d = noise.dim
    zgrid = ecf_grid(d)
    radius = sp.conf_radius(n)

    lim = limit_cumulant(noise, cfg, zgrid)
    phi_lim = np.exp(lim.values)

    sampler = sp.Sampler(noise)
    checks = {max(1, LIMIT_EPOCHS - 1 - 2 * i)
              for i in range(STATIONARY_CHECKS)}

    def terminal(init, sd):
        # keeps the snapshot epochs only, never the whole state array
        Z = _resolve_init(init, n, d)
        snaps = {}
        steps = _recursion(sampler, cfg, Z, LIMIT_EPOCHS, sd)
        for k, (_, Z) in enumerate(steps, 1):
            if k in checks:
                snaps[k] = Z
        return Z, snaps

    m2 = np.full(d, 2.0)
    Z1, _ = terminal(np.zeros(d), seed)
    Z2, _ = terminal(m2, seed + 1)

    horizon = LIMIT_EPOCHS / cfg.c
    fin1 = transition_cumulant(noise, cfg, 0.0, horizon, zgrid, x=np.zeros(d))
    fin2 = transition_cumulant(noise, cfg, 0.0, horizon, zgrid, x=m2)

    def ecf_vals(Z):
        return sp.ecf(Z, zgrid).values

    e1, e2 = ecf_vals(Z1), ecf_vals(Z2)
    gap1 = float(np.max(np.abs(e1 - np.exp(fin1.values))))
    gap2 = float(np.max(np.abs(e2 - np.exp(fin2.values))))
    start_gap = float(np.max(np.abs(e1 - e2)))
    limit_gap = float(np.max(np.abs(np.exp(fin1.values) - phi_lim)))

    init_batch = sample_limit_law(noise, cfg, n, seed + 2,
                                  zmax=float(np.max(np.linalg.norm(zgrid, axis=1))))
    _, snaps = terminal(init_batch, seed + 3)
    stat_gaps = tuple(float(np.max(np.abs(ecf_vals(S) - phi_lim)))
                      for _, S in sorted(snaps.items()))
    bias = float(init_batch.metadata["tail_bound"])

    ok = (gap1 <= radius + limit_gap and gap2 <= radius + limit_gap
          and start_gap <= 2.0 * radius
          and all(g <= radius + bias for g in stat_gaps))
    return LimitReport(grid=zgrid, ecf_gap_first=gap1, ecf_gap_second=gap2,
                       start_gap=start_gap, limit_gap=limit_gap,
                       stationary_gaps=stat_gaps, conf_radius=radius, ok=ok)


# ---------------------------------------------------------------------------
# semi-stationarity


@dataclass(frozen=True)
class ShiftReport:
    """Joint-ECF comparison of ``(Z_t)_{t in times}`` against the same times
    shifted by ``shift``."""

    times: tuple
    shift: float
    marginal_gap: float
    joint_gap: float
    conf_radius: float

    def invariant(self) -> bool:
        return max(self.marginal_gap, self.joint_gap) <= 2.0 * self.conf_radius


def _limit_start_run(noise: tp.LevyTriplet, cfg: OUConfig, times, shift: float,
                     n: int, seed: int, epochs: int = 0):
    """Simulate from a limit-law start for at least ``epochs`` epochs and past
    every shifted time; return the bundle and its shift report."""
    times = tuple(float(t) for t in times)
    all_t = times + tuple(t + shift for t in times)
    if min(all_t) < 0.0:
        raise ValueError("times and shifted times must be nonnegative")
    zv = np.array([0.7, 1.9, 3.1])
    d = noise.dim
    zmax = float(np.max(np.abs(zv))) * math.sqrt(d) * 2.0

    init = sample_limit_law(noise, cfg, n, seed, zmax=zmax)
    epochs = max(epochs, cfg.epoch(max(all_t)))
    bundle = solve_path(noise, cfg, init, epochs, n_paths=n, seed=seed + 1)

    def line(t):
        # the state summed over coordinates, as (n, 1) draws
        return (bundle.state_at(t) @ np.ones(d))[:, None]

    def joint(pair_t):
        # E exp(i (z1 Z_{t1} + z2 Z_{t2})) over a small z1 x z2 grid, summed
        # by broadcasting: as an sp.ecf matmul the last bits would move
        s1, s2 = line(pair_t[0]), line(pair_t[1])
        ph = zv[None, :, None] * s1[:, :, None] + zv[None, None, :] * s2[:, :, None]
        return np.mean(sp.expi(ph), axis=0)

    marg_gap = 0.0
    for t in times:
        a = sp.ecf(line(t), zv).values
        b_ = sp.ecf(line(t + shift), zv).values
        marg_gap = max(marg_gap, float(np.max(np.abs(a - b_))))

    joint_gap = 0.0
    for i in range(len(times)):
        for j in range(i + 1, len(times)):
            g = np.abs(joint((times[i], times[j])) -
                       joint((times[i] + shift, times[j] + shift)))
            joint_gap = max(joint_gap, float(np.max(g)))

    return bundle, ShiftReport(times=times, shift=shift, marginal_gap=marg_gap,
                               joint_gap=joint_gap, conf_radius=sp.conf_radius(n))


def shift_invariance_gap(noise: tp.LevyTriplet, cfg: OUConfig, times, shift: float,
                         n: int = DEFAULT_N, seed: int = 0) -> ShiftReport:
    """Simulate from a limit-law start and measure how far the marginal and
    pairwise joint ECFs move under a time shift."""
    return _limit_start_run(noise, cfg, times, shift, n, seed)[1]


def semistationary_path(noise: tp.LevyTriplet, cfg: OUConfig, horizon: float,
                        n: int = DEFAULT_N, seed: int = 0):
    """Realize the process from a limit-law start over [0, horizon] and check
    shift-invariance of marginal and joint ECFs by one period 1/c, on one
    simulation that runs past both the horizon and the shifted times."""
    period = 1.0 / cfg.c
    upper = max(horizon - period, period)
    times = tuple(np.linspace(0.3 * period, upper, 3))
    epochs = cfg.epoch(horizon)
    bundle, report = _limit_start_run(noise, cfg, times, period, n, seed,
                                      epochs)
    # the recursion's first epochs do not depend on how many follow
    return bundle.head(n, epochs), report


# ---------------------------------------------------------------------------
# divergence diagnostic


@dataclass(frozen=True)
class DivergenceReport:
    """One-step characteristic function of the increment against its bound
    ``|E exp(i<b z0, Z_t - Z_{t - 1/c}>)| <= |CF_noise(z0)|^{1/c}``."""

    z0: np.ndarray
    times: tuple
    estimates: tuple
    bound: float
    conf_radius: float
    ok: bool


def divergence_diagnostic(noise: tp.LevyTriplet, cfg: OUConfig, z0, times,
                          n: int = DEFAULT_N, seed: int = 0) -> DivergenceReport:
    """The modulus stays below a constant < 1, so increments never die out:
    the process keeps moving instead of converging in probability."""
    z0 = np.atleast_1d(np.asarray(z0, dtype=float))
    re_c = tp.cumulant_at(noise, z0).real
    if re_c > -1e-12:
        raise ValueError("pick z0 with |CF(z0)| strictly below 1 "
                         "(deterministic noise is excluded)")
    bound = math.exp(re_c / cfg.c)
    times = tuple(float(t) for t in times)
    epochs = cfg.epoch(max(times))
    bundle = solve_path(noise, cfg, np.zeros(noise.dim), epochs, n_paths=n,
                        seed=seed)
    ests = []
    for t in times:
        k = cfg.epoch(t)
        if k < 1:
            raise ValueError("each time must lie at least one epoch in")
        diff = bundle.states[:, k, :] - bundle.states[:, k - 1, :]
        # not sp.ecf, which would reassociate the product b * (diff @ z0)
        ests.append(abs(complex(np.mean(sp.expi(cfg.b * (diff @ z0))))))
    radius = sp.conf_radius(n)
    ok = all(e <= bound + radius for e in ests)
    return DivergenceReport(z0=z0, times=times, estimates=tuple(ests),
                            bound=bound, conf_radius=radius, ok=ok)
