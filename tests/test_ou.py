import math
import tracemalloc

import numpy as np
import pytest

from semiself import measures as ms
from semiself import ou
from semiself import triplets as tp
from semiself.errors import DomainError


CFG = ou.OUConfig(b=2.0, c=1.0)


def test_epoch_counter():
    cfg = ou.OUConfig(b=2.0, c=2.0)
    assert cfg.epoch(0.49) == 0
    assert cfg.epoch(0.5) == 1
    assert cfg.epoch(1.75) == 3


def test_langevin_identity_holds():
    bundle = ou.solve_path(tp.gaussian(1.0), CFG, np.zeros(1), epochs=200,
                           n_paths=50, seed=7)
    assert ou.verify_langevin(bundle) < 1e-10


def _whole_array_residual(bundle):
    """The balance residual in whole-bundle arrays, one formula."""
    b, st = bundle.config.b, bundle.states
    cum_dx = np.cumsum(bundle.increments, axis=1)
    res = st[:, 1:, :] - st[:, :1, :] - cum_dx + (b - 1.0) * np.cumsum(
        st[:, 1:, :], axis=1)
    scale = max(float(np.max(np.abs(st))),
                float(np.max(np.abs(cum_dx), initial=0.0)), 1.0)
    return float(np.max(np.abs(res), initial=0.0)) / scale


@pytest.mark.parametrize("n,K,d", [(1, 0, 1), (1, 5, 2), (2500, 37, 2),
                                   (3000, 200, 1), (5, 1, 3)])
def test_blockwise_residual_is_bit_equal(n, K, d):
    # states off the recursion, so the residual is far from rounding level
    rng = np.random.default_rng(n + K + d)
    bundle = ou.PathBundle(ou.OUConfig(b=1.7, c=1.0),
                           10.0 * rng.standard_normal((n, K + 1, d)),
                           rng.standard_normal((n, K, d)), seed=0)
    assert ou.verify_langevin(bundle) == _whole_array_residual(bundle)


def test_blockwise_residual_of_solved_paths(cp1):
    for n, epochs in ((1, 3), (2049, 12)):
        bundle = ou.solve_path(cp1, CFG, np.full(1, 1.5), epochs=epochs,
                               n_paths=n, seed=5)
        assert ou.verify_langevin(bundle) == _whole_array_residual(bundle)


def test_langevin_residual_allocates_one_block():
    n, K = 20_000, 200
    bundle = ou.PathBundle(CFG, np.ones((n, K + 1, 1)), np.ones((n, K, 1)), 0)
    tracemalloc.start()
    try:
        ou.verify_langevin(bundle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20      # the whole-array formula takes ~128 MB


def test_closed_form_matches_recursion(cp1):
    bundle = ou.solve_path(cp1, CFG, np.full(1, 1.5), epochs=40,
                           n_paths=20, seed=3)
    np.testing.assert_allclose(ou.closed_form_states(bundle), bundle.states,
                               atol=1e-12)


def test_zero_epochs_is_initial_state():
    bundle = ou.solve_path(tp.gaussian(1.0), CFG, np.full(1, 2.5), epochs=0,
                           n_paths=4, seed=0)
    np.testing.assert_allclose(bundle.states[:, 0, :], 2.5)
    assert bundle.states.shape == (4, 1, 1)


def test_limit_cumulant_gaussian_oracle():
    # (1/c) sum_k -(b^-k-1 z)^2/2 = -z^2/6 at b=2, c=1, z=1
    v = ou.limit_cumulant(tp.gaussian(1.0), CFG, 1.0).values[0]
    assert v == pytest.approx(-1.0 / 6.0, abs=1e-10)


def test_limit_requires_log_moment():
    heavy = tp.LevyTriplet(
        np.zeros((1, 1)),
        ms.LevyMeasure((ms.ScaleLattice(
            [1.0], 2.0, (ms.Segment(w=1.0, r=1.0, kmin=1, power=2),)),)),
        np.zeros(1))
    with pytest.raises(DomainError):
        ou.limit_cumulant(heavy, CFG, 1.0)
    with pytest.raises(DomainError):
        ou.sample_limit_law(heavy, CFG, 10, 0)


def test_transition_kernel_additivity():
    z = np.linspace(-4.0, 4.0, 9)
    g = tp.gaussian(1.0)
    first = ou.transition_cumulant(g, CFG, 0.0, 3.0, 2.0 ** (-4.0) * z).values
    second = ou.transition_cumulant(g, CFG, 3.0, 7.0, z).values
    full = ou.transition_cumulant(g, CFG, 0.0, 7.0, z).values
    np.testing.assert_allclose(first + second, full, atol=1e-12)


def test_transition_zero_epochs_is_deterministic():
    out = ou.transition_cumulant(tp.gaussian(1.0), CFG, 0.1, 0.2, 1.0,
                                 x=np.array([3.0]))
    assert out.values[0] == pytest.approx(3.0j, abs=1e-14)


def _lattice_noise(direction, anchor, *extra):
    d = len(direction)
    lat = ms.ScaleLattice(direction, 2.0, (ms.Segment(w=0.8, r=0.47),), anchor)
    return tp.LevyTriplet(0.2 * np.eye(d), ms.LevyMeasure((lat,) + extra),
                          np.full(d, 0.1))


# (b, c, noise): atoms beside a Gaussian part; a base-2 lattice over all
# integers at its own base, where its points beyond radius 1 are summed by
# phase index, and off it; a 2-D lattice beside atoms
TRANSITION_CASES = {
    "atoms": (2.05, 2.0, tp.LevyTriplet(
        [[0.3]], ms.LevyMeasure((ms.Atoms([[0.7], [-1.6]], [0.8, 0.3]),)),
        [0.2])),
    "lattice-b2": (2.0, 1.0, _lattice_noise([1.0], 1.3)),
    "lattice-b1.95": (1.95, 1.0, _lattice_noise([1.0], 1.3)),
    "2d": (2.0, 1.0, _lattice_noise([0.6, -0.8], 0.7, ms.Atoms(
        [[0.4, 0.3], [-2.0, 1.0]], [0.6, 0.2]))),
}


@pytest.mark.parametrize("case", sorted(TRANSITION_CASES))
@pytest.mark.parametrize("delta", [0, 1, 60])
def test_transition_matches_per_epoch_cumulants(case, delta):
    # the kernel against one tp.cumulant per epoch at a far smaller tol
    b, c, noise = TRANSITION_CASES[case]
    cfg = ou.OUConfig(b, c)
    zgrid = ou.ecf_grid(noise.dim)
    x = np.linspace(-1.0, 1.5, noise.dim)
    got = ou.transition_cumulant(noise, cfg, 0.0, delta / c, zgrid, x=x)
    want = 1j * b ** -float(delta) * (zgrid @ x)
    want_err = 0.0
    for k in range(delta):
        g = tp.cumulant(noise, zgrid, tol=1e-16, arg_pow=(b, -(k + 1)))
        want = want + g.values / c
        want_err += g.max_err() / c
    # neither bound counts rounding: atoms, with no tail, differ by 2 ulps
    rounding = 8.0 * 2.0 ** -53 * (1.0 + np.abs(want))
    assert np.all(np.abs(got.values - want)
                  <= got.err_bound + want_err + rounding)


def test_transition_enumerates_each_lattice_once(monkeypatch):
    calls = []
    enumerate_component = ms._enumerate_component

    def counted(lat, env, tol):
        calls.append(lat)
        return enumerate_component(lat, env, tol)

    monkeypatch.setattr(ms, "_enumerate_component", counted)
    other = ms.ScaleLattice([-1.0], 1.5, (ms.Segment(w=0.4, r=0.5, kmin=-3),))
    noise = _lattice_noise([1.0], 1.3, other, ms.Atoms([[0.7]], [0.5]))
    ou.transition_cumulant(noise, CFG, 0.0, 60.0, ou.ecf_grid(1))
    assert calls == list(noise.levy.components[:2])


def test_divergence_bound_oracle():
    div = ou.divergence_diagnostic(tp.poisson_unit(), CFG, [math.pi],
                                   [10.0, 20.0], n=5000, seed=11)
    assert div.bound == pytest.approx(math.exp(-2.0), abs=1e-12)
    assert div.ok


def test_divergence_rejects_degenerate_argument():
    with pytest.raises(ValueError):
        ou.divergence_diagnostic(tp.gaussian(0.0), CFG, [0.0], [10.0])


def test_seeded_paths_reproducible(cp1):
    a = ou.solve_path(cp1, CFG, np.zeros(1), epochs=10, n_paths=5, seed=9)
    b = ou.solve_path(cp1, CFG, np.zeros(1), epochs=10, n_paths=5, seed=9)
    np.testing.assert_array_equal(a.states, b.states)
    c = ou.solve_path(cp1, CFG, np.zeros(1), epochs=10, n_paths=5, seed=10)
    assert not np.array_equal(b.states, c.states)


def test_state_at_floor_semantics():
    bundle = ou.solve_path(tp.gaussian(1.0), CFG, np.zeros(1), epochs=5,
                           n_paths=3, seed=1)
    np.testing.assert_array_equal(bundle.state_at(2.9),
                                  bundle.states[:, 2, :])


def test_semistationary_path_simulates_once(monkeypatch):
    calls = []
    for name in ("sample_limit_law", "solve_path"):
        fn = getattr(ou, name)
        monkeypatch.setattr(ou, name, lambda *a, _fn=fn, _name=name, **k:
                            calls.append(_name) or _fn(*a, **k))
    noise = tp.poisson_unit()
    bundle, report = ou.semistationary_path(noise, CFG, 1.0, n=300, seed=4)
    assert sorted(calls) == ["sample_limit_law", "solve_path"]
    assert bundle.epochs == 1 and bundle.states.shape == (300, 2, 1)
    # the report is the one a separate shift-invariance run gives
    assert report == ou.shift_invariance_gap(noise, CFG, report.times, 1.0,
                                             n=300, seed=4)


def test_validate_limit_in_two_dimensions():
    rep = ou.validate_limit(tp.gaussian(np.eye(2)), CFG, n=20_000, seed=0)
    assert rep.grid.shape == (42, 2)
    assert rep.ok
