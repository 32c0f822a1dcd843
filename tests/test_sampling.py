import math
import tracemalloc

import numpy as np
import pytest

from semiself import measures as ms
from semiself import nested as nt
from semiself import sampling as sp
from semiself import triplets as tp


def test_gaussian_moments():
    batch = sp.sample(tp.gaussian(2.0, drift=1.0), 50_000, seed=1)
    assert batch.values.shape == (50_000, 1)
    assert float(np.mean(batch.values)) == pytest.approx(1.0, abs=0.05)
    assert float(np.var(batch.values)) == pytest.approx(2.0, rel=0.05)


def test_seed_determinism(cp1):
    a = sp.sample(cp1, 1000, seed=5)
    b = sp.sample(cp1, 1000, seed=5)
    np.testing.assert_array_equal(a.values, b.values)


def test_time_zero_degenerate(cp1):
    batch = sp.Sampler(cp1).draw(10, 0, 0.0)
    np.testing.assert_array_equal(batch.values, 0.0)


def test_compound_poisson_ecf_matches_cf(cp1):
    n = 40_000
    batch = sp.sample(cp1, n, seed=2)
    grid = np.linspace(-3.0, 3.0, 13)
    emp = sp.ecf(batch.values, grid)
    want = np.exp(tp.cumulant(cp1, grid).values)
    assert float(np.max(np.abs(emp.values - want))) <= emp.conf_radius


def test_convolution_time_scaling(cp1):
    # X_2 has cumulant 2 C; check via ECF
    n = 40_000
    batch = sp.Sampler(cp1).draw(n, 3, 2.0)
    grid = np.linspace(-2.0, 2.0, 9)
    emp = sp.ecf(batch.values, grid)
    want = np.exp(2.0 * tp.cumulant(cp1, grid).values)
    assert float(np.max(np.abs(emp.values - want))) <= emp.conf_radius


def test_infinite_activity_lattice_compensated():
    mu = nt.semi_stable_triplet(nt.SemiStableSpec(b=2.0, alpha=1.0))
    n = 40_000
    batch = sp.sample(mu, n, seed=4)
    assert batch.metadata["scheme"] == "gaussian_compensation"
    grid = np.linspace(-2.0, 2.0, 9)
    emp = sp.ecf(batch.values, grid)
    want = np.exp(tp.cumulant(mu, grid).values)
    # truncation bias plus MC radius
    assert float(np.max(np.abs(emp.values - want))) <= emp.conf_radius + 1e-2


def test_ecf_radius_scaling(cp1):
    batch = sp.sample(cp1, 10_000, seed=6)
    emp = sp.ecf(batch.values, np.array([1.0]))
    assert emp.conf_radius == pytest.approx(3.0 / math.sqrt(10_000))


def test_two_dim_sampling():
    A = np.array([[1.0, 0.3], [0.3, 0.5]])
    batch = sp.sample(tp.gaussian(A), 60_000, seed=7)
    cov = np.cov(batch.values.T)
    np.testing.assert_allclose(cov, A, atol=0.03)


def test_rejects_nonpositive_n(cp1):
    with pytest.raises(ValueError):
        sp.sample(cp1, 0, seed=0)


def test_sampler_draw_matches_sample(cp1):
    mu = nt.semi_stable_triplet(nt.SemiStableSpec(b=2.0, alpha=1.0))
    for law in (cp1, mu):
        sampler = sp.Sampler(law)
        for t in (1.0, 0.5, 2.0, 0.5, 0.0):
            a = sampler.draw(500, 9, t)
            b = sp.Sampler(law).draw(500, 9, t)
            np.testing.assert_array_equal(a.values, b.values)
            assert a.metadata == b.metadata
        a, b = sampler.draw(500, 9), sp.sample(law, 500, 9)
        np.testing.assert_array_equal(a.values, b.values)
        assert a.metadata == b.metadata


def test_solve_path_builds_jump_pools_once(monkeypatch):
    from semiself import ou
    mu = nt.semi_stable_triplet(nt.SemiStableSpec(b=2.0, alpha=1.0))
    calls = []
    build = sp._jump_pools

    def counted(*args):
        calls.append(1)
        return build(*args)

    monkeypatch.setattr(sp, "_jump_pools", counted)
    ou.solve_path(mu, ou.OUConfig(b=2.0, c=1.0), np.zeros(1), epochs=12,
                  n_paths=50, seed=3)
    assert len(calls) == 1


def test_expi_is_complex_exp_bit_for_bit():
    rng = np.random.default_rng(8)
    u = np.concatenate([rng.standard_normal(5000) * 10.0 ** rng.integers(
        -12, 7, 5000), [0.0, -0.0, math.pi, 1e6, -3e5]]).reshape(5, -1, 1)
    got, want = sp.expi(u), np.exp(1j * u)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert np.mean(got, axis=0).tobytes() == np.mean(want, axis=0).tobytes()


@pytest.mark.parametrize("n,d,m", [(1, 1, 1), (5, 2, 3), (1023, 1, 21),
                                   (1025, 2, 42), (1025, 3, 9), (20_001, 1, 1),
                                   (20_001, 3, 9)])
def test_blockwise_ecf_is_the_mean_bit_for_bit(n, d, m):
    rng = np.random.default_rng(n + d + m)
    values = 4.0 * rng.standard_normal((n, d))
    grid = rng.standard_normal((m, d))
    want = np.mean(sp.expi(values @ grid.T), axis=0)
    assert sp.ecf(values, grid).values.tobytes() == want.tobytes()


def test_ecf_allocates_no_complex_grid_of_draws():
    rng = np.random.default_rng(3)
    values, grid = rng.standard_normal((20_000, 2)), rng.standard_normal((42, 2))
    tracemalloc.start()
    try:
        sp.ecf(values, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the blockwise sum peaks near 1.6 MB; the whole (n, m) phase array
    # alone took 6.7 MB (7.7 MB at peak), and as complex values 20 MB
    assert peak < 2 * 2 ** 20


@pytest.mark.parametrize("n", [1, 2, 1025, 20_001])
@pytest.mark.parametrize("row", [(21,), (3, 3), ()],
                         ids=["n-21", "n-3-3", "n"])
def test_blockwise_mean_keeps_the_order_of_summation(n, row):
    phases = 4.0 * np.random.default_rng(n).standard_normal((n, *row))
    want = np.mean(sp.expi(phases), axis=0)
    got = sp._mean_expi(lambda i, j: phases[i:j], n, math.prod(row))
    assert got.tobytes() == want.tobytes()
