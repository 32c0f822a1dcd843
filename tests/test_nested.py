import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiself import mapping as mp
from semiself import measures as ms
from semiself import nested as nt
from semiself import triplets as tp


def test_iterated_gaussian_oracle():
    # m=1, b=2, z=1: -1/2 sum_j (j+1) 4^-j = -8/9
    v = nt.iterated_cumulant(tp.gaussian(1.0), 2.0, 1, 1.0).values[0]
    assert v == pytest.approx(-8.0 / 9.0, abs=1e-10)


def test_composition_matches_weighted_series():
    pu = tp.poisson_unit()
    z = np.linspace(-5.0, 5.0, 21)
    once = mp.forward_triplet(pu, 2.0)
    twice = mp.forward_cumulant(once, 2.0, z, tol=1e-10).values
    direct = nt.iterated_cumulant(pu, 2.0, 1, z).values
    np.testing.assert_allclose(twice, direct, atol=5e-8)


def test_iterated_triplet_gaussian():
    # two applications scale the variance by (1 - 1/4)^-2
    trip = nt.iterated_forward_triplet(tp.gaussian(1.0), 2.0, 1)
    assert trip.gauss[0, 0] == pytest.approx(16.0 / 9.0, abs=1e-14)
    z = np.linspace(-3.0, 3.0, 7)
    np.testing.assert_allclose(tp.cumulant(trip, z).values,
                               nt.iterated_cumulant(tp.gaussian(1.0), 2.0,
                                                    1, z).values,
                               atol=1e-10)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_semistable_ladder(alpha):
    mu = nt.semi_stable_triplet(nt.SemiStableSpec(b=2.0, alpha=alpha))
    cert = nt.is_nested_member(mu, 2.0, 5)
    assert all(cert.verdicts)
    w = cert.factors[0].levy.components[0].segments[0].w
    assert w == pytest.approx(1.0 - 2.0 ** (-alpha), abs=1e-14)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_semistable_fit_recovers_index(alpha):
    mu = nt.semi_stable_triplet(nt.SemiStableSpec(b=2.0, alpha=alpha))
    ss = nt.is_semi_stable(mu, 2.0)
    assert ss.verdict
    assert ss.a == pytest.approx(2.0 ** alpha, abs=1e-8)
    if alpha != 1.0:
        # strict drift chosen: no linear correction term
        assert float(np.max(np.abs(ss.c))) < 1e-8


def test_semistable_spec_validation():
    with pytest.raises(ValueError):
        nt.SemiStableSpec(b=2.0, alpha=2.0)
    with pytest.raises(ValueError):
        nt.SemiStableSpec(b=2.0, alpha=0.5, w=-1.0)


def test_poisson_fails_level_zero():
    cert = nt.is_nested_member(tp.poisson_unit(), 2.0, 0)
    assert not cert.verdict
    assert cert.first_violation is not None


def test_mapped_poisson_splits_levels():
    mapped = mp.forward_triplet(tp.poisson_unit(), 2.0)
    cert = nt.is_nested_member(mapped, 2.0, 1)
    assert cert.verdicts[0] and not cert.verdicts[1]


def test_gaussian_member_at_all_levels():
    cert = nt.is_nested_member(tp.gaussian(1.0), 2.0, 5)
    assert all(cert.verdicts)


def test_gaussian_is_stable_with_a4():
    ss = nt.is_semi_stable(tp.gaussian(1.0), 2.0)
    assert ss.verdict and ss.a == pytest.approx(4.0, abs=1e-10)
    assert ss.alpha == pytest.approx(2.0, abs=1e-10)


def test_poisson_not_semistable():
    assert not nt.is_semi_stable(tp.poisson_unit(), 2.0).verdict


@st.composite
def lattice_laws(draw):
    """One or two lattices on base ``b^(1/n)``, each geometric on all
    integers or cut at one or both ends, with a shared index ``alpha`` or
    not; ``(law, b, semi-stable by construction)``."""
    b = draw(st.sampled_from([2.0, 3.0]))
    alpha = draw(st.floats(0.2, 1.8))
    comps, indices, whole = [], set(), True
    for _ in range(draw(st.integers(1, 2))):
        n = draw(st.sampled_from([1, 2, 3]))
        own = draw(st.sampled_from([alpha, alpha, alpha + 0.15]))
        kmin = draw(st.sampled_from([ms.NEG_INF, ms.NEG_INF, -40, -3]))
        kmax = draw(st.sampled_from([ms.POS_INF, ms.POS_INF, 40, 5]))
        indices.add(own)
        whole &= kmin == ms.NEG_INF and kmax == ms.POS_INF
        comps.append(ms.ScaleLattice(
            [1.0], b ** (1.0 / n),
            (ms.Segment(draw(st.floats(0.1, 2.0)), b ** (-own / n), kmin,
                        kmax),), draw(st.floats(0.5, 2.0))))
    mu = tp.LevyTriplet(np.zeros((1, 1)), ms.LevyMeasure(tuple(comps)),
                        np.array([draw(st.floats(-1.0, 1.0))]))
    return mu, b, whole and len(indices) == 1


@settings(max_examples=40, deadline=None, derandomize=True)
@given(lattice_laws())
def test_semi_stable_laws_pass_the_whole_ladder(case):
    # the nested classes decrease to the closure of the semi-stable laws:
    # a semi-stable law is a span member and passes every level, and a law
    # that fails a level is not semi-stable
    mu, b, semi_stable = case
    ss = nt.is_semi_stable(mu, b)
    assert ss.verdict == semi_stable
    ladder = nt.is_nested_member(mu, b, nt.M_MAX)
    if ss.verdict:
        assert mp.inverse_factor(mu, b).nonnegative and ladder.verdict
        assert ss.witness is None
    else:
        assert ss.a is None and ss.witness is not None
    if not ladder.verdict:
        assert not ss.verdict
        # on a single lattice the first break is the ladder's index
        if len(mu.levy.components) == 1 and ladder.first_violation[0] == 0:
            assert ss.witness[1] == ladder.first_violation[1]


def test_semi_stable_verdict_reads_no_cumulant(monkeypatch):
    def no_cumulant(*args, **kwargs):
        raise AssertionError("tp.cumulant ran")

    monkeypatch.setattr(tp, "cumulant", no_cumulant)
    cut = ms.ScaleLattice([1.0], 2.0, (ms.Segment(1.0, 2 ** -1.5, -60, 60),))
    laws = [nt.semi_stable_triplet(nt.SemiStableSpec(b=2.0, alpha=1.5)),
            tp.gaussian(1.0), tp.poisson_unit(),
            tp.LevyTriplet(np.zeros((1, 1)), ms.LevyMeasure((cut,)),
                           np.zeros(1))]
    assert [nt.is_semi_stable(mu, 2.0).verdict for mu in laws] == [
        True, True, False, False]
    assert nt.is_semi_stable(laws[-1], 2.0).witness == [[1.0], -61]


def test_gaussian_beside_a_scaling_measure_is_not_semi_stable():
    mu = nt.semi_stable_triplet(nt.SemiStableSpec(b=2.0, alpha=1.0))
    mixed = tp.LevyTriplet(np.eye(1), mu.levy, mu.drift)
    ss = nt.is_semi_stable(mixed, 2.0)
    assert not ss.verdict and ss.witness is None


def test_level_cap():
    with pytest.raises(ValueError):
        nt.is_nested_member(tp.gaussian(1.0), 2.0, nt.M_MAX + 1)
