import math

import numpy as np
import pytest

from semiself import mapping as mp
from semiself import measures as ms
from semiself import nested as nt
from semiself import suites
from semiself import triplets as tp
from semiself.errors import DomainError, InvalidTripletError


def test_check_span_rejects_unit():
    with pytest.raises(ValueError):
        mp.check_span(1.0)
    assert mp.check_span(2.0) == 2.0


def test_forward_gaussian_oracle():
    # sum_j -(2^-j z)^2 / 2 = -z^2/2 * 1/(1 - 1/4) = -2/3 at z = 1
    v = mp.forward_cumulant(tp.gaussian(1.0), 2.0, 1.0).values[0]
    assert v == pytest.approx(-2.0 / 3.0, abs=1e-10)


def test_forward_variance_oracle():
    fwd = mp.forward_triplet(tp.gaussian(1.0), 2.0)
    assert fwd.gauss[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-14)


def test_forward_drift_closed_form():
    fwd = mp.forward_triplet(tp.gaussian(1.0, drift=0.6), 2.0)
    assert fwd.drift[0] == pytest.approx(0.6 / (1.0 - 0.5), abs=1e-14)


def test_forward_cumulant_matches_direct_series(cp1):
    z = np.linspace(-5.0, 5.0, 11)
    lib = mp.forward_cumulant(cp1, 2.0, z, tol=1e-12).values
    direct = sum(tp.cumulant(cp1, z / 2.0 ** j).values for j in range(120))
    np.testing.assert_allclose(lib, direct, atol=1e-10)


def test_forward_triplet_matches_series_cumulant(lat1):
    z = np.linspace(-5.0, 5.0, 11)
    fwd = mp.forward_triplet(lat1, 2.0, tol=1e-12)
    series = mp.forward_cumulant(lat1, 2.0, z, tol=1e-12).values
    got = tp.cumulant(fwd, z).values
    np.testing.assert_allclose(got, series, atol=1e-10)


def test_roundtrip_identity(gauss1, cp1, lat1):
    for mu in (gauss1, cp1, lat1):
        fwd = mp.forward_triplet(mu, 2.0, tol=1e-12)
        inv = mp.inverse_factor(fwd, 2.0, tol=1e-12)
        assert inv.nonnegative
        np.testing.assert_allclose(inv.rho.gauss, mu.gauss, atol=1e-11)
        np.testing.assert_allclose(inv.rho.drift, mu.drift, atol=1e-11)
        z = np.linspace(-4.0, 4.0, 9)
        np.testing.assert_allclose(tp.cumulant(inv.rho, z).values,
                                   tp.cumulant(mu, z).values, atol=1e-10)


def test_factorization_identity(lat1):
    fwd = mp.forward_triplet(lat1, 2.0, tol=1e-12)
    inv = mp.inverse_factor(fwd, 2.0, tol=1e-12)
    rep = mp.factorization_check(fwd, inv.rho, 2.0, mp.default_grid(1))
    assert rep.max_residual < 1e-10


def test_domain_violation_raises():
    heavy = tp.LevyTriplet(
        np.zeros((1, 1)),
        ms.LevyMeasure((ms.ScaleLattice(
            [1.0], 2.0, (ms.Segment(w=1.0, r=1.0, kmin=1, power=2),)),)),
        np.zeros(1))
    with pytest.raises(DomainError):
        mp.forward_cumulant(heavy, 2.0, 1.0)
    with pytest.raises(DomainError):
        mp.forward_triplet(heavy, 2.0)


def test_membership_verdicts(gauss1):
    assert mp.is_semi_selfdecomposable(gauss1, 2.0).verdict
    cert = mp.is_semi_selfdecomposable(tp.poisson_unit(), 2.0)
    assert not cert.verdict
    assert cert.violations


def test_membership_of_mapped_law(cp1):
    fwd = mp.forward_triplet(cp1, 2.0)
    cert = mp.is_semi_selfdecomposable(fwd, 2.0)
    assert cert.verdict
    # the recovered factor matches the input law
    z = np.linspace(-3.0, 3.0, 7)
    np.testing.assert_allclose(tp.cumulant(cert.factor, z).values,
                               tp.cumulant(cp1, z).values, atol=1e-9)


def test_default_grid_shape():
    grid = mp.default_grid(2, zmax=5.0, n=11)
    assert grid.shape == (22, 2)
    assert float(np.max(np.linalg.norm(grid, axis=1))) <= 5.0 + 1e-12


def test_inherited_verdicts_are_sound(monkeypatch):
    # forward images and nonnegative inverse factors take the verdict of a
    # valid input without validation; validating them afresh must agree
    images = []
    for d in (1, 2):
        for b in (1.1, 2.0, 10.0):
            for mu in suites.corpus(d, b):
                fwd = mp.forward_triplet(mu, b, tol=1e-12)
                images += [fwd, mp.inverse_factor(fwd, b, tol=1e-12).rho]
                inv = mp.inverse_factor(mu, b, tol=1e-12)
                if inv.nonnegative:
                    images.append(inv.rho)
    for alpha in (0.5, 1.0, 1.5):
        mu = nt.semi_stable_triplet(nt.SemiStableSpec(b=2.0, alpha=alpha))
        cert = nt.is_nested_member(mu, 2.0, 5)
        assert all(cert.verdicts)
        images += cert.factors
    validate = tp.validate
    calls = []
    monkeypatch.setattr(tp, "validate", lambda t: calls.append(t) or validate(t))
    for law in images:
        tp.require_valid(law)
    assert calls == []
    assert all(validate(law) == () for law in images)


def test_signed_factor_is_not_vouched_for():
    inv = mp.inverse_factor(tp.poisson_unit(), 2.0)
    assert not inv.nonnegative
    with pytest.raises(InvalidTripletError, match="negative lattice mass"):
        tp.require_valid(inv.rho)


def test_inverse_factor_enumerates_each_component_once(monkeypatch):
    # the drift shift walks the atoms and the lattice once each; validity,
    # already shown, walks nothing
    lat = ms.ScaleLattice([1.0], 2.0, (ms.Segment(w=0.5, r=0.3, kmin=-2),))
    mu = tp.LevyTriplet(np.eye(1), ms.LevyMeasure(
        (lat, ms.Atoms([[0.7], [-1.9]], [0.5, 0.25]))), [0.1])
    tp.require_valid(mu)
    calls = []
    enumerate_component = ms._enumerate_component

    def counted(comp, env, tol):
        calls.append(comp)
        return enumerate_component(comp, env, tol)

    monkeypatch.setattr(ms, "_enumerate_component", counted)
    mp.inverse_factor(mu, 2.0)
    assert calls == list(mu.levy.components)


def _direct_double_sum(rho, b, zgrid, m, arg_pow, terms=240):
    """``sum_x nu(x) sum_{j < terms} C(j+m, m) g(b^(arg_pow - j) z, x)`` for
    a measure of atoms and finite lattices, one (point, term) cell at a
    time."""
    total = np.zeros(zgrid.shape[0], dtype=complex)
    for comp in rho.levy.components:
        if isinstance(comp, ms.Atoms):
            pts, wts = comp.points, comp.weights
        else:
            ks = np.concatenate([np.arange(s.kmin, s.kmax + 1)
                                 for s in comp.segments])
            wts = np.concatenate([s.mass(np.arange(s.kmin, s.kmax + 1))
                                  for s in comp.segments])
            pts = comp.radius(ks)[:, None] * comp.direction[None, :]
        for j in range(terms):
            g = tp.centered_exp_integrand(b ** (arg_pow - j) * zgrid, pts)
            total += math.comb(j + m, m) * (wts @ g)
    return total


# finite lattices on the span's base whose windows straddle radius 1; the
# deep one has r * b < 1, where the phase index sum's masses below radius 1
# reach 4e23, so only its terms O(theta^2) in the phase keep them bounded
REGROUP_CASES = {
    "1d": (2.0, [1.0], 0.7, (ms.Segment(w=0.9, r=0.5, kmin=-6, kmax=10),),
           None),
    "1d-deep": (2.0, [-1.0], 1.0,
                (ms.Segment(w=0.5, r=0.4, kmin=-60, kmax=6),), None),
    "2d-signed-power": (
        2.5, [0.6, -0.8], 1.3,
        (ms.Segment(w=1.0, r=0.6, kmin=-5, kmax=8),
         ms.Segment(w=-0.3, r=0.6, kmin=0, kmax=4),
         ms.Segment(w=0.5, r=1.0, kmin=1, kmax=9, power=3)),
        ms.Atoms([[0.4, 0.3], [-2.0, 1.0]], [0.6, 0.2])),
}


@pytest.mark.parametrize("case", sorted(REGROUP_CASES))
@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("arg_pow", [0, -1])
def test_regrouped_series_matches_per_point_sum(case, m, arg_pow):
    b, direction, anchor, segments, atoms = REGROUP_CASES[case]
    lat = ms.ScaleLattice(direction, b, segments, anchor)
    assert np.min(lat.radius([s.kmin for s in segments])) < 1.0 < \
        np.max(lat.radius([s.kmax for s in segments]))
    comps = (lat,) if atoms is None else (atoms, lat)
    d = len(direction)
    rho = tp.LevyTriplet(np.zeros((d, d)), ms.LevyMeasure(comps), np.zeros(d))
    zgrid = mp.default_grid(d, zmax=3.0, n=7)
    got = mp.forward_cumulant(rho, b, zgrid, m=m, arg_pow=arg_pow)
    want = _direct_double_sum(rho, b, zgrid, m, arg_pow)
    miss = np.abs(got.values - want)
    assert np.all(miss <= got.err_bound + 1e-13 * (1.0 + np.abs(want)))
