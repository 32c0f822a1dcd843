import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiself import measures as ms
from semiself import triplets as tp


def test_gaussian_cumulant_oracle():
    g = tp.gaussian(2.0, drift=0.5)
    z = 1.5
    v = tp.cumulant_at(g, z)
    assert v == pytest.approx(-0.5 * 2.0 * z * z + 0.5j * z, abs=1e-14)


def test_poisson_cumulant_oracle():
    pu = tp.compound_poisson([[1.0]], [3.0], drift=[1.5])
    z = 0.7
    want = 3.0 * (np.exp(1j * z) - 1.0)
    assert tp.cumulant_at(pu, z) == pytest.approx(want, abs=1e-12)


def test_cumulant_zero_at_origin(lat1):
    assert tp.cumulant_at(lat1, 0.0) == pytest.approx(0.0, abs=1e-14)


def test_compound_poisson_oracle():
    cp = tp.compound_poisson([[2.0]], [1.0])
    z = 1.0
    # e^{2iz} - 1 - 2iz/5
    want = np.exp(2j * z) - 1.0 - 2j * z / 5.0
    assert tp.cumulant_at(cp, z) == pytest.approx(want, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-8.0, max_value=8.0))
def test_conjugate_symmetry_and_negativity(z):
    mu = tp.compound_poisson([[1.0], [-0.4]], [0.8, 0.5], drift=0.3)
    a = tp.cumulant_at(mu, z)
    b = tp.cumulant_at(mu, -z)
    assert a == pytest.approx(np.conj(b), abs=1e-12)
    assert a.real <= 1e-12


def test_lattice_cumulant_matches_brute_force(lat1):
    """Independent oracle: term-by-term sum with high-precision phases."""
    z = 3.0
    comp = lat1.levy.components[0]
    with localcontext() as ctx:
        ctx.prec = 80
        two_pi = Decimal(
            "6.28318530717958647692528676655900576839433879875021164194988918461563281257")
        total = complex(-0.5 * 0.5 * z * z, 0.3 * z)
        for k in range(-30, 80):
            m = float(sum(s.mass(np.array([k])) for s in comp.segments)[0])
            if m == 0.0:
                continue
            x = float(comp.radius(k))
            theta = float((Decimal(z) * (Decimal(2) ** k)) % two_pi)
            total += m * (np.exp(1j * theta) - 1.0 - 1j * z * x / (1.0 + x * x))
    lib = tp.cumulant_at(lat1, z)
    assert lib == pytest.approx(total, abs=1e-11)


def test_cumulant_arg_pow_matches_plain_scaling():
    mu = tp.compound_poisson([[1.0]], [1.0])
    direct = tp.cumulant_at(mu, 2.5 / 2.0)
    scaled = tp.cumulant(mu, 2.5, arg_pow=(2.0, -1)).values[0]
    assert scaled == pytest.approx(direct, abs=1e-14)


@pytest.mark.parametrize("law", ["cp1", "lat1"])
def test_centering_shift_pushes_argument(request, law):
    # s X has the measure pushed to s x and the drift s gamma plus the
    # centering shift, so C_{sX}(z) = C_X(s z)
    mu, z, s = request.getfixturevalue(law), 1.1, 3.0
    comps = tuple(ms.Atoms(s * c.points, c.weights)
                  if isinstance(c, ms.Atoms) else
                  ms.ScaleLattice(c.direction, c.base, c.segments, s * c.anchor)
                  for c in mu.levy.components)
    shift, err = tp.centering_shift(mu.levy, s, 1e-12)
    sx = tp.LevyTriplet(s * s * mu.gauss, ms.LevyMeasure(comps),
                        s * mu.drift + shift)
    assert err <= 1e-12
    assert tp.cumulant_at(sx, z) == pytest.approx(
        tp.cumulant_at(mu, s * z), abs=1e-10)


def test_validate_rejects_asymmetric_gauss():
    bad = tp.LevyTriplet(np.array([[1.0, 0.5], [0.0, 1.0]]), ms.EMPTY,
                         np.zeros(2))
    assert tp.validate(bad) == ("gaussian matrix not symmetric",)


def test_validate_accepts_corpus(gauss1, cp1, lat1):
    for mu in (gauss1, cp1, lat1):
        assert tp.validate(mu) == ()


def test_grid_shapes(lat1):
    out = tp.cumulant(lat1, np.linspace(-2, 2, 7))
    assert out.values.shape == (7,)
    assert out.grid.shape == (7, 1)
    assert np.all(out.err_bound >= 0.0)


def _phase_case(power, lattice):
    comp, ks = lattice
    zbase = np.array([[0.7], [1.3], [-2.1], [0.0]])
    pts = comp.radius(ks)[:, None] * comp.direction[None, :]
    return pts @ (zbase * 2.0 ** power).T, zbase


def test_reduced_phases_fold_without_cache_keeps_the_scale():
    # the scale 2**-3 inside the exact product equals reducing the exactly
    # pre-scaled grid without an argument scale
    comp = ms.ScaleLattice([1.0], 2.0, (ms.Segment(w=1.0, r=0.5, kmin=1),))
    lattice = (comp, np.arange(10, 90))
    u, zbase = _phase_case(-3, lattice)
    scaled = tp._reduced_phases(u, zbase, lattice, arg_pow=(2.0, -3))
    plain = tp._reduced_phases(u, zbase * 2.0 ** -3, lattice)
    assert np.array_equal(scaled, plain)
