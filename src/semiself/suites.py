"""Seeded verification suites behind the command line's verify subcommand.

Each suite returns a deterministic summary dict: given the same seed the
checks run on the same data and produce identical numbers, so summaries can
be diffed byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

from . import mapping as mp
from . import measures as ms
from . import nested as nt
from . import ou
from . import sampling as sp
from . import triplets as tp

MC_N = 20_000


def _check(name: str, ok: bool, value: float) -> dict:
    return {"name": name, "pass": bool(ok), "value": float(value)}


def corpus(d: int = 1, b: float = 2.0) -> list:
    """Small test corpus: Gaussian, compound Poisson, scale lattice.

    Lattices are built on base ``b`` so the exact map algebra applies."""
    if d == 1:
        lat = ms.ScaleLattice([1.0], b, (ms.Segment(w=0.7, r=0.4, kmin=0),
                                         ms.Segment(w=0.5, r=min(b * b, 4.0) / 2.0,
                                                    kmin=-30, kmax=-1)))
        return [
            tp.gaussian(1.0, drift=[0.2]),
            tp.compound_poisson([[1.0], [-0.5]], [1.0, 0.3], drift=[0.1]),
            tp.LevyTriplet(np.array([[0.5]]), ms.LevyMeasure((lat,)),
                           np.array([0.3])),
        ]
    lat2 = ms.ScaleLattice([0.6, 0.8], b, (ms.Segment(w=1.0, r=0.3, kmin=0),))
    return [
        tp.gaussian(np.array([[1.0, 0.3], [0.3, 0.8]]), drift=[0.1, -0.2]),
        tp.compound_poisson([[1.0, 0.0], [0.0, 2.0]], [0.5, 0.8]),
        tp.LevyTriplet(0.2 * np.eye(2), ms.LevyMeasure((lat2,)),
                       np.array([0.0, 0.1])),
    ]


def suite_core(seed: int = 42) -> dict:
    checks = []
    g = tp.gaussian(1.0)
    pu = tp.poisson_unit()

    v = tp.cumulant_at(g, 2.0)
    checks.append(_check("gaussian_cumulant_oracle", abs(v + 2.0) < 1e-14, abs(v + 2.0)))
    v = tp.cumulant_at(pu, 1.0) - (np.exp(1j) - 1.0)
    checks.append(_check("poisson_cumulant_oracle", abs(v) < 1e-12, abs(v)))

    gap_sym, gap_re, gap_zero = 0.0, 0.0, 0.0
    for d in (1, 2):
        grid = mp.default_grid(d, n=41)
        for trip in corpus(d):
            c_pos = tp.cumulant(trip, grid)
            c_neg = tp.cumulant(trip, -grid)
            gap_sym = max(gap_sym, float(np.max(np.abs(
                c_neg.values - np.conj(c_pos.values)))))
            gap_re = max(gap_re, float(np.max(c_pos.values.real)))
            gap_zero = max(gap_zero, abs(tp.cumulant_at(trip, np.zeros(d))))
    checks.append(_check("conjugate_symmetry", gap_sym < 1e-10, gap_sym))
    checks.append(_check("real_part_nonpositive", gap_re < 1e-10, gap_re))
    checks.append(_check("cumulant_zero_at_origin", gap_zero == 0.0, gap_zero))

    lat = ms.ScaleLattice([1.0], 2.0, (ms.Segment(w=1.0, r=0.5, kmin=1),))
    lm = ms.log_moment(ms.LevyMeasure((lat,)), 1)
    checks.append(_check("log_moment_oracle", abs(lm - 2 * math.log(2)) < 1e-10,
                         abs(lm - 2 * math.log(2))))

    grid = np.linspace(-3.0, 3.0, 13)
    worst = 0.0
    for trip in corpus(1)[:2]:
        batch = sp.sample(trip, MC_N, seed)
        e = sp.ecf(batch.values, grid)
        target = np.exp(tp.cumulant(trip, grid).values)
        worst = max(worst, float(np.max(np.abs(e.values - target))))
    checks.append(_check("ecf_matches_cf", worst < sp.conf_radius(MC_N), worst))

    v = mp.forward_cumulant(g, 2.0, 1.0).values[0]
    checks.append(_check("forward_gaussian_oracle", abs(v + 2.0 / 3.0) < 1e-10,
                         abs(v + 2.0 / 3.0)))
    A = mp.forward_triplet(g, 2.0).gauss[0, 0]
    checks.append(_check("forward_variance_oracle", abs(A - 4.0 / 3.0) < 1e-14,
                         abs(A - 4.0 / 3.0)))

    worst_fac, worst_rt = 0.0, 0.0
    for d in (1, 2):
        grid_d = mp.default_grid(d, n=41)
        for b in (1.1, 2.0, 10.0):
            for trip in corpus(d, b):
                fwd = mp.forward_triplet(trip, b, tol=1e-12)
                inv = mp.inverse_factor(fwd, b, tol=1e-12)
                rep = mp.factorization_check(fwd, inv.rho, b, grid=grid_d)
                worst_fac = max(worst_fac, rep.max_residual)
                gap = max(float(np.max(np.abs(inv.rho.gauss - trip.gauss))),
                          float(np.max(np.abs(inv.rho.drift - trip.drift))))
                worst_rt = max(worst_rt, gap)
    checks.append(_check("factorization_identity", worst_fac < 1e-8, worst_fac))
    checks.append(_check("triplet_roundtrip", worst_rt < 1e-10, worst_rt))

    checks.append(_check("gaussian_is_member",
                         mp.is_semi_selfdecomposable(g, 2.0).verdict, 1.0))
    checks.append(_check("unit_poisson_not_member",
                         not mp.is_semi_selfdecomposable(pu, 2.0).verdict, 0.0))

    return {"suite": "core", "seed": seed, "checks": checks,
            "pass": all(c["pass"] for c in checks)}


def suite_ou(seed: int = 42) -> dict:
    checks = []
    cfg = ou.OUConfig(b=2.0, c=1.0)
    g = tp.gaussian(1.0)
    pu = tp.poisson_unit()

    bundle = ou.solve_path(g, cfg, np.zeros(1), epochs=200, n_paths=100,
                           seed=seed)
    res = ou.verify_langevin(bundle)
    checks.append(_check("langevin_residual", res < 1e-10, res))
    gap = float(np.max(np.abs(ou.closed_form_states(bundle) - bundle.states)))
    checks.append(_check("closed_form_matches_recursion", gap < 1e-12, gap))

    lc = ou.limit_cumulant(g, cfg, 1.0).values[0]
    checks.append(_check("limit_cumulant_oracle", abs(lc + 1.0 / 6.0) < 1e-10,
                         abs(lc + 1.0 / 6.0)))

    for noise, tag in ((g, "gaussian"), (pu, "poisson")):
        for c in (1.0, 2.0):
            rep = ou.validate_limit(noise, ou.OUConfig(2.0, c), n=MC_N,
                                    seed=seed)
            checks.append(_check(f"limit_validation_{tag}_c{int(c)}", rep.ok,
                                 rep.ecf_gap_first))

    z = np.linspace(-4.0, 4.0, 9)
    # composing kernels: the first leg enters at the second leg's contraction
    k_comp = ou.transition_cumulant(g, cfg, 0.0, 3.0, 2.0 ** (-4.0) * z).values + \
        ou.transition_cumulant(g, cfg, 3.0, 7.0, z).values
    k_full = ou.transition_cumulant(g, cfg, 0.0, 7.0, z).values
    gap = float(np.max(np.abs(k_comp - k_full)))
    checks.append(_check("kernel_additivity", gap < 1e-12, gap))

    div = ou.divergence_diagnostic(pu, cfg, [math.pi], [10.0, 20.0, 40.0],
                                   n=MC_N, seed=seed)
    checks.append(_check("divergence_bound", div.ok, max(div.estimates)))
    checks.append(_check("divergence_bound_value",
                         abs(div.bound - math.exp(-2.0)) < 1e-12, div.bound))

    rep = ou.shift_invariance_gap(pu, cfg, (0.9, 1.0), 1.0, n=MC_N, seed=seed)
    checks.append(_check("semistationary_period_shift", rep.invariant(),
                         rep.joint_gap))
    neg = ou.shift_invariance_gap(pu, cfg, (0.9, 1.0), 0.5, n=MC_N, seed=seed)
    checks.append(_check("semistationary_negative_control", not neg.invariant(),
                         neg.joint_gap))

    return {"suite": "ou", "seed": seed, "checks": checks,
            "pass": all(c["pass"] for c in checks)}


def suite_iterate(seed: int = 42) -> dict:
    checks = []
    g = tp.gaussian(1.0)
    pu = tp.poisson_unit()

    v = mp.forward_cumulant(g, 2.0, 1.0, m=1).values[0]
    checks.append(_check("iterated_gaussian_oracle", abs(v + 8.0 / 9.0) < 1e-10,
                         abs(v + 8.0 / 9.0)))

    # composing the plain map twice must match the weighted m=1 series
    z = np.linspace(-5.0, 5.0, 21)
    once = mp.forward_triplet(pu, 2.0)
    twice = mp.forward_cumulant(once, 2.0, z, tol=1e-10)
    direct = mp.forward_cumulant(pu, 2.0, z, m=1)
    gap = float(np.max(np.abs(twice.values - direct.values)))
    checks.append(_check("iteration_composition", gap < 5e-8, gap))

    ladder_ok = True
    prop_gap = 0.0
    for alpha in (0.5, 1.0, 1.5):
        mu = nt.semi_stable_triplet(nt.SemiStableSpec(b=2.0, alpha=alpha))
        cert = nt.is_nested_member(mu, 2.0, 5)
        ladder_ok = ladder_ok and all(cert.verdicts)
        w = cert.factors[0].levy.components[0].segments[0].w
        prop_gap = max(prop_gap, abs(w - (1.0 - 2.0 ** (-alpha))))
        ss = nt.is_semi_stable(mu, 2.0)
        ladder_ok = ladder_ok and ss.verdict and abs(ss.a - 2.0 ** alpha) < 1e-8
    checks.append(_check("semistable_ladder", ladder_ok, prop_gap))

    c0 = nt.is_nested_member(pu, 2.0, 0)
    c1 = nt.is_nested_member(mp.forward_triplet(pu, 2.0), 2.0, 1)
    checks.append(_check("poisson_fails_level0", not c0.verdicts[0], 0.0))
    checks.append(_check("mapped_poisson_splits_levels",
                         c1.verdicts[0] and not c1.verdicts[1], 0.0))
    cg = nt.is_nested_member(g, 2.0, 5)
    checks.append(_check("gaussian_all_levels", all(cg.verdicts), 0.0))

    ss = nt.is_semi_stable(g, 2.0)
    checks.append(_check("gaussian_stable_scaling",
                         ss.verdict and abs(ss.a - 4.0) < 1e-10,
                         abs(ss.a - 4.0)))
    checks.append(_check("poisson_not_semistable",
                         not nt.is_semi_stable(pu, 2.0).verdict, 0.0))

    return {"suite": "iterate", "seed": seed, "checks": checks,
            "pass": all(c["pass"] for c in checks)}


SUITES = {"core": suite_core, "ou": suite_ou, "iterate": suite_iterate}


def run_suite(name: str, seed: int = 42) -> dict:
    if name == "all":
        parts = [fn(seed) for fn in SUITES.values()]
        return {"suite": "all", "seed": seed, "parts": parts,
                "pass": all(p["pass"] for p in parts)}
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](seed)
