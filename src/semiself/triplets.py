"""Levy-Khintchine triplets and cumulant evaluation.

The cumulant of a triplet ``(A, nu, gamma)`` at ``z`` is

    -<z, A z>/2 + i <gamma, z> + integral (e^{i<z,x>} - 1 - i<z,x>/(1+|x|^2)) nu(dx)

with the centering function fixed to ``x / (1 + |x|^2)`` throughout.
Cumulants are always computed by summation / quadrature, never as a logarithm
of a characteristic function, so values are branch-free by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import measures as ms
from .errors import InvalidTripletError, ToleranceError

TOL_PSD = 1e-12


@dataclass(frozen=True)
class LevyTriplet:
    """Gaussian matrix, Levy measure and drift of an infinitely divisible law."""

    gauss: np.ndarray
    levy: ms.LevyMeasure
    drift: np.ndarray
    # shown valid; set only by require_valid and _inherit_valid
    _valid: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        drift = np.atleast_1d(np.asarray(self.drift, dtype=float))
        gauss = np.asarray(self.gauss, dtype=float)
        if gauss.ndim == 0:
            gauss = gauss.reshape(1, 1)
        if gauss.shape != (drift.shape[0], drift.shape[0]):
            raise ValueError("gauss must be d x d matching the drift dimension")
        if self.levy.components and self.levy.dim != drift.shape[0]:
            raise ValueError("measure dimension mismatch")
        gauss.setflags(write=False)
        drift.setflags(write=False)
        object.__setattr__(self, "gauss", gauss)
        object.__setattr__(self, "drift", drift)

    @property
    def dim(self) -> int:
        return self.drift.shape[0]


def gaussian(variance, drift=None) -> LevyTriplet:
    """Pure Gaussian triplet; ``variance`` is the matrix A (scalar ok in d=1)."""
    A = np.atleast_2d(np.asarray(variance, dtype=float))
    d = A.shape[0]
    return LevyTriplet(A, ms.EMPTY, np.zeros(d) if drift is None else drift)


def compound_poisson(points, weights, drift=None) -> LevyTriplet:
    """Finite-activity triplet with atomic Levy measure."""
    atoms = ms.Atoms(points, weights)
    d = atoms.dim
    return LevyTriplet(np.zeros((d, d)), ms.LevyMeasure((atoms,)),
                       np.zeros(d) if drift is None else drift)


def poisson_unit() -> LevyTriplet:
    """Compound Poisson at the single jump 1 in d=1 with cumulant
    ``e^{iz} - 1`` (drift chosen to cancel the centering term)."""
    return compound_poisson([[1.0]], [1.0], drift=[0.5])


def validate(triplet: LevyTriplet) -> tuple:
    """Violations of symmetry / positive semidefiniteness of A, of no mass at
    the origin and of a finite ``integral (|x|^2 ^ 1) nu``; empty if valid.

    ``ms.component_violations`` decides the integral exactly from the
    segments and sums nothing.  Only signed lattice segments whose sign
    check passes the enumeration cap raise ToleranceError."""
    violations = []
    A = triplet.gauss
    if not np.all(np.isfinite(A)):
        violations.append("non-finite gaussian matrix")
    elif not np.allclose(A, A.T, atol=1e-12):
        violations.append("gaussian matrix not symmetric")
    else:
        lam = np.linalg.eigvalsh(0.5 * (A + A.T))
        if lam.size and lam.min() < -TOL_PSD:
            violations.append("gaussian matrix not nonnegative definite")
    if not np.all(np.isfinite(triplet.drift)):
        violations.append("non-finite drift")
    for comp in triplet.levy.components:
        violations.extend(ms.component_violations(comp))
    return tuple(violations)


def require_valid(triplet: LevyTriplet) -> None:
    """The validity guard of every entry that builds on a law: raise
    InvalidTripletError unless the triplet is valid.

    The triplet keeps the verdict, so a law is validated once however many
    entries it passes through."""
    if triplet._valid:
        return
    violations = validate(triplet)
    if violations:
        raise InvalidTripletError("; ".join(violations))
    object.__setattr__(triplet, "_valid", True)


def _inherit_valid(image: LevyTriplet, source: LevyTriplet,
                   holds: bool = True) -> LevyTriplet:
    """Pass a valid source's verdict to its exact image when ``holds``: span-b
    images always, inverse factors exactly when their measure is nonnegative."""
    if holds and source._valid:
        object.__setattr__(image, "_valid", True)
    return image


@dataclass(frozen=True)
class CumulantGrid:
    """Cumulant values with truncation-error bounds on a grid of arguments."""

    grid: np.ndarray          # (m, d)
    values: np.ndarray        # (m,) complex
    err_bound: np.ndarray     # (m,)

    def max_err(self) -> float:
        return float(np.max(self.err_bound)) if self.err_bound.size else 0.0


def _as_grid(z, dim) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.ndim == 0:
        z = z.reshape(1, 1)
    elif z.ndim == 1:
        z = z[None, :] if z.shape[0] == dim and dim > 1 else z[:, None]
    if z.shape[1] != dim:
        raise ValueError(f"grid dimension {z.shape[1]} != triplet dimension {dim}")
    return z


# beyond this phase magnitude, double-precision rounding of <z, x> puts
# O(|u| * eps) garbage into the phase; reduce mod 2 pi exactly instead
PHASE_SAFE = 1e6
GUARD_DIGITS = 60    # digits kept after the point of a phase before reduction

# 2 pi to 721 significant digits (mpmath): enough for any phase of float
# inputs, whose magnitude stays below 1e617, plus the guard digits
_TWO_PI_STR = ("6.28318530717958647692528676655900576839433879875021164194988918"
               "4615632812572417997256069650684234135964296173026564613294187689"
               "2191011644634507188162569622349005682054038770422111192892458979"
               "0986076392885762195133186689225695129646757356633054240381829129"
               "7133846920697220908653296426787214520498282547449174013212631176"
               "3497630418419256585081834307287357851807200226610610976409330427"
               "6829390388302321886611454073151918390618437223476386522358621023"
               "7096148924759925499134703771505449782455876366023898259667346724"
               "8813132861720427898927904494743814043597218874055410784343525863"
               "5350476934963693533881026400113625429052712165557154268551557921"
               "8347274357442936881802449906860293099170742101584559378517847084"
               "039912224258043922")


def _reduced_phases(u: np.ndarray, zbase: np.ndarray, lattice,
                    arg_pow=(1.0, 0)) -> np.ndarray:
    """Replace entries of the phase matrix ``u[i, j] ~ <z_j, x_i>`` that are
    too large for double precision with ``beta_j * base**k_i mod 2 pi``
    computed in high-precision decimal arithmetic.

    ``beta_j = anchor * <z_j, direction> * pbase**power`` is the decimal
    product of the float inputs, formed once per grid column, where
    ``arg_pow = (pbase, power)`` expresses an exact argument scale, so
    pre-scaled grids never round the phase away.  The context keeps
    ``GUARD_DIGITS`` digits after the point of the largest phase; a phase
    that needs more digits than ``_TWO_PI_STR`` holds raises ToleranceError.
    Each distinct ``(column, index)`` pair is reduced once per call.
    """
    import decimal

    comp, ks = lattice
    rows, cols = np.nonzero(np.abs(u) > PHASE_SAFE)
    if rows.size == 0:
        return u
    ks = ks[rows]
    zdir = zbase @ comp.direction
    digits = math.log10(comp.anchor * float(np.max(np.abs(zdir[cols])))) \
        + int(ks.max()) * math.log10(comp.base) \
        + int(arg_pow[1]) * math.log10(arg_pow[0])
    prec = GUARD_DIGITS + max(int(digits) + 1, 0)
    if prec > len(_TWO_PI_STR) - 1:
        raise ToleranceError(f"a lattice phase of about 1e{int(digits)} "
                             "needs more digits of 2 pi than are held")
    pairs = list(zip(cols.tolist(), ks.tolist()))
    with decimal.localcontext() as ctx:
        ctx.prec = prec
        D = decimal.Decimal
        two_pi = +D(_TWO_PI_STR)
        base = D(comp.base)
        scale = D(arg_pow[0]) ** int(arg_pow[1])
        betas = {j: D(comp.anchor) * sum(
            D(float(zi)) * D(float(xi))
            for zi, xi in zip(zbase[j], comp.direction)) * scale
            for j in set(cols.tolist())}
        powers = {k: base ** k for k in set(ks.tolist())}
        phases = {(j, k): float((betas[j] * powers[k]) % two_pi)
                  for j, k in set(pairs)}
    out = u.copy()
    out[rows, cols] = [phases[p] for p in pairs]
    return out


def centered_exp_integrand(zgrid: np.ndarray, points: np.ndarray,
                           lattice=None, arg_pow=(1.0, 0)) -> np.ndarray:
    """``g(z, x) = e^{i<z,x>} - 1 - i<z,x>/(1+|x|^2)`` as an (n_points, n_z)
    array at the scaled grid ``pbase**power * zgrid``, ``arg_pow = (pbase,
    power)``, as ``-2 sin^2(u/2) + i (sin u - u/(1+|x|^2))``; huge phases of
    the points ``lattice = (comp, ks)`` are reduced exactly, scale included."""
    zscaled = arg_pow[0] ** arg_pow[1] * zgrid
    with np.errstate(over="ignore"):
        u = points @ zscaled.T                    # (n, m)
        n2 = np.sum(points * points, axis=1)      # (n,)
        u_osc = u if lattice is None else _reduced_phases(u, zgrid, lattice,
                                                          arg_pow)
        return -2.0 * np.sin(0.5 * u_osc) ** 2 \
            + 1j * (np.sin(u_osc) - u / (1.0 + n2[:, None]))


def _regrouped_series(zgrid, comp: ms.ScaleLattice, ks, masses, weights,
                      arg_pow: int) -> np.ndarray:
    """``sum_k m(k) sum_{t<J} w_t g(b^(arg_pow - t) z, x_k)`` over points of
    a lattice on base ``b``, summed by the phase index ``n = k - t`` in
    ``K + J`` phases per grid column instead of ``K J`` cells:

        sum_n -2 sin^2(theta_n/2) M_n + i P_n sin theta_n
              + i Q_n (sin theta_n - theta_n)
        - i W <z, dir> sum_k m(k) R_k/(1 + R_k^2) (1 if R_k >= 1 else -R_k^2)

    with ``P_n``, ``Q_n`` the sums ``sum_t w_t m(n + t)`` over the points at
    radius ``R_k >= 1`` and below it, ``M_n = P_n + Q_n``, ``W = sum_t w_t
    b^(arg_pow - t)`` and ``theta_n = anchor <z, direction> b^(n +
    arg_pow)``, the huge ones reduced exactly.  Where ``Q_n`` grows as ``n``
    falls (``r b < 1``), its terms are ``O(theta_n^2 Q_n)``: no half cancels
    another."""
    if not len(weights):
        return np.zeros(zgrid.shape[0], dtype=complex)
    b = comp.base
    k0 = int(ks.min())
    radii = comp.radius(ks)
    inner = radii < 1.0
    big_p, big_q = (np.convolve(
        np.bincount(ks - k0, weights=np.where(part, masses, 0.0)),
        np.asarray(weights)[::-1]) for part in (~inner, inner))
    ns = np.arange(big_p.size) + (k0 - len(weights) + 1)
    zdir = zgrid @ comp.direction
    with np.errstate(over="ignore"):
        theta = (comp.anchor * b ** (ns + arg_pow).astype(float))[:, None] \
            * zdir[None, :]
        r2 = radii * radii
        cent = masses * radii / (1.0 + r2)
    centering = float(np.sum(cent[~inner]) - np.sum(cent[inner] * r2[inner]))
    reduced = _reduced_phases(theta, zgrid, (comp, ns), arg_pow=(b, arg_pow))
    sin = np.sin(reduced)
    # past the points below radius 1, Q_n is 0 and theta may overflow
    low = big_q != 0.0
    big_w = sum(wt * b ** (arg_pow - t) for t, wt in enumerate(weights))
    return -2.0 * ((big_p + big_q) @ np.sin(0.5 * reduced) ** 2) \
        + 1j * (big_p @ sin + big_q[low] @ (sin[low] - theta[low])
                - big_w * centering * zdir)


def jump_series(levy: ms.LevyMeasure, zgrid: np.ndarray, b: float,
                arg_pow: int, weights, env: ms.Envelope, tol: float):
    """``sum_t w_t integral g(b^(arg_pow - t) z, x) nu(dx)`` on the unscaled
    grid ``zgrid``, and the sum of the lattice window tails under ``env`` at
    budget ``tol``, enumerating each component once.  ``weights(xmax)`` gives
    ``w_0 .. w_{J-1}`` for points of 1-norm at most ``xmax``.  A lattice on
    base ``b`` is summed by phase index; atoms and lattices on other bases
    sum their terms point by point."""
    jump = np.zeros(zgrid.shape[0], dtype=complex)
    err = 0.0
    for comp in levy.components:
        pts, masses, ks, tail = ms._enumerate_component(comp, env, tol)
        err += tail
        if not masses.size:
            continue
        # the series length is set by the largest point; the 1-norm bound
        # avoids squaring overflow at extreme lattice radii
        w = weights(float(np.max(np.sum(np.abs(pts), axis=1))))
        if ks is not None and comp.base == b:
            jump += _regrouped_series(zgrid, comp, ks, masses, w, arg_pow)
        else:
            lattice = None if ks is None else (comp, ks)
            acc = np.zeros((masses.size, zgrid.shape[0]), dtype=complex)
            for t, wt in enumerate(w):
                acc += wt * centered_exp_integrand(zgrid, pts, lattice,
                                                   arg_pow=(b, arg_pow - t))
            jump += np.tensordot(masses, acc, axes=(0, 0))
    return jump, err


def cumulant(triplet: LevyTriplet, z, tol=1e-12,
             arg_pow=(1.0, 0)) -> CumulantGrid:
    """Cumulant function on a grid of arguments ``z`` (shape (m, d) or (d,)).

    ``arg_pow = (base, power)`` evaluates at ``base**power * z`` with the
    scale applied exactly in the lattice phase reduction, so arguments like
    ``z / b`` lose no precision against huge jump radii."""
    zbase = _as_grid(z, triplet.dim)
    pbase, power = arg_pow
    zgrid = zbase * pbase ** power
    zmax = float(np.max(np.linalg.norm(zgrid, axis=1), initial=0.0)) or 1.0
    quad_part = -0.5 * np.einsum("ij,jk,ik->i", zgrid, triplet.gauss, zgrid)
    drift_part = 1j * (zgrid @ triplet.drift)
    jump, err = jump_series(
        triplet.levy, zbase, pbase, power, lambda xmax: [1.0],
        ms.Envelope(zmax * zmax / 2.0 + zmax, 2, (2.0 + zmax / 2.0,)), tol)
    values = quad_part + drift_part + jump
    return CumulantGrid(grid=zgrid, values=values,
                        err_bound=np.full(zgrid.shape[0], err))


def cumulant_at(triplet: LevyTriplet, z) -> complex:
    """Cumulant at a single argument."""
    return complex(cumulant(triplet, np.atleast_1d(z)).values[0])


# ---------------------------------------------------------------------------
# triplet arithmetic


def centering_shift(levy: ms.LevyMeasure, s: float, tol: float):
    """The drift that pushing ``levy`` forward by ``x -> s x`` adds, with
    the window tails that bound its error:

        integral s x (1/(1 + s^2 |x|^2) - 1/(1 + |x|^2)) nu(dx)

    The drift of ``s X`` is ``s gamma`` plus it; the span-b maps read it at
    ``s = 1/b`` (``0.0`` for a measure without components)."""

    def shift_integrand(points):
        # past |x| ~ 1.3e154, |x|^2 overflows to inf and the factor reads
        # its limit 0; the term it drops is below (s + 1/s) / |x| per unit
        # mass
        with np.errstate(over="ignore"):
            n2 = np.sum(points * points, axis=1)
        return s * points * (1.0 / (1.0 + s * s * n2) - 1.0 / (1.0 + n2))[:, None]

    c_small = s * abs(1.0 - s * s)
    return ms.sum_over_measure(
        levy, shift_integrand,
        envelope=ms.Envelope(max(c_small, 1e-30), 3, (s + 1.0 / s,), decay=1),
        tol=tol)
