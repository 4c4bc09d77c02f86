"""Problem-level assembly: spectral shift, characteristic series, the
two-point boundary functional, and the pencils of the damped string and of
the Dirac system.

A spectral shift re-centers the power series at lambda0 by transforming the
pencil coefficients; the series variable becomes Lambda = lambda - lambda0.
One boundary functional, written once, gives the characteristic series of
every problem kind: beta1 u(b) + beta2 (p u')(b) of the solution that the
left end condition fixes, read from the right-end values of four formal-power
families, with beta1 and beta2 constants or polynomials in lambda.  Applied to
a built table it gives the Taylor coefficients of the characteristic series,
so eigenvalues become polynomial roots downstream, and applied to the
constants' moduli and the families' tail bounds it gives the series' Rouche
tail.  The damped string is a two-point Dirichlet problem for string_pencil
and the Dirac system a two-point problem for dirac_pencil; the
Zakharov-Shabat dispersion relation is the two-point problem with a
lambda-dependent right end (zakharov.zs_boundary).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Callable

import numpy as np

from .errors import NodeValueError, SolverError
from .grids import SampledFunction, constant, derivative
from .spps import FormalPowerTable, ParticularSolution, PencilSpec, tail_components


def shift_pencil(spec: PencilSpec, lam0: complex) -> PencilSpec:
    """Pencil re-centered at lambda0: L0 u = u * sum_k Lambda^k r_eff[k-1].

    q - sum_k lambda^k r_k re-expanded in powers of Lambda = lambda - lambda0
    by _about, nodewise: the constant term is -q_eff, the others r_eff.
    """
    g = spec.grid
    about = _about([-spec.q.values, *(rk.values for rk in spec.r)], complex(lam0))
    return PencilSpec(p=spec.p, q=SampledFunction(g, -about[0]),
                      r=tuple(SampledFunction(g, v) for v in about[1:]))


@dataclass
class CharacteristicSeries:
    """Taylor coefficients of the characteristic function about ``center``.

    The eigenvalue condition is sum_k coeffs[k] (lambda - center)^k = 0.
    tail(r), when known, bounds |Phi - Phi_M| for |lambda - center| <= r.
    """

    center: complex
    coeffs: np.ndarray
    tail: Callable[[float], float] | None = field(default=None, repr=False,
                                                  compare=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.ndim != 1 or c.size < 2:
            raise ValueError("need a 1-D coefficient array with M >= 1")
        self.center = complex(self.center)
        bad = ~np.isfinite(c)
        if bad.any():
            raise SolverError(f"characteristic coefficient {int(np.argmax(bad))} "
                              f"at center {self.center} is not finite")
        self.coeffs = c

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, lam):
        """Horner evaluation; accepts scalars or arrays."""
        return self._horner(lam, self.coeffs)

    def deriv(self, lam):
        k = np.arange(1, len(self.coeffs))
        return self._horner(lam, k * self.coeffs[1:])

    def _horner(self, lam, coeffs):
        """sum coeffs[k] (lam-center)^k by Horner, adding in place; an in-place
        product would round differently on one-element arrays.  A scalar stays
        a numpy scalar, which += rebinds."""
        z = np.asarray(lam, dtype=np.complex128) - self.center
        acc = np.zeros_like(z)[()]
        for c in coeffs[::-1]:
            acc = acc * z
            acc += c
        return acc if acc.shape else complex(acc)

    def term_scale(self, lam) -> float:
        """max_k |coeffs[k] (lam-center)^k|, the cancellation-aware size of the sum;
        zero coefficients are left out, so an overflowing power gives inf, not nan."""
        z = abs(complex(lam) - self.center)
        k = np.flatnonzero(self.coeffs)
        with np.errstate(over="ignore"):
            return float(np.max(np.abs(self.coeffs[k]) * z ** k, initial=0.0))


def string_pencil(damping: SampledFunction, density: SampledFunction) -> PencilSpec:
    """Pencil of the damped string y'' = 2 a(x) lambda y + b(x) lambda^2 y,
    a the damping and b the density."""
    g = damping.grid
    return PencilSpec(p=constant(g, 1.0), q=constant(g, 0.0),
                      r=(SampledFunction(g, 2.0 * damping.values), density))


def dirac_pencil(v: SampledFunction, energy: complex) -> PencilSpec:
    """Second-order pencil of the Dirac system with potential v and energy E,
    for w = y2 + y1:
    (w'/(v-E))' + (v-E) w = lambda^2 w/(v-E) + lambda (1/(v-E))' w.

    r1 uses the analytic identity (1/(v-E))' = -v'/(v-E)^2, with v'
    differentiated spectrally on the grid's panels, as Q' is for the
    Zakharov-Shabat pencil.  The first component is u = (lambda w + w')/(v-E).
    """
    g = v.grid
    vmE = SampledFunction(g, v.values - complex(energy))
    mags = np.abs(vmE.values)
    if mags.min() < 1e-300:
        raise NodeValueError("v - E vanishes", int(np.argmin(mags)))
    vp = derivative(v)
    r1 = SampledFunction(g, -vp.values / (vmE.values ** 2))
    inv = SampledFunction(g, 1.0 / vmE.values)
    return PencilSpec(p=inv, q=vmE, r=(r1, inv))


# ---------------------------------------------------------------------------
# the boundary functional


def _boundary_combination(u0: ParticularSolution, p: SampledFunction,
                          left: tuple[complex, complex]) -> tuple[complex, complex]:
    """(c1, c2) killing alpha1 u(a) + alpha2 (p u')(a), canonically normalized."""
    a1, a2 = (complex(v) for v in left)
    if a1 == 0 and a2 == 0:
        raise ValueError("left boundary condition must not be identically zero")
    A = a1 * u0.u0.values[0] + a2 * (p.values[0] * u0.u0_prime.values[0])
    B = a2 / u0.u0.values[0]
    c1, c2 = B, -A
    top = max(abs(c1), abs(c2))
    if top == 0:
        raise ValueError("degenerate left boundary condition for this u0")
    # scale by the dominant entry so e.g. Dirichlet gives exactly (0, 1)
    lead = c1 if abs(c1) >= abs(c2) else c2
    return c1 / lead, c2 / lead


def _two_point(c1, c2, b1, b2, u0b, pu0pb, xt_even, xt_lag, x_odd, x_even):
    """beta1 u(b) + beta2 (p u')(b) of u = c1 u1 + c2 u2 at order n, from
    Xtilde^(2n), Xtilde^(2n-1) (0 at n = 0), X^(2n+1) and X^(2n) at b; applied
    to moduli and to tail_components' four bounds, it bounds their tails."""
    return (c1 * (b1 * u0b * xt_even + b2 * pu0pb * xt_even + b2 * xt_lag / u0b)
            + c2 * (b1 * u0b * x_odd + b2 * pu0pb * x_odd + b2 * x_even / u0b))


def _about(b: list, center: complex) -> list:
    """Coefficients, lowest first, of sum_k b[k] lambda^k in powers of
    lambda - center, by the binomial theorem; each b[k] is a number or a node
    array.  A coefficient that overflows is a SolverError naming the center."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            out = [sum((math.comb(k, j) * center ** (k - j) * b[k]
                        for k in range(j + 1, len(b))), b[j]) for j in range(len(b))]
    except OverflowError:  # a Python complex power
        out = None
    if out is None or not all(np.isfinite(c).all() for c in out):
        raise SolverError(f"re-expanding the coefficients about center {center} "
                          "overflows")
    return out


def two_point_series(table: FormalPowerTable, *,
                     left: tuple[complex, complex] = (1.0, 0.0),
                     right: tuple = (1.0, 0.0),
                     center: complex = 0.0) -> CharacteristicSeries:
    """Series whose zeros are eigenvalues of the separated boundary problem.

    The left condition alpha1 u + alpha2 (p u') = 0 at a, where the table's
    formal powers are anchored, fixes the solution combination.  In the right
    condition beta1 u + beta2 (p u') = 0 at b, each of beta1, beta2 is a number
    or the coefficients of a polynomial in lambda, lowest first.  Re-expanded
    as sum_j beta_j Lambda^j, Lambda = lambda - center, they make coefficient n
    the Cauchy product sum_j F_(n-j)(beta_j) of _two_point's orders F_n, and
    the tail for |Lambda| <= r is sum_j r^j [F(|c|, |beta_j|, |u0(b)|,
    |p u0'(b)|; family tail bounds) + sum_(M-j<n<=M) r^n |F_n(beta_j)|], the
    second sum being the in-table orders that Lambda^j pushes past M.
    """
    center = complex(center)
    ends = list(zip_longest(*(_about([complex(c) for c in np.atleast_1d(v)], center)
                              for v in right), fillvalue=0j))
    pencil = table.pencil
    u0b = table.u0.u0.values[-1]
    pu0pb = pencil.p.values[-1] * table.u0.u0_prime.values[-1]
    c1, c2 = _boundary_combination(table.u0, pencil.p, left)
    xt, x = table.xtilde_end, table.x_end
    M = table.truncation

    def order(n, b1, b2):
        xt_lag = xt[2 * n - 1] if n >= 1 else 0.0
        return _two_point(c1, c2, b1, b2, u0b, pu0pb, xt[2 * n], xt_lag,
                          x[2 * n + 1], x[2 * n])

    with np.errstate(over="ignore", invalid="ignore"):  # CharacteristicSeries checks
        terms = [[order(n, *b) for n in range(M + 1)] for b in ends]
        coeffs = [sum((terms[j][n - j] for j in range(1, min(n, len(ends) - 1) + 1)),
                      terms[0][n]) for n in range(M + 1)]

    def tail(lam_abs: float) -> float:
        bounds, r = tail_components(table, lam_abs), np.float64(lam_abs)
        with np.errstate(over="ignore", invalid="ignore"):
            total = sum(r ** j * (
                _two_point(abs(c1), abs(c2), abs(b1), abs(b2), abs(u0b), abs(pu0pb),
                           *bounds)
                + sum(r ** n * abs(terms[j][n])
                      for n in range(max(0, M - j + 1), M + 1)))
                for j, (b1, b2) in enumerate(ends))
        # nan where an overflowing bound or power meets a zero factor
        return total if total <= math.inf else math.inf

    return CharacteristicSeries(center=center, coeffs=coeffs, tail=tail)
