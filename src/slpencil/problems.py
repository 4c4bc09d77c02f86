"""Problem-level assembly: spectral shift, characteristic series, the
two-point boundary functional, the damped-string pencil and the Dirac-system
reduction.

A spectral shift re-centers the power series at lambda0 by transforming the
pencil coefficients; the series variable becomes Lambda = lambda - lambda0.
A characteristic functional combines a few boundary constants with the
right-end values of five formal-power families, written once: applied to a
built table it gives the Taylor coefficients of the characteristic series, so
eigenvalues become polynomial roots downstream, and applied to the constants'
moduli and the families' tail bounds it gives the series' Rouche tail.  The
damped string is a two-point Dirichlet problem for StringProblem.pencil.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import GridError, NodeValueError, SolverError
from .grids import Grid, SampledFunction, constant, derivative
from .spps import FormalPowerTable, ParticularSolution, PencilSpec, tail_components


def shift_pencil(spec: PencilSpec, lam0: complex) -> PencilSpec:
    """Pencil re-centered at lambda0 by binomial expansion of the right-hand side.

    L0 u = u * sum_k Lambda^k r_eff[k-1] with
    r_eff[k] = sum_{l=0}^{N-k} C(k+l, l) lam0^l r_{k+l};
    q_eff = q - sum_k lam0^k r_k.
    """
    lam0 = complex(lam0)
    N = spec.degree
    q_eff = spec.q.values.copy()
    for k in range(1, N + 1):
        q_eff = q_eff - (lam0 ** k) * spec.r[k - 1].values
    r_eff = []
    for k in range(1, N + 1):
        acc = np.zeros(spec.grid.n_nodes, dtype=np.complex128)
        for ell in range(0, N - k + 1):
            acc += math.comb(k + ell, ell) * (lam0 ** ell) * spec.r[k + ell - 1].values
        r_eff.append(SampledFunction(spec.grid, acc))
    return PencilSpec(p=spec.p, q=SampledFunction(spec.grid, q_eff), r=tuple(r_eff))


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
        z = np.asarray(lam, dtype=np.complex128) - self.center
        acc = np.zeros_like(z)
        for c in self.coeffs[::-1]:
            acc = acc * z + c
        return acc if acc.shape else complex(acc)

    def deriv(self, lam):
        z = np.asarray(lam, dtype=np.complex128) - self.center
        acc = np.zeros_like(z)
        for k in range(len(self.coeffs) - 1, 0, -1):
            acc = acc * z + k * self.coeffs[k]
        return acc if acc.shape else complex(acc)

    def term_scale(self, lam) -> float:
        """max_k |coeffs[k] (lam-center)^k|, the cancellation-aware size of the sum."""
        z = abs(complex(lam) - self.center)
        powers = z ** np.arange(len(self.coeffs))
        return float(np.max(np.abs(self.coeffs) * powers))


@dataclass(frozen=True)
class StringProblem:
    """Damped string y'' = 2 a(x) lambda y + b(x) lambda^2 y on [0, L], y(0)=y(L)=0."""

    damping: SampledFunction
    density: SampledFunction

    def __post_init__(self):
        if self.density.grid != self.damping.grid:
            raise GridError("damping and density live on different grids")
        if self.damping.grid.a != 0.0:
            raise GridError("string problems start at x = 0")

    @property
    def grid(self) -> Grid:
        return self.damping.grid

    @property
    def pencil(self) -> PencilSpec:
        g = self.grid
        return PencilSpec(p=constant(g, 1.0), q=constant(g, 0.0),
                          r=(2.0 * self.damping, self.density))


@dataclass(frozen=True)
class DiracSpec:
    """Canonical one-dimensional Dirac system data: potential v and energy E."""

    v: SampledFunction
    energy: complex

    def __post_init__(self):
        shifted = self.v.values - complex(self.energy)
        mags = np.abs(shifted)
        if mags.min() < 1e-300:
            raise NodeValueError("v - E vanishes", int(np.argmin(mags)))


def dirac_to_pencil(d: DiracSpec) -> PencilSpec:
    """Second-order pencil for w = y2 + y1:
    (w'/(v-E))' + (v-E) w = lambda^2 w/(v-E) + lambda (1/(v-E))' w.

    r1 uses the analytic identity (1/(v-E))' = -v'/(v-E)^2, with v'
    differentiated spectrally on the grid's panels, as Q' is for the
    Zakharov-Shabat pencil.
    """
    g = d.v.grid
    vmE = SampledFunction(g, d.v.values - complex(d.energy))
    vp = derivative(d.v)
    r1 = SampledFunction(g, -vp.values / (vmE.values ** 2))
    inv = SampledFunction(g, 1.0 / vmE.values)
    return PencilSpec(p=inv, q=vmE, r=(r1, inv))


def dirac_first_component(w: SampledFunction, w_prime: SampledFunction,
                          d: DiracSpec, lam: complex) -> SampledFunction:
    """Recover u = (lambda w + w') / (v - E) from the second-order solution."""
    vmE = d.v.values - complex(d.energy)
    return SampledFunction(w.grid, (complex(lam) * w.values + w_prime.values) / vmE)


# ---------------------------------------------------------------------------
# characteristic functionals


def characteristic_series(table: FormalPowerTable, functional: Callable,
                          constants: tuple, center: complex = 0.0
                          ) -> CharacteristicSeries:
    """The series of a boundary functional of the table's right-end formal powers.

    functional(*constants, xt_even, xt_lag, x_odd, x_even, x_lag) gives
    coefficient n from Xtilde^(2n)(b), Xtilde^(2n-1)(b), X^(2n+1)(b),
    X^(2n)(b) and X^(2n-1)(b) (the lagged ones 0 at n = 0).  It may only add,
    multiply and divide by constants, so the same functional applied to the
    constants' moduli and to tail_components' bounds on the five families
    bounds |Phi - Phi_M| by the triangle inequality; that is the series' tail.
    """
    xt, x = table.xtilde_end, table.x_end
    M = table.truncation
    coeffs = np.empty(M + 1, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):  # CharacteristicSeries checks
        for n in range(M + 1):
            xt_lag, x_lag = (xt[2 * n - 1], x[2 * n - 1]) if n >= 1 else (0.0, 0.0)
            coeffs[n] = functional(*constants, xt[2 * n], xt_lag, x[2 * n + 1],
                                   x[2 * n], x_lag)
    moduli = tuple(abs(c) for c in constants)

    def tail(lam_abs: float) -> float:
        return functional(*moduli, *tail_components(table.pencil, table.u0,
                                                    lam_abs, M))

    return CharacteristicSeries(center=center, coeffs=coeffs, tail=tail)


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


def _two_point(c1, c2, b1, b2, u0b, pu0pb, xt_even, xt_lag, x_odd, x_even, x_lag):
    """beta1 u(b) + beta2 (p u')(b) of u = c1 u1 + c2 u2, per power of lambda."""
    return (c1 * (b1 * u0b * xt_even + b2 * pu0pb * xt_even + b2 * xt_lag / u0b)
            + c2 * (b1 * u0b * x_odd + b2 * pu0pb * x_odd + b2 * x_even / u0b))


def two_point_series(table: FormalPowerTable, *,
                     left: tuple[complex, complex] = (1.0, 0.0),
                     right: tuple[complex, complex] = (1.0, 0.0),
                     center: complex = 0.0) -> CharacteristicSeries:
    """Series whose zeros are eigenvalues of the separated boundary problem.

    The left condition alpha1 u + alpha2 (p u') = 0 at a, where the table's
    formal powers are anchored, fixes the solution combination; the
    coefficients collect beta1 u(b) + beta2 (p u')(b) per power of
    (lambda - center), read from the table's right-end values.
    """
    b1, b2 = (complex(v) for v in right)
    pencil = table.pencil
    u0b = table.u0.u0.values[-1]
    pu0pb = pencil.p.values[-1] * table.u0.u0_prime.values[-1]
    c1, c2 = _boundary_combination(table.u0, pencil.p, left)
    return characteristic_series(table, _two_point, (c1, c2, b1, b2, u0b, pu0pb),
                                 center)
