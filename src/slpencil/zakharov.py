"""Generalized Zakharov-Shabat systems: v1' = lambda v1 + P v2, v2' = -lambda v2 - Q v1.

Eliminating v1 turns the system into a quadratic pencil for v2, so the SPPS
machinery applies directly.  For a potential compactly supported on [-a, a]
the Jost boundary conditions reduce the eigenvalue problem to the zeros (with
Re lambda > 0) of an explicit dispersion series, which this module builds from
a formal-power table of the pencil, optionally re-centered by a spectral
shift.  The dispersion relation is one characteristic functional of the
table's right-end formal powers: it gives the series' coefficients, and
applied to the families' tail bounds, its Rouche tail.  A catalog of standard
test potentials (a truncated parabola and two semiclassical sech profiles) is
kept as Q templates in x, sampled on the expression path like a config's own
Q, with Q' differentiated spectrally from the samples; semiclassical
potentials are solved in the lambda = -(i/eps) Lambda frame and reported in
both coordinates."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GridError, NodeValueError
from .expressions import evaluate_on_grid, parse
from .grids import Grid, SampledFunction, cumulative_integral, derivative
from .problems import CharacteristicSeries, characteristic_series
from .spps import (
    FormalPowerTable,
    ParticularSolution,
    PencilSpec,
    build_particular_solution,
    evaluate_solution,
)

DEFAULT_HALF_WIDTH = 10.0


@dataclass(frozen=True)
class ZSProblem:
    """Potential pair on a symmetric grid [-a, a]; Q must not vanish."""

    Q: SampledFunction
    P: SampledFunction
    Q_prime: SampledFunction
    back_map_scale: complex | None = None  # Lambda = back_map_scale * lambda

    def __post_init__(self):
        g = self.Q.grid
        if self.P.grid != g or self.Q_prime.grid != g:
            raise GridError("Q, P and Q' live on different grids")
        if abs(g.a + g.b) > 1e-12 * max(1.0, abs(g.b)):
            raise GridError(f"grid [{g.a}, {g.b}] is not symmetric about 0")
        mags = np.abs(self.Q.values)
        if mags.min() <= 0.0:
            raise NodeValueError("Q vanishes", int(np.argmin(mags)))

    @property
    def grid(self) -> Grid:
        return self.Q.grid


def zs_to_pencil(zs: ZSProblem) -> PencilSpec:
    """(v2'/Q)' + P v2 = lambda (Q'/Q^2) v2 + lambda^2 (1/Q) v2."""
    Q = zs.Q.values
    g = zs.grid
    return PencilSpec(
        p=SampledFunction(g, 1.0 / Q),
        q=zs.P,
        r=(SampledFunction(g, zs.Q_prime.values / Q**2),
           SampledFunction(g, 1.0 / Q)),
    )


def zs_particular_solution(zs: ZSProblem, *, truncation: int = 100
                           ) -> ParticularSolution:
    """v0 = exp(i int Q) with v0' = i Q v0 when P = Q; SPPS-built otherwise."""
    g = zs.grid
    pencil = zs_to_pencil(zs)
    if np.allclose(zs.P.values, zs.Q.values, rtol=1e-12, atol=0.0):
        phase = cumulative_integral(zs.Q).values  # anchored at -a
        v0 = np.exp(1j * phase)
        v0p = 1j * zs.Q.values * v0
        return ParticularSolution.from_samples(
            SampledFunction(g, v0), SampledFunction(g, v0p),
            pencil.p, pencil.q, provenance="closed-form")
    return build_particular_solution(pencil.p, pencil.q, truncation=truncation)


def zs_solution(zs: ZSProblem, table: FormalPowerTable, lam: complex,
                c1: complex, c2: complex, *, center: complex = 0.0
                ) -> tuple[SampledFunction, SampledFunction]:
    """(v1, v2) from a formal-power table of the ZS pencil.

    The series runs in lambda - center, which must be one of the table's
    eval_points, while the first component is recovered as
    v1 = -(v2' + lambda v2)/Q at the true lambda.
    """
    lam = complex(lam)
    v2, v2p = evaluate_solution(table, lam - complex(center), c1, c2)
    v1 = SampledFunction(zs.grid, -(v2p.values + lam * v2.values) / zs.Q.values)
    return v1, v2


def jost_constants(v0: ParticularSolution) -> tuple[complex, complex]:
    """(c1, c2) giving v1(-a) = 1, v2(-a) = 0."""
    return 0.0, -complex(v0.u0.values[0])


def _dispersion(v0a, w, Qa, xt_even, xt_lag, x_odd, x_even, x_lag):
    """v0(a) (w X^(2k+1)(a) + v0(a) X^(2k-1)(a)) + Q(a) X^(2k)(a)."""
    return v0a * (w * x_odd + v0a * x_lag) + Qa * x_even


def zs_dispersion(table: FormalPowerTable, zs: ZSProblem,
                  center: complex = 0.0) -> CharacteristicSeries:
    """Dispersion series whose zeros (Re lambda > 0) are the ZS eigenvalues.

    table holds the formal powers of the ZS pencil shifted to center, anchored
    at the left end -a, with v0 = table.u0.  Coefficient k collects
    v0(a) (w X^(2k+1)(a) + v0(a) X^(2k-1)(a)) + Q(a) X^(2k)(a) with
    w = v0'(a) + center v0(a), and the same functional bounds the tail.
    """
    center = complex(center)
    v0 = table.u0
    v0a = v0.u0.values[-1]
    w = v0.u0_prime.values[-1] + center * v0a
    return characteristic_series(table, _dispersion, (v0a, w, zs.Q.values[-1]),
                                 center)


# ---------------------------------------------------------------------------
# potential catalog


@dataclass(frozen=True)
class PotentialKind:
    """One catalog entry.

    params are the numeric parameters (the sweepable ones).  Q is a template
    in x with each parameter in braces, or None when the config gives Q (and
    optionally P) as expressions.  P is Q* when conjugate, else Q.  A fixed
    half_width pins the interval; None lets the config choose it (default
    DEFAULT_HALF_WIDTH).  back_map_scale maps the parameters to the s with
    Lambda = s lambda, or is None.
    """

    params: tuple[str, ...]
    Q: str | None
    conjugate: bool
    half_width: float | None
    back_map_scale: Callable[[dict], complex] | None


# semiclassical kinds: Q = (i/eps) A e^(-i S/eps) for q = A e^(i S/eps), P = Q*,
# solved in the lambda = -(i/eps) Lambda frame
POTENTIALS = {
    "klaus_shaw": PotentialKind(("s",), "{s}*(-1+3*pi/4+3*x^2)", False, 1.0, None),
    # A = S = sech(2x)
    "bronski": PotentialKind(
        ("epsilon",), "i/{epsilon}*sech(2*x)*exp(-i*sech(2*x)/{epsilon})",
        True, None, lambda p: 1j * p["epsilon"]),
    # A = -sech(x), S = -mu log cosh(x)
    "tovbis": PotentialKind(
        ("mu", "epsilon"),
        "i/{epsilon}*(-sech(x))*exp(-i*(-{mu}*log(cosh(x)))/{epsilon})",
        True, None, lambda p: 1j * p["epsilon"]),
    "expression": PotentialKind((), None, True, None, None),
}


def potential_half_width(pot: dict) -> float:
    """The a of [-a, a] for a potential object."""
    fixed = POTENTIALS[pot["kind"]].half_width
    if fixed is not None:
        return fixed
    return float(pot.get("half_width", DEFAULT_HALF_WIDTH))


def materialize_potential(pot: dict, grid: Grid | None = None, *,
                          panels: int = 16) -> ZSProblem:
    """Sample a potential object ({"kind": ..., its parameters, optional
    half_width, and Q and P for an expression}) on a grid of [-a, a] (uniform
    with `panels` panels when absent); Q' is Q's spectral derivative on the
    grid's panels, as v' is in `problems.dirac_to_pencil`."""
    kind = POTENTIALS.get(pot["kind"])
    if kind is None:
        raise ValueError(f"unknown potential kind {pot['kind']!r}")
    a = potential_half_width(pot)
    if grid is None:
        grid = Grid.uniform(-a, a, panels)
    if abs(grid.b - a) > 1e-12:
        raise GridError(f"grid [{grid.a}, {grid.b}] does not span [-{a}, {a}]")
    if kind.Q is None:
        src = pot["Q"]
    else:  # repr round-trips, so the template sees the parameters exactly
        src = kind.Q.format(**{k: f"({float(pot[k])!r})" for k in kind.params})
    Q = evaluate_on_grid(parse(src), grid)
    if "P" in pot:
        P = evaluate_on_grid(parse(pot["P"]), grid)
    else:
        P = Q.conj() if kind.conjugate else Q
    scale = kind.back_map_scale(pot) if kind.back_map_scale else None
    return ZSProblem(Q=Q, P=P, Q_prime=derivative(Q), back_map_scale=scale)
