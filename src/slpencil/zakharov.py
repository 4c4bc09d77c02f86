"""Generalized Zakharov-Shabat systems: v1' = lambda v1 + P v2, v2' = -lambda v2 - Q v1.

Eliminating v1 turns the system into a quadratic pencil for v2, so the SPPS
machinery applies directly.  For a potential compactly supported on [-a, a]
the Jost boundary conditions reduce the eigenvalue problem to the zeros (with
Re lambda > 0) of an explicit dispersion series, which this module builds from
a formal-power table of the pencil, optionally re-centered by a spectral
shift.  A catalog of standard test potentials (a truncated parabola and two
semiclassical sech profiles) is included; semiclassical potentials are solved
in the lambda = -(i/eps) Lambda frame and reported in both coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridError, NodeValueError
from .expressions import NonHolomorphicError, differentiate, evaluate_on_grid, parse
from .grids import Grid, SampledFunction, cumulative_integral, derivative
from .problems import CharacteristicSeries
from .spps import (
    FormalPowerTable,
    ParticularSolution,
    PencilSpec,
    build_particular_solution,
    evaluate_solution,
    tail_components,
)

DEFAULT_HALF_WIDTH = 10.0
KLAUS_SHAW_HALF_WIDTH = 1.0


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

    @property
    def half_width(self) -> float:
        return self.grid.b

    def back_map(self, lam: complex) -> complex | None:
        return None if self.back_map_scale is None else self.back_map_scale * lam


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


def zs_dispersion(table: FormalPowerTable, zs: ZSProblem,
                  center: complex = 0.0) -> CharacteristicSeries:
    """Dispersion series whose zeros (Re lambda > 0) are the ZS eigenvalues.

    table holds the formal powers of the ZS pencil shifted to center, anchored
    at the left end -a, with v0 = table.u0.  Coefficient k collects
    v0(a) ((v0'(a) + center v0(a)) X^(2k+1)(a) + v0(a) X^(2k-1)(a))
    + Q(a) X^(2k)(a).
    """
    center = complex(center)
    v0 = table.u0
    v0a = v0.u0.values[-1]
    v0pa = v0.u0_prime.values[-1]
    Qa = zs.Q.values[-1]
    coeffs = np.empty(table.truncation + 1, dtype=np.complex128)
    for k in range(table.truncation + 1):
        x_odd = table.x_end[2 * k + 1]
        x_lag = table.x_end[2 * k - 1] if k >= 1 else 0.0
        coeffs[k] = (v0a * ((v0pa + center * v0a) * x_odd + v0a * x_lag)
                     + Qa * table.x_end[2 * k])
    return CharacteristicSeries(center=center, coeffs=coeffs,
                                meta={"table": table, "zs": zs})


def zs_dispersion_tail(series: CharacteristicSeries, lam_abs: float) -> float:
    """Rigorous |Phi - Phi_M| bound for |lambda - center| <= lam_abs."""
    table: FormalPowerTable = series.meta["table"]
    zs: ZSProblem = series.meta["zs"]
    v0 = table.u0
    comps = tail_components(table.pencil, v0, lam_abs, table.truncation)
    v0a = abs(v0.u0.values[-1])
    v0pa = abs(v0.u0_prime.values[-1] + series.center * v0.u0.values[-1])
    Qa = abs(zs.Q.values[-1])
    return v0a * (v0pa * comps.odd_x + v0a * comps.lagged_x) + Qa * comps.even


# ---------------------------------------------------------------------------
# potential catalog


@dataclass(frozen=True)
class PotentialSpec:
    """Named or expression-defined potential, truncated to [-a, a].

    kinds: klaus_shaw(s) on [-1, 1]; bronski(epsilon) and tovbis(mu, epsilon)
    with the semiclassical identification Q = (i/eps) q*, lambda = -(i/eps)
    Lambda; expression(src) taken as Q directly with P = Q* nodewise.
    """

    kind: str
    half_width: float
    params: dict

    @staticmethod
    def klaus_shaw(s: float) -> "PotentialSpec":
        return PotentialSpec("klaus_shaw", KLAUS_SHAW_HALF_WIDTH, {"s": float(s)})

    @staticmethod
    def bronski(epsilon: float,
                half_width: float = DEFAULT_HALF_WIDTH) -> "PotentialSpec":
        return PotentialSpec("bronski", float(half_width),
                             {"epsilon": float(epsilon)})

    @staticmethod
    def tovbis(mu: float, epsilon: float,
               half_width: float = DEFAULT_HALF_WIDTH) -> "PotentialSpec":
        return PotentialSpec("tovbis", float(half_width),
                             {"mu": float(mu), "epsilon": float(epsilon)})

    @staticmethod
    def expression(src: str, half_width: float,
                   src_p: str | None = None) -> "PotentialSpec":
        return PotentialSpec("expression", float(half_width),
                             {"Q": src, **({"P": src_p} if src_p else {})})


def _semiclassical(grid: Grid, eps: float, amp, amp_prime, phase,
                   phase_prime) -> ZSProblem:
    """Q = (i/eps) A e^(-i S/eps) and P = Q* for q = A e^(i S/eps), A, S real."""
    x = grid.nodes
    A = amp(x)
    Ap = amp_prime(x)
    S = phase(x)
    Sp = phase_prime(x)
    carrier = np.exp(-1j * S / eps)
    Q = (1j / eps) * A * carrier
    Qp = (1j / eps) * (Ap - 1j * A * Sp / eps) * carrier
    return ZSProblem(
        Q=SampledFunction(grid, Q),
        P=SampledFunction(grid, np.conj(Q)),
        Q_prime=SampledFunction(grid, Qp),
        back_map_scale=1j * eps,
    )


def materialize_potential(spec: PotentialSpec, grid: Grid | None = None, *,
                          panels: int = 16) -> ZSProblem:
    """Sample a catalog potential on a grid of [-a, a] (uniform with `panels`
    panels when absent)."""
    if grid is None:
        grid = Grid.uniform(-spec.half_width, spec.half_width, panels)
    if abs(grid.b - spec.half_width) > 1e-12:
        raise GridError(
            f"grid [{grid.a}, {grid.b}] does not span [-{spec.half_width}, "
            f"{spec.half_width}]")
    if spec.kind == "klaus_shaw":
        s = spec.params["s"]
        x = grid.nodes
        Q = SampledFunction(grid, s * (-1.0 + 3 * np.pi / 4 + 3 * x**2))
        return ZSProblem(Q=Q, P=Q, Q_prime=SampledFunction(grid, 6.0 * s * x))
    if spec.kind == "bronski":
        eps = spec.params["epsilon"]
        sech2 = lambda x: 1.0 / np.cosh(2 * x)
        dsech2 = lambda x: -2.0 * np.tanh(2 * x) / np.cosh(2 * x)
        return _semiclassical(grid, eps, sech2, dsech2, sech2, dsech2)
    if spec.kind == "tovbis":
        mu = spec.params["mu"]
        eps = spec.params["epsilon"]
        amp = lambda x: -1.0 / np.cosh(x)
        amp_p = lambda x: np.tanh(x) / np.cosh(x)
        phase = lambda x: -mu * np.log(np.cosh(x))
        phase_p = lambda x: -mu * np.tanh(x)
        return _semiclassical(grid, eps, amp, amp_p, phase, phase_p)
    if spec.kind == "expression":
        q_expr = parse(spec.params["Q"])
        Q = evaluate_on_grid(q_expr, grid)
        try:
            Qp = evaluate_on_grid(differentiate(q_expr), grid)
        except NonHolomorphicError:
            Qp = derivative(Q)
        if "P" in spec.params:
            P = evaluate_on_grid(parse(spec.params["P"]), grid)
        else:
            P = Q.conj()
        return ZSProblem(Q=Q, P=P, Q_prime=Qp)
    raise ValueError(f"unknown potential kind {spec.kind!r}")
