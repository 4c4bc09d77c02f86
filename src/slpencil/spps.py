"""Formal powers and power-series solutions for polynomial Sturm-Liouville pencils.

The pencil is (p u')' + q u = u * sum_k lambda^k r_k, k = 1..N.  Given a
non-vanishing particular solution u0 of the lambda = 0 equation, the general
solution is a power series in lambda whose coefficients (the "formal powers")
are recursively computed integrals anchored at the grid's left end, each one
spectral integration over the grid's panels.  This module builds tables of
their right-end values and of their series sums at requested lambdas, for a
batch of pencils on one grid at once, running every item and both families of
formal powers in one loop in panel layout (each order one (items, 2, P,
panels) array, each table bit for bit that of a batch of one), checks the
recursion kernels 1/(u0^2 p) and u0^2 r_k on a grid before a table is built on
it (recursion_kernels), flags the panels on which the table's integrands are
not resolved, evaluates the two fundamental solutions u1, u2 and their
derivatives there, constructs u0 when it is not supplied, and bounds the
series-truncation tails by Gronwall's inequality, restarted from the last
orders the table computed.  Its truncation is a ceiling: a table told the
radius of the disc its roots are looked for in stops at the first order where
those bounds at that radius fall below rounding, and leaves its batch there.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import GridError, NodeValueError, ParticularSolutionError
from .grids import (
    P,
    Grid,
    SampledFunction,
    _cumulative_panels,
    _cumulative_values,
    _nodewise,
    constant,
    cumulative_integral,
    interpolate,
    unresolved,
)

U0_FLOOR_RATIO = 1e-12
EPS = np.finfo(np.float64).eps
# a table with a finite radius tries to stop at orders STOP_FROM,
# STOP_FROM + STOP_EVERY, ... (build_formal_powers)
STOP_FROM = 12
STOP_EVERY = 4


@dataclass(frozen=True)
class PencilSpec:
    """Coefficients of a degree-N pencil on one shared grid."""

    p: SampledFunction
    q: SampledFunction
    r: tuple[SampledFunction, ...]

    def __post_init__(self):
        object.__setattr__(self, "r", tuple(self.r))
        if not self.r:
            raise GridError("a pencil needs at least one r coefficient")
        for f in (self.q, *self.r):
            if f.grid != self.p.grid:
                raise GridError("pencil coefficients live on different grids")

    @property
    def grid(self) -> Grid:
        return self.p.grid

    @property
    def degree(self) -> int:
        return len(self.r)

    @staticmethod
    def on(specs: Sequence["PencilSpec"], grid: Grid) -> list["PencilSpec"]:
        """Each pencil's coefficients interpolated onto another grid of their
        interval, all in one stacked grids.interpolate pass."""
        fs = iter(interpolate([f for s in specs for f in (s.p, s.q, *s.r)], grid))
        return [PencilSpec(p=next(fs), q=next(fs), r=tuple(next(fs) for _ in s.r))
                for s in specs]


@dataclass(frozen=True)
class ParticularSolution:
    """Non-vanishing solution of the lambda = 0 pencil equation, with derivative.

    residual is the sup-norm of p*u0' - p*u0'(a) + int_a^x(q*u0) relative to
    its natural scale, computed in integral form to avoid second differences.
    """

    u0: SampledFunction
    u0_prime: SampledFunction
    provenance: str  # "closed-form" | "spps-built"
    residual: float
    min_modulus_ratio: float
    # rounding error of u0 at each node when it comes from a series sum
    noise: np.ndarray | None = field(default=None, repr=False, compare=False)

    @staticmethod
    def unit(grid: Grid) -> "ParticularSolution":
        """u0 = 1, u0' = 0: the particular solution of a pencil with q = 0."""
        return ParticularSolution(constant(grid, 1.0), constant(grid, 0.0),
                                  "closed-form", 0.0, 1.0)

    @staticmethod
    def from_samples(u0: SampledFunction, u0_prime: SampledFunction,
                     p: SampledFunction, q: SampledFunction,
                     provenance: str) -> "ParticularSolution":
        ratio = _min_modulus_ratio(u0)
        if ratio < U0_FLOOR_RATIO:
            x = float(u0.grid.nodes[np.argmin(np.abs(u0.values))])
            raise ParticularSolutionError(
                f"the {provenance} u0 falls to {ratio:.3e} of its maximum "
                f"modulus, at x = {x}")
        res = _ode_residual(u0, u0_prime, p, q)
        return ParticularSolution(u0, u0_prime, provenance, res, ratio)

    @staticmethod
    def on(sols: Sequence["ParticularSolution"], grid: Grid
           ) -> list["ParticularSolution"]:
        """Each u0 and u0' (and its noise) interpolated onto another grid of
        their interval, all in one stacked grids.interpolate pass."""
        fs = iter(interpolate([f for sol in sols for f in (
            sol.u0, sol.u0_prime,
            *(() if sol.noise is None else (SampledFunction(sol.u0.grid, sol.noise),)))],
            grid))
        return [replace(sol, u0=next(fs), u0_prime=next(fs),
                        noise=None if sol.noise is None else next(fs).values.real)
                for sol in sols]


def _min_modulus_ratio(f: SampledFunction) -> float:
    mags = np.abs(f.values)
    top = mags.max()
    return float(mags.min() / top) if top > 0 else 0.0


def _ode_residual(u0, u0_prime, p, q) -> float:
    pu = p.values * u0_prime.values
    accum = cumulative_integral(SampledFunction(p.grid, q.values * u0.values)).values
    res = pu - pu[0] + accum
    scale = max(np.max(np.abs(pu)), np.max(np.abs(accum)), 1e-30)
    return float(np.max(np.abs(res)) / scale)


@dataclass
class PowerSums:
    """Series sums at one fixed lambda, accumulated while the table is built.

    s_tilde_even = sum_n lam^n Xtilde^(2n)     s_tilde_odd = sum_n lam^n Xtilde^(2n+1)
    s_even       = sum_n lam^n X^(2n)          s_odd       = sum_n lam^n X^(2n+1)

    magnitude sums the moduli of all those terms, the scale of the rounding
    error in the four sums (and so in a u0 chained from them).
    """

    lam: complex
    s_tilde_even: np.ndarray
    s_tilde_odd: np.ndarray
    s_even: np.ndarray
    s_odd: np.ndarray
    magnitude: np.ndarray


@dataclass
class FormalPowerTable:
    """Formal powers of one pencil, anchored at the grid's left end a, up to
    order 2M+1.

    Only their values at the right end b and their PowerSums at the lambdas
    passed as eval_points are kept; each whole-grid power lives, in the
    recursion's panel layout, just as long as the recursion reaches back to
    it, and what the table keeps is at the grid's nodes.  unresolved flags
    the panels on which 1/(u0^2 p), some u0^2 r_k (recursion_kernels) or the
    top-order integrand of either family is not resolved (grids.unresolved)
    to within the rounding error that u0 carries.
    """

    pencil: PencilSpec
    u0: ParticularSolution
    truncation: int
    xtilde_end: np.ndarray  # Xtilde^(n)(b), n = 0..2M+1
    x_end: np.ndarray       # X^(n)(b)
    sums: dict[complex, PowerSums]
    unresolved: np.ndarray
    # the recursion kernels (g, rho): g = 1/(u0^2 p) and rho_k = u0^2 r_k
    kernels: tuple[np.ndarray, list[np.ndarray]]
    # the last (up to 2N) whole-grid powers of the Xtilde and the X family,
    # oldest first and ending at order 2M+1, which tail_components restarts from
    last_orders: tuple[list[np.ndarray], list[np.ndarray]]
    # with a finite radius, whether the table stopped where its tails fell
    # below rounding (False: it reached truncation first); None without one
    tail_converged: bool | None

    @property
    def grid(self) -> Grid:
        return self.pencil.grid


def recursion_kernels(spec: PencilSpec, u0: ParticularSolution
                      ) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """The recursion kernels g = 1/(u0^2 p) and rho_k = u0^2 r_k at the
    grid's nodes, and the panels on which some kernel is not resolved
    (grids.unresolved) to within the rounding error that u0 carries.

    A table built on a grid with flagged kernels is flagged there too, so a
    refinement can split those panels before it builds one."""
    u0sq = u0.u0.values * u0.u0.values
    denom = u0sq * spec.p.values
    mags = np.abs(denom)
    if mags.min() < 1e-300:
        raise NodeValueError("u0^2 * p vanishes", int(np.argmin(mags)))
    g = 1.0 / denom
    rho = [u0sq * rk.values for rk in spec.r]
    return g, rho, _unresolved_within_noise(spec.grid, u0, g, *rho)


def _unresolved_within_noise(grid: Grid, u0: ParticularSolution,
                             *values: np.ndarray) -> np.ndarray:
    """grids.unresolved of each node array to within its rounding error,
    twice u0's relative error times its modulus."""
    rel = None if u0.noise is None else 2.0 * u0.noise / np.abs(u0.u0.values)
    bad = np.zeros(grid.panels, dtype=bool)
    for f in values:
        bad |= unresolved(grid, f, noise=None if rel is None else rel * np.abs(f))
    return bad


def build_formal_powers(items: Sequence[tuple[PencilSpec, ParticularSolution]],
                        truncation: int, *, eval_points: tuple[complex, ...] = (),
                        radius: float = math.inf, kernels: Sequence[tuple] | None = None
                        ) -> list[FormalPowerTable]:
    """The table of each (pencil, u0) item, all on one grid and of one
    degree: run the recursive-integral scheme from the left end up to index
    2M + 1, M = truncation or the order where the item stops.

    Odd Xtilde integrates u0^2 * sum_k Xtilde^(n-2k+1) r_k, even Xtilde
    integrates Xtilde^(n-1)/(u0^2 p); the X family swaps the parities.
    Negative indices contribute nothing, Xtilde^(0) = X^(0) = 1, and every
    higher power vanishes at the left end.  Each table keeps the right-end
    values and the series sums at each lambda in eval_points, the only lambdas
    evaluate_solution accepts.

    The items and both families run in one loop in panel layout: each order
    is one (B, 2, P, panels) array, B the items still running, Xtilde first
    and X second, integrated by one grids._cumulative_panels call, which
    keeps the batch on its leading axes and so makes the products of a
    build of one item.  Each node value is the product or sum, of the same
    operands in the same order, that a recursion of one item and one family
    at the nodes forms (up to the sign of a zero, which no later nonzero
    value sees), so a table does not depend on the layout or on the batch
    it ran in; node layout appears only in what the table keeps.

    With a finite radius R, each item tries to stop at orders m = STOP_FROM,
    STOP_FROM + STOP_EVERY, ... and stops at the first m where
    tail_components(table, R), restarted from the orders built so far,
    bounds each family's tail by eps max_(n<=m) |F_n(b)| R^n, and at each
    eval point bounds every family's by eps times the least modulus sum of
    the series there, its rounding scale.  A table stopped at m is made from
    the state at its stop, and is the table of truncation m: its end values,
    sums, last orders and unresolved flags are those of order 2m + 1; the
    item then leaves the batch.  Where some R^n overflows, or the tails never
    fall, it runs to truncation; R = inf, the default, never stops, for a
    caller whose roots are not confined to a disc.  STOP_FROM leaves the truncation-drift test
    (cli.DRIFT_ORDERS lower) orders to drop.

    kernels, when given, is each item's recursion_kernels, as a caller that
    has checked them before the build computed them; otherwise they are
    computed here.
    """
    if not items:
        return []
    grid, N = items[0][0].grid, items[0][0].degree
    if any(spec.grid != grid or spec.degree != N for spec, _ in items):
        raise GridError("a batch of formal-power tables needs one grid and one degree")
    n_top = 2 * truncation + 1
    cols = grid.panel_index
    checked = (list(kernels) if kernels is not None
               else [recursion_kernels(spec, u0) for spec, u0 in items])
    eval_points = tuple(complex(lam) for lam in eval_points)
    tables: list[FormalPowerTable | None] = [None] * len(items)
    # the item in each row of the batch
    live = list(range(len(items)))

    # what multiplies the last order, by the parity of n: the family that
    # integrates against r at n (Xtilde at odd n) takes rho_1, the rho_k with
    # k >= 2 reaching further back, and the other family takes g
    g_cols = np.stack([g[cols] for g, _, _ in checked])
    rho_cols = [np.stack([rho[k][cols] for _, rho, _ in checked]) for k in range(N)]
    kernel = (np.stack((g_cols, rho_cols[0]), axis=1),
              np.stack((rho_cols[0], g_cols), axis=1))
    one = np.ones((len(items), 2, P, grid.panels), dtype=np.complex128)
    hist: list[np.ndarray] = [one]
    ends = np.empty((len(items), 2, n_top + 1), dtype=np.complex128)
    ends[..., 0] = 1.0
    even_sums = {lam: one.copy() for lam in eval_points}
    odd_sums = {lam: np.zeros_like(one) for lam in eval_points}
    mag_sums = {lam: np.ones(one.shape) for lam in eval_points}
    lam_power = {lam: 1.0 + 0.0j for lam in eval_points}

    def nodes(a: np.ndarray) -> list[np.ndarray]:
        """The Xtilde and the X part of one row's panel-layout array, at the
        nodes."""
        return [_nodewise(grid, part) for part in a]

    def last_orders(row: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
        last = [nodes(h[row]) for h in hist]
        return [xt for xt, _ in last], [x for _, x in last]

    def converged(row: int, m: int) -> bool:
        """Whether the tails of a row's item past order m fall below
        rounding: at radius, each family's against eps times its largest
        term there, and at each eval point, every family's against the
        rounding that the sums carry.

        The Gronwall bounds (_tails) run only behind a gate that the loop's
        next Xtilde order, one term of their forcing F, already decides: a
        table whose tail stays large pays a few products per try."""
        g, rho, _ = checked[live[row]]
        n = 2 * m + 1
        w = power[:m + 2]
        # the largest terms |F_k(b)| R^k, k <= m, of the two Xtilde families,
        # and Xtilde^(2m+1)(b) R^(m+1), a term of their forcing F
        xt = np.abs(ends[row, 0, :n + 1])
        even, lag = (xt[0:n:2] * w[:-1]).max(), (xt[1:n - 1:2] * w[1:-1]).max()
        forced = xt[n] * w[-1]
        c, gamma, spread = growth[live[row]]
        if not (forced * gamma * spread <= EPS * even and forced * c <= EPS * lag
                and math.isfinite(even) and math.isfinite(lag)):
            return False
        x = np.abs(ends[row, 1, :n + 1])
        # each family's largest term, in tail_components' order
        scales = EPS * np.array([even, lag, (x[1::2] * w[:-1]).max(),
                                 (x[0::2] * w[:-1]).max()])
        if not np.isfinite(scales).all():
            return False
        last = last_orders(row)
        if not all(np.array(_tails(grid, (g, rho), last, m, radius)) <= scales):
            return False
        return all(max(_tails(grid, (g, rho), last, m, abs(lam)))
                   <= EPS * np.min(mag_sums[lam][row, 0] + mag_sums[lam][row, 1])
                   for lam in eval_points)

    def table(row: int, m: int, stopped: bool) -> FormalPowerTable:
        """The table of a row's item at truncation m, from the loop's state."""
        i = live[row]
        spec, u0 = items[i]
        g, rho, bad = checked[i]
        sums = {}
        for lam in eval_points:
            (st_even, s_even), (st_odd, s_odd) = (nodes(even_sums[lam][row]),
                                                  nodes(odd_sums[lam][row]))
            st_mag, s_mag = nodes(mag_sums[lam][row])
            sums[lam] = PowerSums(lam, st_even, st_odd, s_even, s_odd, st_mag + s_mag)
        return FormalPowerTable(
            pencil=spec, u0=u0, truncation=m,
            xtilde_end=ends[row, 0, :2 * m + 2], x_end=ends[row, 1, :2 * m + 2],
            sums=sums, kernels=(g, rho), last_orders=last_orders(row),
            unresolved=bad | _unresolved_within_noise(grid, u0, *nodes(acc[row])),
            tail_converged=stopped if math.isfinite(radius) else None)

    # powers that overflow are reported by the characteristic series built
    # from them, which names its center
    with np.errstate(over="ignore", invalid="ignore"):
        growth = [_growth(grid, (g, rho), np.float64(radius)) for g, rho, _ in checked]
        power = np.float64(radius) ** np.arange(truncation + 2)
        # buffers for the integrand and for one product, reused across orders
        acc, term, mag = np.empty_like(one), np.empty_like(one), np.empty(one.shape)
        for n in range(1, n_top + 1):
            np.multiply(hist[-1], kernel[n % 2], out=acc)
            fam = 1 - n % 2  # the family that integrates against r
            for k in range(2, min(N, (n + 1) // 2) + 1):
                # reach back to entry n - 2k + 1 of the trimmed history
                prev = hist[len(hist) - 2 * k + 1]
                acc[:, fam] += np.multiply(prev[:, fam], rho_cols[k - 1],
                                           out=term[:, fam])
            F = _cumulative_panels(grid, acc)
            ends[..., n] = F[..., -1, -1]
            for lam in even_sums:
                if n % 2 == 0:
                    lam_power[lam] *= lam
                    even_sums[lam] += np.multiply(lam_power[lam], F, out=term)
                else:
                    odd_sums[lam] += np.multiply(lam_power[lam], F, out=term)
                mag_sums[lam] += np.multiply(np.abs(F, out=mag), abs(lam_power[lam]),
                                             out=mag)
            hist.append(F)
            if len(hist) > 2 * N:
                del hist[0]
            m = n // 2
            if not (n % 2 and m >= STOP_FROM and (m - STOP_FROM) % STOP_EVERY == 0
                    and math.isfinite(radius)):
                continue
            keep = []
            for row in range(len(live)):
                if converged(row, m):
                    tables[live[row]] = table(row, m, True)
                else:
                    keep.append(row)
            if len(keep) == len(live):
                continue
            # the stopped items leave the batch
            live = [live[row] for row in keep]
            hist = [h[keep] for h in hist]
            kernel = tuple(kn[keep] for kn in kernel)
            rho_cols = [rk[keep] for rk in rho_cols]
            ends = ends[keep]
            for by_lam in (even_sums, odd_sums, mag_sums):
                for lam in by_lam:
                    by_lam[lam] = by_lam[lam][keep]
            acc = acc[keep]
            term, mag = np.empty_like(acc), np.empty(acc.shape)
            if not live:
                break

    for row in range(len(live)):
        tables[live[row]] = table(row, truncation, False)
    return tables


def evaluate_solution(table: FormalPowerTable, lam: complex, c1: complex,
                      c2: complex) -> tuple[SampledFunction, SampledFunction]:
    """u = c1 u1 + c2 u2 and its derivative at a lambda the table was built
    with (one of its eval_points)."""
    lam = complex(lam)
    s = table.sums.get(lam)
    if s is None:
        raise GridError(
            f"no series sums at lambda = {lam}; build the table with it in eval_points"
        )
    grid = table.pencil.grid
    u0 = table.u0.u0.values
    u0p = table.u0.u0_prime.values
    inv_u0p = 1.0 / (u0 * table.pencil.p.values)
    u1 = u0 * s.s_tilde_even
    u2 = u0 * s.s_odd
    u1_prime = u0p * s.s_tilde_even + inv_u0p * (lam * s.s_tilde_odd)
    u2_prime = u0p * s.s_odd + inv_u0p * s.s_even
    u = SampledFunction(grid, c1 * u1 + c2 * u2)
    up = SampledFunction(grid, c1 * u1_prime + c2 * u2_prime)
    return u, up


def build_particular_solution(p: SampledFunction, q: SampledFunction, *,
                              truncation: int = 100) -> ParticularSolution:
    """Construct a non-vanishing u0 for (p u')' + q u = 0.

    Rewrites the equation as (p v')' = lambda (-q) v, seeds the recursion with
    the trivial solution v = 1 of (p v')' = 0 anchored at the grid's left end,
    and chains from that table to lambda = 1 (chain_particular_solution), so
    center 0 chooses its u0 by the rule every chained center uses.
    """
    grid = p.grid
    aux = PencilSpec(p=p, q=constant(grid, 0.0), r=(SampledFunction(grid, -q.values),))
    table, = build_formal_powers([(aux, ParticularSolution.unit(grid))], truncation,
                                 eval_points=(1.0 + 0.0j,))
    return chain_particular_solution(table, 1.0, p, q)


def chain_particular_solution(table: FormalPowerTable, lam: complex,
                              p: SampledFunction, q_eff: SampledFunction
                              ) -> ParticularSolution:
    """Particular solution at the next series center, lam away from this
    table's center, evaluated from the table (lam must be one of its
    eval_points).

    Tries the combinations u1 + i u2, u1 - i u2 and u1, and the two whose
    p u'/u at the left end is +-sqrt(-q_eff p) there, the travelling waves of
    the frozen-coefficient equation, and keeps the one whose minimum modulus
    (relative to its maximum) is largest, the first of any tie.  A travelling
    wave keeps 1/(u0^2 p) free of the near-poles that a standing wave puts at
    its nodes, so far centers need fewer panels.
    q_eff must be the effective potential of the pencil shifted to the new
    center so the stored residual refers to the right equation.  The result
    carries its rounding error, eps |u0| times the moduli of the series
    terms, as noise.
    """
    # u1 + c2 u2 has p u'/u = kappa at a when c2 = u0(a) (kappa u0(a) - p u0'(a))
    u0a, pu0pa = table.u0.u0.values[0], p.values[0] * table.u0.u0_prime.values[0]
    kappa = np.sqrt(-complex(q_eff.values[0] * p.values[0]))
    candidates = [(1.0, 1.0j), (1.0, -1.0j), (1.0, 0.0),
                  *((1.0, u0a * (k * u0a - pu0pa)) for k in (kappa, -kappa))]
    u, up = max((evaluate_solution(table, lam, c1, c2) for c1, c2 in candidates),
                key=lambda sol: _min_modulus_ratio(sol[0]))
    ratio = _min_modulus_ratio(u)
    if ratio < U0_FLOOR_RATIO:
        x = float(u.grid.nodes[np.argmin(np.abs(u.values))])
        raise ParticularSolutionError(
            f"every candidate u0 vanishes: the best falls to {ratio:.3e} of its "
            f"maximum modulus, at x = {x}")
    sol = ParticularSolution.from_samples(u, up, p, q_eff, provenance="spps-built")
    noise = EPS * np.abs(table.u0.u0.values) * table.sums[complex(lam)].magnitude
    return replace(sol, noise=noise)


# ---------------------------------------------------------------------------
# truncation tails
#
# The boundary functional (problems.two_point_series) is a sum of products of
# boundary constants and the right-end values of four formal-power families.
# Bounding each family's tail past order M and substituting the bounds and the
# constants' moduli into the same functional bounds the series' tail.


def _growth(grid: Grid, kernels, r):
    """(cosh(kappa L), gamma, sinh(kappa L)/kappa): how far Gronwall's
    inequality lets a forcing F grow over [a, b] at |lambda| <= r, F cosh(kappa L)
    in the forced tail and F gamma sinh(kappa L)/kappa in the integrated one
    (sinh(kappa L)/kappa is L at kappa = 0)."""
    g, rho = kernels
    gamma = np.max(np.abs(g))
    kappa = np.sqrt(gamma * sum(r ** k * np.max(np.abs(rk))
                                for k, rk in enumerate(rho, 1)))
    L = grid.b - grid.a
    spread = np.sinh(kappa * L) / kappa if kappa != 0.0 else L
    return np.cosh(kappa * L), gamma, spread


def _family_tails(grid: Grid, last: list[np.ndarray], odd: int, rho, r, M: int,
                  growth):
    """(F cosh(kappa L), F gamma sinh(kappa L)/kappa), the bounds on one
    family's forced and integrated tails, with F = sum_k sum_{M-k<i<=M}
    r^(k+i) max_x |int_a^x rho_k P^(2i+odd)| over its last powers P."""
    F = sum(r ** (k + i) * np.max(np.abs(_cumulative_values(
        grid, rk * last[2 * (i - M) + odd - 2])))
        for k, rk in enumerate(rho, 1) for i in range(max(0, M - k + 1), M + 1))
    if F == 0.0:  # an unforced tail vanishes, whatever overflows below
        return 0.0, 0.0
    c, gamma, spread = growth
    return F * c, F * gamma * spread


def tail_components(table: FormalPowerTable, lam_abs: float
                    ) -> tuple[float, float, float, float]:
    """Rigorous bounds, for |lambda| <= r = lam_abs, on the right-end tails
    |sum_{n>M} lambda^n F_n(b)| past M = table.truncation of the four
    families the boundary functional reads: F_n = Xtilde^(2n),
    Xtilde^(2n-1), X^(2n+1) and X^(2n), in the order of
    problems._two_point.

    With the table's kernels g = 1/(u0^2 p) and rho_k = u0^2 r_k (read from
    table.kernels, as the recursion used them) and Lambda = sum_k lambda^k rho_k,
    S = sum_n lambda^n Xtilde^(2n) and A = sum_n lambda^n Xtilde^(2n-1)
    solve the Volterra system S = 1 + int_a g A, A = int_a Lambda S, so their
    tails past M solve T_S = int_a g T_A, T_A = f + int_a Lambda T_S, forced
    by f = sum_k lambda^k int_a rho_k sum_{M-k<i<=M} lambda^i Xtilde^(2i),
    which reads only the last orders the table kept.  Gronwall's inequality
    gives on all of [a, b], with L = b - a,
        |T_A| <= F cosh(kappa L),   |T_S| <= F gamma sinh(kappa L) / kappa
    (F gamma L when kappa = 0), where gamma = max|g|, mu = sum_k r^k
    max|rho_k|, kappa = sqrt(gamma mu) and F = sum_{k,i} r^(k+i) max_x
    |int_a^x rho_k Xtilde^(2i)| bounds |f|.  The X family solves the same
    system with X^(2i+1) in the forcing and bounds the X^(2n) and X^(2n+1)
    tails.

    The maxima are taken over the grid's nodes, so the bound holds up to how
    far |g|, |rho_k| and the integrals exceed their node values between
    nodes, and up to the quadrature error of the powers themselves, both at
    rounding level on panels the table resolves.  A bound with an
    overflowing factor is inf, never nan.
    """
    return _tails(table.grid, table.kernels, table.last_orders, table.truncation,
                  lam_abs)


def _tails(grid: Grid, kernels, last_orders, M: int, lam_abs: float
           ) -> tuple[float, float, float, float]:
    """tail_components from a table's grid, kernels, last orders and
    truncation, before the table is made."""
    rho = kernels[1]
    r = np.float64(lam_abs)
    with np.errstate(over="ignore", invalid="ignore"):
        growth = _growth(grid, kernels, r)
        xt_last, x_last = last_orders
        xt_lag, xt_even = _family_tails(grid, xt_last, 0, rho, r, M, growth)
        x_even, x_odd = _family_tails(grid, x_last, 1, rho, r, M, growth)
    bounds = (xt_even, xt_lag, x_odd, x_even)
    return tuple(float(v) if v <= math.inf else math.inf for v in bounds)
