"""Formal powers and power-series solutions for polynomial Sturm-Liouville pencils.

The pencil is (p u')' + q u = u * sum_k lambda^k r_k, k = 1..N.  Given a
non-vanishing particular solution u0 of the lambda = 0 equation, the general
solution is a power series in lambda whose coefficients (the "formal powers")
are recursively computed integrals anchored at the grid's left end, each one
spectral integration over the grid's panels.  This module builds a table of
their right-end values and of their series sums at requested lambdas, flags
the panels on which the table's integrands are not resolved, evaluates the two
fundamental solutions u1, u2 and their derivatives there, constructs u0 when
it is not supplied, and computes the rigorous factorial-type majorant used to
bound series-truncation tails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import GridError, NodeValueError, ParticularSolutionError
from .grids import (
    Grid,
    SampledFunction,
    _cumulative_values,
    constant,
    cumulative_integral,
    interpolate,
    unresolved,
)

U0_FLOOR_RATIO = 1e-12
EPS = np.finfo(np.float64).eps
# a travelling-wave u0 replaces a standing-wave one only when its minimum
# modulus ratio is this much larger: near ties flip between centers, and the
# chain loses digits when u0 changes character from one center to the next
WAVE_GAIN = 1.5
TAIL_REL_CUTOFF = 1e-18
TAIL_MAX_TERMS = 200000


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

    def on(self, grid: Grid) -> "PencilSpec":
        """The coefficients interpolated onto another grid of their interval."""
        return PencilSpec(p=interpolate(self.p, grid), q=interpolate(self.q, grid),
                          r=tuple(interpolate(rk, grid) for rk in self.r))


@dataclass(frozen=True)
class ParticularSolution:
    """Non-vanishing solution of the lambda = 0 pencil equation, with derivative.

    residual is the sup-norm of p*u0' - p*u0'(a) + int_a^x(q*u0) relative to
    its natural scale, computed in integral form to avoid second differences.
    """

    u0: SampledFunction
    u0_prime: SampledFunction
    provenance: str  # "user-supplied" | "closed-form" | "spps-built"
    residual: float
    min_modulus_ratio: float
    # rounding error of u0 at each node when it comes from a series sum
    noise: np.ndarray | None = field(default=None, repr=False, compare=False)

    @staticmethod
    def from_samples(u0: SampledFunction, u0_prime: SampledFunction,
                     p: SampledFunction, q: SampledFunction,
                     provenance: str = "user-supplied") -> "ParticularSolution":
        ratio = _min_modulus_ratio(u0)
        if ratio < U0_FLOOR_RATIO:
            i = int(np.argmin(np.abs(u0.values)))
            raise ParticularSolutionError(
                f"u0 modulus falls below {U0_FLOOR_RATIO:g} of its maximum at node {i} "
                f"(x = {float(u0.grid.nodes[i])}); supply a different u0 or use a "
                "spectral shift"
            )
        res = _ode_residual(u0, u0_prime, p, q)
        return ParticularSolution(u0, u0_prime, provenance, res, ratio)

    def on(self, grid: Grid) -> "ParticularSolution":
        """u0 and u0' (and their noise) interpolated onto another grid of
        their interval."""
        noise = self.noise
        if noise is not None:
            noise = interpolate(SampledFunction(self.u0.grid, noise), grid).values.real
        return replace(self, u0=interpolate(self.u0, grid),
                       u0_prime=interpolate(self.u0_prime, grid), noise=noise)


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
    passed as eval_points are kept; each whole-grid power lives just as long
    as the recursion reaches back to it.  unresolved flags the panels on
    which 1/(u0^2 p), some u0^2 r_k or the top-order integrand of either
    family is not resolved (grids.unresolved) to within the rounding error
    that u0 carries.
    """

    pencil: PencilSpec
    u0: ParticularSolution
    truncation: int
    xtilde_end: np.ndarray  # Xtilde^(n)(b), n = 0..2M+1
    x_end: np.ndarray       # X^(n)(b)
    sums: dict[complex, PowerSums]
    unresolved: np.ndarray

    @property
    def grid(self) -> Grid:
        return self.pencil.grid


def _run_family(grid, n_top: int, N: int, r_on_odd: bool,
                weighted_r: list[np.ndarray], inv_u0sq_p: np.ndarray,
                eval_points: tuple[complex, ...]):
    """One recursion chain (the Xtilde family has r_on_odd=True, X has False).

    Returns (right-end column, series sums at the eval points split by
    parity, the sums of their terms' moduli, top-order integrand).
    """
    n_nodes = grid.n_nodes
    one = np.ones(n_nodes, dtype=np.complex128)
    hist: list[np.ndarray] = [one]
    window = 2 * N
    col_end = np.empty(n_top + 1, dtype=np.complex128)
    col_end[0] = 1.0
    even_sums = {complex(lam): one.copy() for lam in eval_points}
    odd_sums = {complex(lam): np.zeros(n_nodes, dtype=np.complex128)
                for lam in eval_points}
    mag_sums = {complex(lam): np.ones(n_nodes) for lam in eval_points}
    lam_power = {complex(lam): 1.0 + 0.0j for lam in eval_points}
    # buffers for the integrand and for one product, reused across orders
    acc = np.empty(n_nodes, dtype=np.complex128)
    term = np.empty(n_nodes, dtype=np.complex128)
    mag = np.empty(n_nodes)

    for n in range(1, n_top + 1):
        r_turn = (n % 2 == 1) == r_on_odd
        if r_turn:
            acc[:] = 0.0
            for k in range(1, min(N, (n + 1) // 2) + 1):
                # reach back to entry n - 2k + 1 of the trimmed history
                prev = hist[len(hist) - 2 * k + 1]
                acc += np.multiply(prev, weighted_r[k - 1], out=term)
        else:
            np.multiply(hist[-1], inv_u0sq_p, out=acc)
        F = _cumulative_values(grid, acc)
        col_end[n] = F[-1]
        for lam in even_sums:
            if n % 2 == 0:
                lam_power[lam] *= lam
                even_sums[lam] += np.multiply(lam_power[lam], F, out=term)
            else:
                odd_sums[lam] += np.multiply(lam_power[lam], F, out=term)
            mag_sums[lam] += np.multiply(np.abs(F, out=mag), abs(lam_power[lam]), out=mag)
        hist.append(F)
        if len(hist) > window:
            del hist[0]
    return col_end, even_sums, odd_sums, mag_sums, acc


def build_formal_powers(spec: PencilSpec, u0: ParticularSolution,
                        truncation: int, *,
                        eval_points: tuple[complex, ...] = ()) -> FormalPowerTable:
    """Run the recursive-integral scheme from the left end up to index
    2*truncation + 1.

    Odd Xtilde integrates u0^2 * sum_k Xtilde^(n-2k+1) r_k, even Xtilde
    integrates Xtilde^(n-1)/(u0^2 p); the X family swaps the parities.
    Negative indices contribute nothing, Xtilde^(0) = X^(0) = 1, and every
    higher power vanishes at the left end.  The table keeps the right-end
    values and the series sums at each lambda in eval_points, the only lambdas
    evaluate_solution accepts.
    """
    grid = spec.grid
    n_top = 2 * truncation + 1
    N = spec.degree

    u0sq = u0.u0.values * u0.u0.values
    denom = u0sq * spec.p.values
    mags = np.abs(denom)
    if mags.min() < 1e-300:
        raise NodeValueError("u0^2 * p vanishes", int(np.argmin(mags)))
    inv_u0sq_p = 1.0 / denom
    weighted_r = [u0sq * rk.values for rk in spec.r]
    eval_points = tuple(complex(lam) for lam in eval_points)

    integrands = (weighted_r, inv_u0sq_p, eval_points)
    # powers that overflow are reported by the characteristic series built
    # from them, which names its center
    with np.errstate(over="ignore", invalid="ignore"):
        xtilde_end, st_even, st_odd, st_mag, xt_top = _run_family(
            grid, n_top, N, True, *integrands)
        x_end, s_even, s_odd, s_mag, x_top = _run_family(
            grid, n_top, N, False, *integrands)
    sums = {lam: PowerSums(lam, st_even[lam], st_odd[lam], s_even[lam], s_odd[lam],
                           st_mag[lam] + s_mag[lam]) for lam in eval_points}
    # each integrand to within its rounding error, twice u0's relative error
    rel = None if u0.noise is None else 2.0 * u0.noise / np.abs(u0.u0.values)
    bad = np.zeros(grid.panels, dtype=bool)
    for f in (inv_u0sq_p, *weighted_r, xt_top, x_top):
        bad |= unresolved(grid, f, noise=None if rel is None else rel * np.abs(f))

    return FormalPowerTable(pencil=spec, u0=u0, truncation=truncation,
                            xtilde_end=xtilde_end, x_end=x_end, sums=sums,
                            unresolved=bad)


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
    evaluates at lambda = 1 and returns u1 + i u2.  For real p, q the two real
    solutions cannot vanish simultaneously; for complex coefficients the result
    is checked numerically.
    """
    grid = p.grid
    seed = ParticularSolution(
        u0=constant(grid, 1.0), u0_prime=constant(grid, 0.0),
        provenance="closed-form", residual=0.0, min_modulus_ratio=1.0,
    )
    aux = PencilSpec(p=p, q=constant(grid, 0.0), r=(-q,))
    table = build_formal_powers(aux, seed, truncation, eval_points=(1.0 + 0.0j,))
    u1, u1p = evaluate_solution(table, 1.0, 1.0, 0.0)
    u2, u2p = evaluate_solution(table, 1.0, 0.0, 1.0)
    u0 = SampledFunction(grid, u1.values + 1j * u2.values)
    u0_prime = SampledFunction(grid, u1p.values + 1j * u2p.values)
    return ParticularSolution.from_samples(
        u0, u0_prime, p, q, provenance="spps-built")


def chain_particular_solution(table: FormalPowerTable, lam: complex,
                              p: SampledFunction, q_eff: SampledFunction
                              ) -> ParticularSolution:
    """Particular solution at the next series center, lam away from this
    table's center, evaluated from the table (lam must be one of its
    eval_points).

    Tries the combinations u1 + i u2, u1 - i u2 and u1, and the two whose
    p u'/u at the left end is +-sqrt(-q_eff p) there, the travelling waves of
    the frozen-coefficient equation, and keeps the one whose minimum modulus
    (relative to its maximum) is largest, a travelling wave only when it wins
    by WAVE_GAIN.  A travelling wave keeps 1/(u0^2 p) free of the near-poles
    that a standing wave puts at its nodes, so far centers need fewer panels.
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
    best = None
    best_ratio = -1.0
    for i, (c1, c2) in enumerate(candidates):
        u, up = evaluate_solution(table, lam, c1, c2)
        ratio = _min_modulus_ratio(u)
        if ratio > best_ratio * (WAVE_GAIN if i >= 3 else 1.0):
            best_ratio = ratio
            best = (u, up)
    if best_ratio < U0_FLOOR_RATIO:
        raise ParticularSolutionError(
            f"no non-vanishing combination found at center {lam}; "
            f"best modulus ratio {best_ratio:.3e}"
        )
    u, up = best
    sol = ParticularSolution.from_samples(u, up, p, q_eff, provenance="spps-built")
    noise = EPS * np.abs(table.u0.u0.values) * table.sums[complex(lam)].magnitude
    return replace(sol, noise=noise)


# ---------------------------------------------------------------------------
# truncation-tail majorant
#
# Each characteristic functional (problems.characteristic_series) is a sum of
# products of boundary constants and right-end formal powers.  Bounding each
# family's tail past order M and substituting the bounds and the constants'
# moduli into the same functional bounds the series' tail.


def majorant_scale(spec: PencilSpec, u0: ParticularSolution) -> float:
    """Grid maximum of |u0^2 r_k| over all k and of |1/(u0^2 p)|."""
    u0sq = u0.u0.values * u0.u0.values
    m = float(np.max(np.abs(1.0 / (u0sq * spec.p.values))))
    for rk in spec.r:
        m = max(m, float(np.max(np.abs(u0sq * rk.values))))
    return m


def tail_series(m_hat: float, truncation: int, degree: int) -> float:
    """sum_{n > truncation} m_hat^n / (2*floor(n/degree))!, or inf on overflow.

    The terms eventually decay factorially, so the sum is finite whenever the
    floating-point terms do not overflow along the way.
    """
    if m_hat == 0.0:
        return 0.0
    if not np.isfinite(m_hat):
        return math.inf
    n = truncation + 1
    q = n // degree
    log_term = n * math.log(m_hat) - math.lgamma(2 * q + 1)
    if log_term > 700.0:
        return math.inf
    term = math.exp(log_term)
    total = 0.0
    for _ in range(TAIL_MAX_TERMS):
        total += term
        n += 1
        term *= m_hat
        if n % degree == 0:
            q = n // degree
            term /= (2 * q) * (2 * q - 1)
        if not np.isfinite(term) or not np.isfinite(total):
            return math.inf
        if term < TAIL_REL_CUTOFF * total:
            return total + term
    return math.inf


def tail_components(spec: PencilSpec, u0: ParticularSolution, lam_abs: float,
                    truncation: int) -> tuple[float, float, float, float, float]:
    """Rigorous tail bounds for |lambda| <= lam_abs past order M = truncation,
    one per right-end family a characteristic functional reads.

    Returns bounds on sum_{n>M} |lam^n| sup|F_n| for F_n = Xtilde^(2n),
    Xtilde^(2n-1), X^(2n+1), X^(2n) and X^(2n-1), in the order of
    problems.characteristic_series, which applies the functional to them.
    Every even-index family (tilde or not) obeys the factorial majorant
    sum_{n>M} m_hat^n / (2*floor(n/N))! with m_hat = lam_abs ((m (b-a))^2 + 1).
    """
    m = majorant_scale(spec, u0)
    length = spec.grid.b - spec.grid.a
    N = spec.degree
    m_hat = lam_abs * ((m * length) ** 2 + 1.0)

    def T(M: int) -> float:
        return tail_series(m_hat, M, N)

    def term(n: int) -> float:
        if m_hat == 0.0:
            return 0.0
        q = n // N
        lt = n * math.log(m_hat) - math.lgamma(2 * q + 1)
        return math.exp(lt) if lt < 700 else math.inf

    even = T(truncation)
    # |X^(2n+1)| <= m*length * sup|X^(2n)|
    odd_x = m * length * even
    # |Xtilde^(2n+1)| <= m*length * sum_{k=1..N} sup|Xtilde^(2(n-k+1))|
    odd_xtilde = 0.0
    head_xtilde = 0.0  # same bound applied to the single order-M odd power
    for k in range(1, N + 1):
        odd_xtilde += (lam_abs ** (k - 1)) * T(truncation - k + 1)
        head_xtilde += (lam_abs ** (k - 1)) * term(truncation - k + 1)
    odd_xtilde *= m * length
    head_xtilde *= m * length
    # sum_{n>M} |lam^n X^(2n-1)| = lam * sum_{j>=M} |lam^j X^(2j+1)|
    lagged_x = lam_abs * (m * length * term(truncation) + odd_x)
    lagged_xtilde = lam_abs * (head_xtilde + odd_xtilde)
    return even, lagged_xtilde, odd_x, even, lagged_x


def wronskian(table: FormalPowerTable, lam: complex) -> SampledFunction:
    """p (u1 u2' - u1' u2) along the grid; constant in x by the Abel identity."""
    u1, u1p = evaluate_solution(table, lam, 1.0, 0.0)
    u2, u2p = evaluate_solution(table, lam, 0.0, 1.0)
    p = table.pencil.p.values
    return SampledFunction(
        table.pencil.grid,
        p * (u1.values * u2p.values - u1p.values * u2.values),
    )
