"""Panel grids, complex sampled functions, and spectral integration.

Every coefficient function, particular solution and formal power in this
package lives on a shared :class:`Grid`: the interval [a, b] cut into panels,
each carrying P Chebyshev-Lobatto nodes, with neighbouring panels sharing their
endpoint node.  On each panel a sampled function stands for its degree P - 1
interpolant, so :func:`cumulative_integral` is one P x P spectral integration
matrix per panel plus a running sum of the panel totals (Greengard, SINUM 28,
1991), and :func:`derivative` is the matching differentiation matrix.  Both
are exact for anything the panels resolve.  A panel resolves a function when
the last two of its P Chebyshev coefficients are below TAIL_TOL times the
function's sup norm, or within its known rounding error (:func:`unresolved`);
:func:`refine` splits the panels that fail until they pass, for a batch of
items at once (the items on one grid are built together), and
:func:`interpolate` carries resolved samples onto another grid, those of one
grid in one stacked pass.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GridError, NodeValueError

#: Chebyshev-Lobatto nodes per panel
P = 16
#: resolution threshold on a panel's last two Chebyshev coefficients,
#: relative to the function's sup norm over the grid
TAIL_TOL = 1e-13


def _chebyshev_matrices() -> tuple[np.ndarray, ...]:
    """Panel nodes t_j = -cos(pi j / (P-1)) on [-1, 1] and the maps from
    values at them to Chebyshev coefficients, to the integrals from -1 to each
    node and to the derivatives at each node.  They come from closed forms in
    extended precision, rounded once, so that the recursion does not compound
    the error of a linear solve."""
    ld = np.longdouble
    n = P - 1
    theta = np.arccos(ld(-1)) * (n - np.arange(P, dtype=ld)) / n
    t = np.cos(theta)
    t = 0.5 * (t - t[::-1])  # exactly odd
    T = np.cos(np.outer(theta, np.arange(P + 1, dtype=ld)))  # T[i, m] = T_m(t_i)
    coef = (2 / ld(n)) * T[:, :P].T
    coef[:, [0, -1]] /= 2
    coef[[0, -1]] /= 2
    # int_{-1}^t T_m = T_{m+1}/(2(m+1)) - T_{m-1}/(2(m-1)) + C, T_m(-1) = (-1)^m
    T -= (-1.0) ** np.arange(P + 1)
    m = np.arange(2, P)
    anti = np.column_stack([T[:, 1], T[:, 2] / 4,
                            T[:, m + 1] / (2 * (m + 1)) - T[:, m - 1] / (2 * (m - 1))])
    # differentiation: (c_i / c_j) / (t_i - t_j) off the diagonal, and each
    # diagonal entry minus its row's sum, so constants have derivative 0
    c = (-1.0) ** np.arange(P)
    c[[0, -1]] *= 2
    der = np.outer(c, 1 / c) / (t[:, None] - t + np.eye(P, dtype=ld))
    np.fill_diagonal(der, 0)
    np.fill_diagonal(der, -der.sum(axis=1))
    # elementwise: a longdouble matmul adds a few hundred kB to peak memory
    integral = (anti[:, :, None] * coef).sum(axis=1)
    return tuple(a.astype(float) for a in (t, coef, integral, der))


# panel nodes (ascending), and values at them -> Chebyshev coefficients,
# -> integral from -1 to each node, -> derivative at each node
_T, _COEF, _INT, _DER = _chebyshev_matrices()


@dataclass(frozen=True)
class Grid:
    """Panels [breaks[k], breaks[k+1]] of [a, b], P Chebyshev-Lobatto nodes each."""

    breaks: tuple[float, ...]

    def __post_init__(self):
        br = tuple(float(x) for x in self.breaks)
        object.__setattr__(self, "breaks", br)
        if len(br) < 2:
            raise GridError("a grid needs at least one panel")
        if not all(lo < hi for lo, hi in zip(br, br[1:])):
            raise GridError(f"need increasing panel breaks, got [{br[0]}, ..., {br[-1]}]")

    @staticmethod
    def uniform(a: float, b: float, panels: int) -> "Grid":
        return Grid(tuple(np.linspace(a, b, panels + 1)))

    @property
    def a(self) -> float:
        return self.breaks[0]

    @property
    def b(self) -> float:
        return self.breaks[-1]

    @property
    def panels(self) -> int:
        return len(self.breaks) - 1

    @property
    def n_nodes(self) -> int:
        return self.panels * (P - 1) + 1

    @cached_property
    def half_widths(self) -> np.ndarray:
        return 0.5 * np.diff(self.breaks)

    @cached_property
    def nodes(self) -> np.ndarray:
        br = np.asarray(self.breaks)
        x = np.empty(self.n_nodes)
        x[self.panel_index] = 0.5 * (br[:-1] + br[1:]) + self.half_widths * _T[:, None]
        x[::P - 1] = br
        x.flags.writeable = False
        return x

    @cached_property
    def panel_index(self) -> np.ndarray:
        """(P, panels) node indices, panel k in column k."""
        return np.arange(P)[:, None] + (P - 1) * np.arange(self.panels)

    def split(self, which: np.ndarray) -> "Grid":
        """The grid with each panel flagged in `which` cut at its midpoint."""
        br = list(self.breaks[:1])
        for lo, hi, cut in zip(self.breaks, self.breaks[1:], which):
            if cut:
                br.append(0.5 * (lo + hi))
            br.append(hi)
        return Grid(tuple(br))


@dataclass(frozen=True)
class SampledFunction:
    """Complex values at the nodes of a grid; immutable after construction.

    Nodewise arithmetic is numpy arithmetic on `.values`, wrapped in a new
    SampledFunction on the same grid."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != (self.grid.n_nodes,):
            raise GridError(
                f"values length {v.shape} does not match grid with {self.grid.n_nodes} nodes"
            )
        bad = ~np.isfinite(v)
        if bad.any():
            raise NodeValueError("non-finite sample value", int(np.flatnonzero(bad)[0]))
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


def sample(grid: Grid, fn) -> SampledFunction:
    """Tabulate a callable on the grid nodes (evaluated with complex inputs)."""
    return SampledFunction(grid, np.asarray(fn(grid.nodes.astype(np.complex128))))


def constant(grid: Grid, value: complex) -> SampledFunction:
    return SampledFunction(grid, np.full(grid.n_nodes, complex(value)))


def _nodewise(grid: Grid, cols: np.ndarray) -> np.ndarray:
    """Node array from per-panel columns (P, panels); a node shared by two
    panels takes the right panel's value."""
    out = np.empty(grid.n_nodes, dtype=cols.dtype)
    out[:-1].reshape(grid.panels, P - 1)[:] = cols[:-1].T
    out[-1] = cols[-1, -1]
    return out


def _cumulative_panels(grid: Grid, cols: np.ndarray) -> np.ndarray:
    """Antiderivatives, in panel layout, of the functions in cols, an array
    (..., P, panels) with one function in panel layout per leading index.
    A node shared by two panels gets the same bits in both: row 0 of _INT
    is zero, so the right panel's copy is the running total of the panels to
    its left, the same sum that ends the left panel."""
    # each panel's integrals from its left end, as one real matmul
    local = (_INT @ cols.view(np.float64)).view(np.complex128)
    local *= grid.half_widths
    # offsets[..., k]: the total of the panels left of panel k
    offsets = np.zeros((*local.shape[:-2], 1, grid.panels + 1), dtype=np.complex128)
    np.add.accumulate(local[..., -1:, :], axis=-1, out=offsets[..., 1:])
    local += offsets[..., :-1]
    return local


def _cumulative_values(grid: Grid, v: np.ndarray) -> np.ndarray:
    """Raw-array core of cumulative_integral (no validation, no wrapping)."""
    return _nodewise(grid, _cumulative_panels(grid, v[grid.panel_index]))


def cumulative_integral(f: SampledFunction) -> SampledFunction:
    """Antiderivative F with F(a) = 0: each panel's interpolant integrated
    exactly, offset by the totals of the panels to its left."""
    return SampledFunction(f.grid, _cumulative_values(f.grid, f.values))


def derivative(f: SampledFunction) -> SampledFunction:
    """Derivative of each panel's interpolant; a node shared by two panels
    gets the mean of their two values.  Each panel is differentiated less its
    first value, so a constant has derivative exactly 0."""
    g = f.grid
    cols = f.values[g.panel_index]
    d = (_DER @ (cols - cols[0])) / g.half_widths
    out = _nodewise(g, d)
    out[P - 1:-1:P - 1] = 0.5 * (d[-1, :-1] + d[0, 1:])
    return SampledFunction(g, out)


def unresolved(grid: Grid, *values: np.ndarray,
               noise: np.ndarray | None = None) -> np.ndarray:
    """Panels on which some node array's last two Chebyshev coefficients
    exceed TAIL_TOL times its sup norm over the grid, and also exceed the
    rounding error `noise` (absolute, per node) where that is given: no split
    can reduce the latter."""
    floor = 0.0 if noise is None else noise[grid.panel_index].max(axis=0)
    bad = np.zeros(grid.panels, dtype=bool)
    for v in values:
        tail = np.abs(_COEF[-2:] @ v[grid.panel_index]).max(axis=0)
        bad |= tail > np.maximum(TAIL_TOL * np.abs(v).max(), floor)
    return bad


def interpolate(fs: Sequence[SampledFunction], grid: Grid) -> list[SampledFunction]:
    """Each f at the nodes of another grid on [a, b]: each node gets the
    interpolant of the panel of f's grid that holds it, exact for anything
    that panel resolves.  The functions that share a grid are carried in one
    stacked pass, each with the operations of a pass of its own."""
    out = list(fs)
    by_source: dict[Grid, list[int]] = {}
    for i, f in enumerate(fs):
        if f.grid != grid:
            by_source.setdefault(f.grid, []).append(i)
    x = grid.nodes
    for source, idx in by_source.items():
        src = np.asarray(source.breaks)
        k = np.clip(np.searchsorted(src, x, side="right") - 1, 0, source.panels - 1)
        t = np.clip((x - 0.5 * (src[k] + src[k + 1])) / source.half_widths[k], -1.0, 1.0)
        # one (P, panels) matmul per function, as its own pass makes
        coef = _COEF @ np.stack([fs[i].values for i in idx])[:, source.panel_index]
        # sum_m coef[m] T_m(t) by the three-term recurrence of the T_m
        T_prev, T = np.ones_like(t), t
        vals = coef[:, 0, k] + coef[:, 1, k] * t
        for m in range(2, P):
            T_prev, T = T, 2 * t * T - T_prev
            vals += coef[:, m, k] * T
        for i, v in zip(idx, vals):
            out[i] = SampledFunction(grid, v)
    return out


def refine(grids: Sequence[Grid], build, max_nodes: int, wheres: Sequence[str]) -> list:
    """For each item i, build's result on the first grid, reached from
    grids[i] by splitting panels, on which that result flags no panel.

    build(g, items) takes a grid and the indices of the items now on it, and
    returns one (result, unresolved panel mask) per item, in that order: the
    items that share a grid are built together, once per refinement level,
    and each is split on its own flags.  Raises GridError naming the item's
    where and the failing panel once a split grid would exceed max_nodes.
    """
    results: list = [None] * len(grids)
    pending = dict(enumerate(grids))
    while pending:
        groups: dict[Grid, list[int]] = {}
        for i, grid in pending.items():
            groups.setdefault(grid, []).append(i)
        for grid, items in groups.items():
            for i, (result, bad) in zip(items, build(grid, items)):
                if not bad.any():
                    results[i] = result
                    del pending[i]
                    continue
                finer = grid.split(bad)
                if finer.n_nodes > max_nodes:
                    k = int(np.flatnonzero(bad)[0])
                    raise GridError(
                        f"{wheres[i]}: the panel [{grid.breaks[k]!r}, "
                        f"{grid.breaks[k + 1]!r}] is unresolved and splitting it needs "
                        f"{finer.n_nodes} nodes, above the n_nodes ceiling {max_nodes}")
                pending[i] = finer
    return results
