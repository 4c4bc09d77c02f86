"""Uniform grids, complex sampled functions, and 6th-order cumulative integration.

Every coefficient function, particular solution and formal power in this
package lives on a shared uniform grid as a :class:`SampledFunction`.  The one
nontrivial operation is :func:`cumulative_integral`: an antiderivative table
built from the exact integrals of sliding degree-5 Lagrange interpolants, so
that each node-to-node increment carries the local O(h^7) accuracy of the
6-point Newton-Cotes family and the whole table is globally O(h^6).  The
increments are summed by a blocked two-level prefix sum (complex128 within
blocks of 64 nodes, extended precision across the block totals), which keeps
the table within a few ulps of the exact running sum of its increments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import GridError, NodeValueError

#: subintervals covered by one 6-point stencil
_PANEL = 5

DIV_FLOOR = 1e-300

# accumulator of the block totals in _prefix_sum: 80-bit extended where the
# platform provides one (x86 Linux does), harmlessly complex128 elsewhere
_ACCUM_DTYPE = np.clongdouble if np.finfo(np.longdouble).eps < 1e-18 else np.complex128
# values per complex128 block in _prefix_sum: short enough that a block's own
# rounding stays near one ulp of the table (blocks of 256 lost ~0.3 digits on
# the 100001-node string at no measurable gain in speed)
_BLOCK = 64


def _poly_mul_linear(coeffs: list[Fraction], root: int) -> list[Fraction]:
    """Multiply polynomial (low-to-high coeffs) by (t - root), exactly."""
    out = [Fraction(0)] * (len(coeffs) + 1)
    for i, c in enumerate(coeffs):
        out[i] -= c * root
        out[i + 1] += c
    return out


def _poly_integral_between(coeffs: list[Fraction], lo: int, hi: int) -> Fraction:
    total = Fraction(0)
    for i, c in enumerate(coeffs):
        total += c * (Fraction(hi) ** (i + 1) - Fraction(lo) ** (i + 1)) / (i + 1)
    return total


def _subinterval_weights() -> np.ndarray:
    """W[k, j] = integral over [k, k+1] of the j-th Lagrange basis on nodes 0..5."""
    W = np.empty((_PANEL, 6))
    for j in range(6):
        num = [Fraction(1)]
        den = Fraction(1)
        for m in range(6):
            if m == j:
                continue
            num = _poly_mul_linear(num, m)
            den *= j - m
        for k in range(_PANEL):
            W[k, j] = float(_poly_integral_between(num, k, k + 1) / den)
    return W


_W = _subinterval_weights()


@lru_cache(maxsize=None)
def _fd_weights(offsets: tuple[int, ...]) -> np.ndarray:
    """Exact first-derivative weights for unit-spaced nodes at given offsets.

    Solves the Vandermonde moment system in rational arithmetic; the result is
    exact for polynomials of degree < len(offsets).
    """
    n = len(offsets)
    M = [[Fraction(o) ** m for o in offsets] for m in range(n)]
    rhs = [Fraction(0)] * n
    rhs[1] = Fraction(1)
    for col in range(n):
        piv = next(r for r in range(col, n) if M[r][col] != 0)
        M[col], M[piv] = M[piv], M[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv = Fraction(1) / M[col][col]
        M[col] = [v * inv for v in M[col]]
        rhs[col] *= inv
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * bb for a, bb in zip(M[r], M[col])]
                rhs[r] -= f * rhs[col]
    return np.array([float(v) for v in rhs])


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [a, b] whose n_nodes - 1 subintervals tile into 6-point panels."""

    a: float
    b: float
    n_nodes: int

    def __post_init__(self):
        if not (self.a < self.b):
            raise GridError(f"need a < b, got [{self.a}, {self.b}]")
        if self.n_nodes < 6:
            raise GridError(f"need at least 6 nodes, got {self.n_nodes}")
        if (self.n_nodes - 1) % _PANEL != 0:
            raise GridError(
                f"n_nodes - 1 must be a multiple of {_PANEL}, got n_nodes={self.n_nodes}"
            )

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.n_nodes - 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        x = np.linspace(self.a, self.b, self.n_nodes)
        x.flags.writeable = False
        return x


@dataclass(frozen=True)
class SampledFunction:
    """Complex values tabulated on a uniform grid; immutable after construction."""

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

    # -- nodewise arithmetic -------------------------------------------------
    def _check_same_grid(self, other: "SampledFunction"):
        if other.grid != self.grid:
            raise GridError("operands live on different grids")

    def __add__(self, other):
        if isinstance(other, SampledFunction):
            self._check_same_grid(other)
            return SampledFunction(self.grid, self.values + other.values)
        return SampledFunction(self.grid, self.values + complex(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, SampledFunction):
            self._check_same_grid(other)
            return SampledFunction(self.grid, self.values - other.values)
        return SampledFunction(self.grid, self.values - complex(other))

    def __rsub__(self, other):
        return SampledFunction(self.grid, complex(other) - self.values)

    def __mul__(self, other):
        if isinstance(other, SampledFunction):
            self._check_same_grid(other)
            return SampledFunction(self.grid, self.values * other.values)
        return SampledFunction(self.grid, self.values * complex(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, SampledFunction):
            self._check_same_grid(other)
            _check_divisor(other.values)
            return SampledFunction(self.grid, self.values / other.values)
        return SampledFunction(self.grid, self.values / complex(other))

    def __rtruediv__(self, other):
        _check_divisor(self.values)
        return SampledFunction(self.grid, complex(other) / self.values)

    def __neg__(self):
        return SampledFunction(self.grid, -self.values)

    def conj(self) -> "SampledFunction":
        return SampledFunction(self.grid, np.conj(self.values))

    def abs_max(self) -> float:
        return float(np.max(np.abs(self.values)))


def _check_divisor(values: np.ndarray):
    mags = np.abs(values)
    if mags.min() < DIV_FLOOR:
        raise NodeValueError(
            f"division by value of modulus below {DIV_FLOOR}", int(np.argmin(mags))
        )


def sample(grid: Grid, fn) -> SampledFunction:
    """Tabulate a callable on the grid nodes (evaluated with complex inputs)."""
    return SampledFunction(grid, np.asarray(fn(grid.nodes.astype(np.complex128))))


def constant(grid: Grid, value: complex) -> SampledFunction:
    return SampledFunction(grid, np.full(grid.n_nodes, complex(value)))


def _cumulative_values(h: float, v: np.ndarray) -> np.ndarray:
    """Raw-array core of cumulative_integral (no validation, no wrapping)."""
    n = v.shape[0]
    F = np.empty(n, dtype=np.complex128)
    F[0] = 0.0
    inc = F[1:]
    # interior subintervals i = 2 .. n-4 use the centered stencil s = i-2;
    # explicit slice products beat correlate() on short kernels
    core = inc[2:n - 3]
    scratch = np.empty(n - 5, dtype=np.complex128)
    np.multiply(v[2:n - 3], _W[2, 2], out=core)
    for j in (0, 1, 3, 4, 5):
        np.multiply(_W[2, j], v[j:j + n - 5], out=scratch)
        core += scratch
    # clamped stencils near the ends
    for i in (0, 1):
        inc[i] = _W[i] @ v[0:6]
    for i in (n - 3, n - 2):
        inc[i] = _W[i - (n - 6)] @ v[n - 6:n]
    inc *= h
    _prefix_sum(inc)
    return F


def _prefix_sum(a: np.ndarray):
    """Running sum of a complex128 array, in place, within a few ulps of exact.

    Sequential rounding across ~1e5 increments would otherwise dominate the
    error budget of the recursive-integral stacks.  Each block of _BLOCK
    values is summed on its own in complex128, so its rounding stays relative
    to the block's partial sums; only the block totals are accumulated in
    _ACCUM_DTYPE, and each block's offset is added back as a double-double
    (high part, then low part).
    """
    m = a.shape[0]
    nb = m // _BLOCK
    if nb < 2:
        a[:] = np.cumsum(a.astype(_ACCUM_DTYPE))
        return
    full = nb * _BLOCK
    blocks = a[:full].reshape(nb, _BLOCK)
    np.cumsum(blocks, axis=1, out=blocks)
    totals = np.cumsum(blocks[:, -1].astype(_ACCUM_DTYPE))
    hi = totals.astype(np.complex128)
    lo = (totals - hi).astype(np.complex128)
    blocks[1:] += hi[:-1, None]
    blocks[1:] += lo[:-1, None]
    if full < m:
        rest = a[full:]
        np.cumsum(rest, out=rest)
        rest += hi[-1]
        rest += lo[-1]


def cumulative_integral(f: SampledFunction) -> SampledFunction:
    """Antiderivative table F with F(node 0) = 0.

    Each node-to-node increment is the exact integral of the degree-5 Lagrange
    interpolant through the 6-point stencil nearest to (and containing) that
    subinterval, with stencils clamped at the boundaries.
    """
    return SampledFunction(f.grid, _cumulative_values(f.grid.h, f.values))


def derivative(f: SampledFunction) -> SampledFunction:
    """First derivative by 7-point finite differences (6 points on tiny grids).

    Interior stencils are centered (error O(h^6)); boundary stencils are
    one-sided with the same width.
    """
    g = f.grid
    n = g.n_nodes
    width = min(7, n)
    half = (width - 1) // 2
    v = f.values
    out = np.empty(n, dtype=np.complex128)
    kernels = [_fd_weights(tuple(range(-k, width - k))) for k in range(width)]
    # interior nodes use the centered kernel via convolution
    centered = kernels[half]
    if n >= width:
        out[half:n - (width - 1 - half)] = np.convolve(v, centered[::-1], mode="valid")
    for i in range(half):
        out[i] = kernels[i] @ v[0:width]
    for i in range(n - (width - 1 - half), n):
        k = i - (n - width)
        out[i] = kernels[k] @ v[n - width:n]
    out /= g.h
    return SampledFunction(g, out)
