"""Panel grids, spectral integration and differentiation, resolution checks
and refinement."""

import numpy as np
import pytest

from slpencil import grids
from slpencil import (
    Grid,
    GridError,
    NodeValueError,
    SampledFunction,
    constant,
    cumulative_integral,
    derivative,
    sample,
)

EPS = np.finfo(np.float64).eps


def grid01(panels=1):
    return Grid.uniform(0.0, 1.0, panels)


def random_polys(rng, count, degree=grids.P - 1):
    return [rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
            for _ in range(count)]


def batch_of_one(build):
    """A refine build of one item from build(g) = (result, unresolved mask)."""
    return lambda g, items: [build(g)]


class TestGridInvariants:
    def test_rejects_reversed_interval(self):
        with pytest.raises(GridError):
            Grid.uniform(1.0, 0.0, 4)

    def test_rejects_too_few_nodes(self):
        with pytest.raises(GridError):
            Grid((0.0,))

    def test_rejects_untileable_node_count(self):
        # breaks that do not tile [a, b] left to right
        with pytest.raises(GridError):
            Grid((0.0, 0.5, 0.5, 1.0))
        with pytest.raises(GridError):
            Grid((0.0, 0.75, 0.5, 1.0))

    def test_nodes_are_uniform(self):
        """Equal panels, each with the same Chebyshev-Lobatto pattern, sharing
        their endpoint nodes."""
        g = Grid.uniform(-2.0, 3.0, 5)
        x = g.nodes
        assert g.n_nodes == 5 * (grids.P - 1) + 1
        assert x[0] == -2.0 and x[-1] == 3.0
        assert np.all(np.diff(x) > 0)
        assert np.array_equal(x[::grids.P - 1], np.linspace(-2.0, 3.0, 6))
        lobatto = -np.cos(np.pi * np.arange(grids.P) / (grids.P - 1))
        for k in range(5):
            panel = x[k * (grids.P - 1):(k + 1) * (grids.P - 1) + 1]
            assert np.allclose(panel, -1.5 + k + 0.5 * lobatto, rtol=0, atol=4 * EPS)

    def test_values_length_checked(self):
        with pytest.raises(GridError):
            SampledFunction(grid01(), np.zeros(grid01().n_nodes - 1))

    def test_nonfinite_rejected_with_node(self):
        v = np.zeros(grid01().n_nodes, dtype=complex)
        v[7] = np.nan
        with pytest.raises(NodeValueError) as err:
            SampledFunction(grid01(), v)
        assert err.value.node_index == 7

    def test_values_immutable(self):
        f = constant(grid01(), 2.0)
        with pytest.raises(ValueError):
            f.values[0] = 3.0


class TestCumulativeIntegral:
    def test_constant_is_exact(self):
        g = grid01(3)
        F = cumulative_integral(constant(g, 1.0))
        assert np.allclose(F.values, g.nodes, rtol=0, atol=1e-15)

    def test_polynomials_exact_on_each_panel(self):
        """Degree P - 1 on uneven panels, and a different polynomial on each
        panel, integrate to within a few eps of their scale."""
        rng = np.random.default_rng(3)
        g = Grid((-1.0, -0.2, 0.1, 1.3, 2.0))
        x = g.nodes
        for c in random_polys(rng, 10):
            F = cumulative_integral(SampledFunction(g, np.polyval(c, x)))
            anti = np.polyval(np.polyint(c), x) - np.polyval(np.polyint(c), x[0])
            assert np.max(np.abs(F.values - anti)) <= 8 * EPS * np.max(np.abs(anti))
        # a different polynomial on each side of the break at 0.1
        kink = lambda y: np.maximum(y - 0.1, 0.0)
        F = cumulative_integral(SampledFunction(g, kink(x) ** 3 * (1 + 2j * x)))
        anti = lambda y: kink(y) ** 4 * (1 + 0.2j) / 4 + 2j * kink(y) ** 5 / 5
        exact = anti(x) - anti(x[0])
        assert np.max(np.abs(F.values - exact)) <= 8 * EPS * np.max(np.abs(exact))

    def test_degree5_exactness_random_polys(self):
        rng = np.random.default_rng(7)
        g = Grid.uniform(-1.0, 2.0, 3)
        x = g.nodes
        for c in random_polys(rng, 25, degree=5):
            F = cumulative_integral(SampledFunction(g, np.polyval(c, x)))
            anti = np.polyval(np.polyint(c), x) - np.polyval(np.polyint(c), x[0])
            scale = max(1.0, np.max(np.abs(anti)))
            assert np.max(np.abs(F.values - anti)) < 1e-14 * scale

    @pytest.mark.parametrize("k", [10.0, 60.0])
    def test_oscillation_exact_once_resolved(self, k):
        """e^{ikx}: refine until resolved, then the integral is within a few
        eps of (e^{ikx} - 1)/(ik), on the scale of int_0^1 |f| = 1."""
        def build(g):
            f = sample(g, lambda y: np.exp(1j * k * y))
            return f, grids.unresolved(g, f.values)

        f, = grids.refine([grid01()], batch_of_one(build), 10**5, ["test"])
        exact = (np.exp(1j * k * f.grid.nodes) - 1.0) / (1j * k)
        err = np.max(np.abs(cumulative_integral(f).values - exact))
        assert err <= 8 * EPS

    def test_linearity(self):
        g = grid01(2)
        f = sample(g, np.exp)
        h = sample(g, np.sin)
        a, b = 2.0 - 1.0j, -0.5 + 3.0j
        lhs = cumulative_integral(SampledFunction(g, a * f.values + b * h.values)).values
        rhs = a * cumulative_integral(f).values + b * cumulative_integral(h).values
        assert np.max(np.abs(lhs - rhs)) < 1e-13 * np.max(np.abs(lhs))

    def test_anchored_at_zero(self):
        F = cumulative_integral(sample(grid01(3), np.exp))
        assert F.values[0] == 0.0

    def test_exp_richardson_ratio(self):
        # doubling the panel count of an unresolved grid shrinks the error by
        # far more than the 2^6 of a sixth-order rule
        errs = []
        for panels in (1, 2):
            g = grid01(panels)
            F = cumulative_integral(sample(g, lambda y: np.exp(40.0 * (y - 1.0))))
            exact = (np.exp(40.0 * (g.nodes - 1.0)) - np.exp(-40.0)) / 40.0
            errs.append(np.max(np.abs(F.values - exact)))
        assert errs[0] / errs[1] > 2**7

    @pytest.mark.parametrize("fn,anti", [
        (np.sin, lambda x: (1 - np.cos(40.0 * x)) / 40.0),
        (np.exp, lambda x: (np.exp(40.0 * (x - 1.0)) - np.exp(-40.0)) / 40.0)])
    def test_convergence_order_smooth(self, fn, anti):
        shift = 0.0 if fn is np.sin else 1.0
        errs = []
        for panels in (1, 2, 4):
            g = grid01(panels)
            F = cumulative_integral(sample(g, lambda y: fn(40.0 * (y - shift))))
            errs.append(np.max(np.abs(F.values - anti(g.nodes))))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 7.0


class TestDerivative:
    """Differentiation matrices amplify a value's error by about P^2 over the
    panel half-width, so the bounds carry that factor."""

    @staticmethod
    def bound(f, err):
        return err * grids.P**2 * np.max(np.abs(f.values)) / np.min(f.grid.half_widths)

    def test_polynomial_exact(self):
        rng = np.random.default_rng(5)
        g = Grid((0.0, 0.3, 0.4, 1.0))
        x = g.nodes
        for c in random_polys(rng, 10):
            f = SampledFunction(g, np.polyval(c, x))
            err = np.max(np.abs(derivative(f).values - np.polyval(np.polyder(c), x)))
            assert err <= self.bound(f, 4 * EPS)

    def test_smooth_accuracy(self):
        def build(g):
            f = sample(g, lambda y: np.exp(1j * 30.0 * y))
            return f, grids.unresolved(g, f.values)

        f, = grids.refine([Grid.uniform(0.0, 2.0, 1)], batch_of_one(build), 10**5, ["test"])
        exact = 30.0j * np.exp(1j * 30.0 * f.grid.nodes)
        err = np.max(np.abs(derivative(f).values - exact))
        assert err <= self.bound(f, grids.TAIL_TOL + 4 * EPS)


class TestRefinement:
    def test_near_pole_split_only_near_it(self):
        """1/(x - 0.05 - 0.01i) is split only next to x = 0.05, and every
        panel of the result passes the tail test."""
        pole = 0.05 + 0.01j

        def build(g):
            f = sample(g, lambda y: 1.0 / (y - pole))
            return f, grids.unresolved(g, f.values)

        f, = grids.refine([grid01(8)], batch_of_one(build), 10**5, ["test"])
        g = f.grid
        assert not grids.unresolved(g, f.values).any()
        # the pole's panel and its neighbour are split, the other six are kept
        assert g.breaks[-7:] == grid01(8).breaks[-7:]
        assert 12 < g.panels < 30
        tail = np.abs(grids._COEF[-2:] @ f.values[g.panel_index]).max(axis=0)
        assert np.all(tail <= grids.TAIL_TOL * np.max(np.abs(f.values)))

    def test_ceiling_names_the_panel(self):
        def build(g):
            f = sample(g, lambda y: 1.0 / (y - 0.05 - 0.01j))
            return f, grids.unresolved(g, f.values)

        with pytest.raises(GridError, match=r"center 3: the panel \[0\.0, 0\.125\]"):
            grids.refine([grid01(8)], batch_of_one(build), 150, ["center 3"])

    def test_batch_splits_each_item_on_its_own_flags(self):
        """Two items start on one grid and are built together there; each
        splits only where its own function needs it, items on one grid are
        built in one call, and each ends on the grid it reaches alone."""
        poles = (0.05 + 0.01j, 0.93 + 0.02j)
        calls = []

        def build(g, items):
            calls.append((g.panels, tuple(items)))
            fs = [sample(g, lambda y, z=poles[i]: 1.0 / (y - z)) for i in items]
            return [(f, grids.unresolved(g, f.values)) for f in fs]

        got = grids.refine([grid01(8)] * 2, build, 10**5, ["a", "b"])
        alone = [grids.refine([grid01(8)], lambda g, items, i=i: build(g, [i]),
                              10**5, ["a"])[0] for i in (0, 1)]
        assert [f.grid for f in got] == [f.grid for f in alone]
        assert got[0].grid != got[1].grid
        assert calls[0] == (8, (0, 1))
        assert all(len(items) == 1 for _, items in calls[1:])

    def test_batch_ceiling_names_the_failing_item(self):
        def build(g, items):
            fs = [sample(g, lambda y, i=i: 1.0 / (y - 0.5 - 0.3j) if i == 0
                         else 1.0 / (y - 0.9 - 0.001j)) for i in items]
            return [(f, grids.unresolved(g, f.values)) for f in fs]

        with pytest.raises(GridError, match=r"^second item: the panel \[0\.625, 0\.75\]"):
            grids.refine([grid01(8)] * 2, build, 150, ["first item", "second item"])

    def test_stacked_interpolation_is_each_pass_bit_for_bit(self):
        """Functions on two source grids carried in one call get the bits of
        a call of their own, and a function already on the grid is kept."""
        g = Grid.uniform(0.0, 1.0, 3)
        h = g.split(np.array([False, True, False]))
        finer = h.split(np.array([True, False, False, True]))
        fs = [sample(grid, fn) for grid in (g, h, finer)
              for fn in (np.exp, lambda y: 1.0 / (y + 0.2j))]
        got = grids.interpolate(fs, finer)
        for f, out in zip(fs, got):
            alone = grids.interpolate([f], finer)[0]
            assert out.grid == finer
            assert np.array_equal(out.values.view(np.uint64), alone.values.view(np.uint64))
        assert got[4] is fs[4]

    def test_interpolate_onto_split_panels_is_exact_when_resolved(self):
        rng = np.random.default_rng(11)
        g = Grid.uniform(0.0, 1.0, 3)
        finer = g.split(np.array([True, False, True])).split(np.array([True] + [False] * 4))
        assert finer.panels == 6
        for c in random_polys(rng, 5):
            f = SampledFunction(g, np.polyval(c, g.nodes))
            got = grids.interpolate([f], finer)[0].values
            exact = np.polyval(c, finer.nodes)
            assert np.max(np.abs(got - exact)) <= 16 * EPS * np.max(np.abs(exact))

    def test_noise_floor_stops_splitting(self):
        """Rounding-level noise on a resolved function fails the tail test on
        its own but passes once the noise is declared."""
        g = grid01(4)
        noise = 1e-12 * np.random.default_rng(2).standard_normal(g.n_nodes)
        v = np.exp(g.nodes) + noise
        assert grids.unresolved(g, v).any()
        assert not grids.unresolved(g, v, noise=np.full(g.n_nodes, 1e-11)).any()
