"""Grid representation and cumulative-integration accuracy checks."""

from fractions import Fraction

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


def grid01(n=11):
    return Grid(0.0, 1.0, n)


class TestGridInvariants:
    def test_rejects_reversed_interval(self):
        with pytest.raises(GridError):
            Grid(1.0, 0.0, 11)

    def test_rejects_too_few_nodes(self):
        with pytest.raises(GridError):
            Grid(0.0, 1.0, 5)

    def test_rejects_untileable_node_count(self):
        with pytest.raises(GridError):
            Grid(0.0, 1.0, 12)

    def test_nodes_are_uniform(self):
        g = Grid(-2.0, 3.0, 26)
        assert np.allclose(np.diff(g.nodes), g.h)
        assert g.nodes[0] == -2.0 and g.nodes[-1] == 3.0

    def test_values_length_checked(self):
        with pytest.raises(GridError):
            SampledFunction(grid01(11), np.zeros(10))

    def test_nonfinite_rejected_with_node(self):
        v = np.zeros(11, dtype=complex)
        v[7] = np.nan
        with pytest.raises(NodeValueError) as err:
            SampledFunction(grid01(11), v)
        assert err.value.node_index == 7

    def test_values_immutable(self):
        f = constant(grid01(), 2.0)
        with pytest.raises(ValueError):
            f.values[0] = 3.0


class TestCumulativeIntegral:
    def test_constant_is_exact(self):
        # integral weights over each subinterval sum to h
        F = cumulative_integral(constant(grid01(11), 1.0))
        assert np.allclose(F.values, grid01(11).nodes, rtol=0, atol=1e-15)

    def test_degree5_exact_on_six_nodes(self):
        g = Grid(0.0, 1.0, 6)
        F = cumulative_integral(sample(g, lambda y: y**5))
        assert abs(F.values[-1] - 1.0 / 6.0) < 1e-14

    def test_degree5_exactness_random_polys(self):
        rng = np.random.default_rng(7)
        g = Grid(-1.0, 2.0, 31)
        x = g.nodes
        for _ in range(25):
            c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            f = SampledFunction(g, np.polyval(c, x))
            F = cumulative_integral(f)
            anti = np.polyval(np.polyint(c), x) - np.polyval(np.polyint(c), x[0])
            scale = max(1.0, np.max(np.abs(anti)))
            assert np.max(np.abs(F.values - anti)) < 1e-13 * scale

    def test_linearity(self):
        g = grid01(21)
        f = sample(g, np.exp)
        h = sample(g, np.sin)
        a, b = 2.0 - 1.0j, -0.5 + 3.0j
        lhs = cumulative_integral(a * f + b * h)
        rhs = a * cumulative_integral(f) + b * cumulative_integral(h)
        assert np.max(np.abs(lhs.values - rhs.values)) < 1e-13 * lhs.abs_max()

    def test_anchored_at_zero(self):
        F = cumulative_integral(sample(grid01(16), np.exp))
        assert F.values[0] == 0.0

    def test_exp_richardson_ratio(self):
        # doubling the subinterval count should shrink the error by ~2^6
        errs = []
        for n in (11, 21):
            g = Grid(0.0, 1.0, n)
            F = cumulative_integral(sample(g, np.exp))
            errs.append(np.max(np.abs(F.values - (np.exp(g.nodes) - 1.0))))
        ratio = errs[0] / errs[1]
        assert ratio > 2**5.5

    @pytest.mark.parametrize("fn,anti", [(np.sin, lambda x: 1 - np.cos(x)),
                                         (np.exp, lambda x: np.exp(x) - 1)])
    def test_convergence_order_smooth(self, fn, anti):
        errs = []
        for n in (21, 41, 81):
            g = Grid(0.0, 1.0, n)
            F = cumulative_integral(sample(g, fn))
            errs.append(np.max(np.abs(F.values - anti(g.nodes))))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 5.5


class TestPrefixSum:
    """The running sum inside _cumulative_values against exact summation of
    the increments it was given (blocks of 64: fewer than 2 blocks, a ragged
    last block, an exact block multiple)."""

    EPS = np.finfo(np.float64).eps

    @staticmethod
    def run(monkeypatch, n):
        seen = []
        real = grids._prefix_sum

        def spy(a):
            seen.append(a.copy())
            real(a)

        monkeypatch.setattr(grids, "_prefix_sum", spy)
        x = np.linspace(0.0, 1.0, n)
        v = (1.0 + x**2) * np.exp(5j * x) + 0.5 * np.cos(40.0 * x)
        F = grids._cumulative_values(1.0 / (n - 1), v)
        (inc,) = seen
        return F, inc

    @pytest.mark.parametrize("n", [11, 261, 1001, 1281])
    def test_matches_exact_fraction_sum(self, monkeypatch, n):
        F, inc = self.run(monkeypatch, n)
        assert F[0] == 0.0
        re = im = Fraction(0)
        err = 0.0
        for k, z in enumerate(inc):
            re += Fraction(z.real)
            im += Fraction(z.imag)
            err = max(err, abs(complex(F[k + 1].real - float(re),
                                       F[k + 1].imag - float(im))))
        assert err <= 4 * self.EPS * np.max(np.abs(F))

    def test_matches_long_double_sum_at_100001_nodes(self, monkeypatch):
        F, inc = self.run(monkeypatch, 100001)
        oracle = np.cumsum(inc.astype(np.clongdouble))
        err = np.max(np.abs(F[1:] - oracle))
        assert err <= 4 * self.EPS * np.max(np.abs(F))


class TestPointwise:
    def test_mul_constants(self):
        f = constant(grid01(), 2.0)
        g = constant(grid01(), 3.0)
        assert np.all((f * g).values == 6.0)

    def test_self_division_is_one(self):
        g = grid01(16)
        f = sample(g, lambda x: np.exp(x) + 1j)
        q = f / f
        assert np.max(np.abs(q.values - 1.0)) < 1e-15

    def test_odd_symmetry_add(self):
        g = Grid(-1.0, 1.0, 11)
        f = sample(g, lambda x: x)
        s = f + (-f)
        assert np.all(s.values == 0.0)

    def test_grid_mismatch(self):
        with pytest.raises(GridError):
            constant(grid01(11), 1.0) + constant(grid01(16), 1.0)

    def test_division_floor_reports_node(self):
        v = np.ones(11, dtype=complex)
        v[4] = 0.0
        g = SampledFunction(grid01(11), v)
        with pytest.raises(NodeValueError) as err:
            constant(grid01(11), 1.0) / g
        assert err.value.node_index == 4

    def test_scale(self):
        f = constant(grid01(), 2.0)
        assert np.all((f * 1.5j).values == 3.0j)


class TestDerivative:
    def test_polynomial_exact(self):
        g = Grid(0.0, 1.0, 26)
        f = sample(g, lambda x: x**6)
        d = derivative(f)
        assert np.max(np.abs(d.values - 6 * g.nodes**5)) < 1e-10

    def test_smooth_accuracy(self):
        g = Grid(0.0, 2.0, 201)
        d = derivative(sample(g, np.exp))
        assert np.max(np.abs(d.values - np.exp(g.nodes))) < 1e-10
