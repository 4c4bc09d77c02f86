"""Coefficient-expression parser and evaluator, and the spectral derivative
of an expression's samples."""

import numpy as np
import pytest

from slpencil import ExpressionError, Grid, NodeValueError, derivative
from slpencil.expressions import evaluate, evaluate_on_grid, parse

CATALOG = [
    "2*x^2",
    "sech(2*x)",
    "sech(2*x)*exp(i*sech(2*x)/0.2)",
    "-sech(x)*exp(-i*0.5*log(cosh(x))/0.3)",
    "sin(x)*cos(x)+tan(x/4)",
    "exp(-x^2/2)/sqrt(2*pi)",
    "x^3-2*x+1",
    "sinh(x)/cosh(x)",
    "(x+1)^(x/10)",
    "1/(x+2)",
]


class TestParseAndEvaluate:
    def test_polynomial(self):
        assert evaluate(parse("2*x^2"), 3.0) == pytest.approx(18.0)

    def test_sech_zero(self):
        assert evaluate(parse("sech(2*x)"), 0.0) == pytest.approx(1.0)

    def test_tovbis_potential_at_zero(self):
        e = parse("-sech(x)*exp(-i*0.5*log(cosh(x))/0.3)")
        assert evaluate(e, 0.0) == pytest.approx(-1.0)

    def test_power_right_associative(self):
        assert evaluate(parse("2^3^2"), 0.0) == pytest.approx(512.0)

    def test_unary_minus_binds_before_power(self):
        # factor := unary ('^' factor)?  so -2^2 = (-2)^2
        assert evaluate(parse("-2^2"), 0.0) == pytest.approx(4.0)

    def test_variable_on_grid(self):
        g = Grid.uniform(0.0, 1.0, 1)
        f = evaluate_on_grid(parse("x"), g)
        assert np.array_equal(f.values, g.nodes)
        assert f.values[0] == 0.0 and f.values[-1] == 1.0

    def test_imaginary_constant(self):
        f = evaluate_on_grid(parse("i"), Grid.uniform(0.0, 1.0, 1))
        assert np.all(f.values == 1j)

    def test_euler_identity(self):
        f = evaluate_on_grid(parse("exp(i*pi)"), Grid.uniform(0.0, 1.0, 1))
        assert np.max(np.abs(f.values + 1.0)) < 1e-15

    def test_scientific_notation(self):
        assert evaluate(parse("1.5e-3"), 0.0) == pytest.approx(0.0015)

    def test_principal_sqrt(self):
        assert evaluate(parse("sqrt(-1+0*x)"), np.array([0.0 + 0j])) == pytest.approx(1j)


class TestParseErrors:
    @pytest.mark.parametrize("src", ["2*", "(1+2", "sin 3)", "foo(1)", "1 2", "@", ""])
    def test_syntax_errors(self, src):
        with pytest.raises(ExpressionError):
            parse(src)

    def test_position_reported(self):
        with pytest.raises(ExpressionError) as err:
            parse("1+*2")
        assert err.value.position == 2

    def test_unknown_function_named(self):
        with pytest.raises(ExpressionError, match="sinc"):
            parse("sinc(x)")

    def test_deep_nesting_terminates(self):
        with pytest.raises(ExpressionError, match="nested"):
            parse("(" * 5000 + "1" + ")" * 5000)

    def test_fuzz_never_crashes(self):
        rng = np.random.default_rng(123)
        pieces = ["x", "sin", "(", ")", "+", "-", "*", "/", "^", "1", "2.5", "pi",
                  "i", "e", "cosh", " ", ".", "@", "дом"]
        for _ in range(400):
            soup = "".join(rng.choice(pieces) for _ in range(rng.integers(1, 25)))
            try:
                tree = parse(soup)
                evaluate(tree, 0.3 + 0.1j)
            except (ExpressionError, ZeroDivisionError):
                pass


class TestEvaluationErrors:
    def test_log_zero_names_node(self):
        with pytest.raises(NodeValueError) as err:
            evaluate_on_grid(parse("log(x)"), Grid.uniform(0.0, 1.0, 1))
        assert err.value.node_index == 0


class TestDifferentiate:
    """Derivatives of parsed expressions, taken from their samples on a panel
    grid by grids.derivative."""

    def test_square(self):
        g = Grid.uniform(2.0, 4.0, 2)  # x = 3 is the shared panel end
        d = derivative(evaluate_on_grid(parse("x^2"), g))
        mid = int(np.flatnonzero(g.nodes == 3.0)[0])
        assert d.values[mid] == pytest.approx(6.0)

    def test_sech_chain_rule(self):
        g = Grid.uniform(-1.0, 1.0, 8)
        d = derivative(evaluate_on_grid(parse("sech(2*x)"), g))
        x = g.nodes
        expected = -2 * (1 / np.cosh(2 * x)) * np.tanh(2 * x)
        assert np.max(np.abs(d.values - expected)) < 1e-10
        assert abs(d.values[g.n_nodes // 2]) < 1e-12  # x = 0

    def test_constant(self):
        d = derivative(evaluate_on_grid(parse("pi*e"), Grid.uniform(0.0, 5.0, 2)))
        assert np.all(d.values == 0.0)

    @pytest.mark.parametrize("src", CATALOG)
    def test_matches_finite_differences(self, src):
        tree = parse(src)
        g = Grid.uniform(0.2, 1.8, 8)
        pts = g.nodes
        h = 1e-6
        num = (evaluate(tree, pts + h) - evaluate(tree, pts - h)) / (2 * h)
        spectral = derivative(evaluate_on_grid(tree, g)).values
        scale = np.maximum(np.abs(num), 1.0)
        assert np.max(np.abs(spectral - num) / scale) < 1e-6
