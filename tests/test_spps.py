"""Formal-power recursion, solution assembly, u0 construction and tail bounds."""

import math

import numpy as np
import pytest

from slpencil import (
    Grid,
    GridError,
    ParticularSolutionError,
    SampledFunction,
    constant,
    sample,
    spps,
)
from slpencil.grids import _INT, P, cumulative_integral, unresolved
from slpencil.problems import shift_pencil
from slpencil.spps import (
    ParticularSolution,
    PencilSpec,
    build_formal_powers,
    build_particular_solution,
    chain_particular_solution,
    evaluate_solution,
    tail_components,
)
from slpencil.zakharov import materialize_potential, zs_particular_solution, zs_to_pencil


def intro_pencil(panels=16):
    """y'' = y (lambda + 2 lambda^2) on [0, 1]: p = 1, q = 0, r_k = k."""
    g = Grid.uniform(0.0, 1.0, panels)
    return PencilSpec(p=constant(g, 1.0), q=constant(g, 0.0),
                      r=(constant(g, 1.0), constant(g, 2.0)))


def even_tail(spec, u0, lam_abs, truncation):
    """Bound on the right-end tail of sum lam^n Xtilde^(2n) past order M."""
    return tail_components(build_formal_powers([(spec, u0)], truncation)[0], lam_abs)[0]


def sum_scale(refs, lam):
    """sum_n |lam|^n max|refs[n]|, the size of sum_n lam^n refs[n] on the grid."""
    return sum(abs(lam) ** n * np.max(np.abs(r)) for n, r in enumerate(refs))


def assert_sums_match(table, lam, ref_tilde, ref_plain, rel):
    """PowerSums at lam, on the whole grid, against sum_n lam^n of reference
    formal powers split by parity (ref lists start at order 0)."""
    s = table.sums[complex(lam)]
    for got, refs in ((s.s_tilde_even, ref_tilde[0::2]), (s.s_tilde_odd, ref_tilde[1::2]),
                      (s.s_even, ref_plain[0::2]), (s.s_odd, ref_plain[1::2])):
        expected = sum(lam**n * r for n, r in enumerate(refs))
        assert np.max(np.abs(got - expected)) < rel * sum_scale(refs, lam)


class TestFormalPowers:
    def test_base_cases(self):
        spec = intro_pencil(4)
        lams = (0.37 + 0.2j, -1.5, 2.0j)
        t = build_formal_powers([(spec, ParticularSolution.unit(spec.grid))],
                                3, eval_points=lams)[0]
        assert t.xtilde_end[0] == 1.0 and t.x_end[0] == 1.0
        assert t.xtilde_end.shape == t.x_end.shape == (8,)
        # every power of order >= 1 vanishes at the anchor, so at the left end
        # each sum keeps only its order-0 term
        for lam in lams:
            s = t.sums[complex(lam)]
            assert s.s_tilde_even[0] == 1.0 and s.s_even[0] == 1.0
            assert abs(s.s_tilde_odd[0]) < 1e-15
            assert abs(s.s_odd[0]) < 1e-15

    def test_intro_example_even_powers(self):
        spec = intro_pencil(16)
        x = spec.grid.nodes
        lam = 0.6 - 0.45j
        t = build_formal_powers([(spec, ParticularSolution.unit(spec.grid))],
                                3, eval_points=(lam,))[0]
        expected = {
            2: x**2 / 2,
            4: x**2 + x**4 / 24,
            6: x**4 / 6 + x**6 / 720,
        }
        for n, ref in expected.items():
            assert abs(t.xtilde_end[n] - ref[-1]) < 1e-10 * abs(ref[-1])
        refs = [np.ones_like(x)] + [expected[n] for n in (2, 4, 6)]
        ref_sum = sum(lam**n * r for n, r in enumerate(refs))
        err = np.abs(t.sums[lam].s_tilde_even - ref_sum)
        assert np.max(err) < 1e-10 * sum_scale(refs, lam)

    def test_single_term_pencil_gives_cosh_series(self):
        g = Grid.uniform(0.0, 1.0, 8)
        spec = PencilSpec(p=constant(g, 1.0), q=constant(g, 0.0), r=(constant(g, 1.0),))
        lam = -2.0 + 1.0j
        t = build_formal_powers([(spec, ParticularSolution.unit(g))], 5, eval_points=(lam,))[0]
        x = g.nodes
        refs = [x ** (2 * n) / math.factorial(2 * n) for n in range(6)]
        for n in range(1, 6):
            assert abs(t.xtilde_end[2 * n] - refs[n][-1]) < 1e-12 * np.max(refs[n])
        ref_sum = sum(lam**n * r for n, r in enumerate(refs))
        err = np.abs(t.sums[lam].s_tilde_even - ref_sum)
        assert np.max(err) < 1e-12 * sum_scale(refs, lam)

    def test_classical_recursion_oracle(self):
        """With N = 1 the table must match an independently coded classical scheme."""
        g = Grid.uniform(0.0, 1.0, 8)
        p = sample(g, lambda x: 1.0 + 0.3 * np.sin(x))
        q = sample(g, lambda x: 0.2 * np.cos(x))
        r1 = sample(g, lambda x: 1.0 + x**2)
        u0 = build_particular_solution(p, q, truncation=60)
        spec = PencilSpec(p=p, q=q, r=(r1,))
        lams = (0.8 - 0.3j, -4.0)
        t = build_formal_powers([(spec, u0)], 6, eval_points=lams)[0]

        # classical scheme: alternate multiply-integrate against u0^2 r and 1/(u0^2 p)
        def classic(seed_parity_r_first: bool):
            out = [np.ones(g.n_nodes, dtype=complex)]
            cur = out[0]
            u0sq = u0.u0.values**2
            for n in range(1, 14):
                r_turn = (n % 2 == 1) if seed_parity_r_first else (n % 2 == 0)
                integrand = cur * (u0sq * r1.values) if r_turn else cur / (u0sq * p.values)
                F = cumulative_integral(SampledFunction(g, integrand)).values
                cur = F - F[0]
                out.append(cur)
            return out

        # Xtilde starts with the r-weighted integral, X with the 1/(u0^2 p) one
        ref_tilde = classic(True)
        ref_plain = classic(False)
        for n in range(0, 14):
            scale = max(np.max(np.abs(ref_tilde[n])), 1e-30)
            assert abs(t.xtilde_end[n] - ref_tilde[n][-1]) < 1e-12 * scale
            scale = max(np.max(np.abs(ref_plain[n])), 1e-30)
            assert abs(t.x_end[n] - ref_plain[n][-1]) < 1e-12 * scale
        for lam in lams:
            assert_sums_match(t, lam, ref_tilde, ref_plain, 1e-12)

    def test_reruns_bit_identical(self):
        g = Grid.uniform(0.0, 1.0, 16)
        p = sample(g, lambda x: 1.0 + 0.3 * np.sin(x))
        q = sample(g, lambda x: 0.2 * np.cos(x))
        spec = PencilSpec(p=p, q=q, r=(sample(g, lambda x: 1.0 + x**2),
                                       constant(g, 2.0 - 1.0j)))
        u0 = build_particular_solution(p, q, truncation=20)
        lams = (0.37 + 0.2j, -1.0 + 3.0j)
        first, second = (build_formal_powers([(spec, u0)], 20, eval_points=lams)[0]
                         for _ in range(2))
        assert first.xtilde_end.tobytes() == second.xtilde_end.tobytes()
        assert first.x_end.tobytes() == second.x_end.tobytes()
        for lam in lams:
            for part in ("s_tilde_even", "s_tilde_odd", "s_even", "s_odd"):
                assert (getattr(first.sums[lam], part).tobytes()
                        == getattr(second.sums[lam], part).tobytes())


def node_integral(grid, v):
    """Spectral integral of one node array, at the nodes: panel by panel,
    offset by a running sum of the panel totals."""
    local = (_INT @ v[grid.panel_index].view(np.float64)).view(np.complex128)
    local *= grid.half_widths
    offsets = np.cumsum(local[-1])
    local[:, 1:] += offsets[:-1]
    out = np.empty(grid.n_nodes, dtype=np.complex128)
    out[:-1].reshape(grid.panels, P - 1)[:] = local[:-1].T
    out[-1] = local[-1, -1]
    return out


def node_family(grid, n_top, rho, g, r_on_odd, lam):
    """One formal-power family at the nodes, one order at a time (Xtilde has
    r_on_odd=True): right-end values, the even, odd and modulus sums at lam,
    the top-order integrand and the last 2N powers."""
    N = len(rho)
    one = np.ones(grid.n_nodes, dtype=np.complex128)
    hist, ends = [one], [1.0 + 0.0j]
    even, odd, mag = one.copy(), np.zeros_like(one), np.ones(grid.n_nodes)
    lam_power = 1.0 + 0.0j
    for n in range(1, n_top + 1):
        if (n % 2 == 1) == r_on_odd:
            acc = np.zeros_like(one)
            for k in range(1, min(N, (n + 1) // 2) + 1):
                acc += hist[len(hist) - 2 * k + 1] * rho[k - 1]
        else:
            acc = hist[-1] * g
        F = node_integral(grid, acc)
        ends.append(F[-1])
        if n % 2 == 0:
            lam_power *= lam
            even += lam_power * F
        else:
            odd += lam_power * F
        mag += np.abs(F) * abs(lam_power)
        hist = (hist + [F])[-2 * N:]
    return np.array(ends), even, odd, mag, acc, hist


class TestPanelLayoutRecursion:
    """The two families in one panel-layout loop against the recursion run one
    family at a time at the nodes, bit for bit."""

    @staticmethod
    def assert_same_bits(spec, u0, M, lam):
        table = build_formal_powers([(spec, u0)], M, eval_points=(lam,))[0]
        grid = spec.grid
        u0sq = u0.u0.values * u0.u0.values
        g = 1.0 / (u0sq * spec.p.values)
        rho = [u0sq * rk.values for rk in spec.r]
        xt_end, st_even, st_odd, st_mag, xt_top, xt_last = node_family(
            grid, 2 * M + 1, rho, g, True, lam)
        x_end, s_even, s_odd, s_mag, x_top, x_last = node_family(
            grid, 2 * M + 1, rho, g, False, lam)
        rel = None if u0.noise is None else 2.0 * u0.noise / np.abs(u0.u0.values)
        bad = np.zeros(grid.panels, dtype=bool)
        for f in (g, *rho, xt_top, x_top):
            bad |= unresolved(grid, f, noise=None if rel is None else rel * np.abs(f))

        assert table.xtilde_end.tobytes() == xt_end.tobytes()
        assert table.x_end.tobytes() == x_end.tobytes()
        assert table.unresolved.tobytes() == bad.tobytes()
        for got, want in zip(table.last_orders, (xt_last, x_last)):
            assert len(got) == len(want) == 2 * spec.degree
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        s = table.sums[lam]
        for got, want in ((s.s_tilde_even, st_even), (s.s_tilde_odd, st_odd),
                          (s.s_even, s_even), (s.s_odd, s_odd),
                          (s.magnitude, st_mag + s_mag)):
            assert got.tobytes() == want.tobytes()

    def test_one_term_string_pencil(self):
        """y'' = lambda (1 + x^2) y on [0, 1]."""
        g = Grid.uniform(0.0, 1.0, 12)
        spec = PencilSpec(p=constant(g, 1.0), q=constant(g, 0.0),
                          r=(sample(g, lambda x: 1.0 + x**2),))
        self.assert_same_bits(spec, ParticularSolution.unit(g), 30, -4.0 + 2.5j)

    def test_zs_pencil_and_chained_u0(self):
        """The Klaus-Shaw ZS pencil, and the pencil shifted to its eval point
        with a chained u0, which carries noise."""
        zs = materialize_potential({"kind": "klaus_shaw", "s": 0.956}, panels=16)
        spec = zs_to_pencil(zs)
        u0 = zs_particular_solution(zs, truncation=40)
        lam = 0.7 + 0.3j
        self.assert_same_bits(spec, u0, 40, lam)

        table = build_formal_powers([(spec, u0)], 40, eval_points=(lam,))[0]
        shifted = shift_pencil(spec, lam)
        chained = chain_particular_solution(table, lam, shifted.p, shifted.q)
        assert chained.noise is not None
        self.assert_same_bits(shifted, chained, 40, 0.25 - 0.5j)


def bits(a):
    """The bits of an array of complex or float values, for an exact compare."""
    return np.ascontiguousarray(a).view(np.uint64)


class TestBatchedBuild:
    """Tables built in one batch are the tables of builds of one item each,
    bit for bit, whatever order each item stops at."""

    @staticmethod
    def items():
        """y'' - q y = lambda c y + lambda^2 c (1 + x) y, q = cos(x)/2, with
        the scale c of the r_k in an order that stops the first item neither
        first nor last at a finite radius."""
        g = Grid.uniform(0.0, 1.0, 16)
        p, q = constant(g, 1.0), sample(g, lambda x: 0.5 * np.cos(x))
        u0 = build_particular_solution(p, q, truncation=20)
        return [(PencilSpec(p, q, (constant(g, c), sample(g, lambda x, c=c: c * (1 + x)))), u0)
                for c in (4.0, 0.25, 64.0, 1.0, 16.0)]

    @pytest.mark.parametrize("radius,stops", [
        (3.0, [48, 24, 60, 32, 60]), (math.inf, [60] * 5)])
    def test_batch_equals_solo_builds(self, radius, stops):
        items, lam = self.items(), 0.5 - 0.25j
        batch = build_formal_powers(items, 60, eval_points=(lam,), radius=radius)
        assert [t.truncation for t in batch] == stops
        for item, table in zip(items, batch):
            solo, = build_formal_powers([item], 60, eval_points=(lam,), radius=radius)
            assert table.truncation == solo.truncation
            assert table.tail_converged == solo.tail_converged
            assert np.array_equal(bits(table.xtilde_end), bits(solo.xtilde_end))
            assert np.array_equal(bits(table.x_end), bits(solo.x_end))
            assert np.array_equal(table.unresolved, solo.unresolved)
            for got, want in zip(table.last_orders, solo.last_orders):
                assert len(got) == len(want) == 4
                assert all(np.array_equal(bits(a), bits(b)) for a, b in zip(got, want))
            for part in ("s_tilde_even", "s_tilde_odd", "s_even", "s_odd", "magnitude"):
                assert np.array_equal(bits(getattr(table.sums[lam], part)),
                                      bits(getattr(solo.sums[lam], part)))

    def test_tail_converged_says_why_a_table_stopped(self):
        """True where the tail test stopped a table, False where it reached
        its ceiling with the test failing, None without a radius."""
        items = self.items()
        stopped = build_formal_powers(items, 60, radius=3.0)
        assert [t.tail_converged for t in stopped] == [True, True, False, True, False]
        assert [t.tail_converged for t in build_formal_powers(items, 60)] == [None] * 5

    def test_batch_needs_one_grid_and_degree(self):
        (spec, u0), *_ = self.items()
        other = intro_pencil(8)
        with pytest.raises(GridError, match="one grid and one degree"):
            build_formal_powers([(spec, u0), (PencilSpec(spec.p, spec.q, spec.r[:1]), u0)], 5)
        with pytest.raises(GridError, match="one grid and one degree"):
            build_formal_powers([(spec, u0), (other, ParticularSolution.unit(other.grid))], 5)
        assert build_formal_powers([], 5) == []


class TestEvaluateSolution:
    def test_lambda_zero_returns_u0(self):
        spec = intro_pencil(4)
        table = build_formal_powers([(spec, ParticularSolution.unit(spec.grid))],
                                    5, eval_points=(0.0,))[0]
        u, up = evaluate_solution(table, 0.0, 1.0, 0.0)
        assert np.max(np.abs(u.values - 1.0)) == 0.0
        assert np.max(np.abs(up.values)) == 0.0

    def test_lambda_not_in_eval_points_rejected(self):
        spec = intro_pencil(4)
        table = build_formal_powers([(spec, ParticularSolution.unit(spec.grid))],
                                    5, eval_points=(0.5,))[0]
        with pytest.raises(GridError, match="eval_points"):
            evaluate_solution(table, 0.25, 1.0, 0.0)

    def test_intro_example_cosh_value(self):
        spec = intro_pencil(32)
        table = build_formal_powers([(spec, ParticularSolution.unit(spec.grid))],
                                    30, eval_points=(0.1,))[0]
        u, _ = evaluate_solution(table, 0.1, 1.0, 0.0)
        exact = np.cosh(np.sqrt(0.12))
        assert abs(u.values[-1] - exact) <= 1e-12

    def test_u2_initial_values(self):
        g = Grid.uniform(0.0, 1.0, 8)
        p = sample(g, lambda x: 2.0 + np.cos(x))
        q = sample(g, lambda x: 0.5 * x)
        r = (sample(g, lambda x: 1.0 + 0 * x), sample(g, lambda x: np.exp(-x)))
        u0 = build_particular_solution(p, q, truncation=60)
        lam = 0.3 - 0.7j
        table = build_formal_powers([(PencilSpec(p, q, r), u0)], 20, eval_points=(lam,))[0]
        u, up = evaluate_solution(table, lam, 0.0, 1.0)
        assert abs(u.values[0]) < 1e-13
        expected = 1.0 / (u0.u0.values[0] * p.values[0])
        assert abs(up.values[0] - expected) < 1e-12 * abs(expected)

    def test_wronskian_constant(self):
        g = Grid.uniform(0.0, 1.0, 16)
        p = sample(g, lambda x: 1.0 + 0.2 * x)
        q = sample(g, lambda x: np.sin(x))
        r = (sample(g, lambda x: 1.0 + 0 * x), sample(g, lambda x: 1.0 + x))
        u0 = build_particular_solution(p, q, truncation=80)
        lams = (0.0, 0.5, 1.0j, -0.3 + 0.8j)
        table = build_formal_powers([(PencilSpec(p, q, r), u0)], 40, eval_points=lams)[0]
        for lam in lams:
            u1, u1p = evaluate_solution(table, lam, 1.0, 0.0)
            u2, u2p = evaluate_solution(table, lam, 0.0, 1.0)
            w = p.values * (u1.values * u2p.values - u1p.values * u2.values)
            assert abs(w[0] - 1.0) < 1e-10
            assert np.max(np.abs(w - w[0])) < 1e-8 * abs(w[0])

    def test_ode_residual_integral_form(self):
        spec = intro_pencil(16)
        g = spec.grid
        lams = (0.4, 1.0j, -0.5 + 0.5j)
        table = build_formal_powers([(spec, ParticularSolution.unit(g))], 40, eval_points=lams)[0]
        for lam in lams:
            u, up = evaluate_solution(table, lam, 0.7, -0.3 + 1j)
            rhs = u.values * (lam * spec.r[0].values + lam**2 * spec.r[1].values
                              - spec.q.values)
            acc = cumulative_integral(SampledFunction(g, rhs)).values
            res = spec.p.values * up.values - spec.p.values[0] * up.values[0] - acc
            scale = max(np.max(np.abs(spec.p.values * up.values)), np.max(np.abs(acc)))
            assert np.max(np.abs(res)) <= 1e-8 * scale


def assert_best_candidate(u0, u1, u2, kappa):
    """u0 is, among u1 + c u2 for c = i, -i, 0, kappa and -kappa (the five
    candidates of chain_particular_solution, from closed-form u1 and u2 with
    u1(a) = 1, p u2'(a) = 1), one whose minimum modulus ratio is largest."""
    cands = [u1 + c * u2 for c in (1j, -1j, 0.0, kappa, -kappa)]
    ratios = [np.min(np.abs(c)) / np.max(np.abs(c)) for c in cands]
    top = max(ratios)
    assert u0.min_modulus_ratio >= top * (1.0 - 1e-10)
    assert any(np.max(np.abs(u0.u0.values - c)) <= 1e-10 * np.max(np.abs(c))
               for c, ratio in zip(cands, ratios) if ratio >= top * (1.0 - 1e-10))


class TestParticularSolution:
    def test_zero_potential_terminates(self):
        """u'' = 0: u1 = 1 has ratio 1, the best of 1 +- ix (ratio 0.71)."""
        g = Grid.uniform(0.0, 1.0, 4)
        u0 = build_particular_solution(constant(g, 1.0), constant(g, 0.0))
        assert np.max(np.abs(u0.u0.values - 1.0)) < 1e-13
        assert u0.residual < 1e-13
        assert u0.min_modulus_ratio == 1.0
        assert_best_candidate(u0, np.ones(g.n_nodes), g.nodes, 0.0)

    def test_negative_q_gives_cosh(self):
        """u'' = u on [0, 1]: cosh (ratio 0.648) beats cosh +- i sinh (0.516)
        and the travelling waves e^(+-x) (0.368)."""
        g = Grid.uniform(0.0, 1.0, 8)
        u0 = build_particular_solution(constant(g, 1.0), constant(g, -1.0),
                                       truncation=60)
        ref = np.cosh(g.nodes)
        assert np.max(np.abs(u0.u0.values - ref) / np.abs(ref)) < 1e-10
        assert u0.residual < 1e-13
        assert_best_candidate(u0, ref, np.sinh(g.nodes), 1.0)

    def test_positive_q_gives_unit_circle(self):
        g = Grid.uniform(0.0, np.pi / 2, 8)
        u0 = build_particular_solution(constant(g, 1.0), constant(g, 1.0),
                                       truncation=60)
        ref = np.exp(1j * g.nodes)
        assert np.max(np.abs(u0.u0.values - ref)) < 1e-10
        # non-vanishing even though cos and sin each vanish somewhere
        assert u0.min_modulus_ratio > 0.9
        assert_best_candidate(u0, np.cos(g.nodes), np.sin(g.nodes), 1j)

    def test_vanishing_candidates_name_their_x(self, monkeypatch):
        """Below the floor, the error names the best candidate's ratio and
        the x where it is smallest: cosh is smallest at the left end."""
        monkeypatch.setattr(spps, "U0_FLOOR_RATIO", 2.0)
        g = Grid.uniform(0.0, 1.0, 8)
        with pytest.raises(ParticularSolutionError,
                           match=r"falls to 6\.481e-01 .* at x = 0\.0$"):
            build_particular_solution(constant(g, 1.0), constant(g, -1.0),
                                      truncation=60)

    def test_vanishing_u0_names_its_rule_and_x(self):
        """The error names the rule that made u0 and the x where it is
        smallest, and gives no advice that no config can follow."""
        g = Grid.uniform(0.0, 1.0, 4)
        bad = sample(g, lambda x: x - 0.5)
        with pytest.raises(ParticularSolutionError) as err:
            ParticularSolution.from_samples(bad, constant(g, 1.0),
                                            constant(g, 1.0), constant(g, 0.0),
                                            provenance="closed-form")
        assert str(err.value) == ("the closed-form u0 falls to 0.000e+00 of its "
                                  "maximum modulus, at x = 0.5")

    def test_chain_particular_solution_solves_shifted_equation(self):
        spec = intro_pencil(16)
        g = spec.grid
        lam0 = 1.0
        table = build_formal_powers([(spec, ParticularSolution.unit(g))],
                                    40, eval_points=(lam0,))[0]
        # q_eff = q - (lam0 r1 + lam0^2 r2) = -3 for the intro pencil
        q_eff = constant(g, -3.0)
        u0 = chain_particular_solution(table, lam0, spec.p, q_eff)
        # solves u'' = 3u (the intro pencil at lambda = 1), without vanishing
        assert u0.residual < 1e-9
        assert u0.min_modulus_ratio > 0.1
        span = np.cosh(np.sqrt(3) * g.nodes), np.sinh(np.sqrt(3) * g.nodes)
        coef = np.linalg.lstsq(np.column_stack(span), u0.u0.values, rcond=None)[0]
        fit = np.column_stack(span) @ coef
        assert np.max(np.abs(fit - u0.u0.values)) < 1e-8 * np.max(np.abs(u0.u0.values))


class TestTailBound:
    def test_zero_lambda(self):
        spec = intro_pencil(4)
        assert even_tail(spec, ParticularSolution.unit(spec.grid), 0.0, 10) == 0.0

    def test_monotonicity(self):
        spec = intro_pencil(4)
        u0 = ParticularSolution.unit(spec.grid)
        bounds_m = [even_tail(spec, u0, 1.0, M) for M in (5, 10, 20, 40)]
        assert all(a >= b for a, b in zip(bounds_m, bounds_m[1:]))
        bounds_lam = [even_tail(spec, u0, la, 20) for la in (0.5, 1.0, 2.0, 4.0)]
        assert all(a <= b for a, b in zip(bounds_lam, bounds_lam[1:]))

    def test_tail_is_a_true_bound_for_intro_example(self):
        spec = intro_pencil(16)
        u0 = ParticularSolution.unit(spec.grid)
        t_small = build_formal_powers([(spec, u0)], 12)[0]
        t_big = build_formal_powers([(spec, u0)], 24)[0]
        for lam in np.exp(1j * np.linspace(0, 2 * np.pi, 7)):
            small = sum(lam**n * t_small.xtilde_end[2 * n] for n in range(13))
            big = sum(lam**n * t_big.xtilde_end[2 * n] for n in range(25))
            assert abs(big - small) <= even_tail(spec, u0, abs(lam), 12)
