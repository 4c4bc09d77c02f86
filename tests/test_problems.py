"""Characteristic-series evaluation, spectral shift, string characteristic series,
Dirac reduction."""

import math

import numpy as np
import pytest

from slpencil import Grid, SampledFunction, constant, sample
from slpencil.grids import cumulative_integral
from slpencil.problems import (
    CharacteristicSeries,
    dirac_pencil,
    shift_pencil,
    string_pencil,
    two_point_series,
)
from slpencil.rootfinding import Rectangle, certify, newton_polish, poly_roots
from slpencil.spps import (
    ParticularSolution,
    PencilSpec,
    build_formal_powers,
    build_particular_solution,
    chain_particular_solution,
    evaluate_solution,
)


def intro_pencil(panels=16):
    g = Grid.uniform(0.0, 1.0, panels)
    return PencilSpec(p=constant(g, 1.0), q=constant(g, 0.0),
                      r=(constant(g, 1.0), constant(g, 2.0)))


def reference_horner(coeffs, center, lam):
    """Horner with a fresh accumulator per term, the plain reference loop."""
    z = np.asarray(lam, dtype=np.complex128) - center
    acc = np.zeros_like(z)
    for c in coeffs[::-1]:
        acc = acc * z + c
    return acc


class TestCharacteristicSeries:
    @pytest.fixture
    def series(self):
        rng = np.random.default_rng(7)
        coeffs = rng.standard_normal(51) + 1j * rng.standard_normal(51)
        return CharacteristicSeries(0.3 - 0.1j, coeffs / np.arange(1, 52) ** 2)

    @pytest.mark.parametrize("shape", [None, (), (1,), (4000,), (16000,)])
    def test_horner_bitwise_matches_reference_loop(self, series, shape):
        rng = np.random.default_rng(11)
        if shape is None:
            lam = complex(0.8, 0.6)
        else:
            lam = np.asarray(series.center + rng.uniform(-1, 1, shape)
                             + 1j * rng.uniform(-1, 1, shape))
        before = np.array(lam, copy=True)
        slopes = np.array([k * c for k, c in enumerate(series.coeffs)][1:])
        for got, want in ((series(lam), reference_horner(series.coeffs, series.center, lam)),
                          (series.deriv(lam), reference_horner(slopes, series.center, lam))):
            if shape in (None, ()):
                assert type(got) is complex
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert np.asarray(lam).tobytes() == before.tobytes()

    def test_term_scale_overflow_is_inf(self):
        # a zero coefficient meets an overflowing power; warnings are errors
        assert CharacteristicSeries(0, [1, 2, 3, 0]).term_scale(1e200) == math.inf
        assert CharacteristicSeries(0, [1, 2, 3, 0]).term_scale(2.0) == 12.0


class TestShiftPencil:
    def test_zero_shift_is_identity(self):
        spec = intro_pencil(4)
        sh = shift_pencil(spec, 0.0)
        assert np.array_equal(sh.q.values, spec.q.values)
        for a, b in zip(sh.r, spec.r):
            assert np.array_equal(a.values, b.values)

    def test_degree_two_closed_form(self):
        g = Grid.uniform(0.0, 1.0, 4)
        r1 = sample(g, lambda x: 1.0 + x)
        r2 = sample(g, lambda x: np.exp(x))
        q = sample(g, lambda x: np.sin(x))
        spec = PencilSpec(p=constant(g, 1.0), q=q, r=(r1, r2))
        lam0 = 0.3 - 1.2j
        sh = shift_pencil(spec, lam0)
        assert np.allclose(sh.r[0].values, r1.values + 2 * lam0 * r2.values)
        assert np.array_equal(sh.r[1].values, r2.values)
        assert np.allclose(sh.q.values,
                           q.values - lam0 * r1.values - lam0**2 * r2.values)

    def test_matches_binomial_loop(self):
        """The re-expansion equals, value for value, the direct loops
        q_eff = q - sum_k lam0^k r_k and
        r_eff[k] = sum_l C(k+l, l) lam0^l r_(k+l), summed in the same order."""
        g = Grid.uniform(0.0, 1.0, 4)
        q = sample(g, lambda x: np.sin(x) + 0.5j)
        r = [sample(g, lambda x, k=k: np.exp(k * x) - 1j * x) for k in range(1, 4)]
        lam0 = -1.1 - 3.0j
        sh = shift_pencil(PencilSpec(p=constant(g, 1.0), q=q, r=tuple(r)), lam0)
        q_eff = q.values
        for k in range(1, 4):
            q_eff = q_eff - lam0**k * r[k - 1].values
        assert np.array_equal(sh.q.values, q_eff)
        for k in range(1, 4):
            r_eff = sum(math.comb(k + ell, ell) * lam0**ell * r[k + ell - 1].values
                        for ell in range(4 - k))
            assert np.array_equal(sh.r[k - 1].values, r_eff)

    def test_shift_then_unshift_roundtrip(self):
        g = Grid.uniform(0.0, 1.0, 4)
        spec = PencilSpec(p=constant(g, 1.0),
                          q=sample(g, lambda x: x),
                          r=(sample(g, lambda x: 1 + x**2),
                             sample(g, lambda x: np.cos(x)),
                             constant(g, 0.5)))
        lam0 = 0.7 + 0.2j
        once = shift_pencil(spec, lam0)
        back = shift_pencil(once, -lam0)
        assert np.max(np.abs(back.q.values - spec.q.values)) < 1e-12
        for a, b in zip(back.r, spec.r):
            assert np.max(np.abs(a.values - b.values)) < 1e-12

    def test_shift_consistency_on_intro_example(self):
        """Solution of the initial-value problem evaluated directly and through
        a spectral shift at lambda0 = 1 must agree at lambda = 1.5."""
        spec = intro_pencil(32)
        g = spec.grid
        lam = 1.5
        exact = np.cosh(np.sqrt(lam + 2 * lam**2))

        lam0 = 1.0
        table0 = build_formal_powers([(spec, ParticularSolution.unit(g))],
                                     60, eval_points=(lam, lam0))[0]
        u_direct, _ = evaluate_solution(table0, lam, 1.0, 0.0)

        sh = shift_pencil(spec, lam0)
        u0s = chain_particular_solution(table0, lam0, sh.p, sh.q)
        table1 = build_formal_powers([(sh, u0s)], 40, eval_points=(lam - lam0,))[0]
        # match the initial conditions u(0) = 1, u'(0) = 0 in the shifted frame
        c1 = 1.0 / u0s.u0.values[0]
        c2 = -c1 * u0s.u0_prime.values[0] * u0s.u0.values[0] * spec.p.values[0]
        u_shift, _ = evaluate_solution(table1, lam - lam0, c1, c2)

        assert abs(u_direct.values[-1] - exact) < 1e-10
        assert abs(u_shift.values[-1] - u_direct.values[-1]) <= 1e-9


def string_series(sp, truncation, center=0.0, u0=None):
    """The Dirichlet series `slpencil solve` builds for a string at one center:
    the string pencil, shifted to center, through two_point_series."""
    pencil = sp if center == 0 else shift_pencil(sp, center)
    table = build_formal_powers([(pencil, u0 or ParticularSolution.unit(sp.grid))], truncation)[0]
    return two_point_series(table, center=center)


def string_eigen_errors(series, count, lam_exact):
    roots = np.array(poly_roots(series))
    errs = []
    for lam in lam_exact[:count]:
        raw = roots[np.argmin(np.abs(roots - lam))]
        errs.append(abs(newton_polish(series, raw, steps=8) - lam))
    return errs


class TestStringCharacteristic:
    def test_first_coefficient_is_length(self):
        g = Grid.uniform(0.0, 1.0, 32)
        sp = string_pencil(sample(g, lambda x: np.cos(x)), sample(g, lambda x: 1 + x**2))
        series = string_series(sp, 10)
        assert abs(series.coeffs[0] - 1.0) < 1e-13  # X^(1)(L) = L = 1

    def test_constant_damping_eigenvalues(self):
        g = Grid.uniform(0.0, 1.0, 32)
        sp = string_pencil(constant(g, 1.0), constant(g, 1.0))
        series = string_series(sp, 100)
        exact = [-1 + np.sqrt(complex(1 - n**2 * np.pi**2)) for n in range(1, 8)]
        exact += [-1 - np.sqrt(complex(1 - n**2 * np.pi**2)) for n in range(1, 8)]
        errs = string_eigen_errors(series, 14, exact)
        # double-precision coefficient rounding limits the higher modes
        by_n = [max(errs[n - 1], errs[n + 6]) for n in range(1, 8)]
        assert max(by_n[:5]) < 1e-9
        assert by_n[5] < 1e-8 and by_n[6] < 2e-7

    def test_undamped_string_spectrum(self):
        g = Grid.uniform(0.0, 1.0, 32)
        sp = string_pencil(constant(g, 0.0), constant(g, 1.0))
        series = string_series(sp, 60)
        exact = [1j * n * np.pi for n in (1, 2, 3)] + [-1j * n * np.pi for n in (1, 2, 3)]
        errs = string_eigen_errors(series, 6, exact)
        assert max(errs) < 1e-10

    def test_shift_consistency_constant_damping(self):
        """Eigenvalues through the shifted series, with u0 chained from the
        unshifted table, agree with the unshifted ones."""
        g = Grid.uniform(0.0, 1.0, 32)
        sp = string_pencil(constant(g, 1.0), constant(g, 1.0))
        lam0 = -1.0 - 3.0j
        table = build_formal_powers([(sp, ParticularSolution.unit(g))], 100, eval_points=(lam0,))[0]
        base = two_point_series(table)
        pencil = shift_pencil(sp, lam0)
        u0 = chain_particular_solution(table, lam0, pencil.p, pencil.q)
        shifted = string_series(sp, 100, lam0, u0)
        exact = [-1 + np.sqrt(complex(1 - np.pi**2)),
                 -1 - np.sqrt(complex(1 - np.pi**2))]
        for lam in exact:
            e_base = string_eigen_errors(base, 1, [lam])[0]
            e_shift = string_eigen_errors(shifted, 1, [lam])[0]
            assert e_base <= 1e-10 and e_shift <= 1e-10

    def test_boundary_residual_at_eigenvalue(self):
        """A nontrivial Dirichlet solution rebuilt at a localized root must
        nearly vanish at the right endpoint."""
        g = Grid.uniform(0.0, 1.0, 32)
        sp = string_pencil(constant(g, 1.0), constant(g, 1.0))
        lam1 = complex(-1 + np.sqrt(complex(1 - np.pi**2)))
        table = build_formal_powers([(sp, ParticularSolution.unit(g))], 60, eval_points=(lam1,))[0]
        y, _ = evaluate_solution(table, lam1, 0.0, 1.0)
        assert abs(y.values[-1]) <= 1e-6 * np.max(np.abs(y.values))

    def test_certification_of_first_mode(self):
        g = Grid.uniform(0.0, 1.0, 32)
        sp = string_pencil(constant(g, 1.0), constant(g, 1.0))
        series = string_series(sp, 100)
        lam1 = complex(-1 + np.sqrt(complex(1 - np.pi**2)))
        rect = Rectangle.around(lam1, 0.5)
        tail = series.tail(rect.max_abs_from(0.0))
        assert np.isfinite(tail)
        from slpencil.rootfinding import EigenvalueRecord
        rec = EigenvalueRecord(lam1, 1, "poly_roots", False, 0.0)
        assert certify(rec, series, tail, rect).certified

    def test_tail_is_inf_where_a_bound_overflows(self):
        """Dirichlet ends give the exact zero constants c1 = 0 and beta2 = 0;
        where the family bounds overflow, the tail is inf, not 0 * inf = nan
        with a RuntimeWarning (an error under this suite's settings)."""
        g = Grid.uniform(0.0, 1.0, 32)
        sp = string_pencil(constant(g, 1.0), constant(g, 1.0))
        assert string_series(sp, 40).tail(1e6) == math.inf

    def test_tail_dominates_actual_truncation_error(self):
        g = Grid.uniform(0.0, 1.0, 32)
        sp = string_pencil(constant(g, 1.0), constant(g, 1.0))
        s40 = string_series(sp, 40)
        s80 = string_series(sp, 80)
        for lam in (0.5 + 0.5j, -1 + 2j, 2.0):
            observed = abs(complex(s80(lam)) - complex(s40(lam)))
            assert observed <= s40.tail(abs(lam))
        # a cubic pencil with Robin ends, a complex pencil with a Neumann
        # right end, and a pencil shifted to 3 + 2i, each with an SPPS-built
        # u0, against 40 more orders at offsets from the center
        cubic = PencilSpec(p=sample(g, lambda x: 1 + x / 2), q=sample(g, np.sin),
                           r=(sample(g, lambda x: 1 + x), sample(g, np.cos),
                              constant(g, 0.5)))
        cplx = PencilSpec(p=constant(g, 1.0), q=sample(g, lambda x: (1 + 0.5j) * x),
                          r=(sample(g, lambda x: (1 + 1j) * np.exp(x)),))
        shifted = shift_pencil(PencilSpec(p=constant(g, 1.0), q=constant(g, 0.0),
                                          r=(sample(g, lambda x: 1 + x / 2),)), 3 + 2j)
        # and the damped-end string, whose right end depends on lambda, at
        # center 0 and shifted to 1 + 2i
        damped = damped_end_string(g)
        right = {"right": ((0.0, 2.0), 1.0)}
        for pencil, m, kw in ((cubic, 10, {"left": (1.0, 0.5), "right": (0.5, 1.5)}),
                              (cplx, 6, {"right": (0.0, 1.0)}),
                              (shifted, 6, {"center": 3 + 2j}),
                              (damped, 6, right),
                              (shift_pencil(damped, 1 + 2j), 6,
                               {**right, "center": 1 + 2j})):
            u0 = build_particular_solution(pencil.p, pencil.q)
            lo, hi = (two_point_series(build_formal_powers([(pencil, u0)], t)[0], **kw)
                      for t in (m, m + 40))
            errors = []
            for lam in (0.5 + 0.5j, -1 + 2j, 2.0, 8j):
                z = lo.center + lam
                errors.append(abs(complex(hi(z)) - complex(lo(z))))
                assert errors[-1] <= lo.tail(abs(lam))
            assert max(errors) > 0.0


def damped_end_string(g):
    """y'' = lambda^2 y: p = 1, q = 0, r = (0, 1)."""
    return PencilSpec(p=constant(g, 1.0), q=constant(g, 0.0),
                      r=(constant(g, 0.0), constant(g, 1.0)))


class TestTwoPointSeries:
    @pytest.mark.parametrize("alpha,half", [(2.0, 0.0), (0.5, 0.5)])
    def test_damped_end_string_modes(self, alpha, half):
        """y'' = lambda^2 y on [0, 1], y(0) = 0, y'(1) + alpha lambda y(1) = 0
        has tanh lambda = -1/alpha, so lambda_k = ln|(alpha-1)/(alpha+1)|/2 +
        i pi (k + half).  At center 0 and at a center on the alpha = 2 line,
        with u0 chained from the center-0 table as the solve loop does, every
        mode within 6 of the center is a polished root exactly once."""
        g = Grid.uniform(0.0, 1.0, 32)
        pencil = damped_end_string(g)
        line = 0.5 * np.log(abs((alpha - 1) / (alpha + 1)))
        far = 0.5 * np.log(1 / 3) + 3j * np.pi
        table = build_formal_powers([(pencil, ParticularSolution.unit(g))],
                                    60, eval_points=(far,))[0]
        shifted = shift_pencil(pencil, far)
        u0 = chain_particular_solution(table, far, shifted.p, shifted.q)
        for center, tab in ((0.0, table), (far, build_formal_powers([(shifted, u0)], 60)[0])):
            series = two_point_series(tab, left=(1.0, 0.0),
                                      right=((0.0, alpha), 1.0), center=center)
            modes = [line + 1j * np.pi * (k + half) for k in range(-3, 7)]
            modes = [z for z in modes if abs(z - center) <= 6.0]
            roots = [newton_polish(series, z) for z in poly_roots(series)
                     if abs(z - center) <= 6.0]
            assert len(roots) == len(modes) >= 3
            for z in modes:
                assert sum(abs(r - z) <= 1e-12 * abs(z) for r in roots) == 1


    def test_neumann_right_matches_derivative_zero(self):
        """With left Dirichlet and right Neumann the series zeros satisfy
        y(0) = 0, y'(1) = 0 for y'' = lambda y: lambda_n = -((n+1/2) pi)^2."""
        g = Grid.uniform(0.0, 1.0, 32)
        spec = PencilSpec(p=constant(g, 1.0), q=constant(g, 0.0),
                          r=(constant(g, 1.0),))
        table = build_formal_powers([(spec, ParticularSolution.unit(g))], 60)[0]
        series = two_point_series(table, left=(1.0, 0.0), right=(0.0, 1.0))
        roots = np.array(poly_roots(series))
        for n in range(3):
            lam = -((n + 0.5) * np.pi) ** 2
            raw = roots[np.argmin(np.abs(roots - lam))]
            assert abs(newton_polish(series, raw) - lam) < 1e-8

    def test_tail_bound_is_finite_and_positive(self):
        g = Grid.uniform(0.0, 1.0, 16)
        spec = PencilSpec(p=constant(g, 1.0), q=constant(g, 0.0),
                          r=(constant(g, 1.0),))
        table = build_formal_powers([(spec, ParticularSolution.unit(g))], 30)[0]
        series = two_point_series(table, left=(1.0, 0.0), right=(0.5, 1.5))
        t = series.tail(2.0)
        assert 0 < t < 1e-10


class TestDirac:
    def test_constant_potential(self):
        g = Grid.uniform(-1.0, 1.0, 4)
        pencil = dirac_pencil(constant(g, 3.0), 0.0)
        assert np.allclose(pencil.p.values, 1 / 3.0)
        assert np.allclose(pencil.q.values, 3.0)
        assert np.max(np.abs(pencil.r[0].values)) < 1e-10
        assert np.allclose(pencil.r[1].values, 1 / 3.0)

    def test_affine_potential_r1_closed_form(self):
        g = Grid.uniform(0.0, 1.0, 8)
        pencil = dirac_pencil(sample(g, lambda x: x + 2.0), 0.0)
        expected = -1.0 / (g.nodes + 2.0) ** 2
        assert np.max(np.abs(pencil.r[0].values - expected)
                      / np.abs(expected)) < 1e-10

    def test_vanishing_denominator_rejected(self):
        g = Grid.uniform(-1.0, 1.0, 4)
        with pytest.raises(Exception):
            dirac_pencil(sample(g, lambda x: x), 0.0)

    def test_first_order_system_residual(self):
        """u = (lambda w + w')/(v - E) with w from the pencil solves the
        added/subtracted first-order system in integral form."""
        g = Grid.uniform(0.0, 1.0, 32)
        v, energy = constant(g, 3.0), 0.0
        pencil = dirac_pencil(v, energy)
        from slpencil.spps import build_particular_solution
        u0 = build_particular_solution(pencil.p, pencil.q, truncation=60)
        lams = (0.2, 0.5 + 0.3j)
        table = build_formal_powers([(pencil, u0)], 40, eval_points=lams)[0]
        for lam in lams:
            w, wp = evaluate_solution(table, lam, 1.0, 0.5)
            vmE = v.values - complex(energy)
            u = SampledFunction(g, (complex(lam) * w.values + wp.values) / vmE)
            # u' + (v-E) w = lambda u  -> integral form
            rhs = cumulative_integral(
                SampledFunction(g, lam * u.values - vmE * w.values)).values
            res = u.values - u.values[0] - rhs
            assert np.max(np.abs(res)) <= 1e-8 * np.max(np.abs(u.values))


class TestStoppedTable:
    """A table given the radius R of the disc it serves stops at the first
    order where the Rouche tail at R falls below rounding."""

    SHIFT = -1.1 - 3.0j  # the first shift of the shipped constant-damping chain
    KEEP = 2.0 * abs(SHIFT)  # the chain's keep radius, 6.39

    def chain_tables(self):
        """Center 0 of the constant-damping string and the center at SHIFT,
        u0 chained from the first: (stopped, ceiling, center) for each, the
        two tables on the same grid."""
        g = Grid.uniform(0.0, 1.0, 16)
        base = string_pencil(constant(g, 1.0), constant(g, 1.0))
        unit = ParticularSolution.unit(g)
        first = build_formal_powers([(base, unit)], 100, eval_points=(self.SHIFT,),
                                    radius=self.KEEP)[0]
        pencil = shift_pencil(base, self.SHIFT)
        u0 = chain_particular_solution(first, self.SHIFT, pencil.p, pencil.q)
        return [(first, build_formal_powers([(base, unit)], 100)[0], 0j),
                (build_formal_powers([(pencil, u0)], 100, radius=self.KEEP)[0],
                 build_formal_powers([(pencil, u0)], 100)[0], self.SHIFT)]

    def test_stopped_series_within_its_tail_of_the_ceiling(self):
        """On the keep circle, Phi_d - Phi_100 lies below the stopped series'
        own Rouche tail and below 1e-13 of its largest term there."""
        for stopped, full, center in self.chain_tables():
            assert stopped.truncation < 100
            lo, hi = (two_point_series(t, center=center) for t in (stopped, full))
            z = center + self.KEEP * np.exp(2j * np.pi * np.arange(64) / 64)
            diff = np.abs(np.asarray(hi(z)) - np.asarray(lo(z)))
            assert diff.max() <= lo.tail(self.KEEP)
            assert diff.max() <= 1e-13 * lo.term_scale(center + self.KEEP)

    def test_stopped_table_is_the_ceiling_cut(self):
        """The stopped table's end values are the ceiling's first 2M + 2,
        bit for bit, and its last orders end at its own top order."""
        for stopped, full, _ in self.chain_tables():
            m = stopped.truncation
            assert stopped.xtilde_end.shape == stopped.x_end.shape == (2 * m + 2,)
            assert np.array_equal(stopped.xtilde_end, full.xtilde_end[:2 * m + 2])
            assert np.array_equal(stopped.x_end, full.x_end[:2 * m + 2])
            assert stopped.last_orders[0][-1][-1] == stopped.xtilde_end[-1]

    def test_overflowing_radius_keeps_the_ceiling(self):
        """A radius whose powers overflow stops nowhere, with no warning (an
        error under this suite's settings), and the table is the one a single
        center builds."""
        g = Grid.uniform(0.0, 1.0, 16)
        sp = string_pencil(constant(g, 1.0), constant(g, 1.0))
        unit = ParticularSolution.unit(g)
        far = build_formal_powers([(sp, unit)], 100, radius=1e200)[0]
        full = build_formal_powers([(sp, unit)], 100)[0]
        assert far.truncation == full.truncation == 100
        assert np.array_equal(far.xtilde_end, full.xtilde_end)
        assert np.array_equal(far.x_end, full.x_end)
