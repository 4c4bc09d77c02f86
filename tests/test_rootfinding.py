"""Winding numbers, rectangle subdivision, residue refinement, certification."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from slpencil import RootLocalizationError, SolverError, rootfinding
from slpencil.problems import CharacteristicSeries
from slpencil.rootfinding import (
    EigenvalueRecord,
    _compensated_horner,
    Rectangle,
    certify,
    localize,
    newton_polish,
    poly_roots,
    residue_refine,
    winding_number,
)


def series_from_roots(roots, center=0.0):
    """Polynomial with the given roots as a characteristic series."""
    coeffs = np.array([1.0 + 0.0j])
    for r in roots:
        coeffs = np.convolve(coeffs, np.array([-(r - center), 1.0]))
    return CharacteristicSeries(center=center, coeffs=coeffs)


class TestPolyRoots:
    def test_quadratic_string_mode(self):
        s = CharacteristicSeries(0.0, np.array([np.pi**2, 2.0, 1.0]))
        roots = sorted(poly_roots(s), key=lambda z: z.imag)
        expect = sorted([-1 + 1j * math.sqrt(np.pi**2 - 1),
                         -1 - 1j * math.sqrt(np.pi**2 - 1)], key=lambda z: z.imag)
        assert np.allclose(roots, expect)

    def test_linear(self):
        s = CharacteristicSeries(0.0, np.array([0.0, 1.0]))
        assert poly_roots(s) == [0.0 + 0.0j]

    def test_difference_of_squares(self):
        s = CharacteristicSeries(0.0, np.array([-1.0, 0.0, 1.0]))
        assert sorted(z.real for z in poly_roots(s)) == pytest.approx([-1.0, 1.0])

    def test_all_zero_rejected(self):
        s = CharacteristicSeries(0.0, np.array([0.0, 0.0, 0.0]))
        with pytest.raises(SolverError, match="vanish"):
            poly_roots(s)

    def test_center_shift(self):
        s = series_from_roots([2.0 + 1.0j], center=2.0)
        assert poly_roots(s)[0] == pytest.approx(2.0 + 1.0j)

    @staticmethod
    def cosine_series(degree=60, center=0.0):
        """Taylor series of cos(lambda - center): on |lambda - center| <= 6
        its terms past degree 40 are below double rounding."""
        a = [0.0 if k % 2 else (-1) ** (k // 2) / math.factorial(k)
             for k in range(degree + 1)]
        return CharacteristicSeries(center, np.array(a))

    def test_radius_cuts_degree_and_keeps_roots_in_disc(self):
        s = self.cosine_series(center=0.5j)
        full, cut = poly_roots(s), poly_roots(s, 6.0)
        assert len(full) == 60 and len(cut) < 45

        def in_disc(roots):
            return sorted((z for z in roots if abs(z - s.center) <= 6.0),
                          key=lambda z: z.real)

        exact = [s.center + (j + 0.5) * math.pi for j in (-2, -1, 0, 1)]
        for a, b, z in zip(in_disc(cut), in_disc(full), exact, strict=True):
            assert abs(a - b) <= 1e-12 * abs(b)
            assert abs(a - z) <= 1e-12 * abs(z)

    def test_infinite_radius_is_the_full_companion(self):
        s = self.cosine_series(center=1.0 - 2.0j)
        expect = [complex(z) + s.center for z in np.roots(s.coeffs[::-1])]
        assert poly_roots(s) == poly_roots(s, math.inf) == expect

    def test_overflowing_radius_keeps_full_degree(self):
        """R^k overflows past k = 30 at R = 1e10; no numpy warning escapes
        (warnings are errors under pytest)."""
        s = self.cosine_series()
        assert poly_roots(s, 1e10) == poly_roots(s)


class TestWinding:
    def test_identity_map(self):
        s = CharacteristicSeries(0.0, np.array([0.0, 1.0]))
        w = winding_number(s, Rectangle(-1, 1, -1, 1))
        assert w.winding == 1

    def test_double_zero(self):
        s = series_from_roots([0.03, 0.03])
        w = winding_number(s, Rectangle(0.02, 0.04, -0.01, 0.01))
        assert w.winding == 2

    def test_empty_region(self):
        s = series_from_roots([5.0])
        assert winding_number(s, Rectangle(-1, 1, -1, 1)).winding == 0

    def test_zero_on_boundary_detected(self):
        s = series_from_roots([1.0])
        with pytest.raises(RootLocalizationError):
            # the zero at 1 is the midpoint of a side, so a sample point
            winding_number(s, Rectangle(-1.0, 1.0, -1.0, 1.0))

    def test_zero_on_contour_names_the_center(self):
        """localize's failure on a contour through a zero names the series
        center, so a chain's failure says which center failed."""
        s = series_from_roots([1.0, 0.2j], center=0.25)
        with pytest.raises(RootLocalizationError, match=re.escape(
                f"zero on the contour of {Rectangle(-1.0, 1.0, -1.0, 1.0)} "
                f"about center (0.25+0j)")):
            localize(s, Rectangle(-1.0, 1.0, -1.0, 1.0))

    def test_overflow_on_contour_detected(self):
        """|Phi| overflows on a contour 1e300 wide: a RootLocalizationError
        naming the rectangle and the center, and no numpy warning (warnings
        are errors under pytest)."""
        s = series_from_roots([0.5, 1.5], center=0.25)
        rect = Rectangle(-1e300, 1e300, -1.0, 1.0)
        with pytest.raises(RootLocalizationError,
                           match=re.escape(f"contour of {rect} about center (0.25+0j)")):
            winding_number(s, rect)

    def test_additivity_random_polynomials(self):
        rng = np.random.default_rng(11)
        for trial in range(12):
            deg = int(rng.integers(2, 13))
            roots = rng.uniform(-0.9, 0.9, deg) + 1j * rng.uniform(-0.9, 0.9, deg)
            s = series_from_roots(roots)
            parent = Rectangle(-1.0001, 1.0003, -1.0002, 1.0001)
            mid = 0.00017
            left = Rectangle(parent.re_min, mid, parent.im_min, parent.im_max)
            right = Rectangle(mid, parent.re_max, parent.im_min, parent.im_max)
            wp = winding_number(s, parent).winding
            assert wp == deg
            assert (winding_number(s, left).winding
                    + winding_number(s, right).winding) == wp

    def test_halving_density_keeps_accepted_winding(self, monkeypatch):
        rng = np.random.default_rng(5)
        for _ in range(8):
            deg = int(rng.integers(1, 9))
            roots = rng.uniform(-0.8, 0.8, deg) + 1j * rng.uniform(-0.8, 0.8, deg)
            s = series_from_roots(roots)
            rect = Rectangle(-1.001, 1.002, -1.003, 1.001)
            dense = winding_number(s, rect)
            with monkeypatch.context() as m:
                m.setattr(rootfinding, "SAMPLES", rootfinding.SAMPLES // 2)
                half = winding_number(s, rect)
            assert dense.winding == half.winding


class TestLocalize:
    def test_quadratic_upper_half(self):
        s = CharacteristicSeries(0.0, np.array([np.pi**2, 2.0, 1.0]))
        recs = localize(s, Rectangle(-2.0, 0.0, 0.0, 4.0), tol=1e-10)
        assert len(recs) == 1
        assert recs[0].multiplicity == 1
        assert abs(recs[0].value - (-1 + 1j * math.sqrt(np.pi**2 - 1))) < 1e-10

    def test_triple_zero(self):
        # a triple zero is resolvable only to the cube root of the rounding
        # noise; the residual criterion is the meaningful one
        z0 = 1.0 + 1.0j
        s = series_from_roots([z0, z0, z0])
        recs = localize(s, Rectangle(0.5, 1.5, 0.5, 1.5), tol=1e-8)
        assert len(recs) == 1
        assert recs[0].multiplicity == 3
        assert abs(recs[0].value - z0) < 1e-4
        assert recs[0].residual <= 1e-10

    def test_completeness_random(self):
        rng = np.random.default_rng(3)
        for _ in range(6):
            deg = int(rng.integers(2, 7))
            roots = rng.uniform(-0.7, 0.7, deg) + 1j * rng.uniform(-0.7, 0.7, deg)
            s = series_from_roots(roots)
            recs = localize(s, Rectangle(-1.01, 1.02, -1.03, 1.01), tol=1e-9)
            assert sum(r.multiplicity for r in recs) == deg
            for root in roots:
                assert min(abs(r.value - root) for r in recs) < 1e-7

    @staticmethod
    def spied_localize(monkeypatch, s, region, **kwargs):
        """localize's records and the coefficient count of every series its
        windings evaluate."""
        lengths = []
        inner = rootfinding.winding_number

        def spy(series, rect):
            lengths.append(len(series.coeffs))
            return inner(series, rect)

        with monkeypatch.context() as m:
            m.setattr(rootfinding, "winding_number", spy)
            for name, value in kwargs.items():
                m.setattr(rootfinding, name, value)
            return localize(s, region, tol=1e-10), lengths

    def test_contours_evaluate_the_cut_series(self, monkeypatch):
        """The degree-60 Taylor series of cos about 0.5i on a region holding
        its four zeros within 5.6 of the center: the windings run on fewer
        than 61 coefficients, and the records are those of the full series,
        within 1e-12 of (j + 1/2) pi + 0.5i."""
        s = TestPolyRoots.cosine_series(center=0.5j)
        region = Rectangle(-5.5, 5.5, 0.0, 1.0)
        cut, cut_lengths = self.spied_localize(monkeypatch, s, region)
        full, full_lengths = self.spied_localize(
            monkeypatch, s, region,
            disc_degree=lambda series, radius: series.truncation)
        assert max(cut_lengths) < 61 and set(full_lengths) == {61}
        exact = [s.center + (j + 0.5) * math.pi for j in (-2, -1, 0, 1)]
        for a, b, z in zip(cut, full, exact, strict=True):
            assert a.multiplicity == b.multiplicity == 1
            assert abs(a.value - b.value) <= 1e-12 * abs(b.value)
            assert abs(a.value - z) <= 1e-12 * abs(z)

    def test_overflowing_corner_keeps_full_degree(self, monkeypatch):
        """R^k overflows from k = 55 on at the region's farthest corner, about
        4.2e5 from the center: the windings evaluate all 61 coefficients,
        and no numpy warning escapes (warnings are errors under pytest)."""
        s = TestPolyRoots.cosine_series()
        recs, lengths = self.spied_localize(
            monkeypatch, s, Rectangle(2e5, 3e5, 2e5, 3e5))
        assert recs == [] and set(lengths) == {61}

    def test_degree_zero_disc_keeps_a_linear_series(self, monkeypatch):
        """A disc on which a_0 alone is the series to rounding has degree 0;
        the contours run on a_0 + a_1 z, which CharacteristicSeries accepts."""
        s = CharacteristicSeries(0.0, np.array([1.0, 1e-20, 1e-20]))
        region = Rectangle(-1.0, 1.0, -1.0, 1.0)
        assert rootfinding.disc_degree(s, region.max_abs_from(s.center)) == 0
        recs, lengths = self.spied_localize(monkeypatch, s, region)
        assert recs == [] and set(lengths) == {2}


class TestEarlyStop:
    def test_separated_zeros_without_deep_bisection(self, monkeypatch):
        roots = [0.31 + 0.52j, -0.47 - 0.23j, 0.12 - 0.71j]
        s = series_from_roots(roots)
        calls = []
        inner = rootfinding.winding_number

        def counting(*args, **kwargs):
            calls.append(args[1])
            return inner(*args, **kwargs)

        monkeypatch.setattr(rootfinding, "winding_number", counting)
        recs = localize(s, Rectangle(-1.0, 1.0, -1.0, 1.0), tol=1e-10)
        assert len(calls) == 1
        assert len(recs) == 3
        for root in roots:
            assert min(abs(r.value - root) for r in recs) < 1e-13

    def test_rejected_candidate_falls_back_to_bisection(self, monkeypatch):
        root = 0.3 + 0.1j
        s = series_from_roots([root, 3.0 - 2.0j])
        polishes = []
        inner = rootfinding.newton_polish

        def first_call_lands_outside(series, z0, **kwargs):
            polishes.append(z0)
            if len(polishes) == 1:
                return 5.0 + 5.0j
            return inner(series, z0, **kwargs)

        monkeypatch.setattr(rootfinding, "newton_polish", first_call_lands_outside)
        recs = localize(s, Rectangle(-1.0, 1.0, -1.0, 1.0), tol=1e-10)
        assert len(polishes) >= 2
        assert len(recs) == 1
        assert recs[0].multiplicity == 1
        assert abs(recs[0].value - root) < 1e-10


class TestMoments:
    """A rectangle of winding m gives its m zeros from the power sums of
    its own samples; bisection runs only where they fail."""

    REGION = Rectangle(-1.0, 1.0, -1.0, 1.0)

    @pytest.mark.parametrize("roots", [
        [0.31 + 0.52j, -0.47 - 0.23j],
        [0.31 + 0.52j, -0.47 - 0.23j, 0.12 - 0.71j],
        [0.31 + 0.52j, -0.47 - 0.23j, 0.12 - 0.71j, 0.8 + 0.1j],
        [0.31 + 0.52j, -0.47 - 0.23j, 0.12 - 0.71j, 0.8 + 0.1j, -0.6 + 0.75j],
    ])
    def test_seeds_of_separated_zeros(self, roots):
        """Each seed lies within 1e-10 of its own zero."""
        w = winding_number(series_from_roots(roots), self.REGION)
        seeds = rootfinding._moment_seeds(w)
        assert len(seeds) == w.winding == len(roots)
        for z in roots:
            assert min(abs(seed - z) for seed in seeds) <= 1e-10
        for seed in seeds:
            assert min(abs(seed - z) for z in roots) <= 1e-10

    @staticmethod
    def counted_localize(monkeypatch, s, *, moments=True):
        """localize's records on REGION and its winding count; without
        moments, every seed set of winding 2 or more lies outside its
        rectangle, so those rectangles are bisected."""
        kwargs = {} if moments else {
            "_moment_seeds": lambda w: [complex(math.inf, 0.0)] * w.winding}
        recs, lengths = TestLocalize.spied_localize(
            monkeypatch, s, TestMoments.REGION, **kwargs)
        return recs, len(lengths)

    @pytest.mark.parametrize("gap", [1e-2, 1e-4, 1e-6])
    def test_close_pair_takes_one_winding(self, monkeypatch, gap):
        """A pair gap apart at 0.3+0.2i and a third zero: one winding, and
        the records of the bisection path within 1e-13."""
        pair = 0.3 + 0.2j
        s = series_from_roots([pair, pair + gap, -0.5 - 0.4j])
        recs, windings = self.counted_localize(monkeypatch, s)
        bisected, more = self.counted_localize(monkeypatch, s, moments=False)
        assert windings == 1 and more > 1
        assert len(recs) == len(bisected) == 3
        for a, b in zip(recs, bisected, strict=True):
            assert a.multiplicity == b.multiplicity == 1
            assert abs(a.value - b.value) <= 1e-13

    def test_pair_below_rounding_falls_back(self, monkeypatch):
        """A pair 1e-8 apart is closer than 2^10 rounding radii: the
        moments are refused, and bisection gives the one multiplicity-2
        record it gives without them."""
        pair = 0.3 + 0.2j
        s = series_from_roots([pair, pair + 1e-8, -0.5 - 0.4j])
        recs, windings = self.counted_localize(monkeypatch, s)
        bisected, _ = self.counted_localize(monkeypatch, s, moments=False)
        assert windings > 1
        assert [r.multiplicity for r in recs] == [1, 2]
        assert abs(recs[1].value - pair) <= 1e-7
        assert recs == bisected

    def test_seed_outside_is_never_polished(self, monkeypatch):
        """A moment seed outside its rectangle (here 1.3e13, where Phi_M
        overflows) rejects the rectangle before any polish."""
        roots = [0.31 + 0.52j, -0.47 - 0.23j, 0.12 - 0.71j]
        far = complex(1.3e13, 0.0)
        inner_seeds = rootfinding._moment_seeds
        monkeypatch.setattr(rootfinding, "_moment_seeds",
                            lambda w: [far] + inner_seeds(w)[1:])
        polished = []
        inner = rootfinding.newton_polish

        def spy(series, z0, **kwargs):
            polished.append(z0)
            return inner(series, z0, **kwargs)

        monkeypatch.setattr(rootfinding, "newton_polish", spy)
        recs = localize(series_from_roots(roots), self.REGION, tol=1e-10)
        assert far not in polished and len(polished) == 3
        assert len(recs) == 3
        for z in roots:
            assert min(abs(r.value - z) for r in recs) < 1e-13

    def test_polished_outside_falls_back(self, monkeypatch):
        """m = 2: the first polish lands on the zero outside the rectangle,
        where the residual alone would pass, so the rectangle is bisected
        and both zeros inside still come back."""
        outside = 3.0 - 2.0j
        roots = [0.31 + 0.52j, -0.47 - 0.23j]
        polishes = []
        inner = rootfinding.newton_polish

        def first_call_lands_outside(series, z0, **kwargs):
            polishes.append(z0)
            if len(polishes) == 1:
                return outside
            return inner(series, z0, **kwargs)

        monkeypatch.setattr(rootfinding, "newton_polish", first_call_lands_outside)
        recs, windings = self.counted_localize(
            monkeypatch, series_from_roots(roots + [outside]))
        assert windings == 3 and len(polishes) == 3
        assert [r.multiplicity for r in recs] == [1, 1]
        for z in roots:
            assert min(abs(r.value - z) for r in recs) < 1e-13


class TestResidueRefine:
    @pytest.mark.parametrize("mult", [1, 2, 4])
    def test_power_zero_exact(self, mult):
        z0 = 0.3 - 0.2j
        s = series_from_roots([z0] * mult)
        w = winding_number(s, Rectangle(-0.4, 0.9, -0.8, 0.5))
        assert w.winding == mult
        assert abs(residue_refine(w) - z0) <= 1e-10

    def test_localize_evaluates_each_contour_once(self, monkeypatch):
        """localize never differentiates the series on an array, and makes
        one array evaluation per winding: the residue seeds read the
        windings' samples."""
        calls = {"__call__": 0, "deriv": 0}
        for name in calls:
            def counting(self, lam, _name=name, _orig=getattr(CharacteristicSeries, name)):
                if isinstance(lam, np.ndarray):
                    calls[_name] += 1
                return _orig(self, lam)
            monkeypatch.setattr(CharacteristicSeries, name, counting)
        windings = []
        inner = rootfinding.winding_number

        def spy(series, rect):
            windings.append(rect)
            return inner(series, rect)

        monkeypatch.setattr(rootfinding, "winding_number", spy)
        roots = [0.31 + 0.52j, -0.47 - 0.23j, 0.12 - 0.71j, 0.4 + 0.4j]
        recs = localize(series_from_roots(roots), Rectangle(-1.0, 1.0, -1.0, 1.0))
        assert len(recs) == len(roots)
        assert calls == {"__call__": len(windings), "deriv": 0}

    @pytest.mark.parametrize("rect", [
        Rectangle(-0.37, 0.9, -0.8, 0.41),
        Rectangle(0.0, 1e-3, -2.0, 3.0),  # the short sides at their floor
        Rectangle(-1.0001, 1.0003, -1.0002, 1.0001),
    ])
    def test_every_side_has_a_multiple_of_four_points(self, rect):
        """Strides 4, 2 and 1 of the winding's samples nest, and every level
        has a point at each corner."""
        pts = winding_number(series_from_roots([5.0]), rect).points
        corners = [np.flatnonzero(pts == c) for c in rect.corners()]
        assert all(len(k) == 1 for k in corners)
        starts = [int(k[0]) for k in corners] + [len(pts)]
        assert starts[0] == 0
        assert all((b - a) % 4 == 0 and b > a for a, b in zip(starts, starts[1:]))


class TestNewtonPolish:
    def test_converges_from_nearby(self):
        s = series_from_roots([2.0, -1.5, 0.5j])
        z = newton_polish(s, 0.45j + 0.02, steps=5)
        assert abs(z - 0.5j) < 1e-14

    def test_never_worse_than_input(self):
        s = series_from_roots([1.0])
        z0 = 1.0 + 1e-12
        z = newton_polish(s, z0, steps=5)
        assert abs(complex(s(z))) <= abs(complex(s(z0)))


def full_loop_polish(series, z0, steps=rootfinding.POLISH_STEPS):
    """newton_polish as it ran before it stopped at a repeated iterate: always
    `steps` iterations unless p' vanishes."""
    cs = series.coeffs.tolist()
    deriv = [k * c for k, c in enumerate(cs)][1:]
    center = complex(series.center)
    z = complex(z0) - center
    pz = _compensated_horner(cs, z)
    best, best_abs = complex(z0), abs(pz)
    for _ in range(steps):
        dp = 0j
        for c in reversed(deriv):
            dp = dp * z + c
        if dp == 0:
            break
        z = z - pz / dp
        pz = _compensated_horner(cs, z)
        if abs(pz) < best_abs:
            best, best_abs = z + center, abs(pz)
    return best


def bits(z):
    return z.real.hex(), z.imag.hex()


# Newton on z^3 - 2z + 2 from 0 cycles 0 -> 1 -> 0
TWO_CYCLE = CharacteristicSeries(0.0, np.array([2.0, -2.0, 0.0, 1.0]))


class TestPolishStopsAtRepeat:
    def count_passes(self, monkeypatch):
        calls = []
        inner = rootfinding._compensated_horner

        def counting(cs, z):
            calls.append(z)
            return inner(cs, z)
        monkeypatch.setattr(rootfinding, "_compensated_horner", counting)
        return calls

    def test_random_polynomials_bitwise_full_loop(self):
        rng = np.random.default_rng(20140107)
        for deg in range(2, 61):
            roots = rng.normal(size=deg) + 1j * rng.normal(size=deg)
            s = series_from_roots(roots, center=complex(rng.normal(), rng.normal()))
            for r in roots[:2]:
                for scale in (1e-15, 1e-10, 1e-6, 1e-3, 1e-1):
                    z0 = r + scale * complex(rng.normal(), rng.normal())
                    for steps in (1, 5, 8):
                        assert bits(newton_polish(s, z0, steps=steps)) == \
                            bits(full_loop_polish(s, z0, steps)), (deg, z0, steps)

    @pytest.mark.parametrize("series,z0", [
        (TWO_CYCLE, 0j),
        (CharacteristicSeries(0.0, np.array([-1.0, 0.0, 1.0])), 0j),  # p'(0) = 0
        # p/p' overflows, so the next iterate is -inf (then nan)
        (CharacteristicSeries(0.0, np.array([1.0, 0.0, 1.0])), 1e-310 + 0j),
        (CharacteristicSeries(0.0, np.array([1.0, 0.0, 1.0])), 1e-310 + 1e-310j),
        (series_from_roots([0.5] * 60), 1e10 + 1e10j),  # p overflows to nan
        (series_from_roots([1j, -1j, 2.0]), 0.0 + 1j),
        (series_from_roots([1j, -1j, 2.0]), -0.0 + 1j),
        (series_from_roots([1.0, -1.0]), 0.0 + 1j),
        (series_from_roots([1.0, -1.0]), -0.0 + 1j),
    ], ids=["two_cycle", "zero_slope", "inf_iterate", "complex_inf_iterate",
            "nan_value", "root_at_plus_zero", "root_at_minus_zero",
            "plus_zero_seed", "minus_zero_seed"])
    def test_edge_cases_bitwise_full_loop(self, series, z0):
        for steps in (1, 2, 5, 9):
            got = newton_polish(series, z0, steps=steps)
            assert bits(got) == bits(full_loop_polish(series, z0, steps))

    def test_seed_one_ulp_from_simple_root(self, monkeypatch):
        calls = self.count_passes(monkeypatch)
        s = CharacteristicSeries(0.0, np.array([-1.0, 0.0, 1.0]))
        assert newton_polish(s, 1.0 + 2.0 ** -52) == 1.0
        assert len(calls) <= 3

    def test_two_cycle_takes_two_passes(self, monkeypatch):
        calls = self.count_passes(monkeypatch)
        assert newton_polish(TWO_CYCLE, 0j, steps=5) == 1.0
        assert calls == [0j, 1 + 0j]

    def test_sequence_without_repeat_runs_every_step(self, monkeypatch):
        calls = self.count_passes(monkeypatch)
        s = CharacteristicSeries(0.0, np.array([-1.0, 0.0, 1.0]))
        newton_polish(s, 1000.0 + 0j, steps=5)
        assert len(calls) == 6
        assert len({bits(z) for z in calls}) == 6


def exact_value(cs, z):
    """(re, im) of sum cs[k] z^k in rational arithmetic: exact for the binary64
    coefficients and point."""
    zr, zi = Fraction(z.real), Fraction(z.imag)
    re = im = Fraction(0)
    for c in reversed(cs):
        re, im = (re * zr - im * zi + Fraction(c.real),
                  re * zi + im * zr + Fraction(c.imag))
    return re, im


class TestCompensatedPolish:
    def test_horner_matches_exact_value_near_multiple_root(self):
        # expanded (z - r)^7: a distance 1e-3 from r, |p| ~ 1e-21 against terms
        # ~1e2, where plain Horner keeps no correct digit
        r = 1.0 + 0.5j
        cs = series_from_roots([r] * 7).coeffs.tolist()
        eps = np.finfo(float).eps
        for d in (1e-2, 1e-3, 3e-3j, 1e-3 * (1 + 1j), -2e-3 + 1e-3j):
            z = r + d
            exact_re, exact_im = exact_value(cs, z)
            got = _compensated_horner(cs, z)
            err = abs(complex(float(Fraction(got.real) - exact_re),
                              float(Fraction(got.imag) - exact_im)))
            size = abs(complex(float(exact_re), float(exact_im)))
            cond = sum(abs(c) * abs(z) ** k for k, c in enumerate(cs))
            assert err <= 4 * eps * size + (2 * len(cs) * eps) ** 2 * cond

    def test_newton_lands_on_close_pair(self):
        # roots 1 and 1 + 2^-20 (about 1e-6 apart), exact in binary64 like the
        # coefficients; a residual with plain Horner's eps-level noise would
        # leave Newton about eps / 1e-6 ~ 1e-10 off
        lo, hi = 1.0, 1.0 + 2.0 ** -20
        s = series_from_roots([lo, hi])
        ulp = np.spacing(1.0)
        for z0, root in ((lo - 1e-8, lo), (lo + 3e-8 + 1e-8j, lo),
                         (hi + 1e-8, hi), (hi - 2e-8j, hi)):
            assert abs(newton_polish(s, z0, steps=5) - root) <= 4 * ulp


class TestCertify:
    def make_record(self, value):
        return EigenvalueRecord(value=value, multiplicity=1, method="poly_roots",
                                certified=False, residual=0.0)

    def test_zero_tail_certifies_nonvanishing_boundary(self):
        s = series_from_roots([0.5])
        rec = certify(self.make_record(0.5), s, 0.0, Rectangle(0.0, 1.0, -0.5, 0.5))
        assert rec.certified

    def test_infinite_tail_never_certifies(self):
        s = series_from_roots([0.5])
        rec = certify(self.make_record(0.5), s, math.inf, Rectangle(0.0, 1.0, -0.5, 0.5))
        assert not rec.certified

    @pytest.mark.parametrize("rect", [
        Rectangle(-1.0, 1.0, -1.0, 1.0),  # the zero at 1 is a boundary sample
        Rectangle(-1e300, 1e300, -1.0, 1.0),  # |Phi| overflows on the boundary
    ], ids=["zero_on_boundary", "overflowing_boundary"])
    def test_unresolved_winding_never_certifies(self, rect):
        s = series_from_roots([1.0, 0.5])
        with pytest.raises(RootLocalizationError):
            winding_number(s, rect)
        assert not certify(self.make_record(0.5), s, 0.0, rect).certified

    def test_large_tail_fails(self):
        s = series_from_roots([0.5])
        rec = certify(self.make_record(0.5), s, 1e6, Rectangle(0.0, 1.0, -0.5, 0.5))
        assert not rec.certified

    def test_box_holding_two_zeros_fails_multiplicity_one(self):
        """Zeros z0 and z0 + 1e-9 share the 0.5 box around z0: its winding is
        2, so a simple record there is not certified even with a zero tail;
        the simple zero at 2 + i still certifies."""
        z0 = 0.3 - 0.2j
        s = series_from_roots([z0, z0 + 1e-9, 2 + 1j])
        for z, certified in ((z0, False), (2 + 1j, True)):
            rec = certify(self.make_record(z), s, 0.0, Rectangle.around(z, 0.5))
            assert rec.certified is certified

    def test_zero_between_samples_is_not_certified(self):
        """Phi_M = z (z - z_out) with z_out 1e-7 outside the right edge of
        [-0.5, 0.5]^2, midway between two boundary samples: |Phi_M| is 5e-8
        there and 2.5e-4 at the samples, so a tail of half the sampled
        minimum must not certify the zero at 0."""
        rect = Rectangle(-0.5, 0.5, -0.5, 0.5)
        pts = rootfinding._boundary_points(rect, 4000)
        edge = np.sort(pts[pts.real == 0.5].imag)
        z_out = complex(0.5 + 1e-7, (edge[500] + edge[501]) / 2)
        s = series_from_roots([0.0, z_out])
        w = winding_number(s, rect)
        assert w.winding == 1 and abs(s(z_out - 1e-7)) < 1e-3 * w.boundary_min_abs
        rec = certify(self.make_record(0.0), s, w.boundary_min_abs / 2, rect)
        assert not rec.certified
