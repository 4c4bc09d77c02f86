"""Winding numbers, rectangle subdivision, residue refinement, certification."""

import math
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
            winding_number(s, Rectangle(-1.0, 1.0, -1.0, 1.0), samples_per_contour=41)

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

    def test_halving_density_keeps_accepted_winding(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            deg = int(rng.integers(1, 9))
            roots = rng.uniform(-0.8, 0.8, deg) + 1j * rng.uniform(-0.8, 0.8, deg)
            s = series_from_roots(roots)
            rect = Rectangle(-1.001, 1.002, -1.003, 1.001)
            dense = winding_number(s, rect, samples_per_contour=4000)
            half = winding_number(s, rect, samples_per_contour=2000)
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
            recs = localize(s, Rectangle(-1.01, 1.02, -1.03, 1.01), tol=1e-9,
                            samples_per_contour=1200)
            assert sum(r.multiplicity for r in recs) == deg
            for root in roots:
                assert min(abs(r.value - root) for r in recs) < 1e-7


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
        assert len(calls) <= 20
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


class TestResidueRefine:
    @pytest.mark.parametrize("mult", [1, 2, 4])
    def test_power_zero_exact(self, mult):
        z0 = 0.3 - 0.2j
        s = series_from_roots([z0] * mult)
        est = residue_refine(s, Rectangle(-0.4, 0.9, -0.8, 0.5), mult)
        assert abs(est - z0) <= 1e-10


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

    def test_large_tail_fails(self):
        s = series_from_roots([0.5])
        rec = certify(self.make_record(0.5), s, 1e6, Rectangle(0.0, 1.0, -0.5, 0.5))
        assert not rec.certified
