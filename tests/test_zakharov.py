"""Zakharov-Shabat reduction, particular solutions, dispersion series, potentials."""

import json
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from slpencil import Grid, NodeValueError, SampledFunction, cli, constant, sample
from slpencil.cli import run_solve
from slpencil.grids import cumulative_integral
from slpencil.problems import shift_pencil
from slpencil.rootfinding import newton_polish, poly_roots
from slpencil.spps import build_formal_powers, chain_particular_solution
from slpencil.zakharov import (
    ZSProblem,
    jost_constants,
    materialize_potential,
    zs_dispersion,
    zs_particular_solution,
    zs_solution,
    zs_to_pencil,
)

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def constant_zs(c=2.0, a=1.0, panels=8):
    g = Grid.uniform(-a, a, panels)
    return ZSProblem(Q=constant(g, c), P=constant(g, c),
                     Q_prime=constant(g, 0.0))


def dispersion_table(zs, truncation, eval_points=()):
    """The center-0 formal-power table `slpencil solve` builds."""
    v0 = zs_particular_solution(zs, truncation=truncation)
    return build_formal_powers(zs_to_pencil(zs), v0, truncation,
                               eval_points=eval_points)


def dispersion(zs, truncation, eval_points=()):
    """The dispersion series `slpencil solve` builds at center 0."""
    return zs_dispersion(dispersion_table(zs, truncation, eval_points), zs)


class TestPencilReduction:
    def test_constant_potential(self):
        zs = constant_zs(c=2.0)
        pencil = zs_to_pencil(zs)
        assert np.allclose(pencil.p.values, 0.5)
        assert np.allclose(pencil.q.values, 2.0)
        assert np.max(np.abs(pencil.r[0].values)) == 0.0
        assert np.allclose(pencil.r[1].values, 0.5)

    def test_klaus_shaw_even_potential_r1_odd(self):
        zs = materialize_potential({"kind": "klaus_shaw", "s": 0.956}, panels=8)
        pencil = zs_to_pencil(zs)
        mid = zs.grid.n_nodes // 2  # x = 0
        assert abs(pencil.r[0].values[mid]) < 1e-14

    def test_vanishing_q_rejected(self):
        g = Grid.uniform(-1.0, 1.0, 4)
        with pytest.raises(NodeValueError):
            ZSProblem(Q=sample(g, lambda x: x), P=sample(g, lambda x: x),
                      Q_prime=constant(g, 1.0))

    def test_generic_recursion_equals_zs_specific(self):
        """Generic pencil formal powers must equal the directly coded
        Zakharov-Shabat recursion on a random smooth non-vanishing pair."""
        g = Grid.uniform(-1.0, 1.0, 16)
        Q = sample(g, lambda x: 1.2 + 0.4 * np.sin(3 * x) + 0.3j * np.cos(2 * x))
        P = sample(g, lambda x: 0.5 * np.cos(x) - 0.2j + 0.1 * x)
        Qp = sample(g, lambda x: 1.2 * np.cos(3 * x) - 0.6j * np.sin(2 * x))
        zs = ZSProblem(Q=Q, P=P, Q_prime=Qp)
        v0 = zs_particular_solution(zs, truncation=60)
        lams = (0.7 + 0.4j, -1.5)
        table = build_formal_powers(zs_to_pencil(zs), v0, 5, eval_points=lams)

        # direct transcription of the ZS-specific recursion
        v0sq = v0.u0.values**2
        w_odd = v0sq * Qp.values / Q.values**2
        w_lag = v0sq / Q.values
        w_even = Q.values / v0sq

        def integ(vals):
            F = cumulative_integral(SampledFunction(g, vals)).values
            return F - F[0]

        ones = np.ones(g.n_nodes, dtype=complex)
        zeros = np.zeros(g.n_nodes, dtype=complex)
        xt = [ones]
        xs = [ones]
        for n in range(1, 12):
            xt_m3 = xt[n - 3] if n >= 3 else zeros
            xs_m3 = xs[n - 3] if n >= 3 else zeros
            if n % 2 == 1:
                xt.append(integ(xt[n - 1] * w_odd + xt_m3 * w_lag))
                xs.append(integ(xs[n - 1] * w_even))
            else:
                xt.append(integ(xt[n - 1] * w_even))
                xs.append(integ(xs[n - 1] * w_odd + xs_m3 * w_lag))

        for n in range(12):
            scale = max(np.max(np.abs(xt[n])), 1e-30)
            assert abs(table.xtilde_end[n] - xt[n][-1]) < 1e-12 * scale
            scale = max(np.max(np.abs(xs[n])), 1e-30)
            assert abs(table.x_end[n] - xs[n][-1]) < 1e-12 * scale
        # and on the whole grid, through the series sums at each eval point
        for lam in lams:
            s = table.sums[complex(lam)]
            for got, refs in ((s.s_tilde_even, xt[0::2]), (s.s_tilde_odd, xt[1::2]),
                              (s.s_even, xs[0::2]), (s.s_odd, xs[1::2])):
                expected = sum(lam**k * r for k, r in enumerate(refs))
                scale = sum(abs(lam)**k * np.max(np.abs(r)) for k, r in enumerate(refs))
                assert np.max(np.abs(got - expected)) < 1e-12 * scale


class TestParticularSolution:
    def test_constant_quarter_turn(self):
        a = 1.0
        zs = constant_zs(c=np.pi / (4 * a), a=a)
        v0 = zs_particular_solution(zs)
        assert v0.provenance == "closed-form"
        assert abs(v0.u0.values[-1] - 1j) < 1e-12

    def test_klaus_shaw_endpoint_phase(self):
        s = 0.7
        zs = materialize_potential({"kind": "klaus_shaw", "s": s}, panels=16)
        v0 = zs_particular_solution(zs)
        assert abs(v0.u0.values[-1] - np.exp(1.5j * np.pi * s)) < 1e-12

    def test_residual_of_pencil_equation(self):
        zs = materialize_potential({"kind": "klaus_shaw", "s": 0.9}, panels=16)
        v0 = zs_particular_solution(zs)
        assert v0.residual <= 1e-8

    def test_fallback_when_p_differs_from_q(self):
        g = Grid.uniform(-1.0, 1.0, 8)
        zs = ZSProblem(Q=constant(g, 1.0), P=constant(g, 0.5),
                       Q_prime=constant(g, 0.0))
        v0 = zs_particular_solution(zs, truncation=60)
        assert v0.provenance == "spps-built"
        assert v0.residual <= 1e-10


class TestSolution:
    def test_lambda_zero_reduces_to_v0(self):
        zs = materialize_potential({"kind": "klaus_shaw", "s": 0.8}, panels=16)
        v0 = zs_particular_solution(zs)
        table = build_formal_powers(zs_to_pencil(zs), v0, 10, eval_points=(0.0,))
        v1, v2 = zs_solution(zs, table, 0.0, 1.0, 0.0)
        assert np.max(np.abs(v2.values - v0.u0.values)) < 1e-12
        expected_v1 = -v0.u0_prime.values / zs.Q.values
        assert np.max(np.abs(v1.values - expected_v1)) < 1e-12

    def test_jost_normalization_at_left_end(self):
        zs = materialize_potential({"kind": "klaus_shaw", "s": 0.8}, panels=16)
        v0 = zs_particular_solution(zs)
        lams = (0.3, 0.1 + 0.6j)
        table = build_formal_powers(zs_to_pencil(zs), v0, 30, eval_points=lams)
        c1, c2 = jost_constants(v0)
        for lam in lams:
            v1, v2 = zs_solution(zs, table, lam, c1, c2)
            assert abs(v1.values[0] - 1.0) < 1e-10
            assert abs(v2.values[0]) < 1e-12

    def test_constant_potential_cosine(self):
        """At lambda = 0 and Q = P = c the second component solves
        v2'' = -c^2 v2."""
        c = 1.3
        zs = constant_zs(c=c, a=1.0, panels=16)
        v0 = zs_particular_solution(zs)
        table = build_formal_powers(zs_to_pencil(zs), v0, 10, eval_points=(0.0,))
        v1, v2 = zs_solution(zs, table, 0.0, 1.0, 0.0)
        x = zs.grid.nodes
        # v0 = exp(i c (x + a)) solves it; compare against the closed form
        ref = np.exp(1j * c * (x + 1.0))
        assert np.max(np.abs(v2.values - ref)) < 1e-10

    def test_first_order_system_residual(self):
        zs = materialize_potential({"kind": "klaus_shaw", "s": 0.9}, panels=32)
        v0 = zs_particular_solution(zs)
        lams = (0.25, 0.05 + 0.5j)
        table = build_formal_powers(zs_to_pencil(zs), v0, 40, eval_points=lams)
        g = zs.grid
        for lam in lams:
            v1, v2 = zs_solution(zs, table, lam, *jost_constants(v0))
            scale = max(np.max(np.abs(v1.values)), np.max(np.abs(v2.values)))
            r1 = (v1.values - v1.values[0]
                  - cumulative_integral(SampledFunction(
                      g, lam * v1.values + zs.P.values * v2.values)).values)
            r2 = (v2.values - v2.values[0]
                  + cumulative_integral(SampledFunction(
                      g, lam * v2.values + zs.Q.values * v1.values)).values)
            assert np.max(np.abs(r1)) <= 1e-7 * scale
            assert np.max(np.abs(r2)) <= 1e-7 * scale


class TestDispersion:
    def test_leading_coefficient_formula(self):
        zs = materialize_potential({"kind": "klaus_shaw", "s": 0.8}, panels=16)
        table = dispersion_table(zs, 5)
        series = zs_dispersion(table, zs)
        v0 = table.u0
        expected = (v0.u0.values[-1] * v0.u0_prime.values[-1] * table.x_end[1]
                    + zs.Q.values[-1])
        assert abs(series.coeffs[0] - expected) < 1e-14

    def test_klaus_shaw_complex_pair(self):
        zs = materialize_potential({"kind": "klaus_shaw", "s": 0.956}, panels=16)
        series = dispersion(zs, 100)
        roots = np.array(poly_roots(series))
        adm = roots[(roots.real > 0) & (np.abs(roots) < 2.5)]
        for e in (0.0000544585364 - 0.6265762379200j,
                  0.0000544585364 + 0.6265762379200j):
            r = newton_polish(series, adm[np.argmin(np.abs(adm - e))])
            assert abs(r - e) < 1e-9

    def test_conjugate_symmetry_for_real_potential(self):
        zs = materialize_potential({"kind": "klaus_shaw", "s": 0.97}, panels=16)
        series = dispersion(zs, 100)
        roots = np.array(poly_roots(series))
        adm = roots[(roots.real > 1e-4) & (np.abs(roots) < 2.0)]
        for r in adm:
            assert np.min(np.abs(adm - np.conj(r))) < 1e-8

    def test_shift_consistency(self):
        """Roots of the series at center 0.03, with v0 chained from the
        center-0 table as the solve loop does, agree with the unshifted ones."""
        zs = materialize_potential({"kind": "klaus_shaw", "s": 0.9999}, panels=16)
        base_table = dispersion_table(zs, 100, eval_points=(0.03,))
        base = zs_dispersion(base_table, zs)
        pencil = shift_pencil(zs_to_pencil(zs), 0.03)
        v0 = chain_particular_solution(base_table, 0.03, pencil.p, pencil.q)
        table = build_formal_powers(pencil, v0, 100)
        shifted = zs_dispersion(table, zs, 0.03)
        assert shifted.center == 0.03
        b_roots = np.array(poly_roots(base))
        s_roots = np.array(poly_roots(shifted))
        for e in (0.0301375300344 - 0.0027328986939j,
                  0.0301375300365 + 0.0027328986939j):
            rb = newton_polish(base, b_roots[np.argmin(np.abs(b_roots - e))])
            rs = newton_polish(shifted, s_roots[np.argmin(np.abs(s_roots - e))])
            assert abs(rb - rs) <= 1e-8

    def test_tail_bound_finite_for_compact_nonvanishing_potential(self):
        zs = materialize_potential({"kind": "klaus_shaw", "s": 0.956}, panels=16)
        series = dispersion(zs, 400)
        tail = series.tail(1.8)
        assert np.isfinite(tail)
        assert tail < 1e-20

    @pytest.mark.parametrize("s", [0.8, 0.956])
    def test_tail_dominates_actual_truncation_error(self, s):
        zs = materialize_potential({"kind": "klaus_shaw", "s": s}, panels=16)
        full = dispersion(zs, 200)
        for m in (20, 30, 40):
            series = dispersion(zs, m)
            for lam in (0.5, 1 + 0.5j, -1.5j, 2.0):
                observed = abs(complex(full(lam)) - complex(series(lam)))
                assert observed <= series.tail(abs(lam))


def semiclassical(eps, A, dA, S, dS):
    """Q = (i/eps) A e^(-i S/eps) and Q' = (i/eps)(A' - i A S'/eps) e^(-i S/eps)."""
    def Q(x):
        return (1j / eps) * A(x) * np.exp(-1j * S(x) / eps)

    def Qp(x):
        return (1j / eps) * (dA(x) - 1j * A(x) * dS(x) / eps) * np.exp(-1j * S(x) / eps)

    return Q, Qp


def sech(x):
    return 1.0 / np.cosh(x)


# each kind's Q and Q', written out by hand
CATALOG_ORACLES = {
    "klaus_shaw": ({"s": 0.956}, (lambda x: 0.956 * (-1 + 3 * np.pi / 4 + 3 * x**2),
                                  lambda x: 6 * 0.956 * x)),
    "bronski": ({"epsilon": 0.2}, semiclassical(
        0.2, lambda x: sech(2 * x), lambda x: -2 * np.tanh(2 * x) * sech(2 * x),
        lambda x: sech(2 * x), lambda x: -2 * np.tanh(2 * x) * sech(2 * x))),
    "tovbis": ({"mu": 0.5, "epsilon": 0.5}, semiclassical(
        0.5, lambda x: -sech(x), lambda x: np.tanh(x) * sech(x),
        lambda x: -0.5 * np.log(np.cosh(x)), lambda x: -0.5 * np.tanh(x))),
}


class TestPotentialCatalog:
    @pytest.mark.parametrize("kind", sorted(CATALOG_ORACLES))
    def test_catalog_matches_hand_written_formulas(self, kind):
        params, (Q, Qp) = CATALOG_ORACLES[kind]
        zs = materialize_potential({"kind": kind, **params}, panels=64)
        x = zs.grid.nodes
        assert np.max(np.abs(zs.Q.values - Q(x))) <= 1e-14 * np.max(np.abs(Q(x)))
        # the spectral Q' is off by 1.9e-11 (Bronski), 5.0e-13 (Klaus-Shaw) and
        # 5.0e-14 (Tovbis) of sup |Q'| on these 64 panels
        err = np.max(np.abs(zs.Q_prime.values - Qp(x)))
        assert err <= 1e-10 * np.max(np.abs(Qp(x)))
        if kind != "klaus_shaw":
            assert zs.back_map_scale == 1j * params["epsilon"]

    def test_klaus_shaw_center_value(self):
        zs = materialize_potential({"kind": "klaus_shaw", "s": 1.0}, panels=8)
        mid = zs.grid.n_nodes // 2  # x = 0
        assert abs(zs.Q.values[mid] - (-1 + 3 * np.pi / 4)) < 1e-14
        assert zs.back_map_scale is None

    def test_tovbis_center_value(self):
        eps = 0.3
        zs = materialize_potential({"kind": "tovbis", "mu": 0.5, "epsilon": eps}, panels=8)
        mid = zs.grid.n_nodes // 2  # x = 0
        # q(0) = -1, so Q(0) = (i/eps) q*(0) = -i/eps
        assert abs(zs.Q.values[mid] - (-1j / eps)) < 1e-13
        assert zs.back_map_scale == 1j * eps

    def test_bronski_modulus_independent_of_eps(self):
        for eps in (0.2, 0.5):
            zs = materialize_potential({"kind": "bronski", "epsilon": eps}, panels=8)
            x = zs.grid.nodes
            assert np.max(np.abs(np.abs(zs.Q.values) * eps
                                 - 1 / np.cosh(2 * x))) < 1e-13

    def test_expression_potential(self):
        pot = {"kind": "expression", "Q": "2+sin(x)", "half_width": 2.0}
        zs = materialize_potential(pot, panels=8)
        x = zs.grid.nodes
        assert np.allclose(zs.Q.values, 2 + np.sin(x))
        assert np.allclose(zs.P.values, np.conj(zs.Q.values))
        assert np.max(np.abs(zs.Q_prime.values - np.cos(x))) < 1e-12

    def test_wrong_grid_rejected(self):
        pot = {"kind": "klaus_shaw", "s": 0.9}
        with pytest.raises(Exception):
            materialize_potential(pot, grid=Grid.uniform(-2.0, 2.0, 8))


class TestSpectralQPrime:
    @pytest.mark.parametrize("config,kind", [
        ("bronski_eps02.json", "bronski"), ("tovbis_mu05_eps05.json", "tovbis")])
    def test_records_match_hand_written_q_prime(self, tmp_path, monkeypatch,
                                                config, kind):
        """The shipped config's records with the catalog's spectral Q' are
        within 1e-13 (relative) of those with the hand-written Q'."""
        cfg = json.loads((CONFIGS / config).read_text())
        cfg["output"] = None
        path = tmp_path / config
        path.write_text(json.dumps(cfg))
        params, (_, Qp) = CATALOG_ORACLES[kind]
        assert cfg["potential"] == {"kind": kind, **params}
        spectral = run_solve(str(path)).records
        catalog = cli.materialize_potential
        monkeypatch.setattr(cli, "materialize_potential", lambda pot, grid: replace(
            catalog(pot, grid), Q_prime=sample(grid, Qp)))
        exact = run_solve(str(path)).records
        assert len(spectral) == len(exact) > 0
        for a, b in zip(spectral, exact):
            za, zb = complex(a["re"], a["im"]), complex(b["re"], b["im"])
            assert abs(za - zb) <= 1e-13 * abs(zb)


class TestTovbisOracle:
    def test_exact_spectrum_row(self):
        mu, eps = 0.5, 0.5
        zs = materialize_potential({"kind": "tovbis", "mu": mu, "epsilon": eps}, panels=128)
        series = dispersion(zs, 150)
        roots = np.array(poly_roots(series))
        adm = roots[(roots.real > 0.01) & (np.abs(roots.imag) < 0.5)
                    & (roots.real < 1.2 / eps)]
        top = np.sqrt(1 - mu**2 / 4)
        predicted = [1j * (top - eps * (n - 0.5)) for n in (1, 2)]
        assert len(adm) == len(predicted)
        for z in predicted:
            lam = z / (1j * eps)
            r = newton_polish(series, adm[np.argmin(np.abs(adm - lam))])
            assert abs(1j * eps * r - z) < 1e-6
