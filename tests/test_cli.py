"""Config validation, solve/surface pipelines, output formats, determinism."""

import cmath
import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from slpencil import ConfigError, SLPencilError, cli, rootfinding, spps
from slpencil.cli import _record_key, emit_surface, load_config, main, run_solve
from slpencil.problems import CharacteristicSeries
from slpencil.rootfinding import EigenvalueRecord, Rectangle
from slpencil.spps import build_formal_powers

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def intro_cfg(tmp_path, **overrides):
    cfg = {
        "problem": "pencil",
        "interval": [0.0, 1.0],
        "n_nodes": 2001,
        "truncation": 30,
        "coefficients": {"p": "1", "q": "0", "r": ["1", "2"]},
        "method": "poly_roots",
        "search_region": {"re": [-10.0, 0.5], "im": [-8.0, 8.0]},
        "tolerances": {"residual": 1e-6, "merge": 1e-6},
    }
    cfg.update(overrides)
    return write_config(tmp_path, "cfg.json", cfg)


class TestConfigValidation:
    def test_missing_problem(self, tmp_path):
        with pytest.raises(ConfigError, match="problem"):
            load_config(write_config(tmp_path, "c.json", {"n_nodes": 11}))

    def test_bad_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(str(path))

    def test_bad_node_count(self, tmp_path):
        # n_nodes is a ceiling and must leave room for one 16-node panel
        with pytest.raises(ConfigError, match="n_nodes"):
            load_config(intro_cfg(tmp_path, n_nodes=15))
        assert load_config(intro_cfg(tmp_path, n_nodes=1000))["n_nodes"] == 1000

    def test_bad_expression_position(self, tmp_path):
        with pytest.raises(ConfigError, match=r"coefficients\.q"):
            load_config(intro_cfg(tmp_path, coefficients={
                "p": "1", "q": "2*", "r": ["1"]}))

    def test_arg_principle_needs_region(self, tmp_path):
        cfg = json.loads(pathlib.Path(intro_cfg(tmp_path)).read_text())
        cfg["method"] = "arg_principle"
        del cfg["search_region"]
        with pytest.raises(ConfigError, match="search_region"):
            load_config(write_config(tmp_path, "c2.json", cfg))

    def test_exit_code_1_on_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, "bad.json", {"problem": "frobnicate"})
        assert main(["solve", str(path)]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("u0", {"mode": "auto"}),
        ("x0", 0.0),
        ("keep_radius", 2.5),
    ])
    def test_removed_key_rejected(self, tmp_path, capsys, key, value):
        path = intro_cfg(tmp_path, **{key: value})
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            load_config(path)
        assert main(["solve", path]) == 1
        assert f"unknown key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides,key", [
        ({"truncaton": 30}, "truncaton"),
        ({"tolerances": {"residul": 1e-6}}, "residul"),
    ])
    def test_misspelled_key_rejected(self, tmp_path, overrides, key):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            load_config(intro_cfg(tmp_path, **overrides))

    def test_unknown_potential_parameter_sweep(self, tmp_path):
        cfg = {
            "problem": "zakharov_shabat", "n_nodes": 501, "truncation": 10,
            "potential": {"kind": "klaus_shaw", "s": 0.9},
            "sweep": {"parameter": "epsilon", "values": [1.0]},
        }
        with pytest.raises(ConfigError, match="parameter"):
            load_config(write_config(tmp_path, "c.json", cfg))

    ZS = {"problem": "zakharov_shabat", "potential": {"kind": "klaus_shaw", "s": 0.9}}

    @pytest.mark.parametrize("overrides,path,key", [
        ({"tolerances": {"residual": 1e-6, "mrege": 1e-6}}, "tolerances", "mrege"),
        ({"surface": {"region": {"re": [0, 1], "im": [0, 1]}, "nx": 3, "ny": 3,
                      "kap": 5.0}}, "surface", "kap"),
        ({"boundary": {"left": [1, 0], "rigth": [1, 0]}}, "boundary", "rigth"),
        ({"coefficients": {"p": "1", "q": "0", "r": ["1"], "damping": "1"}},
         "coefficients", "damping"),
        ({"problem": "string", "coefficients": {"damping": "1", "density": "1",
                                                "p": "1"}}, "coefficients", "p"),
        ({"problem": "dirac", "coefficients": {"v": "1", "enrgy": 0.0}},
         "coefficients", "enrgy"),
        ({**ZS, "sweep": {"parameter": "s", "values": [0.9], "valeus": [0.95]}},
         "sweep", "valeus"),
        ({**ZS, "potential": {"kind": "klaus_shaw", "s": 0.9, "epsilon": 0.2}},
         "potential", "epsilon"),
        ({**ZS, "potential": {"kind": "bronski", "epsilon": 0.2, "P": "x"}},
         "potential", "P"),
        ({"search_region": {"re": [-10.0, 0.5], "im": [-8.0, 8.0], "imag": [0, 1]}},
         "search_region", "imag"),
        ({"surface": {"region": {"rea": [0, 1], "im": [0, 1]}, "nx": 3, "ny": 3}},
         "surface.region", "rea"),
        # a key that only another problem kind reads (path None: top level)
        ({"potential": ZS["potential"]}, None, "potential"),
        ({"problem": "string", "coefficients": {"damping": "1", "density": "1"},
          "potential": ZS["potential"]}, None, "potential"),
        ({"problem": "dirac", "coefficients": {"v": "2"},
          "potential": ZS["potential"]}, None, "potential"),
    ])
    def test_unknown_key_in_block_rejected(self, tmp_path, capsys, overrides,
                                           path, key):
        cfg_path = intro_cfg(tmp_path, **overrides)
        message = f"config{'' if path is None else '.' + path}: unknown key '{key}'"
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(cfg_path)
        assert main(["solve", cfg_path]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("interval", [-1.0, 1.0]), ("coefficients", {"p": "1"}),
        ("boundary", {"left": [1, 0], "right": [1, 0]}),
    ])
    def test_key_of_other_kind_rejected(self, tmp_path, key, value):
        """The ends and the interval of a ZS problem are fixed by the problem,
        so its config may not carry them, not even the default boundary."""
        cfg = {**self.ZS, "n_nodes": 501, "truncation": 10, key: value}
        message = f"config: unknown key '{key}' for problem kind 'zakharov_shabat'"
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(write_config(tmp_path, "c.json", cfg))

    @pytest.mark.parametrize("overrides,path", [
        ({"boundary": {"left": 5}}, "config.boundary.left"),
        ({**ZS, "potential": {"kind": "bronski", "epsilon": 0.2, "half_width": "x"}},
         "config.potential.half_width"),
        ({**ZS, "potential": {"kind": "expression", "Q": "x", "P": "2*"}},
         "config.potential.P"),
        # JSON booleans are not numbers
        ({"truncation": True}, "config.truncation"),
        ({"tolerances": {"localize": True}}, "config.tolerances.localize"),
        ({"interval": [False, True]}, "config.interval"),
        ({"spectral_shifts": [[True, False]]}, "config.spectral_shifts[0]"),
        ({**ZS, "sweep": {"parameter": "s", "values": [True]}},
         "config.sweep.values[0]"),
        ({**ZS, "potential": {"kind": "klaus_shaw", "s": 0.9, "half_width": True}},
         "config.potential.half_width"),
        ({**ZS, "sweep": {"parameter": "s", "values": [0.9, "abc"]}},
         "config.sweep.values[1]"),
        # and a number is not a boolean
        ({"certify": 1}, "config.certify"),
        ({"certify": {"half_width": 0.4}}, "config.certify"),
        ({"require_certified": "false"}, "config.require_certified"),
        # requiring certificates that nothing is asked to produce
        ({"require_certified": True}, "config.require_certified"),
        # only the catalog's numeric parameters can be swept
        ({**ZS, "potential": {"kind": "expression", "Q": "2+sin(x)",
                              "half_width": 2.0},
          "sweep": {"parameter": "Q", "values": [1.0]}},
         "config.sweep.parameter"),
        ({**ZS, "potential": {"kind": "klaus_shaw", "s": float("inf")}},
         "config.potential.s"),
        ({**ZS, "sweep": {"parameter": "s", "values": [float("nan")]}},
         "config.sweep.values[0]"),
        # Python's json reads NaN and Infinity; no key takes them
        ({"spectral_shifts": [float("inf")]}, "config.spectral_shifts[0]"),
        ({"spectral_shifts": [[float("nan"), 1.0]]}, "config.spectral_shifts[0]"),
        ({"tolerances": {"localize": float("nan")}}, "config.tolerances.localize"),
        ({"tolerances": {"merge": float("inf")}}, "config.tolerances.merge"),
        ({"tolerances": {"residual": float("inf")}}, "config.tolerances.residual"),
        ({"boundary": {"left": [float("nan"), 0]}}, "config.boundary.left[0]"),
        ({"interval": [0.0, float("inf")]}, "config.interval"),
        ({"search_region": {"re": [float("-inf"), 5.0], "im": [-8.0, 8.0]}},
         "config.search_region.re"),
        ({**ZS, "potential": {"kind": "bronski", "epsilon": 0.2,
                              "half_width": float("inf")}},
         "config.potential.half_width"),
        # nor an int past the double range
        ({"spectral_shifts": [10**400]}, "config.spectral_shifts[0]"),
        # finite ends whose width or perimeter is not
        ({"method": "arg_principle",
          "search_region": {"re": [-1e308, 1e308], "im": [-8.0, 8.0]}},
         "config.search_region.re"),
        ({"method": "arg_principle",
          "search_region": {"re": [-8e307, 8e307], "im": [-8e307, 8e307]}},
         "config.search_region"),
        ({"surface": {"region": {"re": [0.0, 1.0], "im": [-1e308, 1e308]},
                      "nx": 2, "ny": 2}}, "config.surface.region.im"),
    ], ids=["boundary_side", "half_width", "expression_P", "bool_truncation",
            "bool_localize", "bool_interval", "bool_shift", "bool_sweep_value",
            "bool_klaus_shaw_half_width", "string_sweep_value", "number_certify",
            "dict_certify", "string_require_certified",
            "require_certified_without_certify", "expression_sweep_Q",
            "infinite_parameter", "nan_sweep_value", "infinite_shift", "nan_shift",
            "nan_localize", "infinite_merge", "infinite_residual", "nan_boundary",
            "infinite_interval", "infinite_region", "infinite_half_width",
            "huge_int_shift", "overflowing_region_width",
            "overflowing_region_perimeter", "overflowing_surface_height"])
    def test_bad_value_in_block_rejected(self, tmp_path, capsys, overrides, path):
        assert main(["solve", intro_cfg(tmp_path, **overrides)]) == 1
        assert f"config error: {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
    def test_shipped_config_loads(self, name):
        load_config(str(CONFIGS / name))

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
    def test_loaded_config_loads_again(self, tmp_path, name):
        """A loaded config is in normal form: written out as the report's
        resolved_config is (without output), it loads to the same dict."""
        cfg = load_config(str(CONFIGS / name))
        cfg.pop("output", None)
        assert load_config(write_config(tmp_path, name, cfg)) == cfg

    @pytest.mark.parametrize("bare,pairs", [
        ({"problem": "pencil", "spectral_shifts": [-1, -2.5],
          "boundary": {"left": [1, 0], "right": [0, 2]}},
         {"problem": "pencil", "spectral_shifts": [[-1.0, 0.0], [-2.5, 0.0]],
          "boundary": {"left": [[1.0, 0.0], [0.0, 0.0]],
                       "right": [[0.0, 0.0], [2.0, 0.0]]}}),
        ({"problem": "dirac", "coefficients": {"v": "x+2", "energy": 1}},
         {"problem": "dirac", "coefficients": {"v": "x+2", "energy": [1.0, 0.0]}}),
    ], ids=["pencil_shifts_and_boundary", "dirac_energy"])
    def test_numbers_load_as_pairs(self, tmp_path, bare, pairs):
        """A complex value written as a bare number solves to the same bytes
        as its [re, im] pair of floats."""
        outputs = []
        for name, overrides in (("bare", bare), ("pairs", pairs)):
            path = intro_cfg(tmp_path, **overrides)
            (tmp_path / name).mkdir()
            assert main(["solve", path, "--out", str(tmp_path / name / "r")]) == 0
            outputs.append([(tmp_path / name / f"r.{ext}").read_bytes()
                            for ext in ("csv", "json")])
        assert outputs[0] == outputs[1]
        assert len(outputs[0][0].splitlines()) > 1


class TestSolve:
    def test_intro_pencil_dirichlet_modes(self, tmp_path):
        rs = run_solve(intro_cfg(tmp_path))
        # 2 lambda^2 + lambda = -n^2 pi^2 -> -1/4 +- i sqrt(8 n^2 pi^2 - 1)/4
        assert len(rs.records) >= 4
        for n in (1, 2):
            lam = complex(-0.25, math.sqrt(8 * n**2 * math.pi**2 - 1) / 4)
            best = min(abs(complex(r["re"], r["im"]) - lam) for r in rs.records)
            assert best < 1e-9

    def test_records_sorted(self, tmp_path):
        # by Re, and by Im among records whose Re agree to within merge = 1e-6
        rs = run_solve(intro_cfg(tmp_path))
        keys = [(round(r["re"] / 1e-6), r["im"], r["re"]) for r in rs.records]
        assert keys == sorted(keys)

    def test_vertical_line_ordered_by_im(self):
        # ulp-level differences in re do not reorder records on Re = -1
        ims = (3.0, -2.0, 1.0, -4.0)
        for res in itertools.product((-1.0, -1.0000000000000002), repeat=4):
            recs = [{"re": -0.5, "im": -9.0}]
            recs += [{"re": re, "im": im} for re, im in zip(res, ims)]
            recs.sort(key=lambda r: _record_key(r, 1e-5))
            assert [r["im"] for r in recs] == [-4.0, -2.0, 1.0, 3.0, -9.0]

    def test_residual_threshold_excludes(self, tmp_path):
        rs = run_solve(intro_cfg(tmp_path, tolerances={
            "residual": 1e-30, "merge": 1e-6}))
        assert rs.records == []
        assert rs.metadata["excluded_by_residual"] >= 4

    def test_overflowing_term_scale_is_infinite_relative_residual(self):
        series = CharacteristicSeries(0, [1, 2, 3, 0])
        rec = EigenvalueRecord(1e200, 1, "poly_roots", False, 1.0)
        assert cli._relative_residual(series, rec) == math.inf

    def test_arg_principle_agrees_with_poly_roots(self, tmp_path):
        poly = run_solve(intro_cfg(tmp_path))
        arg = run_solve(intro_cfg(tmp_path, method="arg_principle",
                                  search_region={"re": [-1.0, 0.0],
                                                 "im": [0.1, 5.0]}))
        lam = complex(-0.25, math.sqrt(8 * math.pi**2 - 1) / 4)
        pv = min((complex(r["re"], r["im"]) for r in poly.records),
                 key=lambda z: abs(z - lam))
        av = min((complex(r["re"], r["im"]) for r in arg.records),
                 key=lambda z: abs(z - lam))
        assert abs(pv - av) < 1e-9
        assert all(r["method"] == "arg_principle" for r in arg.records)

    def test_certification_flag_set(self, tmp_path):
        path = intro_cfg(tmp_path, certify=True, truncation=60, n_nodes=5001)
        rs = run_solve(path)
        lam1 = complex(-0.25, math.sqrt(8 * math.pi**2 - 1) / 4)
        rec = min(rs.records,
                  key=lambda r: abs(complex(r["re"], r["im"]) - lam1))
        assert rec["certified"] is True

    def test_spectral_shift_chain(self, tmp_path):
        path = intro_cfg(tmp_path, spectral_shifts=[[-0.25, 2.0], [-0.25, 4.5]],
                         truncation=25)
        rs = run_solve(path)
        for n in (1, 2):
            lam = complex(-0.25, math.sqrt(8 * n**2 * math.pi**2 - 1) / 4)
            best = min(abs(complex(r["re"], r["im"]) - lam) for r in rs.records)
            assert best < 1e-9

    def test_zs_back_map_in_report(self, tmp_path):
        cfg = {
            "problem": "zakharov_shabat", "n_nodes": 5001, "truncation": 120,
            "potential": {"kind": "tovbis", "mu": 0.5, "epsilon": 0.5,
                          "half_width": 10.0},
            "method": "poly_roots",
            "search_region": {"re": [0.01, 2.3], "im": [-0.4, 0.4]},
            "tolerances": {"residual": 1e-8, "merge": 1e-6},
        }
        rs = run_solve(write_config(tmp_path, "zs.json", cfg))
        assert len(rs.records) == 2
        for rec in rs.records:
            lam = complex(rec["re"], rec["im"])
            back = complex(rec["back_map_re"], rec["back_map_im"])
            assert abs(back - 0.5j * lam) < 1e-12

    def test_polished_root_outside_region_is_spurious(self, tmp_path, monkeypatch):
        """A raw root inside the region whose polished value lies outside it
        goes to spurious, not to the records.  The region holds one pair of
        modes, -1/4 +- 2.21i, so no other record shares its Re."""
        im = [-3.0, 3.0]
        top = max(run_solve(intro_cfg(tmp_path, search_region={
            "re": [-10.0, 0.5], "im": im})).records, key=lambda r: r["re"])
        region = {"re": [-10.0, top["re"] - 1e-9], "im": im}
        roots = cli.poly_roots
        monkeypatch.setattr(cli, "poly_roots", lambda series, radius: [
            z - 2e-9 for z in roots(series, radius)])
        rs = run_solve(intro_cfg(tmp_path, search_region=region))
        assert all(r["re"] <= region["re"][1] for r in rs.records)
        moved = [r for r in rs.spurious
                 if r["reason"] == "polished outside search region"]
        assert len(moved) == 2
        assert all(abs(r["re"] - top["re"]) < 1e-12 for r in moved)

    def test_region_far_corner_overflowing_keeps_full_companion(self, tmp_path):
        """The farthest corner of a region near the double limit is inf from
        the center, not an OverflowError: the companion keeps its degree."""
        far = [1.7e308, 1.75e308]
        rs = run_solve(intro_cfg(tmp_path, search_region={"re": far, "im": far}))
        assert rs.records == []
        assert rs.metadata["grid"][0]["degree"] == 30

    def test_both_methods_report_one_degree(self, tmp_path):
        """Klaus-Shaw at s = 0.956, one center: both methods cut Phi_M to the
        degree the search region's farthest corner needs, and report it under
        one key; their records agree."""
        cfg = json.loads((CONFIGS / "klaus_shaw_sweep.json").read_text())
        del cfg["sweep"]
        cfg["output"] = None
        found = {m: run_solve(write_config(tmp_path, f"{m}.json", {**cfg, "method": m}))
                 for m in ("poly_roots", "arg_principle")}
        degrees = {m: [g["degree"] for g in rs.metadata["grid"]]
                   for m, rs in found.items()}
        assert degrees["poly_roots"] == degrees["arg_principle"] == [33]
        values = {m: [complex(r["re"], r["im"]) for r in rs.records]
                  for m, rs in found.items()}
        assert len(values["poly_roots"]) == len(values["arg_principle"]) > 0
        for a, b in zip(values["arg_principle"], values["poly_roots"]):
            assert abs(a - b) <= 1e-12 * abs(b)

    def test_degenerate_linear_series(self, tmp_path):
        """u'' = lambda u with y(0) = 0, y(1) - y'(1) = 0 has the eigenvalue 0
        (y = x); the truncation-1 characteristic is a pure-lambda series whose
        single root is that 0."""
        cfg = intro_cfg(tmp_path, coefficients={"p": "1", "q": "0", "r": ["1"]},
                        boundary={"left": [1, 0], "right": [1, -1]},
                        truncation=1, n_nodes=2001,
                        search_region={"re": [-0.5, 0.5], "im": [-0.5, 0.5]},
                        tolerances={"residual": 1e-3, "merge": 1e-9})
        rs = run_solve(cfg)
        assert len(rs.records) == 1
        assert abs(complex(rs.records[0]["re"], rs.records[0]["im"])) < 1e-8

    def test_arg_principle_keep_box_outside_region(self, tmp_path, monkeypatch):
        """Centers 0, 3i and 6i keep roots within twice the step, 6, so the
        keep box of center 0 only touches the search region along Im = 6 and
        that center is skipped; the others still give their modes."""
        cfg = json.loads((CONFIGS / "intro_pencil.json").read_text())
        cfg.update(method="arg_principle", spectral_shifts=[[0, 3], [0, 6]],
                   search_region={"re": [-30.0, 0.5], "im": [6.0, 10.0]})
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["solve", path, "--out", str(tmp_path / "out")]) == 0
        boxes = []
        localize = cli.localize

        def recording_localize(series, box, tol):
            boxes.append(box)
            return localize(series, box, tol)

        monkeypatch.setattr(cli, "localize", recording_localize)
        rs = run_solve(path)
        # the keep boxes of 3i and 6i, clipped to the region; none from 0
        assert [(b.im_min, b.im_max) for b in boxes] == [(6.0, 9.0), (6.0, 10.0)]
        # center 0 evaluates nothing; the clipped boxes need all 40 orders
        assert [g["degree"] for g in rs.metadata["grid"]] == [0, 40, 40]
        # -1/4 + i sqrt(8 n^2 pi^2 - 1)/4 for n = 3, 4: 6.66i and 8.88i
        modes = [complex(-0.25, math.sqrt(8 * n**2 * math.pi**2 - 1) / 4)
                 for n in (3, 4)]
        assert len(rs.records) == len(modes)
        for lam in modes:
            best = min(abs(complex(r["re"], r["im"]) - lam) for r in rs.records)
            assert best < 1e-9

    @pytest.mark.parametrize("tolerances", [
        {"residual": 1e-6, "merge": 1e-320},
        {"residual": 1e-6, "localize": 1e-320},  # merge 10 x localize
    ], ids=["merge", "localize"])
    def test_subnormal_merge_tolerance_sorts(self, tmp_path, tolerances):
        """Re over a subnormal merge tolerance overflows a float; the sort key
        still orders the records, by Re and then by Im."""
        cfg = json.loads((CONFIGS / "intro_pencil.json").read_text())
        cfg.update(output=None, tolerances=tolerances)
        path = write_config(tmp_path, "c.json", cfg)
        assert main(["solve", path, "--out", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out.csv").read_text().splitlines()[1:]
        values = [tuple(float(v) for v in row.split(",")[:2]) for row in rows]
        assert len(values) == 8 and values == sorted(values)

    def test_contour_overflow_is_solver_error(self, tmp_path, capsys):
        """Phi_M overflows on a contour 1e300 wide: a solver error naming the
        rectangle and the center, not a NaN winding."""
        cfg = json.loads((CONFIGS / "intro_pencil.json").read_text())
        cfg.update(output=None, method="arg_principle",
                   search_region={"re": [-1e300, 1e300], "im": [-1.0, 1.0]})
        assert main(["solve", write_config(tmp_path, "c.json", cfg)]) == 2
        assert capsys.readouterr().err == (
            "solver error: Phi is not finite on the contour of Rectangle("
            "re_min=-1e+300, re_max=1e+300, im_min=-1.0, im_max=1.0) "
            "about center 0j\n")

    def test_tiny_region_reports_contour_degree(self, tmp_path, monkeypatch):
        """On the region +-1e-17 the disc degree is 0, but the contours
        evaluate degree 1, and that is the degree reported."""
        cfg = json.loads((CONFIGS / "intro_pencil.json").read_text())
        cfg.update(output=None, method="arg_principle",
                   search_region={"re": [-1e-17, 1e-17], "im": [-1e-17, 1e-17]})
        degrees = set()
        winding = rootfinding.winding_number

        def spy(series, rect):
            degrees.add(len(series.coeffs) - 1)
            return winding(series, rect)

        monkeypatch.setattr(rootfinding, "winding_number", spy)
        rs = run_solve(write_config(tmp_path, "c.json", cfg))
        assert degrees == {1}
        assert [g["degree"] for g in rs.metadata["grid"]] == [1]

    def test_expression_potential_with_default_p(self, tmp_path):
        """A ZS expression potential that gives P = conj(Q) itself solves to
        the same bytes as one that leaves P to its default."""
        pot = {"kind": "expression", "Q": "2*sech(x)*exp(i*x)", "half_width": 8.0}
        cfg = {"problem": "zakharov_shabat", "n_nodes": 2001, "truncation": 40,
               "search_region": {"re": [1e-6, 2.0], "im": [-2.0, 2.0]},
               "tolerances": {"residual": 1e-8, "merge": 1e-6}}
        csv = []
        for name, extra in (("default", {}), ("given", {"P": "2*sech(x)*exp(-i*x)"})):
            path = write_config(tmp_path, f"{name}.json",
                                {**cfg, "potential": {**pot, **extra}})
            assert main(["solve", path, "--out", str(tmp_path / name)]) == 0
            csv.append((tmp_path / f"{name}.csv").read_bytes())
        assert csv[0] == csv[1] and csv[0].count(b"\n") > 1

    @pytest.mark.parametrize("r,boundary,method,message", [
        # Neumann ends and r = 0: u = 1 solves for every lambda, so Phi = 0
        ("0", {"left": [0, 1], "right": [0, 1]}, "poly_roots",
         "all characteristic coefficients at center 0j vanish"),
        ("0", {"left": [0, 1], "right": [0, 1]}, "arg_principle",
         "all characteristic coefficients at center 0j vanish"),
        ("1e200", {}, "poly_roots",
         r"characteristic coefficient \d+ at center 0j is not finite"),
        ("1/0", {}, "poly_roots", r"expression is not finite at x = 0\.0 \(node 0\)"),
    ], ids=["vanishing_series", "vanishing_series_arg_principle",
            "overflowing_powers", "constant_division_by_zero"])
    def test_solver_error_exit_2(self, tmp_path, capsys, r, boundary, method, message):
        path = intro_cfg(tmp_path, truncation=10, boundary=boundary, method=method,
                         coefficients={"p": "1", "q": "0", "r": [r]})
        assert main(["solve", path]) == 2
        assert re.search(f"^solver error: {message}$", capsys.readouterr().err, re.M)

    @pytest.mark.parametrize("r,message", [
        (["1", "2"], r"re-expanding the coefficients about center \(1e\+200\+0j\) "
                     "overflows"),
        (["1"], r"chaining u0 to center 1 at \(1e\+200\+0j\): .*"),
    ], ids=["overflowing_re_expansion", "overflowing_chain"])
    def test_overflowing_shift_names_center(self, tmp_path, capsys, r, message):
        """A finite center so far out that the pencil re-expanded about it
        (two r terms) or the series sums that chain u0 to it (one r term)
        overflow."""
        path = intro_cfg(tmp_path, truncation=10, spectral_shifts=[[1e200, 0]],
                         coefficients={"p": "1", "q": "0", "r": r})
        assert main(["solve", path]) == 2
        assert re.search(f"^solver error: {message}$", capsys.readouterr().err, re.M)

    def test_long_sum_is_config_error(self, tmp_path, capsys):
        path = intro_cfg(tmp_path, coefficients={
            "p": "+".join(["1"] * 1000), "q": "0", "r": ["1"]})
        assert main(["solve", path]) == 1
        assert capsys.readouterr().err.startswith(
            "config error: config.coefficients.p: bad expression")

    def test_constant_damping_records_near_closed_form(self, tmp_path):
        """Every record of the single-center M = 100 config lies within 1e-4
        (relative) of -1 +- i sqrt(n^2 pi^2 - 1): the drift test drops the
        Taylor-section zeros past the series' accurate radius."""
        cfg = json.loads((CONFIGS / "string_constant_damping.json").read_text())
        cfg["output"] = None
        rs = run_solve(write_config(tmp_path, "c.json", cfg))
        assert len(rs.records) >= 16
        exact = [complex(-1.0, s * math.sqrt(n**2 * math.pi**2 - 1))
                 for n in range(1, 20) for s in (1, -1)]
        for r in rs.records:
            z = complex(r["re"], r["im"])
            assert min(abs(z - m) for m in exact) <= 1e-4 * abs(z)

    @pytest.mark.parametrize("name", [
        "intro_pencil.json", "bronski_eps02.json", "tovbis_mu05_eps05.json",
        "dirac_demo.json", "klaus_shaw_surface.json", "zs_sech_imaginary.json",
        "klaus_shaw_sweep.json",
        # arg_principle returns no record here: localize stops at the top-level
        # region, beyond where M = 100 is accurate (CHANGES.md, FOUND line 28)
        pytest.param("string_constant_damping.json",
                     marks=pytest.mark.xfail(strict=True, reason="FOUND line 28"))])
    def test_shipped_config_same_records_under_both_methods(self, tmp_path, name):
        """Both methods give the same records, matched within each sweep value
        of a sweep."""
        cfg = json.loads((CONFIGS / name).read_text())
        cfg["output"] = None
        found = {}
        for method in ("poly_roots", "arg_principle"):
            cfg["method"] = method
            rs = run_solve(write_config(tmp_path, f"{method}.json", cfg))
            found[method] = {}
            for r in rs.records:
                found[method].setdefault(r.get("sweep_value"), []).append(
                    complex(r["re"], r["im"]))
        assert found["arg_principle"].keys() == found["poly_roots"].keys()
        assert found["poly_roots"]
        for value, poly in found["poly_roots"].items():
            arg = found["arg_principle"][value]
            assert len(arg) == len(poly) > 0
            for z in arg:
                assert min(abs(z - w) for w in poly) <= 1e-12 * abs(z)

    @pytest.mark.parametrize("problem,modes", [
        # constant damping, y'' = 2 lambda y + lambda^2 y: -1 +- i sqrt(n^2 pi^2 - 1);
        # the center at -1+6i gets its u0 chained from the center-0 table
        ({"problem": "string",
          "coefficients": {"damping": "1", "density": "1"},
          "spectral_shifts": [[-1.0, 6.0]],
          "search_region": {"re": [-2.0, 0.5], "im": [-10.0, 10.0]}},
         [complex(-1.0, s * math.sqrt(n**2 * math.pi**2 - 1))
          for n in (1, 2, 3) for s in (1, -1)]),
        # Dirac system with v = 3, E = 0: +- i sqrt(n^2 pi^2 - 9)
        ({"problem": "dirac",
          "coefficients": {"v": "3", "energy": 0.0},
          "search_region": {"re": [-1.0, 1.0], "im": [-10.0, 10.0]}},
         [complex(0.0, s * math.sqrt(n**2 * math.pi**2 - 9))
          for n in (1, 2, 3) for s in (1, -1)]),
    ], ids=["string", "dirac"])
    def test_dirichlet_closed_form_modes(self, tmp_path, problem, modes):
        path = write_config(tmp_path, "c.json", {
            "interval": [0.0, 1.0], "n_nodes": 5001, "truncation": 60,
            "method": "poly_roots",
            "tolerances": {"residual": 1e-6, "merge": 1e-6}, **problem,
        })
        rs = run_solve(path)
        assert len(rs.records) == len(modes)
        for lam in modes:
            best = min(abs(complex(r["re"], r["im"]) - lam) for r in rs.records)
            assert best < 1e-10


def x2_chain_cfg(shifts=3, **overrides):
    """The x^2-damped string of the shipped config, center 0 and its first
    `shifts` shifts."""
    cfg = json.loads((CONFIGS / "string_x2_damping_shifted.json").read_text())
    cfg["spectral_shifts"] = cfg["spectral_shifts"][:shifts]
    cfg["output"] = None
    cfg.update(overrides)
    return cfg


def constant_chain_cfg(shifts):
    """The shipped constant-damping chain, center 0 and its first `shifts`
    shifts."""
    cfg = json.loads((CONFIGS / "string_constant_damping_shifted.json").read_text())
    cfg["spectral_shifts"] = cfg["spectral_shifts"][:shifts]
    cfg["output"] = None
    return cfg


def klaus_shaw_sweep_cfg(**overrides):
    cfg = json.loads((CONFIGS / "klaus_shaw_sweep.json").read_text())
    cfg["output"] = None
    cfg.update(overrides)
    return cfg


class TestPanelGrid:
    def test_ceiling_too_small_for_a_chained_center(self, tmp_path, capsys):
        """A ceiling that admits center 0 but not a later center raises a
        GridError naming that center (exit 2)."""
        rs = run_solve(write_config(tmp_path, "full.json", x2_chain_cfg()))
        nodes = [g["nodes"] for g in rs.metadata["grid"]]
        assert nodes[0] < max(nodes)
        ceiling = (nodes[0] + max(nodes)) // 2
        first = next(j for j, n in enumerate(nodes) if n > ceiling)
        path = write_config(tmp_path, "c.json", x2_chain_cfg(n_nodes=ceiling))
        with pytest.raises(SLPencilError, match=f"center {first} at .*ceiling {ceiling}"):
            run_solve(path)
        assert main(["solve", path]) == 2
        assert f"center {first} at" in capsys.readouterr().err

    def test_chained_solve_reruns_byte_identical(self, tmp_path):
        path = write_config(tmp_path, "c.json", x2_chain_cfg())
        outs = []
        for sub in ("a", "b"):
            base = tmp_path / sub
            assert main(["solve", path, "--out", str(base)]) == 0
            outs.append((base.with_suffix(".csv").read_bytes(),
                         base.with_suffix(".json").read_bytes()))
        assert outs[0] == outs[1]
        grid = json.loads(outs[0][1])["metadata"]["grid"]
        assert [g["center"] for g in grid] == [[0.0, 0.0]] + [
            list(c) for c in x2_chain_cfg()["spectral_shifts"]]
        assert all(g["nodes"] == 15 * g["panels"] + 1 for g in grid)
        # the keep disc, 2 x the step, needs all M = 50 orders at every center,
        # so no table stops below its ceiling
        assert all(g["degree"] == g["truncation"] == 50 for g in grid)

    def test_no_table_on_a_grid_with_unresolved_kernels(self, tmp_path, monkeypatch):
        """The kernels of center 2 of the x^2 chain are unresolved on 16
        panels: that grid is split on the kernel flags alone and gets no
        table, so each center builds one, on the grid that splitting on the
        kernel and the top-order flags together reaches."""
        checked, built = [], []
        check = cli.recursion_kernels

        def counted_check(spec, u0):
            kernels = check(spec, u0)
            checked.append((spec.grid.panels, bool(kernels[2].any())))
            return kernels

        def counted_build(items, m, **kwargs):
            built.extend((spec.grid.panels, bool(check(spec, u0)[2].any()))
                         for spec, u0 in items)
            return build_formal_powers(items, m, **kwargs)

        monkeypatch.setattr(cli, "recursion_kernels", counted_check)
        monkeypatch.setattr(cli, "build_formal_powers", counted_build)
        rs = run_solve(write_config(tmp_path, "c.json", x2_chain_cfg(shifts=2)))
        assert [panels for panels, bad in checked if bad] == [16]
        assert built == [(16, False), (16, False), (24, False)]
        assert [g["panels"] for g in rs.metadata["grid"]] == [16, 16, 24]

    def test_kernels_computed_once_per_item_and_level(self, tmp_path, monkeypatch):
        """Each item a refinement level builds has its recursion kernels
        computed once: the build takes those the flags were read from.  The
        x^2 chain's center 2 has a level on unresolved kernels, and the sweep
        builds its values in one batch."""
        calls, items = [], []
        for owner in (cli, spps):
            def counted(spec, u0, _check=owner.recursion_kernels):
                calls.append(spec)
                return _check(spec, u0)
            monkeypatch.setattr(owner, "recursion_kernels", counted)
        inner = spps.ParticularSolution.on

        def counted_on(sols, grid):  # once per refinement level, for its items
            items.extend(sols)
            return inner(sols, grid)

        monkeypatch.setattr(spps.ParticularSolution, "on", staticmethod(counted_on))
        for cfg in (x2_chain_cfg(shifts=2), klaus_shaw_sweep_cfg()):
            calls.clear()
            items.clear()
            run_solve(write_config(tmp_path, "c.json", cfg))
            assert len(items) > 0 and len(calls) == len(items)

    def test_constant_damping_shifted_closed_form(self, tmp_path):
        """All 55 records of the shipped shifted config within 1e-13
        (relative) of -1 +- i sqrt(n^2 pi^2 - 1)."""
        cfg = json.loads((CONFIGS / "string_constant_damping_shifted.json").read_text())
        cfg["output"] = None
        rs = run_solve(write_config(tmp_path, "c.json", cfg))
        assert len(rs.records) == 55
        exact = [complex(-1.0, s * math.sqrt(n**2 * math.pi**2 - 1))
                 for n in range(1, 60) for s in (1, -1)]
        for r in rs.records:
            z = complex(r["re"], r["im"])
            assert min(abs(z - m) for m in exact) <= 1e-13 * abs(z)

    def test_constant_damping_chain_cuts_companion(self, tmp_path, monkeypatch):
        """Center 0 and the first 2 shifts of the shipped shifted config keep
        roots within 6.4 of a center, where degree 40 of M = 100 is past
        rounding: each table stops at most at order 48, where the Rouche
        tail at the keep radius is below rounding, on the first grid it is
        built on; the 5 records stay within 1e-13 (relative) of
        -1 +- i sqrt(n^2 pi^2 - 1)."""
        built = []

        def counted_build(items, m, **kwargs):
            built.extend(spec.grid.panels for spec, _ in items)
            return build_formal_powers(items, m, **kwargs)

        monkeypatch.setattr(cli, "build_formal_powers", counted_build)
        rs = run_solve(write_config(tmp_path, "c.json", constant_chain_cfg(shifts=2)))
        assert built == [16, 16, 16]
        assert len(rs.metadata["grid"]) == 3
        assert all(g["degree"] <= 40 and g["truncation"] <= 48
                   for g in rs.metadata["grid"])
        assert len(rs.records) == 5
        exact = [complex(-1.0, s * math.sqrt(n**2 * math.pi**2 - 1))
                 for n in range(1, 5) for s in (1, -1)]
        for r in rs.records:
            z = complex(r["re"], r["im"])
            assert min(abs(z - m) for m in exact) <= 1e-13 * abs(z)

    def test_tail_converged_marks_truncation_limited_centers(self, tmp_path):
        """The x^2 chain's tables reach M = 50 with their tail test failing,
        the first three constant-damping centers stop where theirs passes, and a single
        center, with no disc radius, has no test."""
        runs = {name: run_solve(write_config(tmp_path, f"{name}.json", cfg))
                for name, cfg in (
                    ("x2", x2_chain_cfg()),
                    ("constant", constant_chain_cfg(shifts=2)),
                    ("single", klaus_shaw_sweep_cfg()))}
        converged = {name: [g["tail_converged"] for g in rs.metadata["grid"]]
                     for name, rs in runs.items()}
        assert converged["x2"] == [False] * 4
        assert converged["constant"] == [True] * 3
        assert converged["single"] == [None] * 5

    def test_single_center_table_keeps_its_ceiling(self, tmp_path):
        """A single center keeps no disc, so its table runs to M."""
        rs = run_solve(str(CONFIGS / "klaus_shaw_surface.json"))
        assert [g["truncation"] for g in rs.metadata["grid"]] == [100]

    def test_x2_chain_matches_stored_reference(self, tmp_path):
        """Center 0 and three shifts give a record within 1e-10 of every mode
        of the stored shooting reference within 13 of a center (M = 50 has
        5e-8 at 15.7 from a center), and every record is a distinct mode."""
        ref = json.loads((CONFIGS.parent / "bench" / "data"
                          / "string_x2_reference.json").read_text())
        modes = [complex(re, im) for re, im in ref["modes"]]
        cfg = x2_chain_cfg()
        centers = [0j] + [complex(*c) for c in cfg["spectral_shifts"]]
        band = [m for m in modes if min(abs(m - c) for c in centers) < 13.0]
        assert len(band) >= 12
        rs = run_solve(write_config(tmp_path, "c.json", cfg))
        found = [complex(r["re"], r["im"]) for r in rs.records]
        for m in band:
            assert min(abs(z - m) for z in found) <= 1e-10 * abs(m)
        matched = []
        for z in found:
            m = min(modes, key=lambda m: abs(z - m))
            assert abs(z - m) <= 1e-6 * abs(m)
            matched.append(m)
        assert len(set(matched)) == len(matched)

    def test_x2_modes_once_under_both_methods(self, tmp_path):
        """Both root methods give the same records on the x^2 chain, each
        within 1e-6 of a mode of the stored shooting reference and no mode
        twice: the truncation-drift test drops the Taylor-section zeros that
        localize finds in the keep box of twice the step."""
        ref = json.loads((CONFIGS.parent / "bench" / "data"
                          / "string_x2_reference.json").read_text())
        modes = [complex(re, im) for re, im in ref["modes"]]
        region = {"re": [-3.0, 0.5], "im": [-45.0, 10.0]}
        matched = {}
        for method in ("poly_roots", "arg_principle"):
            cfg = x2_chain_cfg(method=method, search_region=region)
            rs = run_solve(write_config(tmp_path, f"{method}.json", cfg))
            found = []
            for r in rs.records:
                z = complex(r["re"], r["im"])
                k = min(range(len(modes)), key=lambda k: abs(z - modes[k]))
                assert abs(z - modes[k]) <= 1e-6 * abs(modes[k]), (method, z)
                found.append(k)
            assert len(set(found)) == len(found) >= 12
            matched[method] = sorted(found)
        assert matched["arg_principle"] == matched["poly_roots"]


def pencil_records(tmp_path, p, q, r, interval, left, right, region):
    """The records of a pencil solved from center 0 at M = 100."""
    path = intro_cfg(tmp_path, interval=interval, n_nodes=5001, truncation=100,
                     coefficients={"p": p, "q": q, "r": r},
                     boundary={"left": left, "right": right}, search_region=region)
    return [complex(rec["re"], rec["im"]) for rec in run_solve(path).records]


class TestSweep:
    """A sweep's runs are solved in lockstep; each value gives the rows, the
    spurious roots and the grids it gives solved alone."""

    @staticmethod
    def assert_runs_alone_match(tmp_path, cfg):
        swept = run_solve(write_config(tmp_path, "sweep.json", cfg))
        param = cfg["sweep"]["parameter"]
        lines = cli._csv_lines(swept)[1:]

        def of(rows, v):
            return [{k: x for k, x in row.items() if k != "sweep_value"}
                    for row in rows if row["sweep_value"] == v]

        for v in cfg["sweep"]["values"]:
            alone_cfg = {k: x for k, x in cfg.items() if k != "sweep"}
            alone_cfg["potential"] = {**cfg["potential"], param: v}
            alone = run_solve(write_config(tmp_path, "alone.json", alone_cfg))
            prefix = f"{float(v)!r},"
            assert [line[len(prefix):] for line in lines if line.startswith(prefix)] \
                == cli._csv_lines(alone)[1:]
            assert of(swept.spurious, v) == alone.spurious
            assert of(swept.metadata["grid"], v) == alone.metadata["grid"]
        return swept

    @pytest.mark.parametrize("overrides", [
        {}, {"method": "arg_principle"}, {"certify": True}],
        ids=["poly_roots", "arg_principle", "certify"])
    def test_shipped_sweep_equals_its_runs_alone(self, tmp_path, overrides):
        swept = self.assert_runs_alone_match(tmp_path, klaus_shaw_sweep_cfg(**overrides))
        assert len(swept.records) == 15

    def test_runs_that_stop_at_different_orders(self, tmp_path):
        """With spectral shifts, the runs at s = 0.2, 0.4 and 0.6 are built
        in one batch on 16 panels at some center, where s = 0.4 stops at a
        lower order than the other two."""
        cfg = klaus_shaw_sweep_cfg(sweep={"parameter": "s", "values": [0.2, 0.4, 0.6]},
                                   spectral_shifts=[[0.6, 0.0], [1.2, 0.0]], truncation=60)
        grid = self.assert_runs_alone_match(tmp_path, cfg).metadata["grid"]
        by_center = {}
        for g in grid:
            by_center.setdefault(tuple(g["center"]), []).append(g)
        assert any(len({g["panels"] for g in gs}) == 1 and len({g["truncation"] for g in gs}) > 1
                   for gs in by_center.values())

    def test_runs_that_end_on_different_grids(self, tmp_path):
        """s = 4 needs more panels than s = 0.5 and 0.956, so the batch
        splits."""
        cfg = klaus_shaw_sweep_cfg(sweep={"parameter": "s", "values": [0.5, 0.956, 4.0]})
        grid = self.assert_runs_alone_match(tmp_path, cfg).metadata["grid"]
        assert grid[0]["panels"] == grid[1]["panels"] < grid[2]["panels"]

    @pytest.mark.parametrize("n_nodes,where", [
        (260, "center 0 at 0j: the panel [0.75, 0.875] is unresolved"),
        (16, "center 0 coefficients: the panel [-1.0, 1.0] is unresolved")],
        ids=["tables", "coefficients"])
    def test_error_names_the_sweep_value(self, tmp_path, capsys, n_nodes, where):
        """A ceiling too low for the tables (or for the coefficients) fails
        the first value, and the error says which."""
        path = write_config(tmp_path, "c.json", klaus_shaw_sweep_cfg(n_nodes=n_nodes))
        assert main(["solve", path]) == 2
        assert capsys.readouterr().err.startswith(f"solver error: sweep s = 0.956: {where}")


class TestParticularSolutionChoice:
    """Center 0 chooses its u0 by the rule every chained center uses: the
    candidate with the largest minimum modulus ratio."""

    def test_phase_i_pencil(self, tmp_path):
        """p = q = r_1 = i is u'' + u = lambda u: 1 - n^2 pi^2 / 9 on [0, 3].
        u1 + i u2 vanishes at x = 3 pi / 4 for these coefficients."""
        found = pencil_records(tmp_path, "i", "i", ["i"], [0.0, 3.0], [1, 0], [1, 0],
                               {"re": [-20.0, 2.0], "im": [-1.0, 1.0]})
        modes = [1.0 - n**2 * math.pi**2 / 9.0 for n in range(1, 5)]
        assert len(found) == len(modes)
        for lam in modes:
            assert min(abs(z - lam) for z in found) <= 1e-12 * abs(lam)

    def test_imaginary_sech_potential(self):
        """The shipped Q = 2i sech(x), P = conj(Q): Satsuma-Yajima gives
        eigenvalues 0.5 and 1.5 in this frame."""
        rs = run_solve(str(CONFIGS / "zs_sech_imaginary.json"))
        found = sorted((complex(r["re"], r["im"]) for r in rs.records),
                       key=lambda z: z.real)
        assert len(found) == 2
        for z, lam in zip(found, (0.5, 1.5)):
            assert abs(z - lam) <= 1e-10

    @pytest.mark.parametrize("c_src,c", [
        ("i", 1j), ("-1", -1.0), ("exp(0.7*i)", cmath.exp(0.7j)),
        ("2.5*exp(-2*i)", 2.5 * cmath.exp(-2j))],
        ids=["i", "-1", "e^0.7i", "2.5e^-2i"])
    @pytest.mark.parametrize("p,q,r,interval,left,right", [
        ("1", "1", ["1"], [0.0, 3.0], [1, 0], [1, 0]),
        ("1 + 0.5*x", "cos(x)", ["1 + x^2"], [0.0, 1.0], [1, 0.5], [1, -2]),
        ("1", "-2", ["1", "0.5"], [0.0, 1.0], [1, 0], [0, 1]),
    ], ids=["dirichlet", "robin", "quadratic"])
    def test_common_factor_leaves_spectrum(self, tmp_path, c_src, c, p, q, r,
                                           interval, left, right):
        """Multiplying p, q and every r_k by c leaves the spectrum, with the
        alpha2 of each end (on p u') divided by c."""
        region = {"re": [-25.0, 25.0], "im": [-25.0, 25.0]}
        base = pencil_records(tmp_path, p, q, r, interval, left, right, region)

        def times_c(src):
            return f"({c_src})*({src})"

        def end(alpha):
            return [alpha[0], [(alpha[1] / c).real, (alpha[1] / c).imag]]

        scaled = pencil_records(tmp_path, times_c(p), times_c(q),
                                [times_c(rk) for rk in r], interval,
                                end(left), end(right), region)
        near = [z for z in base if abs(z) <= 20.0]
        assert near
        assert len([z for z in scaled if abs(z) <= 20.0]) == len(near)
        for z in near:
            assert min(abs(w - z) for w in scaled) <= 1e-10 * abs(z)

    def test_vanishing_closed_form_u0_names_center_0(self, tmp_path, capsys):
        """Q = P = 30i sech(x): the closed-form u0 exp(i int Q) decays by
        exp(-30 pi) across the interval, and the error names that u0, center
        0 and the x where it is smallest."""
        path = write_config(tmp_path, "zs.json", {
            "problem": "zakharov_shabat", "n_nodes": 5001, "truncation": 100,
            "potential": {"kind": "expression", "Q": "30*i*sech(x)",
                          "P": "30*i*sech(x)", "half_width": 16},
            "search_region": {"re": [0.01, 2.0], "im": [-1.0, 1.0]}})
        assert main(["solve", path]) == 2
        err = capsys.readouterr().err
        assert re.search(r"^solver error: center 0 u0: the closed-form u0 falls to "
                         r"\S+ of its maximum modulus, at x = 16\.0$", err, re.M), err

    def test_chained_u0_error_names_its_center(self, tmp_path, monkeypatch, capsys):
        """When every candidate falls below the floor at a chained center,
        the error names that center and the x where the best one is
        smallest."""
        monkeypatch.setattr(spps, "U0_FLOOR_RATIO", 2.0)
        path = intro_cfg(tmp_path, problem="string",
                         coefficients={"damping": "1", "density": "1"},
                         spectral_shifts=[[-1.0, 6.0]])
        assert main(["solve", path]) == 2
        err = capsys.readouterr().err
        assert re.search(r"chaining u0 to center 1 at \(-1\+6j\): every candidate "
                         r"u0 vanishes.* at x = \d", err), err
        assert "spectral shift" not in err


class TestCertification:
    """certify: true on two chains against independent references: each
    certified record's box holds exactly one mode."""

    def certified(self, tmp_path, cfg, modes):
        rs = run_solve(write_config(tmp_path, "c.json", {**cfg, "certify": True}))
        out = [complex(r["re"], r["im"]) for r in rs.records if r["certified"]]
        for z in out:
            box = Rectangle.around(z, cli.CERTIFY_HALF_WIDTH)
            assert sum(box.contains(m) for m in modes) == 1, z
        return len(out), len(rs.records)

    def test_x2_chain(self, tmp_path):
        ref = json.loads((CONFIGS.parent / "bench" / "data"
                          / "string_x2_reference.json").read_text())
        modes = [complex(re, im) for re, im in ref["modes"]]
        certified, total = self.certified(tmp_path, x2_chain_cfg(), modes)
        assert total == 22 and certified >= 10

    def test_constant_damping_chain(self, tmp_path):
        cfg = json.loads((CONFIGS / "string_constant_damping_shifted.json").read_text())
        cfg["spectral_shifts"] = cfg["spectral_shifts"][:2]
        cfg["output"] = None
        modes = [complex(-1.0, s * math.sqrt(n**2 * math.pi**2 - 1))
                 for n in range(1, 60) for s in (1, -1)]
        assert self.certified(tmp_path, cfg, modes) == (5, 5)

    def test_required_but_not_achieved_exits_3(self, tmp_path, capsys):
        """intro_pencil certifies some records but not all of them."""
        cfg = json.loads((CONFIGS / "intro_pencil.json").read_text())
        cfg.update(output=None, certify=True, require_certified=True)
        assert main(["solve", write_config(tmp_path, "c.json", cfg),
                     "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == "certification required but not achieved\n"
        certified = [r["certified"] for r in
                     json.loads((tmp_path / "out.json").read_text())["records"]]
        assert any(certified) and not all(certified)


class TestOutputs:
    def test_csv_and_report_written(self, tmp_path):
        csv = tmp_path / "out.csv"
        rep = tmp_path / "out.json"
        path = intro_cfg(tmp_path, output={"csv": str(csv), "report": str(rep)})
        assert main(["solve", path]) == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "re,im,multiplicity,method,certified,residual"
        assert len(lines) > 1
        report = json.loads(rep.read_text())
        assert report["metadata"]["record_count"] == len(report["records"])
        assert "wall_time_s" not in report["metadata"]

    def test_format_report_prints_report(self, tmp_path, capsys):
        """With no output configured, --format report prints the report."""
        path = intro_cfg(tmp_path)
        assert main(["solve", path, "--format", "report"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == json.loads(json.dumps(cli._report_dict(run_solve(path))))

    def test_verbose_prints_counts(self, tmp_path, capsys):
        path = intro_cfg(tmp_path, tolerances={"residual": 1e-30, "merge": 1e-6})
        assert main(["solve", path, "--verbose"]) == 0
        meta = run_solve(path).metadata
        line = (f"records: {meta['record_count']}  "
                f"excluded: {meta['excluded_by_residual']}  wall: ")
        assert re.search(rf"^{line}\d+\.\d\ds$", capsys.readouterr().err, re.M)

    def test_reruns_bit_identical(self, tmp_path):
        csv = tmp_path / "out.csv"
        rep = tmp_path / "out.json"
        path = intro_cfg(tmp_path, output={"csv": str(csv), "report": str(rep)})
        main(["solve", path])
        first = (csv.read_bytes(), rep.read_bytes())
        main(["solve", path])
        assert (csv.read_bytes(), rep.read_bytes()) == first

    def test_resolved_config_roundtrip(self, tmp_path):
        rep = tmp_path / "out.json"
        path = intro_cfg(tmp_path, output={"report": str(rep)})
        rs1 = run_solve(path)
        resolved = json.loads(rep.read_text())["metadata"]["resolved_config"]
        resolved["output"] = None
        again = write_config(tmp_path, "resolved.json", resolved)
        rs2 = run_solve(again)
        assert rs1.records == rs2.records

    def test_zs_resolved_config_loads_again(self, tmp_path):
        """A ZS report echoes no boundary, which a ZS config may not set."""
        cfg = {"problem": "zakharov_shabat", "n_nodes": 501, "truncation": 20,
               "potential": {"kind": "klaus_shaw", "s": 0.956},
               "search_region": {"re": [1e-6, 2.2], "im": [-1.0, 1.0]},
               "output": {"report": str(tmp_path / "out.json")}}
        run_solve(write_config(tmp_path, "zs.json", cfg))
        resolved = json.loads((tmp_path / "out.json").read_text())[
            "metadata"]["resolved_config"]
        assert "boundary" not in resolved
        assert load_config(write_config(tmp_path, "again.json", resolved)) == resolved

    def test_empty_sweep_keeps_sweep_column(self, tmp_path):
        cfg = json.loads((CONFIGS / "klaus_shaw_sweep.json").read_text())
        cfg["search_region"] = {"re": [5.0, 6.0], "im": [5.0, 6.0]}
        csv = tmp_path / "sweep.csv"
        cfg["output"] = {"csv": str(csv)}
        rs = run_solve(write_config(tmp_path, "c.json", cfg))
        assert rs.records == []
        assert csv.read_text() == \
            "sweep_value,re,im,multiplicity,method,certified,residual\n"

    def test_out_flag_overrides(self, tmp_path):
        path = intro_cfg(tmp_path)
        base = tmp_path / "result"
        assert main(["solve", path, "--out", str(base)]) == 0
        assert (tmp_path / "result.csv").exists()
        assert (tmp_path / "result.json").exists()

    def test_report_independent_of_output_directory(self, tmp_path):
        path = intro_cfg(tmp_path)
        reports = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            assert main(["solve", path, "--out", str(tmp_path / sub / "r")]) == 0
            reports.append((tmp_path / sub / "r.json").read_bytes())
        assert reports[0] == reports[1]
        assert "output" not in json.loads(reports[0])["metadata"]["resolved_config"]

    def test_unwritable_output_is_config_error(self, tmp_path, capsys):
        base = tmp_path / "missing" / "result"
        assert main(["solve", intro_cfg(tmp_path), "--out", str(base)]) == 1
        err = capsys.readouterr().err
        assert err == (f"config error: cannot write output '{base}.csv': "
                       "No such file or directory\n")

    def test_unwritable_output_found_before_solving(self, tmp_path, capsys,
                                                    monkeypatch):
        def solve(runs):
            raise AssertionError("solved before checking the output path")

        monkeypatch.setattr(cli, "_solve_runs", solve)
        base = tmp_path / "missing" / "x"
        config = str(CONFIGS / "string_constant_damping_shifted.json")
        assert main(["solve", config, "--out", str(base)]) == 1
        assert capsys.readouterr().err == (
            f"config error: cannot write output '{base}.csv': "
            "No such file or directory\n")

    def test_unwritable_report_leaves_no_csv(self, tmp_path, capsys):
        csv, report = tmp_path / "out.csv", tmp_path / "missing" / "out.json"
        path = intro_cfg(tmp_path, output={"csv": str(csv), "report": str(report)})
        assert main(["solve", path]) == 1
        assert capsys.readouterr().err == (
            f"config error: cannot write output '{report}': "
            "No such file or directory\n")
        assert not csv.exists()

    def test_report_that_cannot_be_opened_leaves_csv_unwritten(self, tmp_path,
                                                              capsys, monkeypatch):
        """A report path that is a directory fails before the solve, and a
        CSV that already exists keeps its contents."""
        def solve(runs):
            raise AssertionError("solved before checking the output path")

        monkeypatch.setattr(cli, "_solve_runs", solve)
        csv = tmp_path / "out.csv"
        csv.write_text("earlier\n")
        path = intro_cfg(tmp_path, output={"csv": str(csv), "report": str(tmp_path)})
        assert main(["solve", path]) == 1
        assert capsys.readouterr().err.startswith(
            f"config error: cannot write output '{tmp_path}': ")
        assert csv.read_text() == "earlier\n"


class TestDependencies:
    def test_import_leaves_mpmath_out(self):
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        code = "import sys, slpencil.cli; print('mpmath' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
        assert out.stdout.strip() == "False"


class TestSurface:
    def surface_cfg(self, tmp_path, nx=21, ny=21, **kw):
        cfg = {
            "problem": "pencil",
            "interval": [0.0, 1.0],
            "n_nodes": 2001,
            "truncation": 20,
            "coefficients": {"p": "1", "q": "0", "r": ["1"]},
            "method": "poly_roots",
            "surface": {"region": {"re": [-1.0, 1.0], "im": [-1.0, 1.0]},
                        "nx": nx, "ny": ny, "cap": 50.0},
            "output": {"surface": str(tmp_path / "surface.txt")},
        }
        cfg.update(kw)
        return write_config(tmp_path, "surf.json", cfg)

    def read_surface(self, path):
        lines = pathlib.Path(path).read_text().strip().splitlines()
        header_region = lines[0].split(":")[1].split()
        nx, ny = (int(v) for v in lines[1].split(":")[1].split())
        grid = np.array([[float(v) for v in ln.split()] for ln in lines[2:]])
        assert grid.shape == (ny, nx)
        return [float(v) for v in header_region], grid

    def test_surface_shape_and_header(self, tmp_path):
        path = self.surface_cfg(tmp_path)
        out = emit_surface(path)
        region, grid = self.read_surface(out)
        assert region == [-1.0, 1.0, -1.0, 1.0]

    def test_zero_sample_hits_cap(self, tmp_path):
        # odd resolution centers a sample on the eigenvalue, where the series
        # vanishes to rounding and -log|Phi| is clamped to the cap
        lam1 = complex(-0.25, math.sqrt(8 * math.pi**2 - 1) / 4)
        path = self.surface_cfg(
            tmp_path,
            coefficients={"p": "1", "q": "0", "r": ["1", "2"]},
            truncation=40,
            surface={"region": {"re": [lam1.real - 0.05, lam1.real + 0.05],
                                "im": [lam1.imag - 0.05, lam1.imag + 0.05]},
                     "nx": 21, "ny": 21, "cap": 8.0},
        )
        _, grid = self.read_surface(emit_surface(path))
        assert grid.max() == 8.0
        assert grid[10, 10] == 8.0

    def test_constant_series_surface_zero(self, tmp_path):
        # q = 0, r = 1, Neumann-right boundary gives Phi with a_0 = 1 ...
        # instead check: surface values are finite and capped
        path = self.surface_cfg(tmp_path)
        _, grid = self.read_surface(emit_surface(path))
        assert np.all(np.isfinite(grid))
        assert grid.max() <= 50.0

    def test_unwritable_surface_is_config_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "s.txt"
        assert main(["surface", self.surface_cfg(tmp_path), "--out", str(target)]) == 1
        err = capsys.readouterr().err
        assert err == (f"config error: cannot write output '{target}': "
                       "No such file or directory\n")
        assert not target.parent.exists()

    def test_unwritable_surface_found_before_solving(self, tmp_path, capsys,
                                                     monkeypatch):
        def assemble(cfg):
            raise AssertionError("solved before checking the output path")

        monkeypatch.setattr(cli, "_build_assembly", assemble)
        target = tmp_path / "missing" / "s.txt"
        config = str(CONFIGS / "klaus_shaw_surface.json")
        assert main(["surface", config, "--out", str(target)]) == 1
        assert capsys.readouterr().err == (
            f"config error: cannot write output '{target}': "
            "No such file or directory\n")

    def test_surface_path_that_is_a_directory_found_before_solving(
            self, tmp_path, capsys, monkeypatch):
        def assemble(cfg):
            raise AssertionError("solved before checking the output path")

        monkeypatch.setattr(cli, "_build_assembly", assemble)
        config = str(CONFIGS / "klaus_shaw_surface.json")
        assert main(["surface", config, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(
            f"config error: cannot write output '{tmp_path}': ")

    @pytest.mark.parametrize("flags,stderr", [
        ([], ""), (["--verbose"], "surface written to {}\n")],
        ids=["quiet", "verbose"])
    def test_main_writes_surface(self, tmp_path, capsys, flags, stderr):
        target = tmp_path / "surface.txt"
        assert main(["surface", self.surface_cfg(tmp_path)] + flags) == 0
        assert capsys.readouterr().err == stderr.format(target)
        assert self.read_surface(target)[0] == [-1.0, 1.0, -1.0, 1.0]

    def test_no_output_path_is_config_error(self, tmp_path):
        path = self.surface_cfg(tmp_path, output=None)
        with pytest.raises(ConfigError, match="no surface output path"):
            emit_surface(path)

    def test_missing_surface_block(self, tmp_path):
        path = intro_cfg(tmp_path)
        with pytest.raises(ConfigError, match="surface"):
            emit_surface(path, out_path=str(tmp_path / "s.txt"))

    def test_reruns_bit_identical(self, tmp_path):
        path = self.surface_cfg(tmp_path)
        first = pathlib.Path(emit_surface(path)).read_bytes()
        assert pathlib.Path(emit_surface(path)).read_bytes() == first
