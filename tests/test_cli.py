"""Config validation, solve/surface pipelines, output formats, determinism."""

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

from slpencil import ConfigError, SLPencilError, cli
from slpencil.cli import _record_key, emit_surface, load_config, main, run_solve

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
        ({"certify": {"half_widht": 0.1}}, "certify", "half_widht"),
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
    ])
    def test_unknown_key_in_block_rejected(self, tmp_path, capsys, overrides,
                                           path, key):
        cfg_path = intro_cfg(tmp_path, **overrides)
        message = f"config.{path}: unknown key '{key}'"
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(cfg_path)
        assert main(["solve", cfg_path]) == 1
        assert message in capsys.readouterr().err

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
        ({"require_certified": "false"}, "config.require_certified"),
        # only the catalog's numeric parameters can be swept
        ({**ZS, "potential": {"kind": "expression", "Q": "2+sin(x)",
                              "half_width": 2.0},
          "sweep": {"parameter": "Q", "values": [1.0]}},
         "config.sweep.parameter"),
        ({**ZS, "potential": {"kind": "klaus_shaw", "s": float("inf")}},
         "config.potential.s"),
        ({**ZS, "sweep": {"parameter": "s", "values": [float("nan")]}},
         "config.sweep.values[0]"),
    ], ids=["boundary_side", "half_width", "expression_P", "bool_truncation",
            "bool_localize", "bool_interval", "bool_shift", "bool_sweep_value",
            "bool_klaus_shaw_half_width", "string_sweep_value", "number_certify",
            "string_require_certified", "expression_sweep_Q",
            "infinite_parameter", "nan_sweep_value"])
    def test_bad_value_in_block_rejected(self, tmp_path, capsys, overrides, path):
        assert main(["solve", intro_cfg(tmp_path, **overrides)]) == 1
        assert f"config error: {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
    def test_shipped_config_loads(self, name):
        load_config(str(CONFIGS / name))


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
        path = intro_cfg(tmp_path, certify={"half_width": 0.4},
                         truncation=60, n_nodes=5001)
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
        goes to spurious, not to the records."""
        top = max(run_solve(intro_cfg(tmp_path)).records, key=lambda r: r["re"])
        region = {"re": [-10.0, top["re"] - 1e-9], "im": [-8.0, 8.0]}
        roots = cli.poly_roots
        monkeypatch.setattr(cli, "poly_roots",
                            lambda series: [z - 2e-9 for z in roots(series)])
        rs = run_solve(intro_cfg(tmp_path, search_region=region))
        assert all(r["re"] <= region["re"][1] for r in rs.records)
        moved = [r for r in rs.spurious
                 if r["reason"] == "polished outside search region"]
        assert len(moved) == 2
        assert all(abs(r["re"] - top["re"]) < 1e-12 for r in moved)

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
        # -1/4 + i sqrt(8 n^2 pi^2 - 1)/4 for n = 3, 4: 6.66i and 8.88i
        modes = [complex(-0.25, math.sqrt(8 * n**2 * math.pi**2 - 1) / 4)
                 for n in (3, 4)]
        assert len(rs.records) == len(modes)
        for lam in modes:
            best = min(abs(complex(r["re"], r["im"]) - lam) for r in rs.records)
            assert best < 1e-9

    @pytest.mark.parametrize("r,boundary,message", [
        # Neumann ends and r = 0: u = 1 solves for every lambda, so Phi = 0
        ("0", {"left": [0, 1], "right": [0, 1]},
         "all characteristic coefficients at center 0j vanish"),
        ("1e200", {}, r"characteristic coefficient \d+ at center 0j is not finite"),
        ("1/0", {}, r"expression is not finite at x = 0\.0 \(node 0\)"),
    ], ids=["vanishing_series", "overflowing_powers", "constant_division_by_zero"])
    def test_solver_error_exit_2(self, tmp_path, capsys, r, boundary, message):
        path = intro_cfg(tmp_path, truncation=10, boundary=boundary,
                         coefficients={"p": "1", "q": "0", "r": [r]})
        assert main(["solve", path]) == 2
        assert re.search(f"^solver error: {message}$", capsys.readouterr().err, re.M)

    @pytest.mark.parametrize("name", [
        "intro_pencil.json", "bronski_eps02.json", "tovbis_mu05_eps05.json"])
    def test_shipped_config_same_records_under_both_methods(self, tmp_path, name):
        cfg = json.loads((CONFIGS / name).read_text())
        cfg["output"] = None
        found = {}
        for method in ("poly_roots", "arg_principle"):
            cfg["method"] = method
            rs = run_solve(write_config(tmp_path, f"{method}.json", cfg))
            found[method] = [complex(r["re"], r["im"]) for r in rs.records]
        assert len(found["arg_principle"]) == len(found["poly_roots"]) > 0
        for z in found["arg_principle"]:
            assert min(abs(z - w) for w in found["poly_roots"]) <= 1e-12 * abs(z)

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

    def test_x2_chain_matches_stored_reference(self, tmp_path):
        """Center 0 and three shifts give a record within 1e-10 of every mode
        of the stored shooting reference within 13 of a center (M = 50 has
        5e-8 at 15.7 from a center)."""
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

    def test_missing_surface_block(self, tmp_path):
        path = intro_cfg(tmp_path)
        with pytest.raises(ConfigError, match="surface"):
            emit_surface(path, out_path=str(tmp_path / "s.txt"))

    def test_reruns_bit_identical(self, tmp_path):
        path = self.surface_cfg(tmp_path)
        first = pathlib.Path(emit_surface(path)).read_bytes()
        assert pathlib.Path(emit_surface(path)).read_bytes() == first
