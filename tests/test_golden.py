"""Golden records: five shipped configs, and four variants of them that take
the argument-principle and certification paths, against the records stored
in tests/data, so that a change meant to leave the records alone shows that
it did.

Count, order, sweep value, method, multiplicity and certified must match
exactly, and each eigenvalue to within 1e-12 of its modulus, since another
BLAS may round the last bits differently.  The residual column, |Phi_M| at
the polished root, is at rounding level and is not compared.

That tolerance pins past output, not truth: the Klaus-Shaw rows are also
checked against a solve on finer grids, which shows the near-collision
pairs accurate only to about 1e-11.
"""

import csv
import json
import pathlib

import pytest

from slpencil import cli
from slpencil.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ("intro_pencil", "dirac_demo", "string_constant_damping",
          "klaus_shaw_sweep", "tovbis_mu05_eps05")
# stored name -> (shipped config, keys that the variant sets)
VARIANTS = {
    "klaus_shaw_sweep_arg_principle": ("klaus_shaw_sweep", {"method": "arg_principle"}),
    "tovbis_mu05_eps05_arg_principle": ("tovbis_mu05_eps05", {"method": "arg_principle"}),
    "bronski_eps02_arg_principle": ("bronski_eps02", {"method": "arg_principle"}),
    "intro_pencil_certify": ("intro_pencil", {"certify": True}),
}
EXACT = ("sweep_value", "multiplicity", "method", "certified")
REL_TOL = 1e-12
# how far the Klaus-Shaw golden rows may lie from a solve that starts from 64
# panels: the near-collision pairs (s >= 0.9999, |lambda| < 1) scatter by
# 2-10e-11 between starts from 16, 32 and 48 panels, the other rows by 2e-14
GRID_TOL = 1e-13
COLLISION_GRID_TOL = 1e-10


def read_records(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_records(config, out, name):
    assert main(["solve", str(config), "--out", str(out)]) == 0
    got = read_records(out.with_suffix(".csv"))
    want = read_records(ROOT / "tests" / "data" / f"{name}.csv")
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.keys() == w.keys()
        assert [g.get(k) for k in EXACT] == [w.get(k) for k in EXACT]
        z, ref = (complex(float(r["re"]), float(r["im"])) for r in (g, w))
        assert abs(z - ref) <= REL_TOL * abs(ref), (z, ref)


@pytest.mark.parametrize("name", GOLDEN)
def test_records_match_golden(tmp_path, name):
    check_records(ROOT / "configs" / f"{name}.json", tmp_path / name, name)


@pytest.mark.parametrize("name", VARIANTS)
def test_variant_records_match_golden(tmp_path, name):
    base, keys = VARIANTS[name]
    cfg = json.loads((ROOT / "configs" / f"{base}.json").read_text())
    cfg.pop("output", None)
    cfg.update(keys)
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(cfg))
    check_records(config, tmp_path / name, name)


@pytest.mark.parametrize("name", ["klaus_shaw_sweep", "klaus_shaw_sweep_arg_principle"])
def test_klaus_shaw_golden_within_its_grid_error(tmp_path, monkeypatch, name):
    """The stored Klaus-Shaw rows against a solve whose every grid starts
    from 64 panels instead of 16: the rows away from the collision agree to
    GRID_TOL, the near-collision pairs only to COLLISION_GRID_TOL, which is
    those rows' own accuracy; REL_TOL pins them tighter than that."""
    cfg = json.loads((ROOT / "configs" / "klaus_shaw_sweep.json").read_text())
    cfg.pop("output", None)
    cfg.update(VARIANTS.get(name, (None, {}))[1])
    config = tmp_path / "c.json"
    config.write_text(json.dumps(cfg))
    monkeypatch.setattr(cli, "INITIAL_PANELS", 64)
    assert main(["solve", str(config), "--out", str(tmp_path / "fine")]) == 0
    fine = read_records(tmp_path / "fine.csv")
    want = read_records(ROOT / "tests" / "data" / f"{name}.csv")
    assert [r["sweep_value"] for r in fine] == [r["sweep_value"] for r in want]
    for f, w in zip(fine, want):
        z, ref = (complex(float(r["re"]), float(r["im"])) for r in (w, f))
        near = float(w["sweep_value"]) >= 0.9999 and abs(z) < 1.0
        assert abs(z - ref) <= (COLLISION_GRID_TOL if near else GRID_TOL) * abs(ref), (z, ref)
