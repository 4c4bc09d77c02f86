"""Golden records: five shipped configs, and four variants of them that take
the argument-principle and certification paths, against the records stored
in tests/data, so that a change meant to leave the records alone shows that
it did.

Count, order, sweep value, method, multiplicity and certified must match
exactly, and each eigenvalue to within 1e-12 of its modulus, since another
BLAS may round the last bits differently.  The residual column, |Phi_M| at
the polished root, is at rounding level and is not compared.
"""

import csv
import json
import pathlib

import pytest

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
