"""The benchmark's tracing targets must exist where bench/spans.py looks, and
the names it traces on slpencil.cli must still be called from there."""

import importlib.util
import json
import pathlib

import pytest

from slpencil import cli

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_on_its_owner(spans):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in spans.TARGETS
               if attr not in owner.__dict__]
    assert missing == []


def test_every_traced_cli_name_records_spans(spans, tmp_path):
    """Two small solves together call every name traced on slpencil.cli."""
    pencil = {
        "problem": "pencil", "interval": [0.0, 1.0], "n_nodes": 501,
        "truncation": 20,
        # u'' + u = lambda u: 1 - n^2 pi^2, with u0 built because q != 0
        "coefficients": {"p": "1", "q": "1", "r": ["1"]},
        "spectral_shifts": [[-9.0, 0.0]],
        "certify": True,
        "search_region": {"re": [-50.0, 5.0], "im": [-1.0, 1.0]},
    }
    klaus_shaw = {
        "problem": "zakharov_shabat", "n_nodes": 501, "truncation": 40,
        "potential": {"kind": "klaus_shaw", "s": 0.956},
        "method": "arg_principle",
        "search_region": {"re": [1e-6, 2.2], "im": [-1.0, 1.0]},
        "tolerances": {"localize": 1e-6, "residual": 1e-6},
    }
    paths = []
    for name, cfg in (("pencil.json", pencil), ("klaus_shaw.json", klaus_shaw)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(cfg))

    # one span name per traced cli attribute, so that a call of the same
    # function from another module cannot stand in for the call from cli
    owned = [(owner, attr, f"cli:{attr}", count)
             for owner, attr, _, count in spans.TARGETS if owner is cli]
    assert owned
    spans.TARGETS = owned
    with spans.Tracer() as tracer:
        results = [cli.run_solve(str(p)) for p in paths]
    assert all(rs.records for rs in results)
    recorded = {s[0] for s in tracer.spans}
    assert [name for _, _, name, _ in owned if name not in recorded] == []
