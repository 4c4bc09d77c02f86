"""The benchmark's tracing targets must exist where bench/spans.py looks."""

import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_name_exists_on_its_owner():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in spans.TARGETS
               if attr not in owner.__dict__]
    assert missing == []
