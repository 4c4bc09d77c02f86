"""The config file: one JSON object that names a problem kind and sets its keys.

Every kind takes these keys (* required, - off when absent, else the default):

    problem*            "pencil", "string", "zakharov_shabat" or "dirac"
    n_nodes 100001      the most nodes a center's grid may refine to; >= 16
    truncation 100      the highest series order M, at least 1; a center's
                        table stops lower once the Rouche tail is below
                        rounding on the disc its roots are looked for in
    method "poly_roots" or "arg_principle", which needs a search_region
    spectral_shifts []  the centers chained through after center 0
    tolerances          {"localize": 1e-10, "residual": 1e-6, "merge": null},
                        positive numbers; a null merge is 10 * localize
    certify false       and require_certified false: true needs certify, and
                        exits 3 when a record does not certify
    search_region-      {"re": [lo, hi], "im": [lo, hi]}
    surface-            {"region": a region, "nx": >= 2, "ny": >= 2, "cap": 50.0}
    output-             {"csv": path, "report": path, "surface": path}

pencil, string and dirac add interval* [a, b] with a < b (a string starts at
0); boundary {"left": [1.0, 0.0], "right": [1.0, 0.0]}, each end's (alpha1,
alpha2) in alpha1 u + alpha2 p u' = 0; and coefficients*, expressions in x:
pencil {"p", "q", "r": [r_1, ..., r_N]}, string {"damping", "density"} or
dirac {"v", "energy": 0.0}.  zakharov_shabat adds
potential* {"kind": a zakharov.POTENTIALS name, its numeric parameters,
"half_width"}, where the "expression" kind gives "Q" and may give "P" and the
half-width defaults to zakharov.potential_half_width; and sweep- {"parameter":
a numeric parameter of the potential, "values": [...]}, one run per value,
the runs solved in lockstep with the records of each as if solved alone.

A complex number (a shift, a boundary alpha, the energy) may be written as a
number or as an [re, im] pair.  `load_config` returns the config in normal
form, the JSON that a report echoes as `resolved_config`: every default filled
in, every complex number an [re, im] pair of floats, regions and the surface
cap as floats, every other value as written.  So a resolved config loads again
to the same dict, and the solve reads a pair with `complex(*pair)`.
"""

from __future__ import annotations

import json
import math
import sys

from .errors import ConfigError, ExpressionError
from .expressions import parse
from .grids import P
from .zakharov import POTENTIALS, potential_half_width

REQUIRED = object()  # no default: the config must give the key
OPTIONAL = object()  # no default: the block is off when the key is absent

_SHARED = {"n_nodes": 100001, "truncation": 100, "method": "poly_roots",
           "spectral_shifts": [], "search_region": OPTIONAL,
           "tolerances": {"localize": 1e-10, "residual": 1e-6, "merge": None},
           "certify": False, "require_certified": False,
           "surface": OPTIONAL, "output": OPTIONAL}
_ON_INTERVAL = {"interval": REQUIRED, "coefficients": REQUIRED,
                "boundary": {"left": [1.0, 0.0], "right": [1.0, 0.0]}}


def _fail(path: str, msg: str):
    raise ConfigError(f"{path}: {msg}")


def _is_number(val) -> bool:
    """True for a JSON number a double holds.  JSON true and false load as
    ints but are not numbers; Python's json reads NaN and Infinity, and an
    int past the double range, none of which any key takes."""
    return (isinstance(val, (int, float)) and not isinstance(val, bool)
            and abs(val) <= sys.float_info.max)


def _require(cfg: dict, key: str, kind, path: str):
    if key not in cfg:
        _fail(path, f"missing required key {key!r}")
    val = cfg[key]
    if not isinstance(val, kind) or (kind is int and not _is_number(val)):
        _fail(f"{path}.{key}", f"expected {kind.__name__}, got {type(val).__name__}")
    return val


def _object(val, known, path: str) -> dict:
    """A copy of a JSON object all of whose keys are known."""
    if not isinstance(val, dict):
        _fail(path, "expected an object")
    for key in val:
        if key not in known:
            _fail(path, f"unknown key {key!r}")
    return dict(val)


def _pair(val, path: str) -> list[float]:
    """A complex number, as the [re, im] pair of floats that it loads as."""
    if _is_number(val):
        return [float(val), 0.0]
    if isinstance(val, list) and len(val) == 2 and all(map(_is_number, val)):
        return [float(val[0]), float(val[1])]
    _fail(path, f"expected a number or [re, im] pair, got {val!r}")


def _expression(src, path: str) -> str:
    if not isinstance(src, str):
        _fail(path, f"expected an expression string, got {src!r}")
    try:
        parse(src)
    except ExpressionError as err:
        _fail(path, f"bad expression {src!r}: {err}")
    return src


def _expressions(srcs, path: str) -> list[str]:
    if not isinstance(srcs, list):
        _fail(path, f"expected list, got {type(srcs).__name__}")
    if not srcs:
        _fail(path, "need at least one coefficient")
    return [_expression(src, f"{path}[{i}]") for i, src in enumerate(srcs)]


# each kind: its keys with their defaults, and its coefficients, each with the
# reader that checks it and its default
KINDS = {
    "pencil": ({**_SHARED, **_ON_INTERVAL},
               {"p": (_expression, REQUIRED), "q": (_expression, REQUIRED),
                "r": (_expressions, REQUIRED)}),
    "string": ({**_SHARED, **_ON_INTERVAL},
               {"damping": (_expression, REQUIRED), "density": (_expression, REQUIRED)}),
    "zakharov_shabat": ({**_SHARED, "potential": REQUIRED, "sweep": OPTIONAL}, {}),
    "dirac": ({**_SHARED, **_ON_INTERVAL},
              {"v": (_expression, REQUIRED), "energy": (_pair, 0.0)}),
}
_ANY_KIND = {"problem"}.union(*(keys for keys, _ in KINDS.values()))


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path!r}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path!r} is not valid JSON: {err}") from err
    return validate_config(raw)


def validate_config(raw: dict) -> dict:
    """The config in normal form: the kind's defaults first, in table order,
    then the keys it gives, in its order."""
    _object(raw, _ANY_KIND, "config")
    kind = _require(raw, "problem", str, "config")
    if kind not in KINDS:
        _fail("config.problem", f"unknown problem kind {kind!r}; "
              f"expected one of {tuple(KINDS)}")
    keys, coefficients = KINDS[kind]
    cfg = {key: default for key, default in keys.items()
           if default is not REQUIRED and default is not OPTIONAL}
    cfg.update((key, val) for key, val in raw.items() if key in keys or key == "problem")
    for key, default in keys.items():
        if default is REQUIRED and key not in raw:
            _fail("config", f"missing required key {key!r}")
        if isinstance(default, dict):  # a block whose own keys have defaults
            cfg[key] = {**default, **_object(cfg[key], default, f"config.{key}")}

    n_nodes = _require(cfg, "n_nodes", int, "config")
    if n_nodes < P:
        _fail("config.n_nodes", f"{n_nodes} is below the {P} nodes of one panel")
    if _require(cfg, "truncation", int, "config") < 1:
        _fail("config.truncation", "truncation order must be >= 1")

    if cfg["method"] not in ("poly_roots", "arg_principle"):
        _fail("config.method", f"unknown method {cfg['method']!r}")

    if not isinstance(cfg["spectral_shifts"], list):
        _fail("config.spectral_shifts", "expected a list of centers")
    cfg["spectral_shifts"] = [_pair(s, f"config.spectral_shifts[{i}]")
                              for i, s in enumerate(cfg["spectral_shifts"])]

    if cfg.get("search_region") is not None:
        cfg["search_region"] = _region(cfg["search_region"], "config.search_region")
    elif cfg["method"] == "arg_principle":
        _fail("config", "method arg_principle needs a search_region")

    tol = cfg["tolerances"]
    for key in ("localize", "residual"):
        if not _is_number(tol[key]) or tol[key] <= 0:
            _fail(f"config.tolerances.{key}", "expected a positive number")
    if tol["merge"] is not None and (not _is_number(tol["merge"]) or tol["merge"] <= 0):
        _fail("config.tolerances.merge", "expected a positive number or null")

    for key in ("certify", "require_certified"):
        if not isinstance(cfg[key], bool):
            _fail(f"config.{key}", "expected false or true")
    if cfg["require_certified"] and not cfg["certify"]:
        _fail("config.require_certified", 'requires "certify": true')

    if kind == "zakharov_shabat":
        cfg["potential"] = _potential(_require(cfg, "potential", dict, "config"))
    else:
        interval = _require(cfg, "interval", list, "config")
        if (len(interval) != 2 or not all(map(_is_number, interval))
                or not interval[0] < interval[1]):
            _fail("config.interval", f"expected [a, b] with a < b, got {interval!r}")
        if kind == "string" and interval[0] != 0.0:
            _fail("config.interval", "string problems start at 0")
        coeffs = _object(cfg["coefficients"], coefficients, "config.coefficients")
        for key, (read, default) in coefficients.items():
            if default is REQUIRED and key not in coeffs:
                _fail("config.coefficients", f"missing required key {key!r}")
            coeffs[key] = read(coeffs.get(key, default), f"config.coefficients.{key}")
        cfg["coefficients"] = coeffs

        for side, end in cfg["boundary"].items():
            path = f"config.boundary.{side}"
            if not isinstance(end, list) or len(end) != 2:
                _fail(path, f"expected [alpha1, alpha2], got {end!r}")
            end = cfg["boundary"][side] = [_pair(v, f"{path}[{i}]")
                                           for i, v in enumerate(end)]
            if end == [[0.0, 0.0], [0.0, 0.0]]:
                _fail(path, "boundary condition must be nonzero")

    if cfg.get("surface") is not None:
        surf = cfg["surface"] = _object(cfg["surface"], ("region", "nx", "ny", "cap"),
                                        "config.surface")
        surf["region"] = _region(surf.get("region"), "config.surface.region")
        for key in ("nx", "ny"):
            v = surf.get(key)
            if not isinstance(v, int) or not _is_number(v) or v < 2:
                _fail(f"config.surface.{key}", "expected an integer >= 2")
        cap = surf.get("cap", 50.0)
        if not _is_number(cap):
            _fail("config.surface.cap", "expected a number")
        surf["cap"] = float(cap)

    if cfg.get("sweep") is not None:
        sweep = _object(cfg["sweep"], ("parameter", "values"), "config.sweep")
        if ("parameter" not in sweep or not isinstance(sweep.get("values"), list)
                or not sweep["values"]):
            _fail("config.sweep", "expected {\"parameter\": name, \"values\": [...]}")
        for i, v in enumerate(sweep["values"]):
            if not _is_number(v):
                _fail(f"config.sweep.values[{i}]", f"expected a finite number, got {v!r}")
        potential = cfg["potential"]["kind"]
        if sweep["parameter"] not in POTENTIALS[potential].params:
            _fail("config.sweep.parameter",
                  f"{sweep['parameter']!r} is not a numeric parameter of "
                  f"{potential} (has {POTENTIALS[potential].params})")

    if cfg.get("output") is not None:
        out = _object(cfg["output"], ("csv", "report", "surface"), "config.output")
        for key, val in out.items():
            if not isinstance(val, str):
                _fail(f"config.output.{key}", "expected a path string")
    # last, so that a key's own error wins over a key only other kinds take
    for key in raw:
        if key not in cfg:
            _fail("config", f"unknown key {key!r} for problem kind {kind!r}")
    return cfg


def _potential(raw: dict) -> dict:
    kind = _require(raw, "kind", str, "config.potential")
    if kind not in POTENTIALS:
        _fail("config.potential.kind", f"unknown potential {kind!r}")
    entry = POTENTIALS[kind]
    # a kind without a Q template reads the config's Q and an optional P
    own = ("Q", "P") if entry.Q is None else ()
    pot = _object(raw, ("kind", "half_width", *entry.params, *own), "config.potential")
    for key in entry.params:
        if not _is_number(_require(raw, key, object, "config.potential")):
            _fail(f"config.potential.{key}", f"expected a number, got {raw[key]!r}")
    if entry.Q is None:
        _expression(_require(raw, "Q", str, "config.potential"), "config.potential.Q")
        if "P" in raw:
            _expression(raw["P"], "config.potential.P")
    hw = pot.setdefault("half_width", potential_half_width({"kind": kind}))
    fixed = entry.half_width
    if fixed is not None and (not _is_number(hw) or hw != fixed):
        _fail("config.potential.half_width",
              f"{kind} is supported on [-{fixed:g}, {fixed:g}]")
    if not _is_number(hw) or hw <= 0:
        _fail("config.potential.half_width", "expected a positive number")
    return pot


def _region(raw, path: str) -> dict:
    raw = _object(raw, ("re", "im"), path)
    if "re" not in raw or "im" not in raw:
        _fail(path, "expected {\"re\": [lo, hi], \"im\": [lo, hi]}")
    for axis in ("re", "im"):
        pair = raw[axis]
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(map(_is_number, pair)) or not pair[0] < pair[1]):
            _fail(f"{path}.{axis}", f"expected [lo, hi] with lo < hi, got {pair!r}")
    region = {axis: [float(v) for v in raw[axis]] for axis in ("re", "im")}
    # the contour sampling divides the perimeter among the sides
    for axis, (lo, hi) in region.items():
        if not math.isfinite(hi - lo):
            _fail(f"{path}.{axis}", f"the width of {raw[axis]!r} is not a finite number")
    if not math.isfinite(2 * sum(hi - lo for lo, hi in region.values())):
        _fail(path, "the perimeter is not a finite number")
    return region
