"""Config-driven command line: `slpencil solve <config>` and `slpencil surface <config>`.

A config is one JSON file describing the problem kind (pencil, string,
zakharov_shabat, dirac), its coefficients or potential, the series truncation,
an optional spectral-shift schedule, the root-search method and tolerances,
and output targets.  Solves are deterministic: rerunning a config reproduces
the output files byte for byte (volatile data like wall time goes to stderr).

Exit codes: 0 success, 1 config error, 2 solver error, 3 certification was
required but some record failed it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    ExpressionError,
    NodeValueError,
    SLPencilError,
    SolverError,
)
from .expressions import evaluate_on_grid, parse as parse_expr
from .grids import P, Grid, refine, unresolved
from .problems import (
    CharacteristicSeries,
    dirac_pencil,
    shift_pencil,
    string_pencil,
    two_point_series,
)
from .rootfinding import (
    EigenvalueRecord,
    Rectangle,
    certify,
    localize,
    newton_polish,
    poly_roots,
)
from .spps import (
    ParticularSolution,
    PencilSpec,
    build_formal_powers,
    build_particular_solution,
    chain_particular_solution,
    recursion_kernels,
)
from .zakharov import (
    DEFAULT_HALF_WIDTH,
    POTENTIALS,
    materialize_potential,
    potential_half_width,
    zs_boundary,
    zs_particular_solution,
    zs_to_pencil,
)

# n_nodes is a ceiling: each center's grid starts from INITIAL_PANELS uniform
# panels (fewer if the ceiling asks), and a GridError names the center whose
# refinement would need more nodes than n_nodes
DEFAULTS = {
    "n_nodes": 100001,
    "truncation": 100,
    "method": "poly_roots",
    "spectral_shifts": [],
    "tolerances": {"localize": 1e-10, "residual": 1e-6, "merge": None},
    "certify": False,
    "require_certified": False,
    "boundary": {"left": [1.0, 0.0], "right": [1.0, 0.0]},
}
INITIAL_PANELS = 16
CERTIFY_HALF_WIDTH = 0.5
# truncation-drift test, under both root methods: a root is kept only if
# DRIFT_STEPS Newton steps on the series truncated DRIFT_ORDERS orders lower
# move it by at most DRIFT_TOL |lambda|; Taylor-section zeros and
# near-duplicates move far
DRIFT_ORDERS = 5
DRIFT_TOL = 1e-3
DRIFT_STEPS = 2
# keys with no default: required ones, and blocks that are off when absent
CONFIG_KEYS = frozenset(DEFAULTS) | {
    "problem", "interval", "coefficients", "potential", "search_region",
    "surface", "sweep", "output",
}

PROBLEM_KINDS = ("pencil", "string", "zakharov_shabat", "dirac")
_COEFFICIENT_KEYS = {
    "pencil": ("p", "q", "r"),
    "string": ("damping", "density"),
    "dirac": ("v", "energy"),
}


# ---------------------------------------------------------------------------
# config loading


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
    if kind is float:
        if not _is_number(val):
            _fail(f"{path}.{key}", f"expected a number, got {val!r}")
        return float(val)
    if not isinstance(val, kind) or (kind is int and not _is_number(val)):
        _fail(f"{path}.{key}", f"expected {kind.__name__}, got {type(val).__name__}")
    return val


def _as_complex(val, path: str) -> complex:
    if _is_number(val):
        return complex(val)
    if isinstance(val, list) and len(val) == 2 and all(map(_is_number, val)):
        return complex(val[0], val[1])
    _fail(path, f"expected a number or [re, im] pair, got {val!r}")


def _as_expression(src, path: str):
    if not isinstance(src, str):
        _fail(path, f"expected an expression string, got {src!r}")
    try:
        return parse_expr(src)
    except ExpressionError as err:
        _fail(path, f"bad expression {src!r}: {err}")


def _merge_defaults(cfg: dict) -> dict:
    import copy

    defaults = copy.deepcopy(DEFAULTS)
    out = {**defaults, **cfg}
    for block in ("tolerances", "boundary"):
        out[block] = {**defaults[block], **cfg.get(block, {})}
    return out


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path!r}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path!r} is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a JSON object")
    return validate_config(raw)


def _reject_unknown(cfg: dict, known, path: str):
    for key in cfg:
        if key not in known:
            _fail(path, f"unknown key {key!r}")


def validate_config(raw: dict) -> dict:
    _reject_unknown(raw, CONFIG_KEYS, "config")
    for block in ("tolerances", "boundary"):
        sub = raw.get(block, {})
        if not isinstance(sub, dict):
            _fail(f"config.{block}", "expected an object")
        _reject_unknown(sub, DEFAULTS[block], f"config.{block}")
    cfg = _merge_defaults(raw)
    kind = _require(cfg, "problem", str, "config")
    if kind not in PROBLEM_KINDS:
        _fail("config.problem", f"unknown problem kind {kind!r}; "
              f"expected one of {PROBLEM_KINDS}")

    n_nodes = _require(cfg, "n_nodes", int, "config")
    if n_nodes < P:
        _fail("config.n_nodes", f"{n_nodes} is below the {P} nodes of one panel")
    m = _require(cfg, "truncation", int, "config")
    if m < 1:
        _fail("config.truncation", "truncation order must be >= 1")

    if cfg["method"] not in ("poly_roots", "arg_principle"):
        _fail("config.method", f"unknown method {cfg['method']!r}")

    shifts = cfg["spectral_shifts"]
    if not isinstance(shifts, list):
        _fail("config.spectral_shifts", "expected a list of centers")
    cfg["spectral_shifts"] = [
        _as_complex(s, f"config.spectral_shifts[{i}]") for i, s in enumerate(shifts)
    ]

    if cfg.get("search_region") is not None:
        cfg["search_region"] = _parse_region(cfg["search_region"],
                                             "config.search_region")
    elif cfg["method"] == "arg_principle":
        _fail("config", "method arg_principle needs a search_region")

    tol = cfg["tolerances"]
    for key in ("localize", "residual"):
        if not _is_number(tol.get(key)) or tol[key] <= 0:
            _fail(f"config.tolerances.{key}", "expected a positive number")
    if tol.get("merge") is not None and (not _is_number(tol["merge"])
                                         or tol["merge"] <= 0):
        _fail("config.tolerances.merge", "expected a positive number or null")

    for key in ("certify", "require_certified"):
        if not isinstance(cfg[key], bool):
            _fail(f"config.{key}", "expected false or true")
    if cfg["require_certified"] and not cfg["certify"]:
        _fail("config.require_certified", 'requires "certify": true')

    if kind == "zakharov_shabat":
        _validate_potential(cfg)
    else:
        interval = _require(cfg, "interval", list, "config")
        if (len(interval) != 2 or not all(map(_is_number, interval))
                or not interval[0] < interval[1]):
            _fail("config.interval", f"expected [a, b] with a < b, got {interval!r}")
        if kind == "string" and interval[0] != 0.0:
            _fail("config.interval", "string problems start at 0")
        coeffs = _require(cfg, "coefficients", dict, "config")
        _reject_unknown(coeffs, _COEFFICIENT_KEYS[kind], "config.coefficients")
        if kind == "pencil":
            for key in ("p", "q"):
                _as_expression(_require(coeffs, key, str, "config.coefficients"),
                               f"config.coefficients.{key}")
            r = _require(coeffs, "r", list, "config.coefficients")
            if not r:
                _fail("config.coefficients.r", "need at least one coefficient")
            for i, src in enumerate(r):
                _as_expression(src, f"config.coefficients.r[{i}]")
        elif kind == "string":
            for key in ("damping", "density"):
                _as_expression(_require(coeffs, key, str, "config.coefficients"),
                               f"config.coefficients.{key}")
        elif kind == "dirac":
            _as_expression(_require(coeffs, "v", str, "config.coefficients"),
                           "config.coefficients.v")
            cfg["coefficients"] = {**coeffs}
            cfg["coefficients"]["energy"] = list(
                _c_pair(_as_complex(coeffs.get("energy", 0.0),
                                    "config.coefficients.energy")))

    bnd = cfg["boundary"]
    for side in ("left", "right"):
        pair = bnd.get(side)
        if (not isinstance(pair, list) or len(pair) != 2):
            _fail(f"config.boundary.{side}", f"expected [alpha1, alpha2], got {pair!r}")
        bnd[side] = [_as_complex(v, f"config.boundary.{side}[{i}]")
                     for i, v in enumerate(pair)]
        if bnd[side] == [0j, 0j]:
            _fail(f"config.boundary.{side}", "boundary condition must be nonzero")

    if cfg.get("surface") is not None:
        surf = cfg["surface"]
        if not isinstance(surf, dict):
            _fail("config.surface", "expected an object")
        _reject_unknown(surf, ("region", "nx", "ny", "cap"), "config.surface")
        surf["region"] = _parse_region(surf.get("region"), "config.surface.region")
        for key in ("nx", "ny"):
            v = surf.get(key)
            if not isinstance(v, int) or not _is_number(v) or v < 2:
                _fail(f"config.surface.{key}", "expected an integer >= 2")
        cap = surf.get("cap", 50.0)
        if not _is_number(cap):
            _fail("config.surface.cap", "expected a number")
        surf["cap"] = float(cap)

    if cfg.get("sweep") is not None:
        sweep = cfg["sweep"]
        if kind != "zakharov_shabat":
            _fail("config.sweep", "sweeps are supported for zakharov_shabat only")
        if (not isinstance(sweep, dict) or "parameter" not in sweep
                or not isinstance(sweep.get("values"), list) or not sweep["values"]):
            _fail("config.sweep", "expected {\"parameter\": name, \"values\": [...]}")
        _reject_unknown(sweep, ("parameter", "values"), "config.sweep")
        for i, v in enumerate(sweep["values"]):
            if not _is_number(v):
                _fail(f"config.sweep.values[{i}]",
                      f"expected a finite number, got {v!r}")
        allowed = POTENTIALS[cfg["potential"]["kind"]].params
        if sweep["parameter"] not in allowed:
            _fail("config.sweep.parameter",
                  f"{sweep['parameter']!r} is not a numeric parameter of "
                  f"{cfg['potential']['kind']} (has {allowed})")

    if "output" in cfg and cfg["output"] is not None:
        out = cfg["output"]
        if not isinstance(out, dict):
            _fail("config.output", "expected an object")
        for key, val in out.items():
            if key not in ("csv", "report", "surface"):
                _fail("config.output", f"unknown output target {key!r}")
            if not isinstance(val, str):
                _fail(f"config.output.{key}", "expected a path string")
    # keys that only the other kinds read, looked up in the raw dict because
    # the defaults give every kind a boundary
    for key in (("interval", "coefficients", "boundary")
                if kind == "zakharov_shabat" else ("potential",)):
        if key in raw:
            _fail("config", f"unknown key {key!r} for problem kind {kind!r}")
    return cfg


def _validate_potential(cfg: dict):
    pot = _require(cfg, "potential", dict, "config")
    kind = _require(pot, "kind", str, "config.potential")
    if kind not in POTENTIALS:
        _fail("config.potential.kind", f"unknown potential {kind!r}")
    entry = POTENTIALS[kind]
    # a kind without a Q template reads the config's Q and an optional P
    own = ("Q", "P") if entry.Q is None else ()
    _reject_unknown(pot, ("kind", "half_width", *entry.params, *own),
                    "config.potential")
    for key in entry.params:
        _require(pot, key, float, "config.potential")
    if entry.Q is None:
        _as_expression(_require(pot, "Q", str, "config.potential"),
                       "config.potential.Q")
        if "P" in pot:
            _as_expression(pot["P"], "config.potential.P")
    fixed = entry.half_width
    if fixed is not None:
        hw = pot.setdefault("half_width", fixed)
        if not _is_number(hw) or hw != fixed:
            _fail("config.potential.half_width",
                  f"{kind} is supported on [-{fixed:g}, {fixed:g}]")
    else:
        pot.setdefault("half_width", DEFAULT_HALF_WIDTH)
        if _require(pot, "half_width", float, "config.potential") <= 0:
            _fail("config.potential.half_width", "expected a positive number")


def _parse_region(raw, path: str) -> dict:
    if isinstance(raw, dict):
        _reject_unknown(raw, ("re", "im"), path)
    if (not isinstance(raw, dict) or "re" not in raw or "im" not in raw):
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


def _region_rect(region: dict) -> Rectangle:
    return Rectangle(region["re"][0], region["re"][1],
                     region["im"][0], region["im"][1])


def _c_pair(z: complex) -> tuple[float, float]:
    return (z.real, z.imag)


# ---------------------------------------------------------------------------
# problem assembly


@dataclass
class _Assembly:
    """Everything the solve loop needs, independent of the problem kind."""

    base_pencil: PencilSpec
    initial_u0: ParticularSolution
    left: tuple   # the ends, as two_point_series takes them
    right: tuple
    back_map_scale: complex | None


def _build_assembly(cfg: dict) -> _Assembly:
    """The problem sampled on the coarsest split of a uniform grid on which
    its coefficients and its center-0 u0 are resolved."""
    if cfg["problem"] == "zakharov_shabat":
        b = potential_half_width(cfg["potential"])
        a = -b
    else:
        a, b = (float(v) for v in cfg["interval"])
    ceiling = cfg["n_nodes"]
    grid = Grid.uniform(a, b, min(INITIAL_PANELS, (ceiling - 1) // (P - 1)))

    def build(g: Grid):
        asm = _assemble(cfg, g)
        pencil, u0 = asm.base_pencil, asm.initial_u0
        return asm, unresolved(g, *(f.values for f in (
            pencil.p, pencil.q, *pencil.r, u0.u0, u0.u0_prime)))

    return refine(grid, build, ceiling, "center 0 coefficients")


def _assemble(cfg: dict, grid: Grid) -> _Assembly:
    kind = cfg["problem"]
    m = cfg["truncation"]
    if kind == "zakharov_shabat":
        zs = materialize_potential(cfg["potential"], grid)
        return _Assembly(zs_to_pencil(zs), zs_particular_solution(zs, truncation=m),
                         *zs_boundary(zs), zs.back_map_scale)

    coeffs = cfg["coefficients"]
    if kind == "string":
        pencil = string_pencil(evaluate_on_grid(parse_expr(coeffs["damping"]), grid),
                               evaluate_on_grid(parse_expr(coeffs["density"]), grid))
    elif kind == "pencil":
        pencil = PencilSpec(
            p=evaluate_on_grid(parse_expr(coeffs["p"]), grid),
            q=evaluate_on_grid(parse_expr(coeffs["q"]), grid),
            r=tuple(evaluate_on_grid(parse_expr(src), grid) for src in coeffs["r"]),
        )
    else:  # dirac
        pencil = dirac_pencil(evaluate_on_grid(parse_expr(coeffs["v"]), grid),
                              complex(*coeffs["energy"]))

    if np.max(np.abs(pencil.q.values)) == 0.0:
        u0 = ParticularSolution.unit(grid)
    else:
        u0 = build_particular_solution(pencil.p, pencil.q, truncation=m)

    return _Assembly(pencil, u0, tuple(cfg["boundary"]["left"]),
                     tuple(cfg["boundary"]["right"]), None)


# ---------------------------------------------------------------------------
# solve pipeline


@dataclass
class ResultSet:
    records: list[dict]
    spurious: list[dict]
    metadata: dict


def _record_dict(rec: EigenvalueRecord, back_scale: complex | None) -> dict:
    out = {
        "re": rec.value.real, "im": rec.value.imag,
        "multiplicity": rec.multiplicity, "method": rec.method,
        "certified": rec.certified, "residual": rec.residual,
    }
    if back_scale is not None:
        back = back_scale * rec.value
        out["back_map_re"] = back.real
        out["back_map_im"] = back.imag
    return out


def run_solve(config_path: str, *, output_override: dict | None = None) -> ResultSet:
    """Execute the solve described by a config file; returns the result set
    and writes any configured output targets.

    Records come in order of Re, those whose Re agree to within the merge
    tolerance (a vertical line of modes) in order of Im; see `_record_key`."""
    cfg = load_config(config_path)
    if output_override is not None:
        cfg["output"] = {**(cfg.get("output") or {}), **output_override}
    t0 = time.monotonic()
    sweep = cfg.get("sweep")
    runs = [({}, cfg)] if not sweep else [
        ({"sweep_value": float(v)},
         {**cfg, "potential": {**cfg["potential"], sweep["parameter"]: float(v)}})
        for v in sweep["values"]]
    records, spurious, grids, excluded = [], [], [], 0
    for tag, run in runs:
        recs, spur, excl, grid = _solve_single(run)
        records += [{**tag, **rec} for rec in recs]
        spurious += [{**tag, **rec} for rec in spur]
        grids += [{**tag, **g} for g in grid]
        excluded += excl

    metadata = {
        "problem": cfg["problem"],
        "truncation": cfg["truncation"],
        "n_nodes": cfg["n_nodes"],
        "spectral_shifts": [list(_c_pair(c)) for c in cfg["spectral_shifts"]],
        "method": cfg["method"],
        "record_count": len(records),
        "excluded_by_residual": excluded,
        "resolved_config": _resolved_config(cfg),
        "grid": grids,
    }
    rs = ResultSet(records=records, spurious=spurious, metadata=metadata)
    rs.metadata["wall_time_s"] = time.monotonic() - t0  # not written to files
    _write_outputs(cfg, rs)
    return rs


def _resolved_config(cfg: dict) -> dict:
    out = {}
    for key, val in cfg.items():
        if key == "spectral_shifts":
            out[key] = [list(_c_pair(c)) for c in val]
        elif key == "boundary":
            out[key] = {side: [list(_c_pair(c)) for c in pair]
                        for side, pair in val.items()}
        else:
            out[key] = val
    return out


def _resolved_table(pencil: PencilSpec, u0: ParticularSolution, m: int,
                    eval_points: tuple, ceiling: int, where: str):
    """The formal-power table on the coarsest split of the pencil's grid that
    resolves it, with the pencil and u0 interpolated onto the split panels.

    Kernels first: a grid on which the recursion kernels g = 1/(u0^2 p) and
    u0^2 r_k are not resolved is split on their flags alone, and no table is
    built on it.  Only a grid whose kernels pass gets a table, which is split
    again where its top-order integrands are not resolved."""
    def build(grid: Grid):
        spec, u = pencil.on(grid), u0.on(grid)
        bad = recursion_kernels(spec, u)[2]
        if bad.any():
            return None, bad
        table = build_formal_powers(spec, u, m, eval_points=eval_points)
        return table, table.unresolved

    return refine(pencil.grid, build, ceiling, where)


def _solve_single(cfg: dict) -> tuple[list[dict], list[dict], int, list[dict]]:
    """Records, spurious roots, the residual-excluded count and the grid
    (panels and nodes) of each center."""
    asm = _build_assembly(cfg)
    m = cfg["truncation"]
    tol = cfg["tolerances"]
    region = _region_rect(cfg["search_region"]) if cfg.get("search_region") else None
    centers = [0.0 + 0.0j]
    for c in cfg["spectral_shifts"]:
        if c != centers[-1]:
            centers.append(c)
    if len(centers) > 1:
        keep_radius = 2.0 * max(abs(b - a) for a, b in zip(centers, centers[1:]))
    else:
        keep_radius = math.inf

    merge_eps = tol["merge"] if tol["merge"] is not None else 10.0 * tol["localize"]

    all_records: list[EigenvalueRecord] = []
    spurious: list[dict] = []
    grids: list[dict] = []
    pencil, u0 = asm.base_pencil, asm.initial_u0
    for j, center in enumerate(centers):
        next_rel = centers[j + 1] - center if j + 1 < len(centers) else None
        eval_points = (next_rel,) if next_rel is not None else ()
        table = _resolved_table(pencil, u0, m, eval_points, cfg["n_nodes"],
                                f"center {j} at {center}")
        grids.append({"center": list(_c_pair(center)),
                      "panels": table.grid.panels, "nodes": table.grid.n_nodes})
        series = two_point_series(table, left=asm.left, right=asm.right,
                                  center=center)

        if cfg["method"] == "poly_roots":
            recs = _poly_records(series, center, keep_radius, region, spurious)
        else:
            recs = _arg_records(series, center, keep_radius, region, tol["localize"])
        if cfg["certify"]:
            recs = [(_certify_record(rec, series), rel, dist)
                    for rec, rel, dist in recs]
        all_records.extend(recs)

        if next_rel is not None:
            # the next center's pencil, and its u0 chained from this table
            pencil = shift_pencil(asm.base_pencil.on(table.grid), centers[j + 1])
            try:
                u0 = chain_particular_solution(table, next_rel, pencil.p, pencil.q)
            except NodeValueError as err:  # the series sums overflow that far out
                raise SolverError(f"chaining u0 to center {j + 1} at {centers[j + 1]}: "
                                  f"{err}") from err

    final, excluded = [], 0
    for rec, rel_res in _merge_records(all_records, merge_eps):
        if rel_res <= tol["residual"]:
            final.append(_record_dict(rec, asm.back_map_scale))
        else:
            excluded += 1
    final.sort(key=lambda r: _record_key(r, merge_eps))
    return final, spurious, excluded, grids


def _record_key(rec: dict, merge_eps: float) -> tuple:
    """Sort key that ulp-level changes in Re cannot reorder along a vertical line."""
    return (round(rec["re"] / merge_eps), rec["im"], rec["re"])


def _relative_residual(series: CharacteristicSeries, rec: EigenvalueRecord) -> float:
    """The record's |Phi_M| over the series' term scale at its value; inf
    where that scale is 0 or overflows, so such a record never passes."""
    if rec.residual == 0.0:
        return 0.0
    scale = series.term_scale(rec.value)
    return rec.residual / scale if 0 < scale < math.inf else math.inf


def _candidate(series, center, rec: EigenvalueRecord
               ) -> tuple[EigenvalueRecord, float, float]:
    """A record with its relative residual and its distance from the center,
    which _merge_records rank copies by."""
    return rec, _relative_residual(series, rec), abs(rec.value - center)


def _poly_records(series, center, keep_radius, region, spurious
                  ) -> list[tuple[EigenvalueRecord, float, float]]:
    """Records from the companion-matrix roots within keep_radius of center
    that pass the truncation-drift test.

    The region is checked on the raw root, so no root outside it is
    polished, and again on the polished value, which may have moved out."""
    def outside(z: complex, reason: str) -> bool:
        if region is None or region.contains(z):
            return False
        spurious.append({"re": z.real, "im": z.imag, "reason": reason})
        return True

    roots = [z for z in poly_roots(series) if abs(z - center) <= keep_radius]
    recs = []
    for root, steady in zip(roots, _drift_passed(series, roots)):
        if outside(root, "outside search region") or not steady:
            continue
        z = newton_polish(series, root)
        if outside(z, "polished outside search region"):
            continue
        recs.append(_candidate(series, center, EigenvalueRecord(
            value=z, multiplicity=1, method="poly_roots", certified=False,
            residual=float(abs(complex(series(z)))),
        )))
    return recs


def _drift_passed(series: CharacteristicSeries, roots: list[complex]
                  ) -> np.ndarray:
    """Whether Newton on the series truncated DRIFT_ORDERS orders lower moves
    each root by at most DRIFT_TOL |root| (all pass when the truncation is too
    short to drop them)."""
    lam = np.array(roots, dtype=np.complex128)
    if series.truncation <= DRIFT_ORDERS:
        return np.ones(len(lam), dtype=bool)
    lower = CharacteristicSeries(series.center, series.coeffs[:-DRIFT_ORDERS])
    z = lam
    with np.errstate(all="ignore"):  # far roots overflow and count as drifted
        for _ in range(DRIFT_STEPS):
            z = z - lower(z) / lower.deriv(z)
        return np.abs(z - lam) <= DRIFT_TOL * np.abs(lam)


def _arg_records(series, center, keep_radius, region, tol
                 ) -> list[tuple[EigenvalueRecord, float, float]]:
    """Records that localize finds in the search region, cut to the box of
    half-width keep_radius around center, and that pass the truncation-drift
    test."""
    box = region
    if math.isfinite(keep_radius):
        box = Rectangle.around(center, keep_radius).intersection(region)
        if box is None:  # the keep box misses the search region
            return []
    recs = localize(series, box, tol)
    steady = _drift_passed(series, [rec.value for rec in recs])
    return [_candidate(series, center, rec) for rec, ok in zip(recs, steady) if ok]


def _certify_record(rec: EigenvalueRecord, series: CharacteristicSeries
                    ) -> EigenvalueRecord:
    rect = Rectangle.around(rec.value, CERTIFY_HALF_WIDTH)
    lam_abs = rect.max_abs_from(series.center)
    return certify(rec, series, series.tail(lam_abs), rect)


def _merge_records(records: list[tuple[EigenvalueRecord, float, float]],
                   merge_eps: float) -> list[tuple[EigenvalueRecord, float]]:
    """Cluster records within merge_eps, one canonical record per cluster.

    Truncation error grows with the distance from the series center, so the
    copy produced by the nearest center wins; relative residual (|Phi| over
    the largest series term) breaks ties and feeds the quality filter."""
    out: list[tuple[EigenvalueRecord, float, float]] = []
    for rec, rel, dist in sorted(
            records, key=lambda t: (t[0].value.real, t[0].value.imag)):
        for i, (kept, kept_rel, kept_dist) in enumerate(out):
            if abs(kept.value - rec.value) <= merge_eps:
                if (dist, rel) < (kept_dist, kept_rel):
                    out[i] = (rec, rel, dist)
                break
        else:
            out.append((rec, rel, dist))
    return [(rec, rel) for rec, rel, _ in out]


# ---------------------------------------------------------------------------
# output writers


def _fmt(x) -> str:
    return repr(float(x))


def _csv_lines(rs: ResultSet) -> list[str]:
    sweep = rs.metadata["resolved_config"].get("sweep") is not None
    header = ("sweep_value," if sweep else "") + \
        "re,im,multiplicity,method,certified,residual"
    lines = [header]
    for rec in rs.records:
        cells = []
        if sweep:
            cells.append(_fmt(rec["sweep_value"]))
        cells += [_fmt(rec["re"]), _fmt(rec["im"]), str(rec["multiplicity"]),
                  rec["method"], str(rec["certified"]).lower(), _fmt(rec["residual"])]
        lines.append(",".join(cells))
    return lines


def _report_dict(rs: ResultSet) -> dict:
    """The report: the metadata without the wall time and the output paths,
    so the same solve written anywhere gives the same bytes."""
    meta = {k: v for k, v in rs.metadata.items() if k != "wall_time_s"}
    meta["resolved_config"] = {k: v for k, v in meta["resolved_config"].items()
                               if k != "output"}
    return {"metadata": meta, "records": rs.records, "spurious": rs.spurious}


def _open_output(path: str):
    try:
        return open(path, "w")
    except OSError as err:
        raise ConfigError(f"cannot write output {path!r}: {err.strerror or err}") from err


def _write_outputs(cfg: dict, rs: ResultSet):
    out = cfg.get("output") or {}
    if "csv" in out:
        with _open_output(out["csv"]) as fh:
            fh.write("\n".join(_csv_lines(rs)) + "\n")
    if "report" in out:
        with _open_output(out["report"]) as fh:
            json.dump(_report_dict(rs), fh, indent=2)
            fh.write("\n")


# ---------------------------------------------------------------------------
# surface emission


def emit_surface(config_path: str, *, out_path: str | None = None) -> str:
    """Write the -log|Phi_M| grid described by the config's surface block.

    Returns the path written.  Zeros of Phi_M are clamped to the cap value.
    """
    cfg = load_config(config_path)
    surf = cfg.get("surface")
    if surf is None:
        raise ConfigError("config has no surface block")
    target = out_path or (cfg.get("output") or {}).get("surface")
    if target is None:
        raise ConfigError("no surface output path (config.output.surface or --out)")

    asm = _build_assembly(cfg)
    table = _resolved_table(asm.base_pencil, asm.initial_u0, cfg["truncation"], (),
                            cfg["n_nodes"], "center 0")
    series = two_point_series(table, left=asm.left, right=asm.right)

    nx, ny = surf["nx"], surf["ny"]
    cap = surf["cap"]
    re = np.linspace(surf["region"]["re"][0], surf["region"]["re"][1], nx)
    im = np.linspace(surf["region"]["im"][0], surf["region"]["im"][1], ny)

    with _open_output(target) as fh:
        rgn = surf["region"]
        fh.write(f"# region: {_fmt(rgn['re'][0])} {_fmt(rgn['re'][1])} "
                 f"{_fmt(rgn['im'][0])} {_fmt(rgn['im'][1])}\n")
        fh.write(f"# resolution: {nx} {ny}\n")
        for y in im:
            with np.errstate(divide="ignore"):
                vals = np.minimum(-np.log(np.abs(np.asarray(series(re + 1j * y)))), cap)
            fh.write(" ".join(_fmt(v) for v in vals) + "\n")
    return target


# ---------------------------------------------------------------------------
# entry point


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="slpencil",
        description="Eigenvalues of polynomial Sturm-Liouville pencils "
                    "by spectral parameter power series.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (("solve", "solve the eigenvalue problem in CONFIG"),
                       ("surface", "emit a -log|Phi_M| grid for plotting")):
        p = sub.add_parser(name, help=desc)
        p.add_argument("config", help="path to a JSON problem config")
        p.add_argument("--out", help="output path base (overrides config output)")
        p.add_argument("--format", choices=("csv", "report"), default="csv",
                       help="stdout format when no files are configured")
        p.add_argument("--verbose", action="store_true")

    args = parser.parse_args(argv)
    try:
        if args.command == "surface":
            target = emit_surface(args.config, out_path=args.out)
            if args.verbose:
                print(f"surface written to {target}", file=sys.stderr)
            return 0

        override = None
        if args.out:
            override = {"csv": args.out + ".csv", "report": args.out + ".json"}
        rs = run_solve(args.config, output_override=override)
        cfg = rs.metadata["resolved_config"]

        if not cfg.get("output"):
            if args.format == "csv":
                print("\n".join(_csv_lines(rs)))
            else:
                print(json.dumps(_report_dict(rs), indent=2))
        if args.verbose:
            meta = rs.metadata
            print(f"records: {meta['record_count']}  "
                  f"excluded: {meta['excluded_by_residual']}  "
                  f"wall: {meta['wall_time_s']:.2f}s", file=sys.stderr)
        if cfg["require_certified"] and any(not r["certified"] for r in rs.records):
            print("certification required but not achieved", file=sys.stderr)
            return 3
        return 0
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except SLPencilError as err:
        print(f"solver error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
