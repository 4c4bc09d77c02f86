"""Config-driven command line: `slpencil solve <config>` and `slpencil surface <config>`.

A config is one JSON file; its keys, their defaults and the normal form it
loads in are described in config.py.  Solves are deterministic: rerunning a
config reproduces the output files byte for byte (volatile data like wall
time goes to stderr), and an output path that is a directory, or whose
directory is missing, is an error before any solve.

Exit codes: 0 success, 1 config error, 2 solver error, 3 certification was
required but some record failed it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .config import load_config
from .errors import (
    ConfigError,
    NodeValueError,
    ParticularSolutionError,
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
    contour_degree,
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
    materialize_potential,
    zs_boundary,
    zs_particular_solution,
    zs_to_pencil,
)

# each center's grid starts from INITIAL_PANELS uniform panels, fewer if the
# config's n_nodes ceiling asks
INITIAL_PANELS = 16
CERTIFY_HALF_WIDTH = 0.5
# truncation-drift test, under both root methods: a root is kept only if
# DRIFT_STEPS Newton steps on the series truncated DRIFT_ORDERS orders lower
# move it by at most DRIFT_TOL |lambda|; Taylor-section zeros and
# near-duplicates move far
DRIFT_ORDERS = 5
DRIFT_TOL = 1e-3
DRIFT_STEPS = 2


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
        b = float(cfg["potential"]["half_width"])
        a = -b
    else:
        a, b = (float(v) for v in cfg["interval"])
    ceiling = cfg["n_nodes"]
    grid = Grid.uniform(a, b, min(INITIAL_PANELS, (ceiling - 1) // (P - 1)))

    def build(g: Grid, items: list[int]):
        asm = _assemble(cfg, g)
        pencil, u0 = asm.base_pencil, asm.initial_u0
        return [(asm, unresolved(g, *(f.values for f in (
            pencil.p, pencil.q, *pencil.r, u0.u0, u0.u0_prime))))]

    try:
        return refine([grid], build, ceiling, ["center 0 coefficients"])[0]
    except ParticularSolutionError as err:  # every u0 rule vanishes somewhere
        raise SolverError(f"center 0 u0: {err}") from err


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

    left, right = (tuple(complex(*alpha) for alpha in cfg["boundary"][side])
                   for side in ("left", "right"))
    if np.max(np.abs(pencil.q.values)) == 0.0:
        u0 = ParticularSolution.unit(grid)
    else:
        u0 = build_particular_solution(pencil.p, pencil.q, truncation=m)

    return _Assembly(pencil, u0, left, right, None)


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

    The runs of a sweep, one per value, are solved in lockstep
    (_solve_runs); a config without a sweep is a batch of one run.  An error
    raised for a sweep run names its value.  Records come in order of the
    runs, and within a run in order of Re, those whose Re agree to within
    the merge tolerance (a vertical line of modes) in order of Im; see
    `_record_key`."""
    cfg = load_config(config_path)
    if output_override is not None:
        cfg["output"] = {**(cfg.get("output") or {}), **output_override}
    for path in _solve_outputs(cfg).values():
        _check_output_dir(path)
    t0 = time.monotonic()
    sweep = cfg.get("sweep")
    runs = [({}, "", cfg)] if not sweep else [
        ({"sweep_value": float(v)}, f"sweep {sweep['parameter']} = {float(v)!r}: ",
         {**cfg, "potential": {**cfg["potential"], sweep["parameter"]: float(v)}})
        for v in sweep["values"]]
    records, spurious, grids, excluded = [], [], [], 0
    solved = _solve_runs([(prefix, run) for _, prefix, run in runs])
    for (tag, _, _), (recs, spur, excl, grid) in zip(runs, solved):
        records += [{**tag, **rec} for rec in recs]
        spurious += [{**tag, **rec} for rec in spur]
        grids += [{**tag, **g} for g in grid]
        excluded += excl

    metadata = {key: cfg[key] for key in
                ("problem", "truncation", "n_nodes", "spectral_shifts", "method")}
    metadata.update(record_count=len(records), excluded_by_residual=excluded,
                    resolved_config=cfg, grid=grids)
    rs = ResultSet(records=records, spurious=spurious, metadata=metadata)
    rs.metadata["wall_time_s"] = time.monotonic() - t0  # not written to files
    _write_outputs(cfg, rs)
    return rs


@contextlib.contextmanager
def _run_errors(prefix: str):
    """An error raised for one run of a sweep, as a SolverError that starts
    with the run's prefix (its value); a run with no prefix raises it as it
    is."""
    try:
        yield
    except SLPencilError as err:
        if not prefix:
            raise
        raise SolverError(f"{prefix}{err}") from err


def _resolved_tables(pencils: list[PencilSpec], u0s: list[ParticularSolution], m: int,
                     eval_points: tuple, radius: float, ceiling: int, where: str,
                     prefixes: list[str]) -> list:
    """For each (pencil, u0), the formal-power table on the coarsest split of
    the pencil's grid that resolves it, with the pencil and u0 interpolated
    onto the split panels.  The items on one grid are carried there and built
    together (grids.refine), each split on its own flags; an error names the
    item's prefix and where.

    Kernels first: a grid on which an item's recursion kernels g = 1/(u0^2 p)
    and u0^2 r_k are not resolved is split on their flags alone, and no table
    is built for it there.  Only the items whose kernels pass get a table,
    built on the kernels it was checked with, and split again where its
    top-order integrands are not resolved.  A
    table stops below m where its tails at radius fall below rounding
    (build_formal_powers)."""
    def build(grid: Grid, items: list[int]):
        specs = PencilSpec.on([pencils[i] for i in items], grid)
        sols = ParticularSolution.on([u0s[i] for i in items], grid)
        checked = []
        for i, spec, u in zip(items, specs, sols):
            with _run_errors(prefixes[i]):
                checked.append(recursion_kernels(spec, u))
        ready = [k for k, (_, _, bad) in enumerate(checked) if not bad.any()]
        tables = iter(build_formal_powers(
            [(specs[k], sols[k]) for k in ready], m, eval_points=eval_points,
            radius=radius, kernels=[checked[k] for k in ready]) if ready else ())
        out = []
        for _, _, bad in checked:
            table = None if bad.any() else next(tables)
            out.append((None, bad) if table is None else (table, table.unresolved))
        return out

    return refine([pencil.grid for pencil in pencils], build, ceiling,
                  [f"{prefix}{where}" for prefix in prefixes])


@dataclass
class _Run:
    """One run of a solve (one sweep value), as the lockstep carries it from
    center to center."""

    prefix: str  # what an error raised for the run starts with
    asm: _Assembly
    pencil: PencilSpec  # the current center's pencil and u0
    u0: ParticularSolution
    # (record, relative residual, distance from its center), as _merge_records takes them
    candidates: list[tuple[EigenvalueRecord, float, float]] = field(default_factory=list)
    spurious: list[dict] = field(default_factory=list)
    grids: list[dict] = field(default_factory=list)


def _solve_runs(runs: list[tuple[str, dict]]
                ) -> list[tuple[list[dict], list[dict], int, list[dict]]]:
    """For each run (an error prefix and a config; the runs of a sweep differ
    only in the swept parameter), its records, spurious roots, the
    residual-excluded count and, for each center, its grid (panels and
    nodes), the order its table stopped at, whether its tail test passed
    there and the degree its roots were found at.

    The runs go in lockstep: each is assembled on its own, then every
    center's tables come from one batched refinement (_resolved_tables), and
    each run finds, certifies and merges its own roots and chains its own u0
    to the next center, as a run solved alone would."""
    state = []
    for prefix, run_cfg in runs:
        with _run_errors(prefix):
            asm = _build_assembly(run_cfg)
        state.append(_Run(prefix, asm, asm.base_pencil, asm.initial_u0))
    cfg = runs[0][1]
    m = cfg["truncation"]
    tol = cfg["tolerances"]
    box = cfg.get("search_region")
    region = Rectangle(*box["re"], *box["im"]) if box else None
    centers = [0.0 + 0.0j]
    for c in (complex(*pair) for pair in cfg["spectral_shifts"]):
        if c != centers[-1]:
            centers.append(c)
    keep_radius = 2.0 * max((abs(b - a) for a, b in zip(centers, centers[1:])),
                            default=math.inf)
    # the radius of the disc each table serves, what the route's degree rule
    # reads without the search region: the keep radius under poly_roots, the
    # keep box's farthest corner under arg_principle
    disc = keep_radius if cfg["method"] == "poly_roots" else math.hypot(
        keep_radius, keep_radius)
    merge_eps = tol["merge"] if tol["merge"] is not None else 10.0 * tol["localize"]

    for j, center in enumerate(centers):
        next_rel = centers[j + 1] - center if j + 1 < len(centers) else None
        eval_points = (next_rel,) if next_rel is not None else ()
        tables = _resolved_tables([run.pencil for run in state], [run.u0 for run in state],
                                  m, eval_points, disc, cfg["n_nodes"],
                                  f"center {j} at {center}", [run.prefix for run in state])
        for run, table in zip(state, tables):
            run.grids.append({"center": [center.real, center.imag],
                              "panels": table.grid.panels, "nodes": table.grid.n_nodes,
                              "truncation": table.truncation,
                              "tail_converged": table.tail_converged})
            with _run_errors(run.prefix):
                series = two_point_series(table, left=run.asm.left, right=run.asm.right,
                                          center=center)
                if cfg["method"] == "poly_roots":
                    recs, run.grids[-1]["degree"] = _poly_records(
                        series, center, keep_radius, region, run.spurious)
                else:
                    recs, run.grids[-1]["degree"] = _arg_records(
                        series, center, keep_radius, region, tol["localize"])
                for rec in recs:
                    if cfg["certify"]:
                        rect = Rectangle.around(rec.value, CERTIFY_HALF_WIDTH)
                        rec = certify(rec, series, series.tail(rect.max_abs_from(center)),
                                      rect)
                    run.candidates.append(
                        (rec, _relative_residual(series, rec), abs(rec.value - center)))
                if next_rel is not None:
                    # the next center's pencil, and its u0 chained from this table
                    run.pencil = shift_pencil(
                        PencilSpec.on([run.asm.base_pencil], table.grid)[0], centers[j + 1])
                    try:
                        run.u0 = chain_particular_solution(table, next_rel, run.pencil.p,
                                                           run.pencil.q)
                    # the series sums overflow that far out, or every candidate vanishes
                    except (NodeValueError, ParticularSolutionError) as err:
                        raise SolverError(
                            f"chaining u0 to center {j + 1} at {centers[j + 1]}: "
                            f"{err}") from err

    out = []
    for run in state:
        final, excluded = [], 0
        for rec, rel_res in _merge_records(run.candidates, merge_eps):
            if rel_res <= tol["residual"]:
                final.append(_record_dict(rec, run.asm.back_map_scale))
            else:
                excluded += 1
        final.sort(key=lambda r: _record_key(r, merge_eps))
        out.append((final, run.spurious, excluded, run.grids))
    return out


def _record_key(rec: dict, merge_eps: float) -> tuple:
    """Sort key that ulp-level changes in Re cannot reorder along a vertical
    line; Re over merge_eps is exact, so no positive tolerance overflows it."""
    return (round(Fraction(rec["re"]) / Fraction(merge_eps)), rec["im"], rec["re"])


def _relative_residual(series: CharacteristicSeries, rec: EigenvalueRecord) -> float:
    """The record's |Phi_M| over the series' term scale at its value; inf
    where that scale is 0 or overflows, so such a record never passes."""
    if rec.residual == 0.0:
        return 0.0
    scale = series.term_scale(rec.value)
    return rec.residual / scale if 0 < scale < math.inf else math.inf


def _poly_records(series, center, keep_radius, region, spurious
                  ) -> tuple[list[EigenvalueRecord], int]:
    """Records from the companion-matrix roots within keep_radius of center
    that pass the truncation-drift test, and the companion's degree.

    Every root that can be kept lies in the disc about center of radius
    min(keep_radius, the region's farthest corner from center), so
    poly_roots cuts the companion to the degree that disc needs; the drift
    test, the polish and the residual use the full series.  The region is
    checked on the raw root, so no root outside it is polished, and again on
    the polished value, which may have moved out."""
    def outside(z: complex, reason: str) -> bool:
        if region is None or region.contains(z):
            return False
        spurious.append({"re": z.real, "im": z.imag, "reason": reason})
        return True

    radius = keep_radius if region is None else min(
        keep_radius, region.max_abs_from(center))
    companion = poly_roots(series, radius)
    roots = [z for z in companion if abs(z - center) <= keep_radius]
    recs = []
    for root, steady in zip(roots, _drift_passed(series, roots)):
        if outside(root, "outside search region") or not steady:
            continue
        z = newton_polish(series, root)
        if outside(z, "polished outside search region"):
            continue
        recs.append(EigenvalueRecord(
            value=z, multiplicity=1, method="poly_roots", certified=False,
            residual=float(abs(complex(series(z)))),
        ))
    return recs, len(companion)


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
                 ) -> tuple[list[EigenvalueRecord], int]:
    """Records that localize finds in the search region, cut to the box of
    half-width keep_radius around center, and that pass the truncation-drift
    test, and the degree localize's contours evaluate on that box (0 where
    the box misses the region and nothing is evaluated)."""
    box = region
    if math.isfinite(keep_radius):
        box = Rectangle.around(center, keep_radius).intersection(region)
        if box is None:  # the keep box misses the search region
            return [], 0
    recs = localize(series, box, tol)
    steady = _drift_passed(series, [rec.value for rec in recs])
    return [rec for rec, ok in zip(recs, steady) if ok], contour_degree(series, box)


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


def _check_output_dir(path: str):
    """Fail now, as _open_output would after the solve, when an output path
    is itself a directory or its directory is missing or is not one; opening
    the path then creates nothing."""
    if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
        _open_output(path).close()


def _solve_outputs(cfg: dict) -> dict:
    out = cfg.get("output") or {}
    return {key: out[key] for key in ("csv", "report") if key in out}


def _write_outputs(cfg: dict, rs: ResultSet):
    """Opens every target before writing any: when one cannot be opened,
    none is written (those opened before it are left empty)."""
    with contextlib.ExitStack() as stack:
        files = {key: stack.enter_context(_open_output(path))
                 for key, path in _solve_outputs(cfg).items()}
        if "csv" in files:
            files["csv"].write("\n".join(_csv_lines(rs)) + "\n")
        if "report" in files:
            files["report"].write(json.dumps(_report_dict(rs), indent=2) + "\n")


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
    _check_output_dir(target)

    asm = _build_assembly(cfg)
    table, = _resolved_tables([asm.base_pencil], [asm.initial_u0], cfg["truncation"],
                              (), math.inf, cfg["n_nodes"], "center 0", [""])
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
