"""Benchmark of `slpencil solve` on three workloads, checked against
independent references.

    python3 bench/run.py --workload string_chain --seed 0 --seconds 25 --trace 0

Drives slpencil.cli.run_solve, the function behind `slpencil solve`, in this
process, on configs generated from the shipped ones into a temporary
directory.  With --trace 0 it prints the end-to-end metrics; with --trace 1 it
also runs traced rounds and prints the per-layer metrics instead.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Details go to stderr and to .bench_out/runs.jsonl.  See bench/README.md.
"""

import os

# pin the BLAS pools before numpy loads: the program's own two formal-power
# threads are then the only busy threads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 9  # at least; more when the rounds are short
SETUP_PER_ROUND = 1
MIN_TIMED_ROUNDS = 3
RUN_BUDGET_S = 150.0  # stop starting rounds past this, to end well within 180 s
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import slpencil.cli as c\n"
              "for p in sys.argv[2:]: c.load_config(p)")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0,
                    help="0 reproduces the shipped parameters")
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="length of the timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def declared_units(trace: int) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def log(msg: str):
    print(msg, file=sys.stderr, flush=True)


def import_program():
    """slpencil from this checkout's src/, or None when it is not there."""
    if not (SRC / "slpencil" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import slpencil.cli as cli

    if pathlib.Path(cli.__file__).resolve().parent != SRC / "slpencil":
        return None
    return cli


def write_configs(wl, tmp: pathlib.Path) -> list[pathlib.Path]:
    paths = []
    for i, cfg in enumerate(wl.configs):
        cfg = dict(cfg, output={"csv": str(tmp / f"out{i}.csv"),
                                "report": str(tmp / f"out{i}.json")})
        path = tmp / f"config{i}.json"
        path.write_text(json.dumps(cfg, indent=1))
        paths.append(path)
    return paths


class SetupTimer:
    """Wall time of a fresh interpreter importing slpencil.cli and loading the
    configs.  Samples are taken between solve rounds, so that they spread over
    the same stretch of time as the rounds; the first start, which writes the
    bytecode cache, is not kept."""

    def __init__(self, paths):
        self.cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, paths)]
        self.samples = []
        self._start()

    def _start(self) -> float:
        t0 = time.perf_counter()
        subprocess.run(self.cmd, check=True, cwd=ROOT)
        return time.perf_counter() - t0

    def sample(self, n: int = 1):
        self.samples += [self._start() for _ in range(n)]

    def median(self) -> float:
        self.sample(max(0, SETUP_SAMPLES - len(self.samples)))
        return statistics.median(self.samples)


def calibrate() -> float:
    """Median time of a fixed numpy kernel that calls no slpencil code; it
    tells machine drift apart from a change in the program."""
    import numpy as np

    v = np.exp(1j * np.linspace(0.0, 50.0, 100001))
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(40):
            w = np.cumsum(v * 1.0000001)
            v = w / np.abs(w).max()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def read_records(csv_path: pathlib.Path) -> list[tuple]:
    """(sweep value or None, lambda) for every row of an output CSV."""
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [(float(r["sweep_value"]) if "sweep_value" in r else None,
             complex(float(r["re"]), float(r["im"]))) for r in rows]


class Runner:
    """Solve rounds and their accounting; every round checks its outputs."""

    def __init__(self, cli, wl, check, paths, tmp):
        self.cli, self.wl, self.check, self.paths, self.tmp = cli, wl, check, paths, tmp
        self.attempted = self.failed = 0
        self.first = None  # records and tally of the first round
        self.deterministic = True

    def round(self) -> tuple[float, float]:
        gc.collect()
        t0 = time.perf_counter()
        c0 = time.process_time()
        results = [self.cli.run_solve(str(p)) for p in self.paths]
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        records = []
        for i, rs in enumerate(results):
            got = read_records(self.tmp / f"out{i}.csv")
            if len(got) != len(rs.records):
                self.deterministic = False
            records += got
        tally = self.check(self.wl, records)
        if self.first is None:
            self.first = (records, tally)
        elif records != self.first[0]:
            self.deterministic = False
        self.attempted += tally.attempted
        self.failed += tally.failed
        return wall, cpu


def timed_rounds(runner, seconds: float, t_start: float, setup: SetupTimer
                 ) -> list[tuple[float, float]]:
    """Rounds until `seconds` have passed (at least MIN_TIMED_ROUNDS), with
    SETUP_PER_ROUND set-up samples after each."""
    out = []
    t_phase = time.perf_counter()
    while True:
        now = time.perf_counter()
        done = now - t_phase >= seconds and len(out) >= MIN_TIMED_ROUNDS
        last = out[-1][0] if out else 0.0
        over = now - t_start + last > RUN_BUDGET_S and out
        if done or over:
            return out
        out.append(runner.round())
        setup.sample(SETUP_PER_ROUND)


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_program()
    if cli is None:
        log(f"slpencil sources not found under {SRC}")
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        log(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
        return 2
    t_start = time.perf_counter()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    tmp = pathlib.Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT))
    try:
        paths = write_configs(wl, tmp)
        setup = SetupTimer(paths)
        runner = Runner(cli, wl, workloads.check_records, paths, tmp)
        calib = [calibrate()]
        runner.round()  # warm-up, checked but not timed
        if args.trace:
            base = timed_rounds(runner, args.seconds / 2, t_start, setup)
            from spans import Tracer, median_metrics, round_metrics

            per_round = []
            traced = []
            with Tracer() as tracer:
                for _ in range(2):
                    tracer.reset()
                    traced.append(runner.round())
                    per_round.append(round_metrics(tracer.spans))
                    if time.perf_counter() - t_start > RUN_BUDGET_S:
                        break
                tracer.dump(OUT / f"trace-{wl.name}-{args.seed}.jsonl")
            rounds = base
        else:
            rounds = timed_rounds(runner, args.seconds, t_start, setup)
        calib.append(calibrate())
        setup_s = setup.median()
        tally = runner.first[1]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        solve_s = statistics.median(r[0] for r in rounds)
        if args.trace:
            metrics = median_metrics(per_round)
            traced_s = statistics.median(r[0] for r in traced)
            metrics["trace.solve_s"] = traced_s
            metrics["trace.overhead_s"] = traced_s - solve_s
            polish = metrics["rootfinding.newton_polish.calls"]
            metrics["rootfinding.polish_yield"] = tally.verified / polish if polish else 0.0
            metrics["cli.records"] = float(tally.records)
            metrics["cli.records_per_eig"] = (tally.records / tally.verified
                                              if tally.verified else 0.0)
        else:
            metrics = {
                "setup_s": setup_s,
                "solve_s": solve_s,
                "solve_cpu_s": statistics.median(r[1] for r in rounds),
                "eigs_verified": float(tally.verified),
                "digits_min": tally.digits_min,
                "peak_rss_mb": rss_mb,
            }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    units = declared_units(args.trace)
    if set(units) != set(metrics):
        log(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
        return 3
    correct = runner.deterministic
    log(f"{wl.name} seed={args.seed}: {len(rounds)} timed rounds, solve_s "
        f"{[round(r[0], 3) for r in rounds]}, calibration {calib[0]:.4f}/{calib[1]:.4f} s, "
        f"setup {setup_s:.3f} s, rss {rss_mb:.1f} MB")
    log(f"  per round: {tally.records} records, {tally.verified} eigenvalues verified, "
        f"{tally.unmatched} unmatched, {tally.duplicates} duplicates, "
        f"{tally.missed} missed, digits_min {tally.digits_min:.2f}")
    if tally.failed and wl.fault:
        log(f"  failed operations: {wl.fault}")
    if not correct:
        log("  rounds disagree or an output file does not match its result set")
    with open(OUT / "runs.jsonl", "a") as fh:
        fh.write(json.dumps({
            "workload": wl.name, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "rounds": rounds, "calibration_s": calib,
            "metrics": metrics, "attempted": runner.attempted,
            "failed": runner.failed, "correct": correct}) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
