"""The benchmark's workloads: configs generated from the shipped ones, and the
independent reference each output record is checked against.

A workload seed of 0 reproduces the shipped parameters; other seeds vary
them inside ranges where the references apply and the number of eigenvalues
in the checked band does not change.
"""

from __future__ import annotations

import json
import math
import pathlib
import random
import subprocess
import sys
from dataclasses import dataclass, field

import references

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# Klaus-Shaw s windows: each keeps three eigenvalues in the search region and
# stays on one side of the nearby structural changes (an eigenvalue pair
# leaving Re = 0 below s = 0.9558, the pair colliding on the real axis at
# s = 0.99990, a zero reaching lambda = 0 at s = 1).
ZS_S_WINDOWS = ((0.956, 0.958), (0.962, 0.972), (0.984, 0.994),
                (0.9998, 0.9999), (0.99998, 0.99999))


@dataclass
class Workload:
    """Configs to solve and the reference modes their records must match.

    reference maps a record group (the sweep value, or None) to the exact
    modes; band_radius picks the modes around the series centers that the
    program must find (math.inf: every reference mode); tolerance is the
    relative distance under which a record matches a mode.
    """

    name: str
    configs: list[dict]
    reference: dict
    tolerance: float
    band_radius: float
    centers: list[complex] = field(default_factory=list)
    fault: str = ""

    def in_band(self, mode: complex) -> bool:
        if math.isinf(self.band_radius):
            return True
        return any(abs(mode - c) < self.band_radius for c in self.centers)


def _shipped(name: str) -> dict:
    return json.loads((CONFIGS / name).read_text())


def _centers(cfg: dict) -> list[complex]:
    return [0j] + [complex(*c) for c in cfg["spectral_shifts"]]


def string_chain(seed: int) -> Workload:
    """Constant damping d (1 when shipped, else uniform in [0.9, 1.1]), n = 100001,
    M = 100, center 0 and the first 2 shifts of the shipped list."""
    cfg = _shipped("string_constant_damping_shifted.json")
    cfg["spectral_shifts"] = cfg["spectral_shifts"][:2]
    d = 1.0 if seed == 0 else random.Random(seed).uniform(0.9, 1.1)
    if seed:
        cfg["coefficients"]["damping"] = repr(d)
    centers = _centers(cfg)
    # the config's own keep radius: twice the largest step between centers
    radius = 2.0 * max(abs(b - a) for a, b in zip(centers, centers[1:]))
    return Workload(
        name="string_chain", configs=[cfg],
        reference={None: references.string_closed_form(d, 12)},
        tolerance=1e-10, band_radius=radius, centers=centers)


def string_x2_chain(seed: int) -> Workload:
    """x^2 damping, n = 100001, M = 50, center 0 and the first 3 shifts.

    The inputs do not depend on the seed: the spurious records it fails on
    must be the same share of every run.
    """
    cfg = _shipped("string_x2_damping_shifted.json")
    cfg["spectral_shifts"] = cfg["spectral_shifts"][:3]
    (im_lo, im_hi), modes = references.load_x2_reference()
    centers = _centers(cfg)
    # M = 50 resolves modes up to about 16 from a center (5e-8 relative at
    # 15.7); the next ring, at 18.8, comes out only as near-duplicates
    radius = 17.0
    if (min(c.imag for c in centers) - radius < im_lo
            or max(c.imag for c in centers) + radius > im_hi):
        raise references.ReferenceError("stored x^2 reference does not cover the band")
    return Workload(
        name="string_x2_chain", configs=[cfg], reference={None: modes},
        tolerance=1e-6, band_radius=radius, centers=centers,
        fault="records that match no mode are Taylor-section zeros and "
              "near-duplicates kept because cli._solve_single defaults "
              "keep_radius to 2 x the shift step (ROADMAP item 2)")


def zs_contour(seed: int) -> Workload:
    """Klaus-Shaw sweep (n = 5001, M = 100) solved with arg_principle; seeds
    draw each s from its window in ZS_S_WINDOWS."""
    cfg = _shipped("klaus_shaw_sweep.json")
    cfg["method"] = "arg_principle"
    if seed:
        rng = random.Random(seed)
        values = [rng.uniform(lo, hi) for lo, hi in ZS_S_WINDOWS]
        cfg["sweep"]["values"] = values
        cfg["potential"]["s"] = values[0]
    values = [float(s) for s in cfg["sweep"]["values"]]
    region = cfg["search_region"]
    if (region["re"][0], region["re"][1], region["im"][0], region["im"][1]) \
            != references.ZS_REGION:
        raise references.ReferenceError("search region differs from the reference's")
    return Workload(
        name="zs_contour", configs=[cfg], reference=zs_reference(values),
        tolerance=1e-8, band_radius=math.inf)


def zs_reference(values: list[float]) -> dict:
    """Klaus-Shaw eigenvalues by shooting, computed in a child process so that
    scipy stays out of the measured process."""
    out = subprocess.run(
        [sys.executable, str(pathlib.Path(references.__file__)), "--zs",
         *map(repr, values)],
        capture_output=True, text=True, timeout=120)
    if out.returncode:
        raise references.ReferenceError(f"Klaus-Shaw reference failed:\n{out.stderr}")
    doc = json.loads(out.stdout)
    return {s: [complex(re, im) for re, im in doc[repr(s)]] for s in values}


WORKLOADS = {w.__name__: w for w in (string_chain, string_x2_chain, zs_contour)}


# ---------------------------------------------------------------------------
# checking records against the reference


@dataclass
class Tally:
    """Outcome of one solve checked against the reference.

    An operation is one emitted record, or one in-band reference mode that no
    record matches.  Failed operations are records matching no mode, records
    matching a mode another record matches more closely, and missed modes.
    """

    records: int = 0
    unmatched: int = 0
    duplicates: int = 0
    missed: int = 0
    verified: int = 0
    digits_min: float = math.inf

    @property
    def attempted(self) -> int:
        return self.records + self.missed

    @property
    def failed(self) -> int:
        return self.unmatched + self.duplicates + self.missed


DIGITS_CAP = 17.0  # a record equal to its mode in every bit


def check_records(wl: Workload, records: list[tuple[float | None, complex]]) -> Tally:
    """Match (group, value) records to the reference modes of their group."""
    tally = Tally(records=len(records))
    matches: dict[tuple, list[float]] = {}
    for group, z in records:
        modes = wl.reference.get(group, [])
        if not modes:
            tally.unmatched += 1
            continue
        mode = min(modes, key=lambda m: abs(z - m))
        rel = abs(z - mode) / abs(mode)
        if rel > wl.tolerance:
            tally.unmatched += 1
            continue
        matches.setdefault((group, mode), []).append(rel)
    for (group, mode), errs in matches.items():
        tally.duplicates += len(errs) - 1
        if len(errs) == 1:
            tally.verified += 1
        best = min(errs)
        digits = -math.log10(best) if best > 0 else DIGITS_CAP
        tally.digits_min = min(tally.digits_min, min(digits, DIGITS_CAP))
    for group, modes in wl.reference.items():
        tally.missed += sum(1 for m in modes
                            if wl.in_band(m) and (group, m) not in matches)
    if not matches:
        tally.digits_min = 0.0
    return tally
