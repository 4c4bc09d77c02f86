"""Zeros of truncated characteristic series.

Two routes to the eigenvalues: global polynomial root extraction through the
companion matrix, and argument-principle localization on rectangles with
winding numbers and residue-formula refinement.  Localization bisects only
until a rectangle holds a single zero, which the residue formula and Newton
then pin: the bisection tolerance is a floor, not the record's precision.
Its rounding-noise floor is taken where the sampled boundary |Phi_M| is
smallest.  Both routes end in a Newton polish in double precision whose
residual comes from the compensated Horner scheme, as accurate as Horner in
twice the working precision.  A root is certified
when the sampled boundary minimum of |Phi_M| beats a rigorous bound on
|Phi - Phi_M|, which by Rouche's theorem puts the truncated roots in
bijection with true eigenvalues inside the rectangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import RootLocalizationError, SolverError
from .problems import CharacteristicSeries

BOUNDARY_ABS_FLOOR = 1e-280
MAX_PHASE_STEP = math.pi / 2
MAX_LOCAL_REFINES = 10  # per-segment density doublings before giving up
_SPLITTER = 134217729.0  # 2**27 + 1: Veltkamp's split of a binary64 into 26-bit halves


@dataclass(frozen=True)
class Rectangle:
    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError(f"degenerate rectangle {self}")

    @property
    def center(self) -> complex:
        return complex((self.re_min + self.re_max) / 2, (self.im_min + self.im_max) / 2)

    @property
    def diameter(self) -> float:
        return math.hypot(self.re_max - self.re_min, self.im_max - self.im_min)

    def corners(self) -> list[complex]:
        return [complex(self.re_min, self.im_min), complex(self.re_max, self.im_min),
                complex(self.re_max, self.im_max), complex(self.re_min, self.im_max)]

    def contains(self, z: complex) -> bool:
        return (self.re_min <= z.real <= self.re_max
                and self.im_min <= z.imag <= self.im_max)

    def max_abs_from(self, center: complex) -> float:
        return max(abs(c - center) for c in self.corners())

    def intersection(self, other: "Rectangle") -> "Rectangle | None":
        """The overlap of two rectangles, or None when it has no interior."""
        re_min, re_max = max(self.re_min, other.re_min), min(self.re_max, other.re_max)
        im_min, im_max = max(self.im_min, other.im_min), min(self.im_max, other.im_max)
        if re_min < re_max and im_min < im_max:
            return Rectangle(re_min, re_max, im_min, im_max)
        return None

    @staticmethod
    def around(z: complex, half_width: float) -> "Rectangle":
        return Rectangle(z.real - half_width, z.real + half_width,
                         z.imag - half_width, z.imag + half_width)


@dataclass(frozen=True)
class WindingResult:
    rectangle: Rectangle
    winding: int
    boundary_min_abs: float
    boundary_min_at: complex  # the sampled boundary point where |Phi| is smallest


@dataclass(frozen=True)
class EigenvalueRecord:
    value: complex
    multiplicity: int
    method: str  # "poly_roots" | "arg_principle"
    certified: bool
    residual: float


# ---------------------------------------------------------------------------
# polynomial route


def poly_roots(series: CharacteristicSeries) -> list[complex]:
    """All roots of the truncated polynomial, shifted back by the series center.

    Leading coefficients too small to divide by in double precision (they only
    move roots near infinity) are dropped before forming the companion matrix.
    """
    coeffs = series.coeffs
    if not np.any(coeffs != 0):
        raise SolverError(
            f"all characteristic coefficients at center {series.center} vanish")
    top = np.max(np.abs(coeffs))
    deg = len(coeffs) - 1
    while deg > 0 and abs(coeffs[deg]) <= 1e-300 * top:
        deg -= 1
    roots = np.roots(coeffs[:deg + 1][::-1])
    return [complex(z) + series.center for z in roots]


def _compensated_horner(cs: list, z: complex) -> complex:
    """sum cs[k] z^k by the compensated Horner scheme (Graillat, Langlois &
    Louvet 2005; complex form, Graillat & Menissier-Morain 2008).

    Each Horner step s*z + c is split by TwoProduct (Dekker, with Veltkamp
    splits; z is split once) and TwoSum into its rounded value and its exact
    rounding error; a second Horner recursion carries those errors, and its
    value corrects the result.  The error is about eps |p(z)| plus
    eps^2 sum |cs[k]| |z|^k, as if Horner ran in twice the working precision.
    """
    x, y = z.real, z.imag
    t = _SPLITTER * x
    xh = t - (t - x)
    xl = x - xh
    t = _SPLITTER * y
    yh = t - (t - y)
    yl = y - yh
    sr, si = cs[-1].real, cs[-1].imag
    err = 0j
    for c in reversed(cs[:-1]):
        t = _SPLITTER * sr
        ah = t - (t - sr)
        al = sr - ah
        t = _SPLITTER * si
        bh = t - (t - si)
        bl = si - bh
        # s*z = (sr x - si y) + i (sr y + si x): four TwoProducts
        p1, p2, p3, p4 = sr * x, si * y, sr * y, si * x
        e1 = al * xl - (((p1 - ah * xh) - al * xh) - ah * xl)
        e2 = bl * yl - (((p2 - bh * yh) - bl * yh) - bh * yl)
        e3 = al * yl - (((p3 - ah * yh) - al * yh) - ah * yl)
        e4 = bl * xl - (((p4 - bh * xh) - bl * xh) - bh * xl)
        # TwoSums: the product's real and imaginary parts, then + c
        pr, pi = p1 - p2, p3 + p4
        t, u = pr - p1, pi - p3
        fr, fi = (p1 - (pr - t)) + (-p2 - t), (p3 - (pi - u)) + (p4 - u)
        cr, ci = c.real, c.imag
        sr, si = pr + cr, pi + ci
        t, u = sr - pr, si - pi
        gr, gi = (pr - (sr - t)) + (cr - t), (pi - (si - u)) + (ci - u)
        err = err * z + complex(e1 - e2 + fr + gr, e3 + e4 + fi + gi)
    return complex(sr + err.real, si + err.imag)


def newton_polish(series: CharacteristicSeries, z0: complex, *,
                  steps: int = 5) -> complex:
    """Newton iteration z <- z - p(z)/p'(z) in double precision, in the series'
    local variable.

    p(z) comes from the compensated Horner scheme, so the residual that drives
    each step and ranks the iterates is as accurate as the double-precision
    coefficients allow; p'(z) only steers the step and uses plain Horner.
    Runs `steps` iterations, stops early where p' vanishes, and returns the
    iterate with the smallest compensated |p|, the input included.
    """
    cs = series.coeffs.tolist()
    deriv = [k * c for k, c in enumerate(cs)][1:]
    center = complex(series.center)
    z = complex(z0) - center
    pz = _compensated_horner(cs, z)
    best, best_abs = complex(z0), abs(pz)
    for _ in range(steps):
        dp = 0j
        for c in reversed(deriv):
            dp = dp * z + c
        if dp == 0:
            break
        z = z - pz / dp
        pz = _compensated_horner(cs, z)
        if abs(pz) < best_abs:
            best, best_abs = z + center, abs(pz)
    return best


# ---------------------------------------------------------------------------
# argument principle


def _boundary_points(rect: Rectangle, n: int) -> np.ndarray:
    """n points along the positively oriented boundary, corners included."""
    w = rect.re_max - rect.re_min
    h = rect.im_max - rect.im_min
    per = 2 * (w + h)
    counts = [max(2, round(n * s / per)) for s in (w, h, w, h)]
    segs = []
    c = rect.corners()
    for k in range(4):
        a, b = c[k], c[(k + 1) % 4]
        t = np.linspace(0.0, 1.0, counts[k], endpoint=False)
        segs.append(a + (b - a) * t)
    return np.concatenate(segs)


def _phase_steps(series, pts: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Per-segment argument increments, locally refining any step above pi/2."""
    nxt_vals = np.roll(vals, -1)
    nxt_pts = np.roll(pts, -1)
    steps = np.angle(nxt_vals / vals)
    bad = np.flatnonzero(np.abs(steps) > MAX_PHASE_STEP)
    for i in bad:
        steps[i] = _refine_step(series, pts[i], nxt_pts[i], vals[i], nxt_vals[i])
    return steps


def _refine_step(series, z1: complex, z2: complex, v1: complex, v2: complex,
                 depth: int = 0) -> float:
    step = np.angle(v2 / v1)
    if abs(step) <= MAX_PHASE_STEP:
        return float(step)
    if depth >= MAX_LOCAL_REFINES:
        raise RootLocalizationError(
            f"argument jump between {z1} and {z2} unresolved after "
            f"{MAX_LOCAL_REFINES} density doublings (zero on or near the contour?)"
        )
    zm = (z1 + z2) / 2
    vm = complex(series(zm))
    if vm == 0 or abs(vm) < BOUNDARY_ABS_FLOOR:
        raise RootLocalizationError(f"characteristic function vanishes at {zm}")
    return (_refine_step(series, z1, zm, v1, vm, depth + 1)
            + _refine_step(series, zm, z2, vm, v2, depth + 1))


def winding_number(series, rect: Rectangle,
                   samples_per_contour: int = 4000) -> WindingResult:
    """Winding of the series image of the rectangle boundary around 0.

    Computed by summing phase differences along the sampled contour; any pair
    turning by more than pi/2 is resampled locally (doubling density up to
    2^10) before the whole computation is declared unresolvable.
    """
    pts = _boundary_points(rect, samples_per_contour)
    vals = np.asarray(series(pts), dtype=np.complex128)
    i_min = int(np.argmin(np.abs(vals)))
    min_abs = float(abs(vals[i_min]))
    if min_abs < BOUNDARY_ABS_FLOOR:
        raise RootLocalizationError(
            f"zero on the contour of {rect}: boundary |Phi| = {min_abs:g}"
        )
    total = float(np.sum(_phase_steps(series, pts, vals)))
    winding = round(total / (2 * math.pi))
    if abs(total - 2 * math.pi * winding) > 0.25 * 2 * math.pi:
        raise RootLocalizationError(
            f"total argument change {total:.3f} is not close to a multiple of 2*pi"
        )
    return WindingResult(rect, winding, min_abs, complex(pts[i_min]))


def _residue_trapezoid(series, rect: Rectangle, samples: int) -> complex:
    pts = _boundary_points(rect, samples)
    nxt = np.roll(pts, -1)
    prv = np.roll(pts, 1)
    dz = (nxt - prv) / 2.0
    vals = np.asarray(series(pts), dtype=np.complex128)
    dvals = np.asarray(series.deriv(pts), dtype=np.complex128)
    return complex(np.sum(pts * dvals / vals * dz))


def residue_refine(series, rect: Rectangle, multiplicity: int,
                   samples: int = 4000) -> complex:
    """Zero position by the residue formula (2*pi*i*N)^-1 contour-int z Phi'/Phi dz.

    Trapezoid rule along the rectangle boundary; the corners leave an O(h^2)
    error expansion, so two Richardson levels push the rule to O(h^6).
    """
    t1 = _residue_trapezoid(series, rect, samples)
    t2 = _residue_trapezoid(series, rect, 2 * samples)
    t4 = _residue_trapezoid(series, rect, 4 * samples)
    r1 = (4 * t2 - t1) / 3
    r2 = (4 * t4 - t2) / 3
    integral = (16 * r2 - r1) / 15
    return complex(integral / (2j * math.pi * multiplicity))


def _evaluation_noise(series, z: complex) -> float:
    """Rounding-noise scale of Phi_M evaluated at z.

    Below a small multiple of this level a sampled value is cancellation
    noise.  localize takes it at the boundary point where |Phi_M| is
    smallest: once that minimum sinks under it, winding numbers stop being
    meaningful, which happens inside the natural resolution radius of
    multiple zeros.
    """
    term_scale = getattr(series, "term_scale", None)
    if term_scale is None:
        return 0.0
    m = getattr(series, "truncation", 64)
    return 8.0 * math.sqrt(m + 1) * np.finfo(float).eps * term_scale(z)


def _finalize(series, region: Rectangle, winding: int, samples: int,
              polish_steps: int) -> list[EigenvalueRecord]:
    z = residue_refine(series, region, winding, samples)
    if polish_steps > 0:
        z = newton_polish(series, z, steps=polish_steps)
    return [EigenvalueRecord(
        value=z, multiplicity=winding, method="arg_principle",
        certified=False, residual=float(abs(series(z))),
    )]


def localize(series, region: Rectangle, tol: float = 1e-10, *,
             samples_per_contour: int = 4000, polish_steps: int = 5,
             _winding: WindingResult | None = None) -> list[EigenvalueRecord]:
    """Zeros in region by winding numbers, bisecting only until a rectangle
    holds a single zero.

    Rectangles with winding zero are discarded.  On winding one the zero is
    pinned by the residue formula and a few Newton steps, and the record is
    kept if it lies in the rectangle with |Phi_M| at or below both its own
    evaluation noise and the boundary minimum of |Phi_M|: by the
    minimum-modulus principle the sublevel component holding it cannot reach
    the boundary, so it holds the rectangle's only zero (Delves & Lyness
    1967; Kravanja & Van Barel 2000).  Otherwise the longer side is bisected.
    tol is the diameter at which bisection gives up, not the precision of a
    record.  Bisection also stops once the boundary minimum sinks into the
    rounding noise taken at that boundary point, the resolution limit of a
    multiple zero; clusters tighter than that come back as one record with
    the summed winding.
    """
    w = _winding if _winding is not None else winding_number(
        series, region, samples_per_contour)
    if w.winding == 0:
        return []
    if w.winding < 0:
        raise RootLocalizationError(
            f"negative winding {w.winding} on {region}: not a polynomial image"
        )
    noise = _evaluation_noise(series, w.boundary_min_at)
    if region.diameter <= tol or w.boundary_min_abs < noise:
        return _finalize(series, region, w.winding, samples_per_contour,
                         polish_steps)
    if w.winding == 1:
        rec = _finalize(series, region, 1, samples_per_contour, polish_steps)[0]
        if region.contains(rec.value) and rec.residual <= min(
                _evaluation_noise(series, rec.value), w.boundary_min_abs):
            return [rec]

    wide = (region.re_max - region.re_min) >= (region.im_max - region.im_min)
    lo, hi = (region.re_min, region.re_max) if wide else (region.im_min, region.im_max)
    for attempt in range(8):
        # bisect the longer side, nudging the cut if a zero sits on it
        jitter = ((-1) ** attempt) * math.ceil(attempt / 2) * 1e-3 * region.diameter
        mid = (lo + hi) / 2 + jitter
        if not lo < mid < hi:
            continue
        if wide:
            r1 = Rectangle(region.re_min, mid, region.im_min, region.im_max)
            r2 = Rectangle(mid, region.re_max, region.im_min, region.im_max)
        else:
            r1 = Rectangle(region.re_min, region.re_max, region.im_min, mid)
            r2 = Rectangle(region.re_min, region.re_max, mid, region.im_max)
        try:
            w1 = winding_number(series, r1, samples_per_contour)
            w2 = winding_number(series, r2, samples_per_contour)
        except RootLocalizationError:
            continue
        if w1.winding + w2.winding != w.winding:
            continue
        out = localize(series, r1, tol, samples_per_contour=samples_per_contour,
                       polish_steps=polish_steps, _winding=w1)
        out += localize(series, r2, tol, samples_per_contour=samples_per_contour,
                        polish_steps=polish_steps, _winding=w2)
        return sorted(out, key=lambda rec: (rec.value.real, rec.value.imag))
    if w.boundary_min_abs < 16 * noise:
        # every cut line lands in the noise skirt of an (almost) multiple zero
        return _finalize(series, region, w.winding, samples_per_contour,
                         polish_steps)
    raise RootLocalizationError(
        f"could not split {region} without landing on a zero after 8 jitters"
    )


def certify(record: EigenvalueRecord, series, tail: float,
            rect: Rectangle, samples_per_contour: int = 4000) -> EigenvalueRecord:
    """Rouche check: certified when min boundary |Phi_M| exceeds the tail bound.

    tail must bound |Phi - Phi_M| on the rectangle boundary; the count of true
    zeros inside then equals the winding of Phi_M, so the record's multiplicity
    is trustworthy.
    """
    if not math.isfinite(tail):
        return replace(record, certified=False)
    pts = _boundary_points(rect, samples_per_contour)
    vals = np.abs(np.asarray(series(pts), dtype=np.complex128))
    ok = bool(np.min(vals) > tail)
    return replace(record, certified=ok)
