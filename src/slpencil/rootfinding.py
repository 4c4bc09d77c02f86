"""Zeros of truncated characteristic series.

Two routes to the eigenvalues: global polynomial root extraction through the
companion matrix, and argument-principle localization on rectangles with
winding numbers and the moments of the zeros inside them.  Both locate
zeros on Phi_d, the series cut to the smallest degree d with
sum_{k>d} |a_k| R^k <= eps max_k |a_k| R^k (disc_degree), R the radius of a
disc about the center that holds every zero the caller keeps: on that disc
the dropped terms are below the rounding of Phi_M.  The companion matrix
(Edelman & Murakami 1995) is built from a_0..a_d; localize's windings
evaluate Phi_d, R the search rectangle's farthest corner.  What judges a
zero, its rounding-noise floor, Newton polish and residual, uses Phi_M, and
so does certify.  Every contour is evaluated once, at about SAMPLES points
with a multiple of 4 on each side, and the power sums of the zeros inside
read the winding's samples: their three Richardson levels are strides 4, 2
and 1 of them.  A rectangle of winding m gives its m zeros from the power
sums s_1..s_m (Delves & Lyness 1967), and Newton pins each; localization
bisects only where those zeros fail a check, so the bisection tolerance is
a floor, not the record's precision.  Its rounding-noise floor is taken
where the sampled boundary |Phi_d| is smallest.
Both routes end in a Newton polish in double precision that steers and ranks
its iterates by the compensated Horner scheme, as accurate as Horner in twice
the working precision; a record's residual is plain-Horner |Phi_M| at the
polished value.  A root is certified when the sampled boundary minimum of
|Phi_M|, less what |Phi_M| can lose between samples, beats a rigorous bound on
|Phi - Phi_M|, so that by Rouche's theorem Phi has as many zeros inside the
rectangle as the winding of Phi_M, and when that winding is the record's
multiplicity.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import RootLocalizationError, SolverError
from .problems import CharacteristicSeries

BOUNDARY_ABS_FLOOR = 1e-280
MAX_PHASE_STEP = math.pi / 2
MAX_LOCAL_REFINES = 10  # per-segment density doublings before giving up
POLISH_STEPS = 5  # at most this many Newton steps from a companion root or a moment seed
SAMPLES = 4000  # about this many boundary samples per contour; the power sums reuse them
WEIERSTRASS_SWEEPS = 50  # at most this many sweeps for the roots of the moment polynomial
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
    def diameter(self) -> float:
        return math.hypot(self.re_max - self.re_min, self.im_max - self.im_min)

    def corners(self) -> list[complex]:
        return [complex(self.re_min, self.im_min), complex(self.re_max, self.im_min),
                complex(self.re_max, self.im_max), complex(self.re_min, self.im_max)]

    def contains(self, z: complex) -> bool:
        return (self.re_min <= z.real <= self.re_max
                and self.im_min <= z.imag <= self.im_max)

    def max_abs_from(self, center: complex) -> float:
        """The farthest corner's distance from center, inf where it overflows."""
        return max(math.hypot(c.real - center.real, c.imag - center.imag)
                   for c in self.corners())

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
    """The winding of Phi on a rectangle's boundary, with the samples it was
    counted from: the power sums of the zeros inside, which seed Newton,
    are read from them without evaluating Phi again."""

    rectangle: Rectangle
    winding: int
    boundary_min_abs: float
    boundary_min_at: complex  # the sampled boundary point where |Phi| is smallest
    gap: float  # the largest distance between neighbouring samples
    # the boundary samples in order, Phi at each, and the phase step from
    # each to the next (the last closes the contour), locally refined
    points: np.ndarray = field(repr=False, compare=False)
    values: np.ndarray = field(repr=False, compare=False)
    steps: np.ndarray = field(repr=False, compare=False)


@dataclass(frozen=True)
class EigenvalueRecord:
    value: complex
    multiplicity: int
    method: str  # "poly_roots" | "arg_principle"
    certified: bool
    residual: float


# ---------------------------------------------------------------------------
# polynomial route


def _require_nonzero(series: CharacteristicSeries):
    """Both routes refuse a series that vanishes identically, naming its center."""
    if not np.any(series.coeffs != 0):
        raise SolverError(
            f"all characteristic coefficients at center {series.center} vanish")


def disc_degree(series: CharacteristicSeries, radius: float) -> int:
    """The degree d of the series that the disc |lambda - center| <= R,
    R = radius, needs: poly_roots and localize evaluate a_0..a_d only.

    Leading coefficients too small to divide by in double precision (they only
    move roots near infinity) are dropped first.  d is then the smallest degree
    with sum_{k>d} |a_k| R^k <= eps max_k |a_k| R^k: on the disc the dropped
    terms are below the rounding of Phi_M itself.  Where R is inf or some R^k
    overflows, d is the trimmed degree.  d is 0 where a_0 alone is Phi_M to
    rounding on the disc; contour_degree keeps at least 1.
    """
    coeffs = series.coeffs
    top = np.max(np.abs(coeffs))
    deg = len(coeffs) - 1
    while deg > 0 and abs(coeffs[deg]) <= 1e-300 * top:
        deg -= 1
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.abs(coeffs[:deg + 1]) * radius ** np.arange(deg + 1.0)
        # tails[d] = sum_{k>d} terms[k], non-increasing, 0 at d = deg
        tails = np.append(np.cumsum(terms[:0:-1])[::-1], 0.0)
    if np.all(np.isfinite(terms)):
        deg = int(np.argmax(tails <= np.finfo(float).eps * np.max(terms)))
    return deg


def contour_degree(series: CharacteristicSeries, rect: Rectangle) -> int:
    """The degree localize's contours evaluate on rect: the disc degree of
    its farthest corner from the center, at least 1, as CharacteristicSeries
    needs."""
    return max(1, disc_degree(series, rect.max_abs_from(series.center)))


def poly_roots(series: CharacteristicSeries, radius: float = math.inf
               ) -> list[complex]:
    """The roots of the truncated polynomial, shifted back by the series
    center, for a caller that keeps only those within radius of the center.

    The companion matrix is built from a_0..a_d, d = disc_degree(series,
    radius), so len(result) is d, and roots outside the disc come from that
    lower degree; the caller judges the roots on the full Phi_M.
    """
    _require_nonzero(series)
    deg = disc_degree(series, radius)
    roots = np.roots(series.coeffs[:deg + 1][::-1])
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
                  steps: int = POLISH_STEPS) -> complex:
    """Newton iteration z <- z - p(z)/p'(z) in double precision, in the series'
    local variable.

    p(z) comes from the compensated Horner scheme, so the residual that drives
    each step and ranks the iterates is as accurate as the double-precision
    coefficients allow; p'(z) only steers the step and uses plain Horner.
    Runs at most `steps` iterations and returns the iterate with the smallest
    compensated |p|, the input included.  It stops early where p' vanishes
    and where an iterate repeats, bit for bit, one it has already evaluated:
    a step depends on z alone, so every later iterate would revisit an
    evaluated one, and none could strictly beat the best.  The result is
    bitwise that of all `steps` iterations.
    """
    cs = series.coeffs.tolist()
    deriv = [k * c for k, c in enumerate(cs)][1:]
    center = complex(series.center)
    z = complex(z0) - center
    pz = _compensated_horner(cs, z)
    best, best_abs = complex(z0), abs(pz)
    seen = {struct.pack("2d", z.real, z.imag)}
    for _ in range(steps):
        dp = 0j
        for c in reversed(deriv):
            dp = dp * z + c
        if dp == 0:
            break
        z = z - pz / dp
        key = struct.pack("2d", z.real, z.imag)
        if key in seen:
            break
        seen.add(key)
        pz = _compensated_horner(cs, z)
        if abs(pz) < best_abs:
            best, best_abs = z + center, abs(pz)
    return best


# ---------------------------------------------------------------------------
# argument principle


def _boundary_points(rect: Rectangle, n: int, fold: int = 1) -> np.ndarray:
    """About n points along the positively oriented boundary, corners included,
    times fold on every side: for a power-of-two fold, linspace nests exactly,
    so every fold-th point is bitwise the point of the unfolded layout."""
    w = rect.re_max - rect.re_min
    h = rect.im_max - rect.im_min
    per = 2 * (w + h)
    counts = [fold * max(2, round(n * s / per)) for s in (w, h, w, h)]
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
            f"argument jump between {z1} and {z2} about center {series.center} "
            f"unresolved after {MAX_LOCAL_REFINES} density doublings "
            f"(zero on or near the contour?)"
        )
    zm = (z1 + z2) / 2
    vm = complex(series(zm))
    if vm == 0 or abs(vm) < BOUNDARY_ABS_FLOOR:
        raise RootLocalizationError(
            f"characteristic function vanishes at {zm} about center {series.center}")
    return (_refine_step(series, z1, zm, v1, vm, depth + 1)
            + _refine_step(series, zm, z2, vm, v2, depth + 1))


def winding_number(series, rect: Rectangle) -> WindingResult:
    """Winding of the series image of the rectangle boundary around 0.

    Computed by summing phase differences along the contour sampled at about
    SAMPLES points, a multiple of 4 on each side so that strides 4, 2 and 1
    nest; any pair turning by more than pi/2 is resampled locally (doubling
    density up to 2^10) before the whole computation is declared
    unresolvable.  The result keeps the samples, their values and the phase
    steps for _power_sums.  A boundary on which the series overflows has
    no winding.
    """
    pts = _boundary_points(rect, SAMPLES // 4, fold=4)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(series(pts), dtype=np.complex128)
    if not np.all(np.isfinite(vals)):
        raise RootLocalizationError(
            f"Phi is not finite on the contour of {rect} about center {series.center}")
    i_min = int(np.argmin(np.abs(vals)))
    min_abs = float(abs(vals[i_min]))
    if min_abs < BOUNDARY_ABS_FLOOR:
        raise RootLocalizationError(
            f"zero on the contour of {rect} about center {series.center}: "
            f"boundary |Phi| = {min_abs:g}"
        )
    steps = _phase_steps(series, pts, vals)
    total = float(np.sum(steps))
    winding = round(total / (2 * math.pi))
    if abs(total - 2 * math.pi * winding) > 0.25 * 2 * math.pi:
        raise RootLocalizationError(
            f"total argument change {total:.3f} on {rect} about center "
            f"{series.center} is not close to a multiple of 2*pi"
        )
    gap = float(np.max(np.abs(np.diff(pts, append=pts[:1]))))
    return WindingResult(rect, winding, min_abs, complex(pts[i_min]), gap,
                         pts, vals, steps)


def _power_sums(w: WindingResult, count: int) -> tuple[complex, float, list[complex]]:
    """The power sums s_p = (2*pi*i)^-1 contour-int u^p Phi'/Phi dz,
    p = 1..count, of the zeros inside w's rectangle in the scaled variable
    u = (z - c)/rho, c the rectangle's center and rho half its diameter, from
    the winding's own samples: nothing is evaluated.  Returns c, rho and the
    sums (Delves & Lyness 1967).

    L = log Phi continued along the contour, log|Phi| plus the summed phase
    steps, rises by 2*pi*i*m once round it, m = w.winding, so by parts
    s_p = m u_0^p - (p/(2*pi*i)) contour-int u^(p-1) L du, u_0 the first
    sample (a corner).  The trapezoid rule takes that integral at strides 4,
    2 and 1 of the samples; each side starts at a corner of every level, so
    the corners leave an O(h^2) error expansion, and two Richardson levels
    push the rule to O(h^6).
    """
    rect = w.rectangle
    c = complex((rect.re_min + rect.re_max) / 2, (rect.im_min + rect.im_max) / 2)
    rho = rect.diameter / 2
    u = (np.append(w.points, w.points[:1]) - c) / rho
    phase = np.concatenate(([0.0], np.cumsum(w.steps[:-1])))
    L = np.log(np.abs(w.values)) + 1j * phase
    g = np.append(L, L[0] + 2j * math.pi * w.winding)  # u^(p-1) L, from p = 1
    sums = []
    for p in range(1, count + 1):
        levels = []
        for stride in (4, 2, 1):
            us, gs = u[::stride], g[::stride]
            levels.append(complex(np.dot(gs[1:] + gs[:-1], np.diff(us))) / 2)
        t1, t2, t4 = levels
        r1 = (4 * t2 - t1) / 3
        r2 = (4 * t4 - t2) / 3
        integral = (16 * r2 - r1) / 15
        sums.append(complex(w.winding * u[0] ** p - p * integral / (2j * math.pi)))
        g = g * u
    return c, rho, sums


def residue_refine(w: WindingResult) -> complex:
    """The centroid of the zeros inside w's rectangle, c + rho s_1/m, from
    the first power sum of _power_sums (m = w.winding): the zero itself
    where m is 1, and the seed of a cluster's record."""
    c, rho, (s1,) = _power_sums(w, 1)
    return c + rho * s1 / w.winding


def _moment_seeds(w: WindingResult) -> list[complex]:
    """The m = w.winding zeros inside w's rectangle from its power sums
    s_1..s_m: Newton's identities give the elementary symmetric functions
    e_k, k e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} s_i, so the zeros are the
    roots of u^m - e_1 u^(m-1) + e_2 u^(m-2) - ..., which Weierstrass
    (Durand-Kerner) sweeps find in plain complex arithmetic, without
    LAPACK; Newton on Phi_M then polishes them."""
    m = w.winding
    c, rho, s = _power_sums(w, m)
    e = [1 + 0j]
    for k in range(1, m + 1):
        e.append(sum((-1) ** (i - 1) * e[k - i] * s[i - 1] for i in range(1, k + 1)) / k)
    a = [(-1) ** k * e[k] for k in range(m + 1)]  # monic, leading coefficient first
    roots = [(0.4 + 0.9j) ** k for k in range(m)]
    for _ in range(WEIERSTRASS_SWEEPS):
        moved = 0.0
        for i, r in enumerate(roots):
            p = 0j
            for coef in a:
                p = p * r + coef
            q = 1 + 0j
            for j, other in enumerate(roots):
                if j != i:
                    q *= r - other
            if q == 0:
                continue
            roots[i] = r - p / q
            moved = max(moved, abs(p / q))
        if moved <= 1e-14:
            break
    return [c + rho * r for r in roots]


def _evaluation_noise(series: CharacteristicSeries, z: complex) -> float:
    """Rounding-noise scale of Phi_M evaluated at z.

    Below a small multiple of this level a sampled value is cancellation
    noise.  localize takes it at the boundary point where |Phi_M| is
    smallest: once that minimum sinks under it, winding numbers stop being
    meaningful, which happens inside the natural resolution radius of
    multiple zeros.
    """
    return (8.0 * math.sqrt(series.truncation + 1) * np.finfo(float).eps
            * series.term_scale(z))


def _finalize(series, w: WindingResult) -> EigenvalueRecord:
    z = newton_polish(series, residue_refine(w))
    return EigenvalueRecord(
        value=z, multiplicity=w.winding, method="arg_principle",
        certified=False, residual=float(abs(series(z))),
    )


def _accepted(series, w: WindingResult) -> list[EigenvalueRecord] | None:
    """The m = w.winding zeros inside w's rectangle as m simple records, or
    None when the moments cannot be trusted and the rectangle is bisected.

    The seeds are the residue seed for m = 1 and _moment_seeds otherwise.
    A seed outside the rectangle rejects them all before anything is
    evaluated.  Each polished value must lie in the rectangle with |Phi_M|
    at or below both its own evaluation noise and the boundary minimum of
    |Phi_d|: by the minimum-modulus principle the sublevel component
    holding it cannot reach the boundary.  For m >= 2 the polished values
    must also lie pairwise farther apart than 2^10 rounding radii
    noise/|Phi_M'|, the largest of theirs, so that no two polish onto one
    zero and a cluster tighter than its rounding allows is bisected.
    """
    region = w.rectangle
    seeds = [residue_refine(w)] if w.winding == 1 else _moment_seeds(w)
    if not all(region.contains(z) for z in seeds):
        return None
    recs = []
    for seed in seeds:
        z = newton_polish(series, seed)
        residual = float(abs(series(z)))
        if not (region.contains(z) and residual <= min(
                _evaluation_noise(series, z), w.boundary_min_abs)):
            return None
        recs.append(EigenvalueRecord(value=z, multiplicity=1, method="arg_principle",
                                     certified=False, residual=residual))
    if len(recs) > 1:
        slopes = [abs(series.deriv(rec.value)) for rec in recs]
        if 0 in slopes:
            return None
        radius = max(_evaluation_noise(series, rec.value) / d
                     for rec, d in zip(recs, slopes))
        gap = min(abs(a.value - b.value)
                  for i, a in enumerate(recs) for b in recs[i + 1:])
        if not gap > 2 ** 10 * radius:
            return None
    return sorted(recs, key=lambda rec: (rec.value.real, rec.value.imag))


def localize(series, region: Rectangle, tol: float = 1e-10) -> list[EigenvalueRecord]:
    """Zeros in region by winding numbers, bisecting only where a
    rectangle's moments fail.

    Rectangles with winding zero are discarded.  On winding m the m zeros
    come from the power sums of the winding's samples and a few Newton
    steps each, and are kept as m records when _accepted's checks hold
    (Delves & Lyness 1967; Kravanja & Van Barel 2000).  Otherwise the
    longer side is bisected.  tol is the diameter at which bisection gives
    up, not the precision of a record.  Bisection also stops once the
    boundary minimum sinks into the rounding noise taken at that boundary
    point, the resolution limit of a multiple zero; clusters tighter than
    that come back as one record with the summed winding.  A series that
    vanishes identically is a SolverError.

    The windings and their local refinement evaluate Phi_d, the series cut
    to d = contour_degree(series, region): inside it Phi_d is Phi_M to
    rounding.  Each contour is evaluated once; the power sums read its
    winding's samples.  What judges a record uses Phi_M: the evaluation
    noise, the Newton polish, the residual and the rounding radius.
    """
    _require_nonzero(series)
    cut = CharacteristicSeries(
        series.center, series.coeffs[:contour_degree(series, region) + 1])
    return _localize(series, cut, winding_number(cut, region), tol)


def _localize(series, cut, w: WindingResult, tol: float) -> list[EigenvalueRecord]:
    """localize on w.rectangle, whose winding of cut w already holds: the
    noise-floor or tol cluster record, else the moments' records, else
    the records of the two halves."""
    region = w.rectangle
    if w.winding == 0:
        return []
    if w.winding < 0:
        raise RootLocalizationError(
            f"negative winding {w.winding} on {region} about center "
            f"{series.center}: not a polynomial image"
        )
    noise = _evaluation_noise(series, w.boundary_min_at)
    if region.diameter <= tol or w.boundary_min_abs < noise:
        return [_finalize(series, w)]
    recs = _accepted(series, w)
    if recs is not None:
        return recs

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
            w1 = winding_number(cut, r1)
            w2 = winding_number(cut, r2)
        except RootLocalizationError:
            continue
        if w1.winding + w2.winding != w.winding:
            continue
        out = _localize(series, cut, w1, tol) + _localize(series, cut, w2, tol)
        return sorted(out, key=lambda rec: (rec.value.real, rec.value.imag))
    if w.boundary_min_abs < 16 * noise:
        # every cut line lands in the noise skirt of an (almost) multiple zero
        return [_finalize(series, w)]
    raise RootLocalizationError(
        f"could not split {region} about center {series.center} without "
        f"landing on a zero after 8 jitters"
    )


def certify(record: EigenvalueRecord, series, tail: float,
            rect: Rectangle) -> EigenvalueRecord:
    """Rouche check: certified when |Phi_M| on the rectangle boundary exceeds
    the tail bound and the winding of Phi_M on the boundary equals the
    record's multiplicity.

    tail must bound |Phi - Phi_M| on the rectangle boundary; the count of true
    zeros inside then equals the winding of Phi_M, which must be the record's
    alone.  Between two of the winding's samples, h = WindingResult.gap
    apart at most, |Phi_M| falls by at most
    (h/2) sum_k k |a_k| R^(k-1), R the farthest corner's distance from the
    center, so that much comes off the sampled minimum before it is compared
    with the tail.  A boundary whose winding cannot be resolved certifies
    nothing.  The certificate is rigorous only up to the rounding of the
    coefficients a_k, which the tail does not bound.
    """
    if not math.isfinite(tail):
        return replace(record, certified=False)
    try:
        w = winding_number(series, rect)
    except RootLocalizationError:
        return replace(record, certified=False)
    k = np.arange(1, len(series.coeffs))
    with np.errstate(over="ignore", invalid="ignore"):  # a nan slope certifies nothing
        slope = np.sum(k * np.abs(series.coeffs[1:])
                       * rect.max_abs_from(series.center) ** (k - 1))
        floor = w.boundary_min_abs - 0.5 * w.gap * slope
    ok = floor > tail and w.winding == record.multiplicity
    return replace(record, certified=bool(ok))  # a numpy bool would not serialize
