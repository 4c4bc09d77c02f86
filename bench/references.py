"""Reference eigenvalues computed apart from slpencil (this module never imports it).

* Damped string y'' = 2 a(x) lambda y + lambda^2 y, y(0) = y(1) = 0:
  - constant damping a = d has the closed form -d +- i sqrt(n^2 pi^2 - d^2);
  - any damping is solved by shooting: y(0) = 0, y'(0) = 1 is integrated to
    x = 1 with scipy's DOP853, together with d/dlambda of the state, and
    Newton's method drives y(1; lambda) to zero.
* Zakharov-Shabat v1' = lambda v1 + Q v2, v2' = -lambda v2 - Q v1 on [-1, 1]
  with the Klaus-Shaw potential Q = s (-1 + 3 pi/4 + 3 x^2): shooting from
  v(-1) = (1, 0); eigenvalues are the zeros of v1(1; lambda) with Re > 0.

Zeros are searched for from a grid of starting points and counted by the
argument principle on the boundary of the search rectangle, so a missed zero
shows up as a count mismatch instead of passing silently.

Run as a script to regenerate the stored x^2-string reference and to run the
self-checks, or to print Klaus-Shaw eigenvalues:

    python3 bench/references.py                # checks, then writes the x^2 file
    python3 bench/references.py --check        # checks only
    python3 bench/references.py --zs 0.956 0.967
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
X2_REFERENCE = HERE / "data" / "string_x2_reference.json"
X2_IM_RANGE = (-130.0, 40.0)  # covers string_x2_chain's band with room to spare

RTOL = 1e-13
COUNT_RTOL = 1e-8
ATOL = 1e-16
NEWTON_STEPS = 30
SAME_ROOT = 1e-9  # relative distance under which two Newton limits are one zero


class ReferenceError(RuntimeError):
    """A reference computation failed one of its own checks."""


# ---------------------------------------------------------------------------
# damped string


def string_closed_form(damping: float, n_max: int) -> list[complex]:
    """All modes n = 1..n_max of the constant-damping string, both signs."""
    out = []
    for n in range(1, n_max + 1):
        w = math.sqrt((n * math.pi) ** 2 - damping**2)
        out += [complex(-damping, w), complex(-damping, -w)]
    return out


def _shoot(rhs, span: tuple[float, float], start: np.ndarray, k: int, rtol: float
           ) -> tuple[np.ndarray, np.ndarray]:
    """Integrate a batch of k shooting problems whose state is stacked as
    [solution components..., their lambda-derivatives...]; return the first
    solution component and its lambda-derivative at the end of the span."""
    from scipy.integrate import solve_ivp

    sol = solve_ivp(rhs, span, start, method="DOP853", rtol=rtol, atol=ATOL,
                    t_eval=[span[1]])
    if not sol.success:
        raise ReferenceError(f"shooting failed: {sol.message}")
    end = sol.y[:, -1]
    return end[:k], end[2 * k:3 * k]


def string_shoot(lams: np.ndarray, damping_coeff: float, power: int,
                 rtol: float = RTOL) -> tuple[np.ndarray, np.ndarray]:
    """(y(1; lambda), dy(1; lambda)/dlambda) for a(x) = damping_coeff * x**power,
    from y(0) = 0, y'(0) = 1."""
    lams = np.asarray(lams, dtype=np.complex128)
    k = lams.size

    def rhs(x, st):
        y, yp, z, zp = st[:k], st[k:2 * k], st[2 * k:3 * k], st[3 * k:]
        a = damping_coeff * x**power
        w = 2.0 * a * lams + lams * lams
        return np.concatenate([yp, w * y, zp, (2.0 * a + 2.0 * lams) * y + w * z])

    start = np.zeros(4 * k, dtype=np.complex128)
    start[k:2 * k] = 1.0
    return _shoot(rhs, (0.0, 1.0), start, k, rtol)


def zs_shoot(lams: np.ndarray, s: float, rtol: float = RTOL
             ) -> tuple[np.ndarray, np.ndarray]:
    """(v1(1; lambda), dv1(1; lambda)/dlambda) for the Klaus-Shaw potential,
    from v(-1) = (1, 0)."""
    lams = np.asarray(lams, dtype=np.complex128)
    k = lams.size

    def rhs(x, st):
        v1, v2, w1, w2 = st[:k], st[k:2 * k], st[2 * k:3 * k], st[3 * k:]
        q = s * (-1.0 + 0.75 * math.pi + 3.0 * x * x)
        return np.concatenate([lams * v1 + q * v2, -lams * v2 - q * v1,
                               lams * w1 + q * w2 + v1, -lams * w2 - q * w1 - v2])

    start = np.zeros(4 * k, dtype=np.complex128)
    start[:k] = 1.0
    return _shoot(rhs, (-1.0, 1.0), start, k, rtol)


# ---------------------------------------------------------------------------
# zeros of a shooting function in a rectangle


def newton(fun, starts: np.ndarray, known: list[complex] = (),
           far: float = math.inf) -> np.ndarray:
    """Vectorized Newton, deflated by the zeros in known; iterates that leave
    |z| < far or do not settle come back as nan."""
    z = np.asarray(starts, dtype=np.complex128).copy()
    known = np.asarray(known, dtype=np.complex128)
    live = np.ones(z.size, dtype=bool)
    done = np.zeros(z.size, dtype=bool)
    for _ in range(NEWTON_STEPS):
        live &= np.abs(z) < far
        idx = np.flatnonzero(live & ~done)
        if idx.size == 0:
            break
        f, df = fun(z[idx])
        with np.errstate(divide="ignore", invalid="ignore"):
            log_deriv = df / f - np.sum(1.0 / (z[idx, None] - known[None, :]), axis=1)
            step = 1.0 / log_deriv
        ok = np.isfinite(step) & (f != 0)
        live[idx[~ok]] = False
        step = np.where(ok, step, 0.0)
        z[idx] -= step
        done[idx[np.abs(step) <= 1e-11 * np.maximum(np.abs(z[idx]), 1.0)]] = True
        done[idx[f == 0]] = True
    z[~done] = np.nan
    return z


def _boundary(rect, n: int) -> np.ndarray:
    re0, re1, im0, im1 = rect
    w, h = re1 - re0, im1 - im0
    counts = [max(8, round(n * side / (2 * (w + h)))) for side in (w, h, w, h)]
    corners = [complex(re0, im0), complex(re1, im0), complex(re1, im1), complex(re0, im1)]
    segs = []
    for k in range(4):
        a, b = corners[k], corners[(k + 1) % 4]
        segs.append(a + (b - a) * np.linspace(0.0, 1.0, counts[k], endpoint=False))
    return np.concatenate(segs)


def winding(fun, rect, n: int = 200, max_rounds: int = 40) -> int:
    """Zeros of fun inside rect by the argument principle.

    Any boundary segment whose argument turns by more than pi/4 is split in
    eight until none does, so zeros close to the boundary are still counted.
    Only the argument matters here, so the shooting runs at COUNT_RTOL.
    """
    pts = _boundary(rect, n)
    vals = fun(pts, COUNT_RTOL)[0]
    for _ in range(max_rounds):
        nxt = np.roll(vals, -1)
        bad = np.flatnonzero(np.abs(np.angle(nxt / vals)) > math.pi / 4)
        if bad.size == 0:
            total = float(np.sum(np.angle(np.roll(vals, -1) / vals)))
            count = round(total / (2 * math.pi))
            if abs(total - 2 * math.pi * count) > 1e-6:
                raise ReferenceError(f"winding {total} is not a multiple of 2 pi")
            return count
        nxt_pts = np.roll(pts, -1)
        t = np.arange(1, 8) / 8.0
        new = (pts[bad, None] + (nxt_pts[bad] - pts[bad])[:, None] * t).ravel()
        new_vals = fun(new, COUNT_RTOL)[0]
        if np.any(new_vals == 0):
            raise ReferenceError("shooting function vanishes on the contour")
        order = np.argsort(np.concatenate([np.arange(pts.size),
                                           np.repeat(bad, 7) + np.tile(t, bad.size)]),
                           kind="stable")
        pts = np.concatenate([pts, new])[order]
        vals = np.concatenate([vals, new_vals])[order]
    raise ReferenceError("argument increments did not resolve on the contour")


def zeros_in(fun, rect, starts: np.ndarray, max_passes: int = 4) -> list[complex]:
    """Every zero of fun inside rect.

    The argument principle gives the count; Newton from the starting points
    finds the zeros, deflating the ones already found on each further pass.
    """
    count = winding(fun, rect)
    re0, re1, im0, im1 = rect
    far = 2.0 * max(abs(v) for v in rect)
    found: list[complex] = []
    for _ in range(max_passes):
        if len(found) == count:
            break
        for z in newton(fun, starts, found, far):
            if not (np.isfinite(z) and re0 < z.real < re1 and im0 < z.imag < im1):
                continue
            if all(abs(z - y) > SAME_ROOT * max(abs(z), 1.0) for y in found):
                found.append(complex(z))
    if count != len(found):
        raise ReferenceError(
            f"{len(found)} zeros found by Newton but the argument principle "
            f"counts {count} in {rect}")
    return sorted(found, key=lambda z: (round(z.real, 6), z.imag))


# ---------------------------------------------------------------------------
# problem-level references


ZS_REGION = (1e-6, 2.2, -1.0, 1.0)  # the search_region of klaus_shaw_sweep.json


def zs_klaus_shaw(s: float) -> list[complex]:
    """ZS eigenvalues of the Klaus-Shaw potential inside the sweep's region."""
    re = np.linspace(0.05, 2.05, 5)
    im = np.linspace(-0.8, 0.8, 5)
    starts = (re[:, None] + 1j * im[None, :]).ravel()
    zeros = zeros_in(lambda z, rtol=RTOL: zs_shoot(z, s, rtol), ZS_REGION, starts)
    check_conjugate_closed(zeros, f"Klaus-Shaw s={s}")
    return zeros


def string_x2_modes(im_lo: float, im_hi: float) -> list[complex]:
    """Modes of the x^2-damped string with im_lo < Im lambda < im_hi.

    All modes lie in -1 <= Re lambda <= 0 (the Rayleigh quotient of the
    quadratic pencil), so the rectangle [-1.5, 0.5] x (im_lo, im_hi) holds
    them all.  Newton starts from the asymptotic -1/3 + i n pi.
    """
    n_max = int(max(abs(im_lo), abs(im_hi)) / math.pi) + 2
    starts = np.array([complex(-1.0 / 3.0, sgn * n * math.pi)
                       for n in range(1, n_max + 1) for sgn in (1, -1)])
    rect = (-1.5, 0.5, im_lo, im_hi)
    return zeros_in(lambda z, rtol=RTOL: string_shoot(z, 1.0, 2, rtol), rect, starts)


def check_conjugate_closed(zeros: list[complex], label: str, rel: float = 1e-9):
    """Real coefficients give a spectrum closed under conjugation."""
    for z in zeros:
        if min(abs(z.conjugate() - y) for y in zeros) > rel * max(abs(z), 1.0):
            raise ReferenceError(f"{label}: {z} has no conjugate partner")


def check_x2(modes: list[complex], im_range: tuple[float, float]):
    """Conjugate pairs where the range is symmetric, and Re -> -1/3."""
    half = min(abs(v) for v in im_range) - 1.0
    check_conjugate_closed([z for z in modes if abs(z.imag) < half], "x^2 string")
    check_x2_asymptote(modes)


def check_x2_asymptote(modes: list[complex]):
    """High x^2 modes approach Re lambda = -int_0^1 x^2 dx = -1/3."""
    upper = sorted((z for z in modes if z.imag > 0), key=lambda z: z.imag)
    gaps = [abs(z.real + 1.0 / 3.0) for z in upper]
    if len(gaps) < 4 or not gaps[-1] < gaps[0] or gaps[-1] > 0.01:
        raise ReferenceError(f"x^2 modes do not approach Re = -1/3: {gaps}")


def self_check(verbose: bool = False):
    """Shooting must reproduce the closed form; x^2 modes must behave."""
    exact = np.array(string_closed_form(1.0, 8))
    shot = newton(lambda z: string_shoot(z, 1.0, 0), exact * (1 + 1e-3))
    err = float(np.max(np.abs(shot - exact) / np.abs(exact)))
    if not err < 1e-12:
        raise ReferenceError(f"string shooting misses the closed form by {err:.2e}")
    if verbose:
        print(f"string shooting vs closed form, n <= 8: max rel error {err:.2e}")
    modes = string_x2_modes(-40.0, 40.0)
    check_x2(modes, (-40.0, 40.0))
    if verbose:
        print(f"x^2 string: {len(modes)} modes in |Im| < 40, conjugate-closed, "
              f"Re -> -1/3")


def write_x2_reference(im_lo: float, im_hi: float, path: pathlib.Path = X2_REFERENCE):
    modes = string_x2_modes(im_lo, im_hi)
    check_x2(modes, (im_lo, im_hi))
    head = json.dumps({
        "problem": "y'' = 2 x^2 lambda y + lambda^2 y on [0, 1], y(0) = y(1) = 0",
        "method": "DOP853 shooting, rtol 1e-13, Newton on y(1; lambda); "
                  "count checked by the argument principle",
        "command": "python3 bench/references.py",
        "im_range": [im_lo, im_hi],
    }, indent=1)
    rows = ",\n".join(f"  [{z.real!r}, {z.imag!r}]" for z in modes)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(head[:-2] + ',\n "modes": [\n' + rows + "\n ]\n}\n")
    return modes


def load_x2_reference() -> tuple[tuple[float, float], list[complex]]:
    doc = json.loads(X2_REFERENCE.read_text())
    modes = [complex(re, im) for re, im in doc["modes"]]
    check_x2(modes, doc["im_range"])
    return tuple(doc["im_range"]), modes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--check", action="store_true", help="self-checks only")
    ap.add_argument("--zs", type=float, nargs="+", metavar="S",
                    help="print the Klaus-Shaw eigenvalues for these s as JSON")
    args = ap.parse_args(argv)
    if args.zs:
        print(json.dumps({repr(s): [[z.real, z.imag] for z in zs_klaus_shaw(s)]
                          for s in args.zs}))
        return 0
    self_check(verbose=True)
    if not args.check:
        modes = write_x2_reference(*X2_IM_RANGE)
        print(f"wrote {len(modes)} modes to {X2_REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
