"""Oracles independent of defectcyl and the checks that compare results to them.

J_nu comes from scipy.special.jv. Zeros come from a sign walk over jv with a
Newton polish in numpy (checked against mpmath.besseljzero by the
benchmark's tests). Well roots come from mpmath.findroot at 30 digits. No
value here is computed with defectcyl code. Tolerances and the order up to
which a miss makes a run incorrect are read from spec.json.

Each check returns None when the value passes, else a short message.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath
import numpy as np
from scipy import special

SPEC = json.loads((Path(__file__).with_name("spec.json")).read_text(encoding="utf-8"))
TOL = SPEC["tolerances"]
GATE_NU_MAX = SPEC["gate"]["nu_max"]

_WALK_STEP = 1.0  # zeros of J_nu are more than 3 apart, so one per step at most
_MP_DIGITS = 30


class Oracle:
    """Reference values for one run, cached by argument."""

    def __init__(self) -> None:
        self._zeros: dict[float, np.ndarray] = {}
        self._xi: dict[tuple[float, str], float | None] = {}

    def jv(self, nu: float, x: float) -> float:
        return float(special.jv(nu, x))

    def zeros(self, nu: float, count: int) -> np.ndarray:
        """The first ``count`` positive zeros of J_nu."""
        known = self._zeros.get(nu)
        if known is None or len(known) < count:
            known = _zeros_of_order(nu, count)
            self._zeros[nu] = known
        return known[:count]

    def zero(self, nu: float, m: int) -> float:
        return float(self.zeros(nu, m + 1)[m])

    def xi(self, c: float, level: str) -> float | None:
        """Root of F(xi) = c (ground) or G(xi) = c (excited); None if none exists."""
        key = (c, level)
        if key not in self._xi:
            self._xi[key] = _well_root(c, level)
        return self._xi[key]


def _zeros_of_order(nu: float, count: int) -> np.ndarray:
    # J_nu > 0 on (0, j_{nu,1}) and j_{nu,1} > nu, so the walk starts at nu.
    start = max(nu, 0.05)
    stop = math.pi * (0.5 * nu + count + 0.75) + 2.0 * math.pi + 2.0
    while True:
        x = np.arange(start, stop, _WALK_STEP)
        y = special.jv(nu, x)
        flips = np.nonzero(np.signbit(y[:-1]) != np.signbit(y[1:]))[0]
        if len(flips) >= count:
            break
        stop += 4.0 * math.pi
    flips = flips[:count]
    lo, hi = x[flips], x[flips + 1]
    roots = 0.5 * (lo + hi)
    for _ in range(50):
        # J_nu' = (nu/x) J_nu - J_{nu+1}
        value = special.jv(nu, roots)
        step = value / ((nu / roots) * value - special.jv(nu + 1.0, roots))
        roots = roots - step
        if np.all(np.abs(step) <= 4e-16 * roots):
            break
    if not np.all((roots >= lo) & (roots <= hi)):
        raise RuntimeError(f"zero oracle left its bracket for nu={nu}")
    return roots


def _well_root(c: float, level: str) -> float | None:
    sign = 1.0 if level == "ground" else -1.0
    if sign < 0 and c <= 0.5:
        return None
    # xi/2 <= F(xi) < xi puts the ground root in [c, 2c]; xi < G(xi) <= xi + 1/2
    # puts the excited root in [c - 1/2, c]. Bisect in floats for a start.
    lo, hi = (c, 2.0 * c) if sign > 0 else (max(c - 0.5, 0.0), c)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == 0.0:
            break
        e = math.exp(-2.0 * mid)
        profile = mid / (1.0 + e) if sign > 0 else mid / -math.expm1(-2.0 * mid)
        if profile < c:
            lo = mid
        else:
            hi = mid
    start = 0.5 * (lo + hi)
    with mpmath.workdps(_MP_DIGITS):
        target = mpmath.mpf(c)

        def f(t):
            return t / (1 + sign * mpmath.exp(-2 * t)) - target

        def df(t):
            e = mpmath.exp(-2 * t)
            d = 1 + sign * e
            return (d + sign * 2 * t * e) / (d * d)

        root = mpmath.findroot(f, mpmath.mpf(start), solver="newton", df=df)
    return float(root)


# -- checks -------------------------------------------------------------------


def coupling_c(p: dict) -> float:
    return p["z0"] * p["mass"] * p["coupling"] / (p["hbar"] * p["hbar"])


def _xi_tol(xi: float) -> float:
    return TOL["xi_abs"] + TOL["xi_rel"] * xi


def _zero_tol(o: Oracle, nu: float, q: float) -> float:
    return TOL["zero_abs"] + TOL["zero_residual"] / abs(o.jv(nu + 1.0, q))


def _square_error(k: float, root: float, root_tol: float) -> float:
    """Largest error of k * r^2 when r is within root_tol of root, plus rounding."""
    return k * (2.0 * root * root_tol + root_tol * root_tol) + TOL["rounding_rel"] * k * root * root


def _mismatch(name: str, value, expected: float, allowed: float) -> str | None:
    if not isinstance(value, float) or not math.isfinite(value):
        return f"{name}: not a finite number ({value!r})"
    if abs(value - expected) <= allowed:
        return None
    return f"{name}: {value!r} vs oracle {expected!r} (allowed {allowed:.3g})"


def check_jv(o: Oracle, nu: float, x: float, value: float) -> str | None:
    return _mismatch(f"J_{nu}({x})", value, o.jv(nu, x), TOL["bessel_j_abs"])


def check_zero(o: Oracle, nu: float, m: int, value: float) -> str | None:
    q = o.zero(nu, m)
    return _mismatch(f"zero(nu={nu}, m={m})", value, q, _zero_tol(o, nu, q))


def _exists_either_way(c: float) -> bool:
    # The package decides existence as c > 1/2 + 1e-12; this close to the
    # threshold either answer is right.
    return abs(c - 0.5) <= 1e-9


def level_expectation(o: Oracle, p: dict, level: str):
    """(xi*, energy scale) of a level: energy = -scale * xi^2. xi* None if absent."""
    scale = p["hbar"] ** 2 / (2.0 * p["mass"] * p["z0"] ** 2)
    return o.xi(coupling_c(p), level), scale


def check_state(o: Oracle, p: dict, level: str, row: dict | None) -> str | None:
    """A solved level (adapter.state_row, or a CLI row) against the oracle root.

    Checks whichever of "xi", "energy" and "h_factor" the row has.
    """
    c = coupling_c(p)
    xi, scale = level_expectation(o, p, level)
    if xi is None or row is None:
        if (xi is None and row is None) or _exists_either_way(c):
            return None
        return f"{level} level: existence mismatch at c={c!r}"
    t = _xi_tol(xi)
    h_scale = scale * p["hbar"] ** 2 / (p["mass"] * p["coupling"] ** 2)
    expected = {
        "xi": (xi, t),
        "energy": (-scale * xi * xi, _square_error(scale, xi, t)),
        "h_factor": (h_scale * xi * xi, _square_error(h_scale, xi, t)),
    }
    for key, (value, allowed) in expected.items():
        if key in row and (msg := _mismatch(f"{level} {key} at c={c!r}", row[key], value, allowed)):
            return msg
    return None


def check_critical(o: Oracle, p: dict, n: int, m: int, level: str, value: float) -> str | None:
    """critical_radius = pi hbar^2 s / (M g sqrt(2 h)), s = n/(2B) + m + 3/4, h from xi*."""
    xi, scale = level_expectation(o, p, level)
    t = _xi_tol(xi)
    if xi <= t:
        return None  # the root is below its own tolerance; the radius is undetermined
    s = n / (2.0 * p["deficit"]) + m + 0.75
    h_scale = scale * p["hbar"] ** 2 / (p["mass"] * p["coupling"] ** 2)
    amplitude = math.pi * p["hbar"] ** 2 * s / (p["mass"] * p["coupling"] * math.sqrt(2.0 * h_scale))
    expected = amplitude / xi
    allowed = expected * t / (xi - t) + TOL["rounding_rel"] * expected
    return _mismatch(f"critical_radius(n={n}, m={m}, {level})", value, expected, allowed)


def check_rows(o: Oracle, p: dict, n_max: int, m_max: int, rows: list[dict], classified: bool):
    """Spectrum rows against the oracle. Returns (gating, beyond_gate) message lists.

    A miss in a row of order nu <= GATE_NU_MAX, or in the row set or well
    levels, is gating; a miss in a higher-order row is beyond the gate.
    """
    gating: list[str] = []
    beyond: list[str] = []
    levels = {"ground": level_expectation(o, p, "ground")}
    excited = level_expectation(o, p, "excited")
    if excited[0] is not None:
        levels["excited"] = excited

    def keys(names):
        return {(n, m, lv) for n in range(n_max + 1) for m in range(m_max + 1) for lv in names}

    if _exists_either_way(coupling_c(p)):
        allowed_sets = [keys({"ground"}), keys({"ground", "excited"})]
    else:
        allowed_sets = [keys(levels)]
    got_keys = {(int(r["n"]), int(r["m"]), r["level"]) for r in rows}
    if got_keys not in allowed_sets or len(rows) != len(got_keys):
        gating.append(f"row set differs from n<={n_max}, m<={m_max}, levels {sorted(levels)}")
        return gating, beyond
    radial_k = p["hbar"] ** 2 / (2.0 * p["mass"] * p["radius"] ** 2)
    for n in range(n_max + 1):
        o.zeros(n / p["deficit"], m_max + 1)  # one walk per order, not one per row
    for row in rows:
        n, m, level = int(row["n"]), int(row["m"]), row["level"]
        nu = n / p["deficit"]
        if level not in levels:
            continue  # excited row within 1e-9 of the existence threshold
        xi, scale = levels[level]
        xt = _xi_tol(xi)
        z_expected = -scale * xi * xi
        z_allowed = _square_error(scale, xi, xt)
        level_msg = _mismatch(f"({n},{m},{level}) z_energy", row["z_energy"], z_expected, z_allowed)
        if level_msg:
            gating.append(level_msg)
            continue
        q = o.zero(nu, m)
        qt = _zero_tol(o, nu, q)
        r_expected = radial_k * q * q
        r_allowed = _square_error(radial_k, q, qt)
        t_expected = r_expected + z_expected
        t_allowed = r_allowed + z_allowed + TOL["rounding_rel"] * (r_expected - z_expected)
        msg = (
            _mismatch(f"({n},{m},{level}) nu", row["nu"], nu, TOL["rounding_rel"] * nu)
            or _mismatch(f"({n},{m},{level}) radial_energy", row["radial_energy"], r_expected, r_allowed)
            or _mismatch(f"({n},{m},{level}) total_energy", row["total_energy"], t_expected, t_allowed)
        )
        if msg is None and classified:
            margin = t_allowed + TOL["classification_band"] * r_expected
            want = "bound" if t_expected < -margin else "positive" if t_expected > margin else None
            if want is not None and row["classification"] != want:
                msg = f"({n},{m},{level}) classification {row['classification']!r}, oracle {want!r}"
        if msg:
            (gating if nu <= GATE_NU_MAX else beyond).append(msg)
    return gating, beyond


def check_compare_rows(o: Oracle, nu_max: float, m_max: int, nu_step: float, rows: list[dict]):
    """compare-approx rows (nu, m, exact, mcmahon, rel_error); all orders here are gated."""
    steps = int(round(nu_max / nu_step))
    expected = [(i * nu_step, m) for i in range(steps + 1) for m in range(m_max + 1)]
    if [(row["nu"], int(row["m"])) for row in rows] != expected:
        return f"compare-approx: rows are not (nu, m) for nu = 0, {nu_step}, ..., {steps * nu_step} and m <= {m_max}"
    for row, (nu, m) in zip(rows, expected):
        o.zeros(nu, m_max + 1)  # one walk per order, not one per row
        q = o.zero(nu, m)
        qt = _zero_tol(o, nu, q)
        mcmahon = math.pi * (0.5 * nu + m + 0.75)
        msg = (
            _mismatch(f"compare nu={nu} m={m} exact", row["exact"], q, qt)
            or _mismatch(f"compare nu={nu} m={m} mcmahon", row["mcmahon"], mcmahon, TOL["rounding_rel"] * mcmahon)
            or _mismatch(
                f"compare nu={nu} m={m} rel_error",
                row["rel_error"],
                abs(mcmahon - q) / q,
                qt / q + TOL["rounding_rel"],
            )
        )
        if msg:
            return msg
    return None
