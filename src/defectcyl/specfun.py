"""Special-function kernel: fractional-order J_nu and its zeros.

Everything here is self-contained double precision. J_nu is evaluated from
its ascending power series for moderate arguments and from the standard
large-argument cosine expansion beyond that, directly or, where the expansion
is not sharp at order nu, at two low orders followed by upward recurrence.
Zeros are located by walking sign changes and polishing them with the
safeguarded Newton solver. A table call walks each order once and polishes a
bracket only when its zero is asked for.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from enum import Enum

from .rootfind import Tolerances, refine_with_derivative

_MAX_EXPONENT = 709.0  # exp() overflows just past this
_SERIES_CUTOFF = 1e-16
_SERIES_MAX_TERMS = 500
_RECURRENCE_MAX_STEPS = 10**4  # upward steps from order frac(nu) + 1 to nu
_WALK_STEP = math.pi / 4.0  # well below the minimal spacing (~3.1) of J_nu zeros
_MAX_GRID_ROWS = 10**6  # zero_approx_table refuses larger grids
_ZERO_TOL = Tolerances(abs_x=1e-13, abs_f=1e-12, max_iter=200)
_J_TARGET = _ZERO_TOL.abs_f  # each J_nu branch past the series must meet the polish's target


class EvalMethod(Enum):
    """Which branch produced a Bessel value."""

    SERIES = "series"
    ASYMPTOTIC = "asymptotic"


class ZeroApproxMode(Enum):
    """How a Bessel zero is obtained.

    EXACT     numerically located m-th positive zero
    ANCHORED  exact first zero plus m*pi (zeros are nearly pi-spaced)
    MCMAHON   closed form pi*(nu/2 + m + 3/4), the leading McMahon estimate
    """

    EXACT = "exact"
    ANCHORED = "anchored"
    MCMAHON = "mcmahon"


@dataclass(frozen=True)
class BesselEval:
    """A J_nu evaluation, tagged with the branch and number of series terms."""

    value: float
    method: EvalMethod
    term_count: int


def _series_value(
    nu: float, q: float, beaten_at: float = math.inf
) -> tuple[float, int, float] | None:
    """Ascending power series sum((-1)^j (q/2)^(nu+2j) / (j! Gamma(j+nu+1))).

    Returns (value, term count, error estimate); the estimate is the peak
    term magnitude scaled by machine epsilon, i.e. the cancellation floor.
    Returns None instead, without summing the rest, once the estimate is
    known not to be below beaten_at.
    """
    half = 0.5 * q
    if half == 0.0:  # includes the smallest subnormal q, whose half rounds to 0
        return (1.0 if nu == 0.0 else 0.0), 1, 0.0
    try:
        log_lead = nu * math.log(half) - math.lgamma(nu + 1.0)
    except OverflowError:  # lgamma overflows from nu ~ 2.5e305
        raise OverflowError("series term exceeds the double-precision range") from None
    if log_lead > _MAX_EXPONENT:
        raise OverflowError("leading series term exceeds the double-precision range")
    term = math.exp(log_lead)
    total = term
    peak = abs(term)
    half_sq = half * half
    # Rising phase: |term| grows while the ratio r exceeds 1. The computed
    # denominators j*(j+nu) only grow, so once a computed r is <= 1 every
    # later one is too, and by monotone rounding each later |term| is at most
    # the one before: the peak is final and no later term can overflow. The
    # step that first sees r <= 1 still runs the checks, so a NaN leading
    # term still raises at j = 1.
    falling_from = _SERIES_MAX_TERMS
    for j in range(1, _SERIES_MAX_TERMS):
        r = half_sq / (j * (j + nu))
        term *= -r
        if not math.isfinite(term):
            raise OverflowError("series term exceeds the double-precision range")
        total += term
        size = abs(term)
        if size > peak:
            peak = size
        if size <= _SERIES_CUTOFF * abs(total):
            break
        if r <= 1.0:
            falling_from = j + 1
            break
    err = peak * 2.3e-16
    if not err < beaten_at:
        return None
    for j in range(falling_from, _SERIES_MAX_TERMS):
        term *= -half_sq / (j * (j + nu))
        total += term
        if abs(term) <= _SERIES_CUTOFF * abs(total):
            break
    return total, j + 1, err  # terms 0..j were summed


def _asymptotic_value(nu: float, q: float) -> tuple[float, float]:
    """Large-argument cosine expansion with adaptive truncation.

    J_nu(q) ~ sqrt(2/(pi q)) [cos(w) P - sin(w) Q], w = q - nu pi/2 - pi/4,
    summing the a_k(nu)/q^k corrections while they keep shrinking. Returns
    (value, error estimate); the estimate is the first neglected term.
    """
    mu = 4.0 * nu * nu
    omega = q - nu * math.pi / 2.0 - math.pi / 4.0
    p_sum = 1.0
    q_sum = 0.0
    u = 1.0
    prev = math.inf
    tail = 0.0
    eight_q = 8.0 * q  # exact, so k * eight_q rounds to the same double as 8k * q
    for k in range(1, 40):
        odd = 2 * k - 1
        u *= (mu - odd * odd) / (k * eight_q)
        if u == 0.0:
            tail = 0.0
            break
        size = abs(u)
        if size >= prev:  # divergence onset; best truncation is before this term
            tail = size
            break
        phase = k & 3
        if phase == 1:
            q_sum += u
        elif phase == 2:
            p_sum -= u
        elif phase == 3:
            q_sum -= u
        else:
            p_sum += u
        prev = tail = size
        if size < 1e-17:
            break
    amplitude = math.sqrt(2.0 / (math.pi * q))
    value = amplitude * (math.cos(omega) * p_sum - math.sin(omega) * q_sum)
    return value, amplitude * tail


def _upward_recurrence(nu: float, q: float) -> float:
    """J_nu(q) for nu >= 1 from the large-argument expansion at orders frac(nu)
    and frac(nu) + 1, then J_{k+1} = (2k/q) J_k - J_{k-1}; stable for nu < q."""
    whole = int(nu)
    if whole - 1 > _RECURRENCE_MAX_STEPS:
        raise OverflowError(f"order {nu!r} needs more than {_RECURRENCE_MAX_STEPS} recurrence steps")
    frac = nu - whole
    lower, upper = _asymptotic_value(frac, q)[0], _asymptotic_value(frac + 1.0, q)[0]
    for k in range(1, whole):
        lower, upper = upper, (2.0 * (frac + k) / q) * upper - lower
    return upper


def bessel_j(nu: float, q: float) -> BesselEval:
    """Evaluate J_nu(q) for nu >= 0, q >= 0.

    The power series is used for q <= max(12, nu). Beyond that each cheap
    branch runs only if its own error estimate meets the zero polish's
    residual target (1e-12): the series up to q = nu + 8, then the
    large-argument expansion at order nu. Otherwise that expansion at orders
    frac(nu) and frac(nu) + 1 feeds upward recurrence to nu, stable because
    every order stays below q. Above order ~30 the series at q <= nu loses
    digits (4e-7 at nu = 50).
    """
    if not (nu >= 0) or not math.isfinite(nu):
        raise ValueError("nu must be non-negative and finite")
    if not (q >= 0) or not math.isfinite(q):
        raise ValueError("q must be non-negative and finite")
    if q <= 12.0 or q <= nu:
        value, count, _ = _series_value(nu, q)
        return BesselEval(value=value, method=EvalMethod.SERIES, term_count=count)
    if q <= nu + 8.0:
        series = _series_value(nu, q, beaten_at=_J_TARGET)
        if series is not None:
            return BesselEval(value=series[0], method=EvalMethod.SERIES, term_count=series[1])
    value, err = _asymptotic_value(nu, q)
    if not err <= _J_TARGET and nu >= 1.0:  # below order 1 the recurrence takes no step
        value = _upward_recurrence(nu, q)
    return BesselEval(value=value, method=EvalMethod.ASYMPTOTIC, term_count=0)


def _j(nu: float, q: float) -> float:
    return bessel_j(nu, q).value


def bessel_j_derivative(nu: float, q: float) -> float:
    """dJ_nu/dq via the downward-free recurrence J' = (nu/q) J_nu - J_{nu+1}."""
    if not (q > 0) or not math.isfinite(q):
        raise ValueError("bessel_j_derivative requires q > 0")
    return (nu / q) * _j(nu, q) - _j(nu + 1.0, q)


class _ZeroWalk:
    """The pi/4 sign-change walk of one order, continued on demand.

    J_nu is positive on (0, first zero) and its zeros are simple and spaced
    by at least ~3.1, so a pi/4 walk starting below the first zero cannot
    skip any. The walk records every bracket it passes; a bracket is polished
    with the safeguarded Newton solver only when its zero is asked for.
    """

    def __init__(self, nu: float) -> None:
        # J_nu > 0 below its first zero (DLMF 10.21(i)), which lies at least ~2.4, more
        # than a step, above the start; so only the start's sign is ever read.
        self.nu = nu
        self.point = (max(nu, 1e-3), 1.0)
        self.brackets: list[tuple[float, float, float, float]] = []  # (lo, hi, J(lo), J(hi))
        self.roots: dict[int, float] = {}

    def zero(self, m: int) -> float:
        """The (m+1)-th positive zero, walking and polishing only as needed."""
        if m not in self.roots:
            self.roots[m] = self._polish(self._bracket(m))
        return self.roots[m]

    def _bracket(self, m: int) -> tuple[float, float, float, float]:
        # The target zero sits below the McMahon estimate for orders above 1/2
        # and at most ~0.05 above it for smaller orders, so this cap is only
        # crossed if the walk is broken.
        cap = math.pi * (0.5 * self.nu + m + 0.75) + 2.0 * math.pi
        while len(self.brackets) <= m and self.point[0] < cap:
            self._step()
        if len(self.brackets) <= m or self.brackets[m][0] >= cap:
            raise RuntimeError(f"zero not bracketed for nu={self.nu}, m={m} (internal error)")
        return self.brackets[m]

    def _step(self) -> None:
        # Evaluate before touching any state, so a raise leaves the walk as it was.
        x, fx = self.point
        x_next = x + _WALK_STEP
        f_next = _j(self.nu, x_next)
        if f_next == 0.0 or (f_next > 0) != (fx > 0):
            self.brackets.append((x, x_next, fx, f_next))
            if f_next == 0.0:
                # keep only the sign: the next zero is steps away, so this never seeds J(lo)
                f_next = -fx
        self.point = (x_next, f_next)

    def _polish(self, bracket: tuple[float, float, float, float]) -> float:
        lo, hi, f_lo, f_hi = bracket
        if f_hi == 0.0:
            return hi
        nu = self.nu
        # J_nu by abscissa, from the walk's ends on; J' = (nu/t) J_nu - J_{nu+1} reuses it.
        known = {lo: f_lo, hi: f_hi}

        def f(t: float) -> float:
            value = known.get(t)
            if value is None:
                value = known[t] = _j(nu, t)
            return value

        return refine_with_derivative(
            f=f,
            df=lambda t: (nu / t) * f(t) - _j(nu + 1.0, t),
            seed=0.5 * (lo + hi),
            guard=(lo, hi),
            tol=_ZERO_TOL,
        ).root


# One walk per order, shared by the zeros of a single top-level call.
_WALKS: ContextVar[dict[float, _ZeroWalk] | None] = ContextVar("_WALKS", default=None)


@contextmanager
def _sharing_zero_walks() -> Iterator[None]:
    """Share one walk per order among the zeros asked for inside the block."""
    token = _WALKS.set({})
    try:
        yield
    finally:
        _WALKS.reset(token)


def _exact_zero(nu: float, m: int) -> float:
    """The (m+1)-th positive zero of J_nu, from the scope's walk or a fresh one."""
    walks = _WALKS.get()
    if walks is None:
        return _ZeroWalk(nu).zero(m)
    walk = walks.get(nu)
    if walk is None:
        walk = walks[nu] = _ZeroWalk(nu)
    return walk.zero(m)


def bessel_zero(nu: float, m: int, mode: ZeroApproxMode = ZeroApproxMode.EXACT) -> float:
    """The (m+1)-th positive zero of J_nu, exactly or by a closed-form estimate."""
    if not (nu >= 0) or not math.isfinite(nu):
        raise ValueError("nu must be non-negative and finite")
    if not isinstance(m, int) or m < 0:
        raise ValueError("m must be a non-negative integer")
    if mode is ZeroApproxMode.MCMAHON:
        return math.pi * (0.5 * nu + m + 0.75)
    if mode is ZeroApproxMode.ANCHORED:
        return _exact_zero(nu, 0) + m * math.pi
    return _exact_zero(nu, m)


def zero_approx_table(
    nu_max: float, m_max: int, nu_step: float = 0.5
) -> list[tuple[float, int, float, float, float]]:
    """Rows (nu, m, exact, mcmahon, rel_error) over a (nu, m) grid.

    rel_error = |mcmahon - exact| / exact quantifies how well the closed-form
    estimate tracks the numerically located zeros.
    """
    if not (nu_max >= 0 and nu_step > 0):
        raise ValueError("nu_max must be >= 0 and nu_step > 0")
    if not isinstance(m_max, int) or m_max < 0:
        raise ValueError("m_max must be a non-negative integer")
    steps = nu_max / nu_step
    # "not <" also catches an inf or NaN ratio, which round() cannot take.
    if not steps < _MAX_GRID_ROWS or (round(steps) + 1) * (m_max + 1) > _MAX_GRID_ROWS:
        raise ValueError(f"nu_step is too small: the grid would hold more than {_MAX_GRID_ROWS} rows")
    rows = []
    with _sharing_zero_walks():
        for i in range(round(steps) + 1):
            nu = i * nu_step
            for m in range(m_max + 1):
                exact = bessel_zero(nu, m, ZeroApproxMode.EXACT)
                approx = bessel_zero(nu, m, ZeroApproxMode.MCMAHON)
                rows.append((nu, m, exact, approx, abs(approx - exact) / exact))
    return rows
