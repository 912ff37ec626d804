"""Bracketed scalar root finding: a Newton iteration safeguarded by bisection.

The solver keeps a sign-changing bracket at every step, is deterministic
for identical inputs, and reports the final bracket alongside the root.
Stateless and safe to call from multiple threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Tolerances:
    """Stopping control: abscissa width, residual magnitude, iteration cap."""

    abs_x: float = 1e-12
    abs_f: float = 1e-10
    max_iter: int = 200

    def __post_init__(self) -> None:
        if not (self.abs_x > 0 and math.isfinite(self.abs_x)):
            raise ValueError("abs_x must be positive")
        if not (self.abs_f > 0 and math.isfinite(self.abs_f)):
            raise ValueError("abs_f must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


DEFAULT_TOL = Tolerances()


@dataclass(frozen=True)
class RootResult:
    """Converged root with residual, iteration count and enclosing bracket."""

    root: float
    residual: float
    iterations: int
    bracket: tuple[float, float]


def _check_finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{name} is not finite")
    return value


def refine_with_derivative(
    f: Callable[[float], float],
    df: Callable[[float], float],
    seed: float,
    guard: tuple[float, float],
    tol: Tolerances = DEFAULT_TOL,
) -> RootResult:
    """Newton iteration from ``seed``, safeguarded by bisection on ``guard``.

    A Newton step is accepted only when it stays strictly inside the current
    bracket and decreases the residual; otherwise the bracket is bisected.
    Either way every iterate tightens the sign-changing bracket, so the
    result matches what plain bisection would find, at a tighter residual.
    """
    lo, hi = guard
    if not (lo < hi):
        raise ValueError("guard interval is empty")
    if not (lo <= seed <= hi):
        raise ValueError("seed must lie inside the guard interval")
    flo = _check_finite("f(lo)", f(lo))
    if flo == 0.0:
        return RootResult(root=lo, residual=0.0, iterations=0, bracket=(lo, hi))
    fhi = _check_finite("f(hi)", f(hi))
    if fhi == 0.0:
        return RootResult(root=hi, residual=0.0, iterations=0, bracket=(lo, hi))
    if (flo > 0) == (fhi > 0):
        raise ValueError(f"no sign change on [{lo}, {hi}]")

    x = seed
    fx = f(x)
    if fx == 0.0:
        return RootResult(root=x, residual=0.0, iterations=0, bracket=(lo, hi))
    if (fx > 0) == (flo > 0):
        lo, flo = x, fx
    else:
        hi, fhi = x, fx

    for iteration in range(1, tol.max_iter + 1):
        x_new = None
        slope = df(x)
        if slope != 0.0 and math.isfinite(slope):
            candidate = x - fx / slope
            if lo < candidate < hi:
                fc = f(candidate)
                if abs(fc) < abs(fx):
                    x_new, f_new = candidate, fc
        if x_new is None:
            x_new = 0.5 * (lo + hi)
            f_new = f(x_new)

        if f_new == 0.0:
            return RootResult(
                root=x_new, residual=0.0, iterations=iteration, bracket=(x_new, x_new)
            )
        if (f_new > 0) == (flo > 0):
            lo, flo = x_new, f_new
        else:
            hi, fhi = x_new, f_new
        x, fx = x_new, f_new
        if abs(fx) <= tol.abs_f or (hi - lo) <= tol.abs_x:
            return RootResult(
                root=x, residual=abs(fx), iterations=iteration, bracket=(lo, hi)
            )
    raise RuntimeError(f"max iterations ({tol.max_iter}) exceeded in refine_with_derivative")
