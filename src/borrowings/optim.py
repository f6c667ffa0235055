"""Quasi-Newton minimization of smooth convex objectives with an
optional exact L1 penalty.

`minimize` finds argmin f(x) + l1 * ||x||_1 where the caller supplies
value and gradient of the smooth part f.  With l1 = 0 this is plain
L-BFGS with a backtracking Armijo line search.  With l1 > 0 it runs the
orthant-wise variant: the search direction comes from the two-loop
recursion applied to a pseudo-gradient of the full objective, the
direction is restricted to coordinates that agree with the
pseudo-gradient descent direction, and every trial point is projected
back onto the orthant chosen at the current iterate, which lets
coordinates reach and keep the value exactly 0.  Curvature pairs always
use gradients of the smooth part only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

Objective = Callable[[np.ndarray], tuple[float, np.ndarray]]

_ARMIJO_C = 1e-4
_MAX_BACKTRACKS = 50
_CURVATURE_EPS = 1e-10


class DivergenceError(ArithmeticError):
    """The objective produced a non-finite value."""


@dataclass(frozen=True)
class OptimResult:
    """Final iterate plus convergence diagnostics.

    `stalled` means the orthant-wise restriction left no coordinate to
    move along, so the run stopped without meeting the convergence test.
    `trace` holds the full objective (smooth part plus L1 penalty) at
    the start point and after every accepted iteration.
    """

    x: np.ndarray
    value: float
    iterations: int
    converged: bool
    stalled: bool
    line_search_failed: bool
    trace: tuple[float, ...]


def _pseudo_gradient(x: np.ndarray, grad: np.ndarray, l1: float) -> np.ndarray:
    """Steepest-descent direction generator for f + l1*|x|.

    Away from zero the penalty is differentiable; at zero the component
    is the one-sided derivative when it is a descent direction, else 0.
    """
    pg = np.where(x > 0, grad + l1, np.where(x < 0, grad - l1, 0.0))
    at_zero = x == 0
    right = grad[at_zero] + l1
    left = grad[at_zero] - l1
    pg[at_zero] = np.where(right < 0, right, np.where(left > 0, left, 0.0))
    return pg


def _two_loop(
    grad: np.ndarray,
    s_list: list[np.ndarray],
    y_list: list[np.ndarray],
    rho_list: list[float],
) -> np.ndarray:
    """L-BFGS two-loop recursion; returns the descent direction -H*grad."""
    q = grad.copy()
    alphas = []
    for s, y, rho in zip(reversed(s_list), reversed(y_list), reversed(rho_list)):
        a = rho * np.dot(s, q)
        alphas.append(a)
        q -= a * y
    if s_list:
        s, y = s_list[-1], y_list[-1]
        q *= np.dot(s, y) / np.dot(y, y)
    for (s, y, rho), a in zip(zip(s_list, y_list, rho_list), reversed(alphas)):
        b = rho * np.dot(y, q)
        q += (a - b) * s
    return -q


def minimize(
    fun: Objective,
    x0: np.ndarray,
    *,
    l1: float = 0.0,
    memory: int = 6,
    max_iterations: int = 1000,
    delta: float = 1e-3,
    period: int = 10,
    callback: Callable[[int, float], None] | None = None,
) -> OptimResult:
    """Minimize fun(x) + l1*||x||_1 starting from x0.

    Stops when the relative improvement of the full objective over the
    last `period` accepted iterations falls below `delta`, or after
    `max_iterations` iterations.  A failed line search returns the best
    iterate found with `line_search_failed` set; a search direction that
    the orthant restriction zeroes entirely stops the run with `stalled`
    set.
    """
    if not l1 >= 0:
        raise ValueError("l1 penalty must be >= 0")
    x = np.array(x0, dtype=float)
    f, grad = _evaluate(fun, x)
    obj = f + l1 * np.abs(x).sum()
    trace = [obj]
    s_list: list[np.ndarray] = []
    y_list: list[np.ndarray] = []
    rho_list: list[float] = []
    converged = False
    stalled = False
    failed = False
    iterations = 0
    for iteration in range(1, max_iterations + 1):
        pg = _pseudo_gradient(x, grad, l1) if l1 > 0 else grad
        if not np.any(pg):
            converged = True
            break
        direction = _two_loop(pg, s_list, y_list, rho_list)
        if l1 > 0:
            # Orthant-wise step: keep only coordinates that descend.
            direction = np.where(direction * pg < 0, direction, 0.0)
            orthant = np.where(x != 0, np.sign(x), -np.sign(pg))
        if not np.any(direction):
            # A zero step would pass the Armijo test with equality and
            # count as progress; no step here can lower the objective.
            stalled = True
            break
        step = 1.0 if s_list else 1.0 / np.linalg.norm(direction)
        accepted = None
        for _ in range(_MAX_BACKTRACKS):
            if l1 > 0:
                x_new = x + step * direction
                x_new[x_new * orthant < 0] = 0.0
            else:
                x_new = x + step * direction
            try:
                f_new, grad_new = _evaluate(fun, x_new)
            except DivergenceError:
                step *= 0.5
                continue
            obj_new = f_new + l1 * np.abs(x_new).sum()
            if l1 > 0:
                sufficient = obj_new <= obj + _ARMIJO_C * np.dot(pg, x_new - x)
            else:
                sufficient = f_new <= f + _ARMIJO_C * step * np.dot(grad, direction)
            if sufficient:
                accepted = (x_new, f_new, grad_new, obj_new)
                break
            step *= 0.5
        if accepted is None:
            failed = True
            break
        x_new, f_new, grad_new, obj_new = accepted
        s = x_new - x
        y = grad_new - grad
        sy = np.dot(s, y)
        if sy > _CURVATURE_EPS * np.linalg.norm(s) * np.linalg.norm(y):
            s_list.append(s)
            y_list.append(y)
            rho_list.append(1.0 / sy)
            if len(s_list) > memory:
                s_list.pop(0)
                y_list.pop(0)
                rho_list.pop(0)
        x, f, grad, obj = x_new, f_new, grad_new, obj_new
        iterations = iteration
        trace.append(obj)
        if callback is not None:
            callback(iteration, obj)
        if iteration >= period:
            reference = trace[-period - 1]
            scale = max(abs(obj), 1e-12)
            if (reference - obj) / scale < delta:
                converged = True
                break
    return OptimResult(
        x=x,
        value=obj,
        iterations=iterations,
        converged=converged,
        stalled=stalled,
        line_search_failed=failed,
        trace=tuple(trace),
    )


def _evaluate(fun: Objective, x: np.ndarray) -> tuple[float, np.ndarray]:
    value, grad = fun(x)
    if not np.isfinite(value) or not np.all(np.isfinite(grad)):
        raise DivergenceError("objective is not finite")
    return float(value), grad
