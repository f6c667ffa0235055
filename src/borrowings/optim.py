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

A run ends in one of four ways, recorded as `OptimResult.stop`:
`CONVERGED` (the relative improvement test passed, or the
pseudo-gradient is exactly zero), `STALLED` (the orthant restriction
left no coordinate to move along), `LINE_SEARCH_FAILED` (no trial step
passed the Armijo test) or `ITERATION_CAP`.

Inner products and Euclidean norms over the variables go through `dot`,
which, unlike `np.dot`, never hands the sum to BLAS, so the iterates do
not depend on the BLAS thread count.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

Objective = Callable[[np.ndarray], tuple[float, np.ndarray]]

_ARMIJO_C = 1e-4
_MAX_BACKTRACKS = 50
_CURVATURE_EPS = 1e-10


class DivergenceError(ArithmeticError):
    """The objective produced a non-finite value."""


# How a run ended: the values of `OptimResult.stop`.
CONVERGED = "converged"
STALLED = "stalled"
LINE_SEARCH_FAILED = "line search failed"
ITERATION_CAP = "stopped at the iteration cap"


@dataclass(frozen=True)
class OptimResult:
    """Final iterate, how the run ended, and the objective trace.

    `stop` is one of `CONVERGED`, `STALLED`, `LINE_SEARCH_FAILED` and
    `ITERATION_CAP`.  `trace` holds the full objective (smooth part plus
    L1 penalty) at the start point and after every accepted iteration,
    so `value` is its last entry and `iterations` its length less one.
    """

    x: np.ndarray
    stop: str
    trace: tuple[float, ...]

    @property
    def value(self) -> float:
        return self.trace[-1]

    @property
    def iterations(self) -> int:
        return len(self.trace) - 1


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product of two vectors, summed in a fixed order.

    `np.dot` hands long vectors to BLAS, which splits the sum across
    its threads, so the result bits depend on the thread count.
    `einsum` without `optimize` never calls BLAS.
    """
    return float(np.einsum("i,i", a, b))


def _norm(a: np.ndarray) -> float:
    return math.sqrt(dot(a, a))


def _pseudo_gradient(x: np.ndarray, grad: np.ndarray, l1: float) -> np.ndarray:
    """Steepest-descent direction generator for f + l1*|x|.

    Away from zero the penalty is differentiable; at zero the component
    is the one-sided derivative when it is a descent direction, else 0,
    that is grad minus grad clipped to [-l1, l1].
    """
    # Arithmetic over whole vectors: a masked select is several times
    # slower than a multiply when the mask is irregular.
    pg = np.sign(x)
    pg *= l1
    pg += grad
    at_zero = np.clip(grad, -l1, l1)
    at_zero *= x == 0
    pg -= at_zero
    return pg


def _two_loop(
    grad: np.ndarray,
    s_list: Sequence[np.ndarray],
    y_list: Sequence[np.ndarray],
    rho_list: Sequence[float],
) -> np.ndarray:
    """L-BFGS two-loop recursion; returns the descent direction -H*grad.

    The pairs are given oldest first.
    """
    q = grad.copy()
    alphas = []
    for s, y, rho in zip(reversed(s_list), reversed(y_list), reversed(rho_list)):
        a = rho * dot(s, q)
        alphas.append(a)
        q -= a * y
    if s_list:
        s, y = s_list[-1], y_list[-1]
        q *= dot(s, y) / dot(y, y)
    for (s, y, rho), a in zip(zip(s_list, y_list, rho_list), reversed(alphas)):
        b = rho * dot(y, q)
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
    iterate found, with `stop` set to `LINE_SEARCH_FAILED`; a search
    direction that the orthant restriction zeroes entirely ends the run
    with `STALLED`.
    """
    if not l1 >= 0:
        raise ValueError("l1 penalty must be >= 0")
    x = np.array(x0, dtype=float)
    f, grad = _evaluate(fun, x)
    obj = f + l1 * np.abs(x).sum()
    trace = [obj]
    # The curvature history, oldest pair first.  Each iteration writes
    # its pair into the spare buffers; an accepted pair joins the
    # history, and the pair it evicts becomes the spare.
    s_list: deque[np.ndarray] = deque()
    y_list: deque[np.ndarray] = deque()
    rho_list: deque[float] = deque()
    spare: tuple[np.ndarray, np.ndarray] | None = None
    stop = ITERATION_CAP
    for iteration in range(1, max_iterations + 1):
        pg = _pseudo_gradient(x, grad, l1) if l1 > 0 else grad
        if not np.any(pg):
            stop = CONVERGED
            break
        direction = _two_loop(pg, s_list, y_list, rho_list)
        if l1 > 0:
            # Orthant-wise step: keep only coordinates that descend.
            # Trial points keep the sign of x, or of -pg where x is 0.
            direction *= direction * pg < 0
            orthant = np.sign(x) - (x == 0) * np.sign(pg)
        if not np.any(direction):
            # A zero step would pass the Armijo test with equality and
            # count as progress; no step here can lower the objective.
            stop = STALLED
            break
        if spare is None:
            spare = (np.empty_like(x), np.empty_like(x))
        s, y = spare
        step = 1.0 if s_list else 1.0 / _norm(direction)
        accepted = None
        for _ in range(_MAX_BACKTRACKS):
            x_new = x + step * direction
            if l1 > 0:
                x_new[x_new * orthant < 0] = 0.0
            try:
                f_new, grad_new = _evaluate(fun, x_new)
            except DivergenceError:
                step *= 0.5
                continue
            obj_new = f_new + l1 * np.abs(x_new).sum()
            np.subtract(x_new, x, out=s)
            if l1 > 0:
                sufficient = obj_new <= obj + _ARMIJO_C * dot(pg, s)
            else:
                sufficient = f_new <= f + _ARMIJO_C * step * dot(grad, direction)
            if sufficient:
                accepted = (x_new, f_new, grad_new, obj_new)
                break
            step *= 0.5
        if accepted is None:
            stop = LINE_SEARCH_FAILED
            break
        x_new, f_new, grad_new, obj_new = accepted
        np.subtract(grad_new, grad, out=y)
        sy = dot(s, y)
        if sy > _CURVATURE_EPS * _norm(s) * _norm(y):
            s_list.append(s)
            y_list.append(y)
            rho_list.append(1.0 / sy)
            spare = None
            if len(s_list) > memory:
                spare = (s_list.popleft(), y_list.popleft())
                rho_list.popleft()
        x, f, grad, obj = x_new, f_new, grad_new, obj_new
        trace.append(obj)
        if callback is not None:
            callback(iteration, obj)
        if iteration >= period:
            reference = trace[-period - 1]
            scale = max(abs(obj), 1e-12)
            if (reference - obj) / scale < delta:
                stop = CONVERGED
                break
    return OptimResult(x=x, stop=stop, trace=tuple(trace))


def _evaluate(fun: Objective, x: np.ndarray) -> tuple[float, np.ndarray]:
    value, grad = fun(x)
    if not np.isfinite(value) or not np.all(np.isfinite(grad)):
        raise DivergenceError("objective is not finite")
    return float(value), grad
