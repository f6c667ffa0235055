"""Quasi-Newton minimization of smooth convex objectives with an
optional exact L1 penalty.

`minimize` finds argmin f(x) + l1 * ||x||_1 where the caller supplies
value and gradient of the smooth part f.  With l1 = 0 this is plain
L-BFGS with a backtracking Armijo line search.  With l1 > 0 it runs the
orthant-wise variant (OWL-QN): the search direction comes from the
two-loop recursion applied to a pseudo-gradient of the full objective,
and is restricted to coordinates that agree with the pseudo-gradient
descent direction.  Every trial point is projected onto the orthant of
the current iterate, sign(x): a coordinate that crosses zero stops at
exactly 0, where the penalty can keep it.  A coordinate at 0 needs no
projection, because the restricted direction moves it only along -pg,
the orthant that Andrew and Gao (2007) choose there.  Curvature pairs
always use gradients of the smooth part only.

A run ends in one of four ways, recorded as `OptimResult.stop`:
`CONVERGED` (the relative improvement test passed, or the
pseudo-gradient is exactly zero), `STALLED` (the orthant restriction
left no coordinate to move along), `LINE_SEARCH_FAILED` (no trial step
passed the Armijo test) or `ITERATION_CAP`.

Inner products and Euclidean norms over the variables go through `dot`,
which, unlike `np.dot`, never hands the sum to BLAS, so the iterates do
not depend on the BLAS thread count.

`minimize` works in a fixed set of vectors (current and trial point,
accepted gradient, direction, one scratch vector and, with l1 > 0, the
pseudo-gradient, sign(x) and one mask) plus the curvature pairs.  An
accepted step turns its scratch vector and spent direction into the
newest pair, and the pair it evicts supplies the next two, so after
the history fills no array of the variables' size is allocated.
Buffer ownership between `minimize`, its caller and the objective
`fun(x) -> (value, grad)`:

- `x0` belongs to the caller.  `minimize` copies it into its own point
  buffer before the first call to `fun`, never writes it, and keeps no
  reference to it.  So `x0` may be read-only, or a broadcast view such
  as `np.broadcast_to(0.0, n)` that holds no n-sized buffer at all.
- `x` belongs to `minimize`.  It is one of two point buffers that swap
  roles as steps are accepted, so `fun` must not modify it, and must
  copy it to keep it past the call.
- `grad` belongs to `fun`.  `minimize` reads it before its next call to
  `fun` and copies what it keeps, so `fun` may return the same buffer
  on every call.  A call that raises `DivergenceError`, or returns a
  non-finite value or gradient, may leave that buffer in any state.
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


def all_finite(a: np.ndarray) -> bool:
    """Whether every entry of `a` is finite, checked without an array
    of `a`'s size: a sum is non-finite whenever an entry is, so the
    entries are checked one by one only when the sum overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.add.reduce(a)
    return math.isfinite(total) or bool(np.isfinite(a).all())


def _norm(a: np.ndarray) -> float:
    return math.sqrt(dot(a, a))


def _pseudo_gradient(
    sign: np.ndarray,
    at_zero: np.ndarray,
    grad: np.ndarray,
    l1: float,
    *,
    out: np.ndarray,
    tmp: np.ndarray,
) -> None:
    """Write the steepest-descent direction generator for f + l1*|x| to `out`.

    `sign` is np.sign(x) and `at_zero` is x == 0.  Away from zero the
    penalty is differentiable; at zero the component is the one-sided
    derivative when it is a descent direction, else 0, that is grad
    minus grad clipped to [-l1, l1].
    """
    # Arithmetic over whole vectors: a masked select is several times
    # slower than a multiply when the mask is irregular.
    np.multiply(sign, l1, out=out)
    out += grad
    np.clip(grad, -l1, l1, out=tmp)
    tmp *= at_zero
    out -= tmp


def _project(
    trial: np.ndarray, sign: np.ndarray, *, tmp: np.ndarray, mask: np.ndarray
) -> None:
    """Project `trial` onto the orthant of the signs `sign` in place.

    Every coordinate whose sign is opposite to `sign`'s becomes +0.0;
    every other keeps its bits, -0.0 included.
    """
    np.multiply(trial, sign, out=tmp)
    np.less(tmp, 0, out=mask)
    # A masked copy of a scalar measured no slower than `np.putmask`,
    # index arrays from `np.flatnonzero` or a bitwise AND with a mask
    # widened to 64 bits, on the masks of real fits (0-20% set).
    np.copyto(trial, 0.0, where=mask)


def _two_loop(
    grad: np.ndarray,
    s_list: Sequence[np.ndarray],
    y_list: Sequence[np.ndarray],
    rho_list: Sequence[float],
    gamma: float,
    *,
    out: np.ndarray,
    tmp: np.ndarray,
) -> None:
    """L-BFGS two-loop recursion; writes the descent direction -H*grad to `out`.

    The pairs are given oldest first, and `gamma` is s.y / y.y of the
    newest one: the initial inverse Hessian is `gamma` times the
    identity.
    """
    q = out
    np.copyto(q, grad)
    alphas = []
    for s, y, rho in zip(reversed(s_list), reversed(y_list), reversed(rho_list)):
        a = rho * dot(s, q)
        alphas.append(a)
        np.multiply(y, a, out=tmp)
        q -= tmp
    if s_list:
        q *= gamma
    for (s, y, rho), a in zip(zip(s_list, y_list, rho_list), reversed(alphas)):
        b = rho * dot(y, q)
        np.multiply(s, a - b, out=tmp)
        q += tmp
    np.negative(q, out=q)


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
    with `STALLED`.  See the module docstring for which buffers `fun`
    may keep and reuse.
    """
    if not l1 >= 0:
        raise ValueError("l1 penalty must be >= 0")
    # The work vectors of the whole run.  The current point `x` and the
    # trial point swap buffers when a step is accepted.  An accepted
    # step writes its `s` into the scratch vector and its `y` into the
    # spent direction, and the two join the history as its newest pair.
    x = np.array(x0, dtype=float)
    del x0
    trial = np.empty_like(x)
    grad = np.empty_like(x)
    direction = np.empty_like(x)
    tmp = np.empty_like(x)
    if l1 > 0:
        pg = np.empty_like(x)
        sign = np.empty_like(x)
        mask = np.empty(x.shape, dtype=bool)
    else:
        pg = grad
    f, returned = _evaluate(fun, x)
    np.copyto(grad, returned)
    obj = f + l1 * np.abs(x, out=trial).sum()
    trace = [obj]
    # The curvature history, oldest pair first.  The pair a new one
    # evicts gives its buffers to the next scratch vector and direction.
    # `gamma` is s.y / y.y of the newest pair.
    s_list: deque[np.ndarray] = deque()
    y_list: deque[np.ndarray] = deque()
    rho_list: deque[float] = deque()
    gamma = 1.0
    stop = ITERATION_CAP
    for iteration in range(1, max_iterations + 1):
        if l1 > 0:
            np.sign(x, out=sign)
            np.equal(x, 0, out=mask)
            _pseudo_gradient(sign, mask, grad, l1, out=pg, tmp=tmp)
        if not np.any(pg):
            stop = CONVERGED
            break
        _two_loop(pg, s_list, y_list, rho_list, gamma, out=direction, tmp=tmp)
        if l1 > 0:
            # Orthant-wise step: keep only coordinates that descend.
            np.multiply(direction, pg, out=tmp)
            np.less(tmp, 0, out=mask)
            direction *= mask
        if not np.any(direction):
            # A zero step would pass the Armijo test with equality and
            # count as progress; no step here can lower the objective.
            stop = STALLED
            break
        step = 1.0 if s_list else 1.0 / _norm(direction)
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            np.multiply(direction, step, out=trial)
            np.add(x, trial, out=trial)
            if l1 > 0:
                _project(trial, sign, tmp=tmp, mask=mask)
            try:
                f_new, returned = _evaluate(fun, trial)
            except DivergenceError:
                step *= 0.5
                continue
            obj_new = f_new + l1 * np.abs(trial, out=tmp).sum()
            # The scratch vector takes s only once |trial| is summed.
            s = np.subtract(trial, x, out=tmp)
            if l1 > 0:
                accepted = obj_new <= obj + _ARMIJO_C * dot(pg, s)
            else:
                accepted = f_new <= f + _ARMIJO_C * step * dot(grad, direction)
            if accepted:
                break
            step *= 0.5
        if not accepted:
            stop = LINE_SEARCH_FAILED
            break
        y = np.subtract(returned, grad, out=direction)
        np.copyto(grad, returned)
        sy = dot(s, y)
        yy = dot(y, y)
        if sy > _CURVATURE_EPS * _norm(s) * math.sqrt(yy):
            s_list.append(s)
            y_list.append(y)
            rho_list.append(1.0 / sy)
            gamma = sy / yy
            if len(s_list) > memory:
                tmp, direction = s_list.popleft(), y_list.popleft()
                rho_list.popleft()
            else:
                tmp, direction = np.empty_like(x), np.empty_like(x)
        x, trial = trial, x
        f, obj = f_new, obj_new
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
    if not math.isfinite(value) or not all_finite(grad):
        raise DivergenceError("objective is not finite")
    return float(value), grad
