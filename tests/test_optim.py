import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_minimize

from borrowings import optim
from borrowings.optim import (
    CONVERGED,
    ITERATION_CAP,
    STALLED,
    DivergenceError,
    minimize,
)


def quadratic(center):
    """f(x) = 0.5 * ||x - center||^2, gradient x - center."""
    center = np.asarray(center, dtype=float)

    def fun(x):
        d = x - center
        return 0.5 * float(np.dot(d, d)), d

    return fun


class TestSmooth:
    def test_reaches_quadratic_minimum(self):
        center = np.array([3.0, -2.0, 0.5])
        result = minimize(quadratic(center), np.zeros(3), delta=1e-10)
        assert np.allclose(result.x, center, atol=1e-6)
        assert result.value == pytest.approx(0.0, abs=1e-10)
        assert result.stop == CONVERGED

    def test_zero_gradient_start_converges_immediately(self):
        center = np.array([1.0, 2.0])
        result = minimize(quadratic(center), center.copy())
        assert result.stop == CONVERGED
        assert result.iterations == 0
        assert result.trace == (0.0,)

    def test_trace_starts_at_initial_objective_and_decreases(self):
        result = minimize(quadratic([5.0, 5.0]), np.zeros(2), delta=1e-9)
        assert result.trace[0] == pytest.approx(25.0)
        for earlier, later in zip(result.trace, result.trace[1:]):
            assert later <= earlier

    def test_iteration_cap(self):
        result = minimize(
            quadratic(np.arange(10.0)), np.zeros(10), max_iterations=3, delta=1e-15
        )
        assert result.stop == ITERATION_CAP
        assert result.iterations == 3
        assert len(result.trace) == 4

    def test_callback_sees_every_accepted_iteration(self):
        seen = []
        result = minimize(
            quadratic([4.0]),
            np.zeros(1),
            delta=1e-12,
            callback=lambda i, obj: seen.append((i, obj)),
        )
        assert [i for i, _ in seen] == list(range(1, result.iterations + 1))
        assert [obj for _, obj in seen] == list(result.trace[1:])

    def test_rosenbrock_like_narrow_valley(self):
        # Ill-conditioned quadratic: checks curvature memory actually helps.
        scales = np.array([1.0, 100.0, 10000.0])

        def fun(x):
            return 0.5 * float(np.dot(scales * x, x)), scales * x

        result = minimize(fun, np.ones(3), delta=1e-14, max_iterations=500)
        assert np.allclose(result.x, 0.0, atol=1e-5)

    def test_negative_l1_rejected(self):
        with pytest.raises(ValueError):
            minimize(quadratic([1.0]), np.zeros(1), l1=-0.1)

    def test_nan_l1_rejected(self):
        # NaN fails both `l1 < 0` and `l1 > 0`, which would turn L1 off.
        with pytest.raises(ValueError):
            minimize(quadratic([1.0]), np.zeros(1), l1=float("nan"))


class TestL1:
    def test_soft_threshold_solution(self):
        # argmin 0.5*(x-a)^2 + l*|x| = sign(a) * max(|a| - l, 0), per coordinate.
        a = np.array([3.0, -0.2, 0.7, -4.0, 0.0])
        l1 = 1.0
        result = minimize(quadratic(a), np.zeros(5), l1=l1, delta=1e-12)
        expected = np.sign(a) * np.maximum(np.abs(a) - l1, 0.0)
        assert np.allclose(result.x, expected, atol=1e-5)

    def test_exact_zeros_for_small_coordinates(self):
        a = np.array([0.5, -0.3, 2.0])
        result = minimize(quadratic(a), np.zeros(3), l1=1.0, delta=1e-12)
        assert result.x[0] == 0.0
        assert result.x[1] == 0.0
        assert result.x[2] != 0.0

    def test_l1_trace_monotone(self):
        a = np.array([2.0, -3.0, 0.1, 1.5])
        result = minimize(quadratic(a), np.full(4, 5.0), l1=0.7, delta=1e-12)
        for earlier, later in zip(result.trace, result.trace[1:]):
            assert later <= earlier

    def test_more_penalty_more_zeros(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=20)
        light = minimize(quadratic(a), np.zeros(20), l1=0.01, delta=1e-12)
        heavy = minimize(quadratic(a), np.zeros(20), l1=1.0, delta=1e-12)
        assert np.sum(heavy.x == 0.0) >= np.sum(light.x == 0.0)

    def test_direction_keeps_only_coordinates_that_descend(self):
        # The coupling gives the quasi-Newton direction a component
        # along x[1], where the penalty holds x[1] at 0 and the
        # pseudo-gradient is 0: a coordinate the direction does not
        # descend along must not move.
        hessian = np.array([[2.0, 0.9], [0.9, 1.0]])
        a = np.array([3.0, 0.0])
        seen = []

        def fun(x):
            seen.append(x.copy())
            d = x - a
            return 0.5 * float(d @ hessian @ d), hessian @ d

        result = minimize(fun, np.zeros(2), l1=3.0, delta=1e-12)
        assert all(x[1] == 0.0 for x in seen)
        assert np.allclose(result.x, [1.5, 0.0], atol=1e-6)

    def test_trace_objective_includes_penalty(self):
        a = np.array([2.0])
        result = minimize(quadratic(a), np.zeros(1), l1=0.5, delta=1e-12)
        x = result.x[0]
        assert result.value == pytest.approx(0.5 * (x - 2.0) ** 2 + 0.5 * abs(x))


def squared_distance_to_three(x):
    d = x - 3.0
    return float(np.dot(d, d)), 2.0 * d


def uphill(grad, *history, out, tmp):
    """A `_two_loop` stand-in whose direction is +grad."""
    np.copyto(out, grad)


class TestStall:
    """An orthant mask that zeroes the whole direction is a stall."""

    def test_uphill_direction_after_curvature_pairs(self, monkeypatch):
        two_loop = optim._two_loop

        def uphill_once_pairs_exist(
            grad, s_list, y_list, rho_list, gamma, *, out, tmp
        ):
            if s_list:
                uphill(grad, out=out, tmp=tmp)
            else:
                two_loop(grad, s_list, y_list, rho_list, gamma, out=out, tmp=tmp)

        monkeypatch.setattr(optim, "_two_loop", uphill_once_pairs_exist)
        result = minimize(squared_distance_to_three, np.zeros(1), l1=0.1, period=5)
        assert result.stop == STALLED
        assert result.iterations == 1
        assert len(result.trace) == 2

    def test_uphill_first_direction(self, monkeypatch):
        # Without curvature pairs the step is 1/||d||, infinite for d = 0.
        monkeypatch.setattr(optim, "_two_loop", uphill)
        result = minimize(squared_distance_to_three, np.zeros(1), l1=0.1, period=5)
        assert result.stop == STALLED
        assert result.iterations == 0
        assert np.array_equal(result.x, np.zeros(1))

    def test_normal_runs_do_not_stall(self):
        result = minimize(quadratic([3.0, -1.0]), np.zeros(2), l1=0.1, delta=1e-10)
        assert result.stop == CONVERGED


class TestDivergenceHandling:
    def test_line_search_skips_non_finite_regions(self):
        # Objective is finite only inside a ball; overshooting steps must
        # be rejected and halved, not crash the run.
        center = np.array([2.0, 2.0])

        def fun(x):
            if np.linalg.norm(x) > 3.5:
                return float("inf"), np.zeros_like(x)
            d = x - center
            return 0.5 * float(np.dot(d, d)), d

        result = minimize(fun, np.zeros(2), delta=1e-10)
        assert np.allclose(result.x, center, atol=1e-5)
        assert result.stop == CONVERGED

    def test_divergent_start_raises(self):
        def fun(x):
            return float("nan"), np.zeros_like(x)

        with pytest.raises(DivergenceError):
            minimize(fun, np.zeros(2))


def test_determinism():
    rng = np.random.default_rng(3)
    a = rng.normal(size=15)
    first = minimize(quadratic(a), np.zeros(15), l1=0.1, delta=1e-12)
    second = minimize(quadratic(a), np.zeros(15), l1=0.1, delta=1e-12)
    assert np.array_equal(first.x, second.x)
    assert first.trace == second.trace


class TestPseudoGradient:
    def test_matches_its_definition(self):
        rng = np.random.default_rng(5)
        l1 = 0.25
        x = rng.normal(size=400)
        x[rng.random(400) < 0.6] = 0.0
        grad = rng.normal(scale=0.5, size=400)
        # Gradients exactly at the kink edges and at zero.
        grad[:6] = [l1, -l1, 0.0, -0.0, l1 * (1 + 1e-16), -l1 * (1 - 1e-16)]
        x[:6] = 0.0
        expected = []
        for xi, gi in zip(x, grad):
            if xi > 0:
                expected.append(gi + l1)
            elif xi < 0:
                expected.append(gi - l1)
            elif gi + l1 < 0:
                expected.append(gi + l1)
            elif gi - l1 > 0:
                expected.append(gi - l1)
            else:
                expected.append(0.0)
        pg = np.empty_like(x)
        optim._pseudo_gradient(
            np.sign(x), x == 0, grad, l1, out=pg, tmp=np.empty_like(x)
        )
        assert pg.tobytes() == np.array(expected).tobytes()


class TestOrthantProjection:
    def test_signed_zeros(self):
        # Every sign of trial against every orthant sign, ±0.0 included.
        values = [-2.5, -1e-300, -0.0, 0.0, 1e-300, 3.0]
        signs = [-1.0, -0.0, 0.0, 1.0]
        trial = np.array([v for v in values for _ in signs])
        orthant = np.array([o for _ in values for o in signs])
        # np.where copies trial's own bits where it keeps them.
        expected = np.where(trial * orthant < 0, 0.0, trial)
        got = trial.copy()
        optim._project(
            got, orthant, tmp=np.empty_like(got), mask=np.empty(got.shape, dtype=bool)
        )
        assert got.tobytes() == expected.tobytes()
        # Opposite signs become +0.0; -0.0 stays wherever it was not one.
        crossed = trial * orthant < 0
        assert crossed.sum() == 4
        assert not np.signbit(got[crossed]).any()
        kept_negative_zero = (trial == 0) & np.signbit(trial)
        assert np.signbit(got[kept_negative_zero]).all()

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([-1.5, -0.0, 0.0, 2.0, -1e-310, 1e-310]),
                st.sampled_from([-1.0, 0.0, 1.0]),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_matches_a_select(self, pairs):
        trial, orthant = (np.array(column) for column in zip(*pairs))
        expected = np.where(trial * orthant < 0, 0.0, trial)
        got = trial.copy()
        optim._project(
            got, orthant, tmp=np.empty_like(got), mask=np.empty(got.shape, dtype=bool)
        )
        assert got.tobytes() == expected.tobytes()


def test_sign_of_x_projects_as_the_orthant_does():
    # Andrew and Gao's orthant is sign(x), and sign(-pg) where x is 0.
    # Where they differ, the descent-masked direction leaves x at 0 or
    # moves it along -pg, so projecting onto sign(x) masks the same
    # coordinates: for every sign of x, pg and the direction, with ±0.0,
    # subnormals, ±inf and NaN.
    values = [-math.inf, -2.0, -5e-324, -0.0, 0.0, 5e-324, 3.0, math.inf, math.nan]
    x, pg, direction = (
        np.array(column) for column in zip(*itertools.product(values, repeat=3))
    )
    with np.errstate(invalid="ignore"):
        direction *= direction * pg < 0
        orthant = np.sign(x) - np.sign(pg) * (x == 0)
        crossed = 0
        for step in (1.0, 0.5, 1e-300, 1e300):
            trial = x + step * direction
            by_orthant, by_sign = trial.copy(), trial.copy()
            masks = np.empty((2, len(x)), dtype=bool)
            tmp = np.empty_like(x)
            optim._project(by_orthant, orthant, tmp=tmp, mask=masks[0])
            optim._project(by_sign, np.sign(x), tmp=tmp, mask=masks[1])
            assert np.array_equal(masks[0], masks[1])
            assert by_orthant.tobytes() == by_sign.tobytes()
            crossed += masks[0].sum()
    assert crossed > 0


def ill_conditioned(n, seed):
    """f(x) = 0.5 * sum(a * x^2) - b.x, so each y of a curvature pair is a * s."""
    rng = np.random.default_rng(seed)
    a = np.geomspace(1.0, 1e3, n)
    b = rng.normal(size=n)
    return a, lambda x: (0.5 * float(np.dot(a * x, x) - 2 * np.dot(b, x)), a * x - b)


class TestCurvatureHistory:
    def spy(self, monkeypatch):
        """Snapshots of the history the two-loop recursion sees."""
        seen = []
        two_loop = optim._two_loop

        def recording(grad, s_list, y_list, rho_list, gamma, *, out, tmp):
            assert len({id(s) for s in (*s_list, *y_list)}) == 2 * len(s_list)
            if s_list:
                s, y = s_list[-1], y_list[-1]
                assert gamma == optim.dot(s, y) / optim.dot(y, y)
            seen.append([(s.copy(), y.copy(), rho)
                         for s, y, rho in zip(s_list, y_list, rho_list)])
            two_loop(grad, s_list, y_list, rho_list, gamma, out=out, tmp=tmp)

        monkeypatch.setattr(optim, "_two_loop", recording)
        return seen

    @pytest.mark.parametrize("eps", [optim._CURVATURE_EPS, 0.5])
    def test_pairs_rotate_oldest_out_and_rejected_pairs_are_dropped(
        self, monkeypatch, eps
    ):
        # A high curvature threshold rejects some pairs along the way.
        monkeypatch.setattr(optim, "_CURVATURE_EPS", eps)
        seen = self.spy(monkeypatch)
        a, fun = ill_conditioned(30, seed=7)
        memory = 3
        minimize(fun, np.zeros(30), memory=memory, max_iterations=40, delta=1e-15)
        grew = kept = 0
        for before, after in zip(seen, seen[1:]):
            assert len(after) <= memory
            for s, y, rho in after:
                np.testing.assert_allclose(y, a * s, rtol=1e-8, atol=1e-12)
                assert rho == 1.0 / optim.dot(s, y)
            old = [(s.tobytes(), y.tobytes()) for s, y, _ in before]
            new = [(s.tobytes(), y.tobytes()) for s, y, _ in after]
            if new == old:
                kept += 1
            else:
                grew += 1
                assert new[:-1] == old[len(old) + 1 - len(new):]
        assert grew > 0
        if eps > optim._CURVATURE_EPS:
            assert kept > 0

    def test_huge_memory_is_not_preallocated(self):
        a, fun = ill_conditioned(1000, seed=8)
        result = minimize(fun, np.zeros(1000), memory=10**9, max_iterations=3)
        assert result.iterations == 3
        assert result.trace[-1] < result.trace[0]


class TestWorkVectors:
    """After setup, `minimize` holds two vectors per curvature pair and
    a fixed set besides (see the module docstring)."""

    @pytest.mark.parametrize("memory", [1, 4])
    @pytest.mark.parametrize("l1, fixed", [(0.0, 5), (0.1, 7)])
    def test_peak_is_the_pairs_and_the_fixed_vectors(self, l1, fixed, memory):
        # x, trial, gradient, direction and scratch, plus pg and sign(x)
        # with l1 > 0.  The bool mask adds an eighth of a vector, under
        # the one the floor division drops; the finiteness check adds none.
        n = 100_000
        a = np.geomspace(1.0, 1e3, n)
        b = np.random.default_rng(16).normal(size=n)
        grad = np.empty(n)  # the objective's own buffer, not counted

        def fun(x):
            np.multiply(a, x, out=grad)
            value = 0.5 * optim.dot(x, grad) - optim.dot(b, x)
            np.subtract(grad, b, out=grad)
            return value, grad

        x0 = np.broadcast_to(0.0, n)
        iterations = memory + 4  # enough to fill the history and rotate it
        tracemalloc.start()
        try:
            result = minimize(
                fun, x0, l1=l1, memory=memory, max_iterations=iterations, delta=0.0
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.iterations == iterations
        assert peak // (8 * n) == 2 * memory + fixed

    def test_the_finiteness_check_allocates_no_vector(self):
        n = 100_000
        grad = np.random.default_rng(17).normal(size=n)
        x = np.zeros(n)
        tracemalloc.start()
        try:
            optim._evaluate(lambda _: (1.0, grad), x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Less than one byte per parameter: no bool array of the gradient.
        assert peak < n


class TestFinitenessCheck:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [0, 7, 99])
    def test_any_non_finite_entry_diverges(self, bad, at):
        grad = np.ones(100)
        grad[at] = bad
        assert not optim.all_finite(grad)
        with pytest.raises(DivergenceError):
            optim._evaluate(lambda _: (0.0, grad), np.zeros(100))

    def test_a_sum_that_overflows_is_still_finite(self):
        grad = np.full(4, 1e308)
        with np.errstate(over="ignore"):
            assert not math.isfinite(np.add.reduce(grad))
        assert optim.all_finite(grad)
        value, got = optim._evaluate(lambda _: (2.0, grad), np.zeros(4))
        assert value == 2.0 and got is grad
        grad[2] = -math.inf
        assert not optim.all_finite(grad)

    def test_empty_and_plain(self):
        assert optim.all_finite(np.empty(0))
        assert optim.all_finite(np.array([-0.0, 5e-324, -1e308]))


def reusing(fun):
    """`fun` returning its gradient in one buffer on every call."""
    buffer = None

    def wrapped(x):
        nonlocal buffer
        value, grad = fun(x)
        if buffer is None:
            buffer = np.empty_like(grad)
        np.copyto(buffer, grad)
        return value, buffer

    return wrapped


def assert_same_result(got, expected):
    assert got.x.tobytes() == expected.x.tobytes()
    assert got.stop == expected.stop
    assert got.trace == expected.trace


class TestBufferContract:
    """`minimize` reuses its work vectors and never keeps the gradient
    array the objective returns (see the module docstring)."""

    @pytest.mark.parametrize("l1", [0.0, 0.1])
    def test_objective_sees_two_point_buffers(self, l1):
        _, fun = ill_conditioned(200, seed=11)
        addresses = set()

        def spy(x):
            addresses.add(x.ctypes.data)
            return fun(x)

        result = minimize(spy, np.zeros(200), l1=l1, max_iterations=20, delta=1e-15)
        assert result.iterations == 20
        assert len(addresses) <= 2

    @pytest.mark.parametrize("l1", [0.0, 0.1])
    def test_reused_gradient_buffer_gives_the_same_result(self, l1):
        _, fun = ill_conditioned(200, seed=12)
        fresh = minimize(fun, np.zeros(200), l1=l1, max_iterations=40, delta=1e-15)
        reused = minimize(
            reusing(fun), np.zeros(200), l1=l1, max_iterations=40, delta=1e-15
        )
        assert_same_result(reused, fresh)

    @pytest.mark.parametrize("l1", [0.0, 0.1])
    def test_divergent_trial_that_wrote_the_buffer_changes_nothing(self, l1):
        # Calls 2, 5, 6 and 9 diverge.  They raise with fresh gradient
        # arrays, or, with one shared buffer, fill it with NaN and then
        # raise or return it for `minimize` to reject; all three runs
        # must agree.
        _, fun = ill_conditioned(200, seed=13)
        diverging = {2, 5, 6, 9}

        def objective(mode):
            buffer = np.empty(200)
            calls = 0

            def wrapped(x):
                nonlocal calls
                calls += 1
                if calls in diverging:
                    if mode == "fresh arrays":
                        raise DivergenceError("diverged")
                    buffer.fill(np.nan)
                    if mode == "write, then raise":
                        raise DivergenceError("diverged")
                    return 0.0, buffer
                value, grad = fun(x)
                if mode == "fresh arrays":
                    return value, grad
                np.copyto(buffer, grad)
                return value, buffer

            return wrapped

        runs = [
            minimize(objective(mode), np.zeros(200), l1=l1, max_iterations=20,
                     delta=1e-15)
            for mode in ("fresh arrays", "write, then raise", "return NaN")
        ]
        assert runs[0].iterations == 20
        assert runs[0].trace[-1] < runs[0].trace[0]
        for run in runs[1:]:
            assert_same_result(run, runs[0])

    def test_start_point_is_not_modified(self):
        _, fun = ill_conditioned(50, seed=14)
        x0 = np.ones(50)
        minimize(fun, x0, l1=0.1, max_iterations=10)
        assert np.array_equal(x0, np.ones(50))

    @pytest.mark.parametrize("l1", [0.0, 0.1])
    def test_a_broadcast_start_point_gives_the_same_result(self, l1):
        # A read-only zero-stride view, as `crf.train` passes.
        _, fun = ill_conditioned(200, seed=15)
        x0 = np.broadcast_to(0.0, 200)
        assert not x0.flags.writeable
        result = minimize(fun, x0, l1=l1, max_iterations=20, delta=1e-15)
        expected = minimize(fun, np.zeros(200), l1=l1, max_iterations=20, delta=1e-15)
        assert_same_result(result, expected)
        assert result.x.flags.writeable and result.x.flags.c_contiguous


# Start coordinates: signed zeros and subnormals, besides plain floats.
START_COORDINATES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2e-309]),
    st.floats(-4.0, 4.0, allow_nan=False),
)


@st.composite
def quadratics(draw):
    """f(x) = 0.5 * x.Hx - b.x with a random positive definite H, and a
    start point of the same size."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    factor = rng.normal(size=(n, n))
    hessian = factor @ factor.T / n + np.diag(rng.uniform(0.01, 3.0, n))
    b = rng.normal(size=n)

    def fun(x):
        # einsum, unlike matmul, never hands the sums to BLAS.
        hx = np.einsum("ij,j", hessian, x)
        return 0.5 * optim.dot(x, hx) - optim.dot(b, x), hx - b

    x0 = np.array(draw(st.lists(START_COORDINATES, min_size=n, max_size=n)))
    return fun, x0


class TestMatchesTheOrthantLoop:
    """`minimize` projects onto sign(x) and keeps no spare pair, and
    gives the bytes of the loop that did both (`reference_minimize`)."""

    @pytest.mark.parametrize(
        "l1s", [st.just(0.0), st.floats(1e-4, 3.0)], ids=["l1 = 0", "l1 > 0"]
    )
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_same_iterates(self, l1s, data):
        fun, x0 = data.draw(quadratics())
        options = dict(
            l1=data.draw(l1s),
            memory=data.draw(st.integers(1, 8)),
            max_iterations=data.draw(st.integers(1, 40)),
            delta=data.draw(st.sampled_from([0.0, 1e-9, 1e-3])),
            period=data.draw(st.integers(1, 10)),
        )
        got = minimize(fun, x0, **options)
        assert_same_result(got, reference_minimize(fun, x0, **options))


# sha256 of `x.tobytes()` followed by `repr(trace)` for 60 iterations
# on `ill_conditioned(50, seed=7)`, per l1.  Recorded before `minimize`
# reused its work vectors.
PINNED_ITERATES = {
    0.0: "b8beff33adbc9f09a212c3549421966f911cb0e0fda203bddc3aaab5b3902754",
    0.1: "c97b4c56a49b8c2ac31e96205fcd48e51e5193ed759fe1afaa6d6b9114a33d5a",
}


@pytest.mark.parametrize("l1", list(PINNED_ITERATES))
def test_pinned_iterates(l1):
    _, fun = ill_conditioned(50, seed=7)
    result = minimize(fun, np.zeros(50), l1=l1, max_iterations=60, delta=1e-15)
    assert result.iterations == 60
    digest = hashlib.sha256(result.x.tobytes() + repr(result.trace).encode())
    assert digest.hexdigest() == PINNED_ITERATES[l1]


def test_dot_is_reproducible_and_accurate():
    rng = np.random.default_rng(9)
    a, b = rng.normal(size=(2, 100_003))
    first = optim.dot(a, b)
    assert isinstance(first, float)
    assert first == optim.dot(a.copy(), b.copy())
    assert first == pytest.approx(float(np.dot(a, b)), rel=1e-12)
