"""Tests for the Appendix-B noisy projected gradient descent."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    GaussianProjection,
    GroupL1Ball,
    L1Ball,
    L2Ball,
    LinfBall,
    LpBall,
    NoisyProjectedGradient,
    Polytope,
    PrivateGradientFunction,
    Simplex,
)
from repro.erm.noisy_pgd import noisy_pgd_iterations
from repro.sketching.projected_set import ProjectedConvexSet
from repro.exceptions import ValidationError


class TestIterationCount:
    def test_corollary_b2_formula(self):
        # r = ceil((1 + L/α)²).
        assert noisy_pgd_iterations(lipschitz=9.0, gradient_error=1.0, cap=None) == 100

    def test_cap_applies(self):
        assert noisy_pgd_iterations(1e6, 1.0, cap=500) == 500

    def test_minimum_one(self):
        assert noisy_pgd_iterations(0.0, 10.0) == 1

    def test_rejects_zero_error(self):
        with pytest.raises(ValidationError):
            noisy_pgd_iterations(1.0, 0.0)


class TestConvergence:
    def test_exact_oracle_converges(self):
        """With α → 0 the procedure is plain PGD and must converge."""
        target = np.array([0.4, -0.3])
        oracle = lambda theta: 2.0 * (theta - target)  # noqa: E731
        pgd = NoisyProjectedGradient(
            L2Ball(2), lipschitz=4.0, gradient_error=1e-6, iterations=3000
        )
        result = pgd.run(oracle)
        np.testing.assert_allclose(result, target, atol=0.05)

    def test_noisy_oracle_respects_proposition_b1(self):
        """f(θ̄) − f(θ*) ≤ (α+L)‖C‖/√r + α‖C‖ must hold empirically."""
        rng = np.random.default_rng(0)
        target = np.array([0.3, 0.1, -0.2])
        alpha = 0.5

        def objective(theta):
            return float(np.sum((theta - target) ** 2))

        def noisy_oracle(theta):
            noise = rng.normal(size=3)
            noise *= alpha / max(np.linalg.norm(noise), 1e-12)
            return 2.0 * (theta - target) + noise

        ball = L2Ball(3)
        pgd = NoisyProjectedGradient(ball, lipschitz=4.0, gradient_error=alpha, iterations=400)
        theta_bar = pgd.run(noisy_oracle)
        assert objective(theta_bar) - objective(target) <= pgd.risk_bound()

    def test_result_feasible(self):
        ball = L1Ball(4, radius=0.5)
        oracle = lambda theta: -np.ones(4)  # noqa: E731
        pgd = NoisyProjectedGradient(ball, 1.0, 0.1, iterations=50)
        result = pgd.run(oracle)
        assert ball.contains(result, tol=1e-6)

    def test_custom_start_projected(self):
        ball = L2Ball(2)
        oracle = lambda theta: np.zeros(2)  # noqa: E731
        pgd = NoisyProjectedGradient(ball, 1.0, 0.1, iterations=5)
        result = pgd.run(oracle, start=np.array([10.0, 0.0]))
        assert ball.contains(result, tol=1e-9)

    def test_step_size_formula(self):
        """η = ‖C‖/(√r(α+L)) — Appendix B's constant step."""
        ball = L2Ball(2, radius=2.0)
        pgd = NoisyProjectedGradient(ball, lipschitz=3.0, gradient_error=1.0, iterations=16)
        assert pgd.step_size == pytest.approx(2.0 / (4.0 * 4.0))

    def test_risk_bound_formula(self):
        ball = L2Ball(2, radius=1.0)
        pgd = NoisyProjectedGradient(ball, lipschitz=3.0, gradient_error=1.0, iterations=16)
        assert pgd.risk_bound() == pytest.approx((1.0 + 3.0) / 4.0 + 1.0)

    def test_evaluations_are_free_post_processing(self):
        """Many runs against the same (fixed) oracle must not interact —
        the privacy-free evaluation property of Definition 5."""
        oracle_calls = []

        def oracle(theta):
            oracle_calls.append(theta.copy())
            return 2.0 * theta

        pgd = NoisyProjectedGradient(L2Ball(2), 2.0, 0.1, iterations=7)
        pgd.run(oracle)
        pgd.run(oracle)
        assert len(oracle_calls) == 14  # evaluation count is unbounded & harmless


def reference_run(pgd, gradient_oracle, start=None):
    """The unbuffered loop ``run`` replaced, kept verbatim as the reference:
    a fresh temporary per step and a checked ``project`` per iterate."""
    if start is None:
        theta = pgd.constraint.project(np.zeros(pgd.constraint.dim))
    else:
        theta = pgd.constraint.project(np.asarray(start, dtype=float))
    iterate_sum = np.zeros_like(theta)
    for _ in range(pgd.iterations):
        theta = pgd.constraint.project(theta - pgd.step_size * gradient_oracle(theta))
        iterate_sum += theta
    return iterate_sum / pgd.iterations


GOLDEN_DIM = 6


def _make_set(name):
    """A fresh instance per call: ProjectedConvexSet carries a warm start
    that each projection advances, so the two runs under comparison must
    not share one."""
    rng = np.random.default_rng(11)
    if name == "L2Ball":
        return L2Ball(GOLDEN_DIM, radius=0.8)
    if name == "L1Ball":
        return L1Ball(GOLDEN_DIM, radius=0.9)
    if name == "LinfBall":
        return LinfBall(GOLDEN_DIM, radius=0.3)
    if name == "LpBall":
        return LpBall(GOLDEN_DIM, p=1.5, radius=0.7)
    if name == "Simplex":
        return Simplex(GOLDEN_DIM)
    if name == "GroupL1Ball":
        return GroupL1Ball(GOLDEN_DIM, block_size=4, radius=0.9)
    if name == "Polytope":
        return Polytope(rng.normal(size=(9, GOLDEN_DIM)), projection_iterations=60)
    if name == "ProjectedConvexSet":
        phi = GaussianProjection(GOLDEN_DIM + 3, GOLDEN_DIM, rng=2).matrix
        return ProjectedConvexSet(phi, L1Ball(GOLDEN_DIM + 3), solver_iterations=40)
    raise AssertionError(name)


SET_NAMES = [
    "L2Ball", "L1Ball", "LinfBall", "LpBall", "Simplex",
    "GroupL1Ball", "Polytope", "ProjectedConvexSet",
]


def _random_problem(seed):
    """Random released moments (G, q), a start and a step schedule."""
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(40, GOLDEN_DIM))
    gram = xs.T @ xs + rng.normal(scale=2.0, size=(GOLDEN_DIM, GOLDEN_DIM))
    gram = 0.5 * (gram + gram.T)
    cross = xs.T @ rng.normal(size=40)
    start = rng.normal(scale=2.0, size=GOLDEN_DIM)
    lipschitz = float(2.0 * np.linalg.norm(gram, 2))
    return gram, cross, start, lipschitz


#: L2-ball radii for ``_l2_problem``: every iterate stays inside the ball,
#: the starts sit on its boundary and the steps land on both sides of it,
#: or almost every step lands outside it.
L2_RADII = {"inside": 2.0, "boundary": 0.3, "outside": 0.01}


def _l2_problem(dim, models):
    """``models`` problems sharing one positive-definite Gram: each has a
    minimizer of norm 0.5 and a warm start of norm 0.3; with ``η`` sized
    from radius ≤ 2 the iteration is a contraction."""
    rng = np.random.default_rng([dim, models])
    xs = rng.normal(size=(4 * dim, dim)) / np.sqrt(dim)
    gram = xs.T @ xs + np.eye(dim)
    minimizers = rng.normal(size=(models, dim))
    minimizers *= (0.5 / np.linalg.norm(minimizers, axis=1))[:, None]
    starts = rng.normal(size=(models, dim))
    starts *= (0.3 / np.linalg.norm(starts, axis=1))[:, None]
    return gram, minimizers @ gram, starts, float(2.0 * np.linalg.norm(gram, 2))


def _l2_pgd(dim, regime):
    _, _, _, lipschitz = _l2_problem(dim, 8)
    return NoisyProjectedGradient(L2Ball(dim, L2_RADII[regime]), lipschitz, 0.5, iterations=40)


def _steps_outside(pgd, oracle, start):
    """How many of the reference loop's points ``θ − η·g(θ)`` lie outside
    the ball."""
    theta = pgd.constraint.project(start)
    outside = 0
    for _ in range(pgd.iterations):
        point = theta - pgd.step_size * oracle(theta)
        outside += bool(np.linalg.norm(point) > pgd.constraint.radius)
        theta = pgd.constraint.project(point)
    return outside


class TestBufferedKernelIsBitIdentical:
    """``run`` against the reference loop, bit for bit, on every set."""

    @pytest.mark.parametrize("name", SET_NAMES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_private_gradient_oracle(self, name, seed):
        gram, cross, start, lipschitz = _random_problem(seed)
        oracle = PrivateGradientFunction(gram, cross, error_bound=0.5)
        runs = []
        for kernel in (reference_run, NoisyProjectedGradient.run):
            pgd = NoisyProjectedGradient(_make_set(name), lipschitz, 0.5, iterations=12)
            runs.append(kernel(pgd, oracle, start))
        np.testing.assert_array_equal(runs[1], runs[0])

    @pytest.mark.parametrize("name", SET_NAMES)
    def test_plain_callable_oracle_and_default_start(self, name):
        """An oracle without ``into`` takes the unbuffered evaluation."""
        gram, cross, _, lipschitz = _random_problem(3)

        def oracle(theta):
            return 2.0 * (gram @ theta - cross)

        runs = []
        for kernel in (reference_run, NoisyProjectedGradient.run):
            pgd = NoisyProjectedGradient(_make_set(name), lipschitz, 0.5, iterations=12)
            runs.append(kernel(pgd, oracle))
        np.testing.assert_array_equal(runs[1], runs[0])

    def test_start_is_left_untouched(self):
        gram, cross, start, lipschitz = _random_problem(4)
        before = start.copy()
        pgd = NoisyProjectedGradient(L2Ball(GOLDEN_DIM), lipschitz, 0.5, iterations=5)
        pgd.run(PrivateGradientFunction(gram, cross, 0.5), start=start)
        np.testing.assert_array_equal(start, before)

    def test_into_matches_call(self):
        gram, cross, start, _ = _random_problem(5)
        oracle = PrivateGradientFunction(gram, cross, 0.5)
        out = np.empty(GOLDEN_DIM)
        assert oracle.into(start, out) is out
        np.testing.assert_array_equal(out, oracle(start))

    @pytest.mark.parametrize("dim", [32, 256])
    def test_l2_regimes_are_what_they_say(self, dim):
        gram, crosses, starts, _ = _l2_problem(dim, 8)
        total = 8 * 40
        counts = {}
        for regime in L2_RADII:
            pgd = _l2_pgd(dim, regime)
            counts[regime] = sum(
                _steps_outside(pgd, PrivateGradientFunction(gram, cross, 0.5), start)
                for cross, start in zip(crosses, starts)
            )
        assert counts["inside"] == 0
        assert 0.1 * total < counts["boundary"] < 0.9 * total
        assert counts["outside"] > 0.9 * total

    @pytest.mark.parametrize("regime", L2_RADII)
    @pytest.mark.parametrize("dim", [32, 256])
    def test_l2_ball_at_serving_dims(self, dim, regime):
        """A lone model's 1-D run at the served dimensions and ``r``."""
        gram, crosses, starts, _ = _l2_problem(dim, 1)
        pgd = _l2_pgd(dim, regime)
        oracle = PrivateGradientFunction(gram, crosses[0], 0.5)
        np.testing.assert_array_equal(
            pgd.run(oracle, starts[0]), reference_run(pgd, oracle, starts[0])
        )

    @pytest.mark.parametrize("models", [None, 1, 8], ids=["vector", "k1", "k8"])
    def test_into_scale_is_the_doubled_gradient_times_scale(self, models):
        """``into(θ, out, s)`` multiplies ``Qθ − q`` by ``2s`` once; with
        finite ``2·g`` that is ``(2·g)·s`` bit for bit."""
        rng = np.random.default_rng(8 if models is None else models)
        for _ in range(100):
            dim = int(rng.integers(1, 40))
            shape = (dim,) if models is None else (models, dim)
            magnitude = 10.0 ** rng.uniform(-3, 3)
            gram = rng.normal(scale=magnitude, size=(dim, dim))
            oracle = PrivateGradientFunction(
                0.5 * (gram + gram.T), rng.normal(scale=magnitude, size=shape), 0.5
            )
            theta = rng.normal(scale=10.0 ** rng.uniform(-3, 3), size=shape)
            scale = 10.0 ** rng.uniform(-8, 2)
            out = np.empty(shape)
            assert oracle.into(theta, out, scale) is out
            np.testing.assert_array_equal(out, oracle(theta) * scale)

    def test_fold_takes_a_finite_step_where_the_doubled_gradient_overflows(self):
        """The fold's one edge: ``2·g`` overflows but ``g·2η`` does not.
        The unbuffered loop steps by ``η·inf`` and refuses the point;
        ``run`` takes the finite step, and the L2 projection puts the
        point, whose square overflows, on the sphere."""
        oracle = PrivateGradientFunction(np.eye(2), np.array([1e308, 0.0]), 0.5)
        pgd = NoisyProjectedGradient(L2Ball(2), lipschitz=1.0, gradient_error=0.5, iterations=3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValidationError):
                reference_run(pgd, oracle)
            np.testing.assert_allclose(pgd.run(oracle), [1.0, 0.0])

    def test_l2_projection_matches_linalg_norm(self):
        """``sqrt(z·z)`` is the 1-D float64 ``np.linalg.norm``, bit for bit."""
        rng = np.random.default_rng(6)
        ball = L2Ball(32, radius=0.8)
        for _ in range(200):
            point = rng.normal(scale=rng.uniform(0.01, 3.0), size=32)
            norm = float(np.linalg.norm(point))
            expected = point.copy() if norm <= 0.8 else point * (0.8 / norm)
            np.testing.assert_array_equal(ball.project(point), expected)


class TestNonFiniteOracle:
    """A non-finite gradient raises ``ValidationError``, as the per-iterate
    check did before the loop went unchecked (on the L1 ball an unchecked
    NaN would surface as an ``IndexError`` inside the projection)."""

    @pytest.mark.parametrize("ball", [L2Ball(3), L1Ball(3), LinfBall(3)],
                             ids=["L2Ball", "L1Ball", "LinfBall"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at_step", [0, 3])
    def test_raises_validation_error(self, ball, bad, at_step):
        calls = []

        def oracle(theta):
            calls.append(None)
            gradient = 2.0 * theta - 0.3
            if len(calls) > at_step:
                gradient[1] = bad
            return gradient

        pgd = NoisyProjectedGradient(ball, 2.0, 0.1, iterations=8)
        with pytest.raises(ValidationError):
            pgd.run(oracle)

    def test_non_finite_start_raises(self):
        pgd = NoisyProjectedGradient(L1Ball(3), 2.0, 0.1, iterations=4)
        with pytest.raises(ValidationError):
            pgd.run(lambda theta: theta, start=np.array([0.1, np.nan, 0.0]))


class TestLockstepRows:
    """``run`` on a ``(k, d)`` start block steps ``k`` problems together;
    row ``j`` must equal the 1-D run of problem ``j`` bit for bit, which
    rests on two numpy facts pinned first."""

    @pytest.mark.parametrize("dim", [1, 2, 7, 32, 256])
    @pytest.mark.parametrize("k", [1, 2, 8, 33])
    def test_stacked_gemv_and_vecdot_match_per_row_dot(self, dim, k):
        """``np.matmul(Q, Θ[:, :, None])`` is one gemv per row and
        ``np.vecdot(Θ, Θ)`` one dot per row: a numpy or BLAS upgrade that
        breaks either fails here instead of moving served bits."""
        rng = np.random.default_rng(dim * 100 + k)
        for _ in range(5):
            gram = rng.normal(size=(dim, dim))
            gram = 0.5 * (gram + gram.T)
            thetas = rng.normal(scale=rng.uniform(0.01, 5.0), size=(k, dim))
            stacked = np.empty((k, dim))
            np.matmul(gram, thetas[:, :, None], stacked[:, :, None])
            np.testing.assert_array_equal(
                stacked, np.array([gram.dot(theta) for theta in thetas])
            )
            np.testing.assert_array_equal(
                np.vecdot(thetas, thetas),
                np.array([theta.dot(theta) for theta in thetas]),
            )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 9),
        k=st.integers(1, 9),
        radius=st.floats(0.05, 2.0),
        iterations=st.integers(1, 30),
        l1=st.booleans(),
    )
    def test_block_run_equals_row_runs(self, seed, dim, k, radius, iterations, l1):
        """Small balls and scaled starts send rows out of the set; the L1
        ball goes through the default per-row ``_project_rows``."""
        rng = np.random.default_rng(seed)
        gram = rng.normal(scale=3.0, size=(dim, dim))
        gram = 0.5 * (gram + gram.T)
        crosses = rng.normal(scale=3.0, size=(k, dim))
        starts = rng.normal(scale=2.0, size=(k, dim))
        ball = (L1Ball if l1 else L2Ball)(dim, radius=radius)
        pgd = NoisyProjectedGradient(ball, 4.0, 0.5, iterations=iterations)
        block = pgd.run(PrivateGradientFunction(gram, crosses, 0.5), start=starts)
        assert block.shape == (k, dim)
        for j in range(k):
            row = pgd.run(PrivateGradientFunction(gram, crosses[j], 0.5), start=starts[j])
            np.testing.assert_array_equal(block[j], row)

    @pytest.mark.parametrize("regime", L2_RADII)
    @pytest.mark.parametrize("dim", [32, 256])
    @pytest.mark.parametrize("k", [1, 8])
    def test_l2_block_rows_equal_reference_runs(self, k, dim, regime):
        """A served tenant group's block solve at ``r = 40``: row ``j`` is
        ``reference_run`` of problem ``j``."""
        gram, crosses, starts, _ = _l2_problem(dim, k)
        pgd = _l2_pgd(dim, regime)
        block = pgd.run(PrivateGradientFunction(gram, crosses, 0.5), start=starts)
        for j in range(k):
            oracle = PrivateGradientFunction(gram, crosses[j], 0.5)
            np.testing.assert_array_equal(block[j], reference_run(pgd, oracle, starts[j]))

    def test_call_matches_into_on_a_block(self):
        gram, cross, start, _ = _random_problem(7)
        oracle = PrivateGradientFunction(gram, np.array([cross, -cross]), 0.5)
        block = np.array([start, 0.5 * start])
        out = np.empty_like(block)
        assert oracle.into(block, out) is out
        np.testing.assert_array_equal(out, oracle(block))

    @pytest.mark.parametrize("ball", [L2Ball(3, 0.4), L1Ball(3, 0.4)],
                             ids=["L2Ball", "L1Ball"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_raises_its_row_error(self, ball, bad):
        """Row 1 of three goes non-finite at step 3: the block run raises
        the ``ValidationError`` the row's own 1-D run raises."""
        starts = np.array([[0.1, 0.0, 0.0], [0.0, 0.2, 0.0], [0.0, 0.0, -0.1]])
        pgd = NoisyProjectedGradient(ball, 2.0, 0.1, iterations=8)

        def gradient(theta, calls, poisoned):
            calls.append(None)
            gradient = 2.0 * theta - 0.3
            if len(calls) > 3:
                gradient[poisoned] = bad
            return gradient

        errors = []
        for start, poisoned in ((starts, (1, 1)), (starts[1], 1)):
            calls = []
            with pytest.raises(ValidationError) as caught:
                pgd.run(lambda theta: gradient(theta, calls, poisoned), start=start)
            errors.append((str(caught.value), len(calls)))
        assert errors[0] == errors[1]
