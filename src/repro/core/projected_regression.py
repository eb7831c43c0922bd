"""Algorithm 3 — ``PrivIncReg2``: regression beyond the worst case.

The paper's second regression mechanism (§5) escapes the ``√d`` noise floor
when the input domain ``X`` and the constraint set ``C`` have small Gaussian
widths.  Pipeline per the paper's Algorithm 3:

* **Setup** — ``W = w(X) + w(C)``, distortion target
  ``γ = W^{1/3}/T^{1/3}`` (Theorem 5.7's balancing choice), projected
  dimension ``m = Θ((1/γ²)·max{W², log(T/β)})`` from Gordon's theorem, and
  a Gaussian ``Φ ∈ R^{m×d}`` drawn once, up front.  Because the Gordon
  guarantee is *uniform over the whole domain*, covariates chosen
  adaptively after ``Φ`` is public cannot break the embedding — the crux of
  the paper's streaming-adaptivity fix.
* **Step 4** — rescale ``x̃_t = (‖x_t‖/‖Φx_t‖)·x_t`` so ``‖Φx̃_t‖ = ‖x_t‖``,
  pinning the projected streams' sensitivity at ``Δ₂ = 2`` exactly.
* **Steps 5–6** — Tree Mechanisms over ``Φx̃_t y_t`` (``m``-dim) and
  ``(Φx̃_t)(Φx̃_t)ᵀ`` (``m²``-dim), each at ``(ε/2, δ/2)``.
* **Steps 7–8** — private gradient function ``g_t(ϑ) = 2(Q_tϑ − q_t)`` and
  ``NOISYPROJGRAD(ΦC, g_t, r)`` *in the projected space*, yielding
  ``ϑ_t^priv ∈ ΦC``.
* **Step 9** — lift: ``θ_t^priv ∈ argmin ‖θ‖_C s.t. Φθ = ϑ_t^priv``
  (Theorem 5.3 / M* bound).  Lifting is post-processing; privacy is
  untouched.

Utility (Theorem 5.7): excess risk
``O(T^{1/3} W^{2/3} polylog·‖C‖²/ε + T^{1/6}W^{1/3}‖C‖√OPT
+ T^{1/4}W^{1/2}‖C‖^{3/2}·OPT^{1/4})`` — polylogarithmic in ``d`` whenever
``W = polylog(d)`` (Lasso, simplex, group-L1, sparse domains; §5.2).

Memory: ``O(m² log T + log d)`` — strictly better than Algorithm 2's
``O(d² log T)`` whenever ``m < d``.
"""

from __future__ import annotations

import math

import numpy as np

from .._validation import (
    check_int,
    check_matrix,
    check_positive,
    check_probability,
    check_release_knobs,
    check_rng,
    check_unit_xy_domain,
    check_vector,
    check_xy_block,
)
from ..erm.noisy_pgd import noisy_pgd_iterations
from ..exceptions import DomainViolationError, ValidationError
from ..geometry.base import ConvexSet, PointSet
from ..privacy.accountant import PrivacyAccountant
from ..privacy.parameters import PrivacyParams
from ..privacy.release import SlidingWindowMechanism, make_release_mechanism
from ..sketching.gaussian import GaussianProjection, step4_rescale_block
from ..sketching.gordon import gordon_dimension
from ..sketching.lifting import lift
from ..sketching.projected_set import ProjectedConvexSet
from .incremental_regression import MOMENT_SENSITIVITY, solve_schedule
from .private_gradient import PrivateGradientFunction, solve_released

__all__ = ["PrivIncReg2", "projected_sizing"]


def projected_sizing(
    horizon: int,
    constraint: ConvexSet,
    x_domain: PointSet,
    beta: float = 0.05,
    gamma: float | None = None,
) -> tuple[float, float, int]:
    """Algorithm 3 Step-1 sizing: ``(W, γ, m)`` for a given geometry.

    The single definition of the setup arithmetic shared by
    :class:`PrivIncReg2` and the projected serving front
    (:class:`~repro.streaming.serving.ShardedStream` with
    ``backend="projected"``), so both draw a ``Φ`` of identical shape from
    identical inputs: ``W = w(X) + w(C)``, the Theorem-5.7 balancing choice
    ``γ = W^{1/3}/T^{1/3}`` (clamped into ``[10⁻³, 0.9]``, overridable),
    and the Gordon dimension ``m`` at confidence ``β/T``, capped at ``d``.
    """
    horizon = check_int("horizon", horizon, minimum=1)
    beta = check_probability("beta", beta)
    total_width = x_domain.gaussian_width() + constraint.gaussian_width()
    if gamma is None:
        gamma = total_width ** (1.0 / 3.0) / horizon ** (1.0 / 3.0)
    gamma = float(np.clip(gamma, 1e-3, 0.9))
    projected_dim = gordon_dimension(
        total_width,
        gamma,
        beta=beta / max(horizon, 2),
        max_dim=constraint.dim,
    )
    return total_width, gamma, projected_dim


class PrivIncReg2:
    """Private incremental regression with random projections (Alg. 3).

    Parameters
    ----------
    horizon:
        Stream length ``T``.
    constraint:
        The constraint set ``C`` (small ``w(C)`` is where the win comes
        from: L1 balls, simplices, vertex polytopes, group-L1 balls).
    x_domain:
        The covariate domain ``X`` (a :class:`~repro.geometry.base.PointSet`
        — may be non-convex, e.g. :class:`~repro.geometry.SparseVectors`).
    params:
        Total ``(ε, δ)`` budget.
    beta:
        Confidence parameter (enters ``m`` through the ``log(T/β)`` term).
    gamma:
        Distortion override; defaults to the Theorem-5.7 choice
        ``(w(X)+w(C))^{1/3} / T^{1/3}``, clamped into ``(0, 0.9]``.
    projected_dim:
        Explicit ``m`` override (otherwise Gordon-sized and capped at ``d``).
    fidelity, iteration_cap:
        Inner-PGD sizing knobs, as in :class:`PrivIncReg1`.
    solve_every:
        Run the projected-space PGD and the lifting program every
        ``solve_every`` steps, replaying the last lifted parameter in
        between.  The moment trees still advance every step, so this is
        pure post-processing scheduling — privacy is unchanged, and the
        replayed parameter is at most ``solve_every`` points stale (the
        same staleness argument as Mechanism 1's τ-window).  1 = paper.
    projected_solver_iterations:
        FISTA budget inside each projection onto ``ΦC`` (warm-started
        between queries, so modest values track well).
    projection:
        Optional pre-built projection object (anything exposing
        ``matrix``, ``apply`` and ``rescale_covariate`` — e.g. a
        :class:`~repro.sketching.sparse_jl.SparseProjection`, the paper's
        footnote-16 alternative).  When given, its dimensions override
        ``projected_dim``.  Privacy is unaffected by the choice: the
        Step-4 rescaling pins the sensitivity at 2 for *any* fixed ``Φ``.
        This is also the Φ hand-off seam the serving fronts use: a
        projected ``ShardedStream`` passes its single front-drawn ``Φ``
        here so ``refresh_from_released`` receives merged moments living
        in the solver's own projected space, and process shard workers
        re-attach to the same map from its shipped matrix
        (:meth:`~repro.sketching.gaussian.GaussianProjection.from_matrix`
        rebuilds a projection around an existing matrix).
    decay:
        Optional forgetting factor ``γ ∈ (0, 1]`` for non-stationary
        streams (distinct from ``gamma``, the projection distortion):
        the projected moment trees become γ-decayed and the solves size
        their Lipschitz constant from the effective weight
        ``(1−γ^t)/(1−γ)``.  Mutually exclusive with ``window``.
    window:
        Optional sliding window ``W``: the projected moment trees become
        hard-expiry rings covering only the last ``≤ W`` elements.
    rng:
        Seed or Generator.
    """

    def __init__(
        self,
        horizon: int,
        constraint: ConvexSet,
        x_domain: PointSet,
        params: PrivacyParams,
        beta: float = 0.05,
        gamma: float | None = None,
        projected_dim: int | None = None,
        fidelity: str = "fast",
        iteration_cap: int = 400,
        solve_every: int = 1,
        projected_solver_iterations: int = 80,
        projection: GaussianProjection | None = None,
        decay: float | None = None,
        window: int | float | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if fidelity not in ("paper", "fast"):
            raise ValidationError(f"fidelity must be 'paper' or 'fast', got {fidelity!r}")
        if x_domain.dim != constraint.dim:
            raise ValidationError(
                f"x_domain dim ({x_domain.dim}) != constraint dim ({constraint.dim})"
            )
        self.horizon = check_int("horizon", horizon, minimum=1)
        self.constraint = constraint
        self.x_domain = x_domain
        self.params = params
        self.beta = check_probability("beta", beta)
        self.fidelity = fidelity
        self.iteration_cap = check_int("iteration_cap", iteration_cap, minimum=1)
        self.solve_every = check_int("solve_every", solve_every, minimum=1)
        self.decay, self.window = check_release_knobs(decay, window)
        self._rng = check_rng(rng)
        self.dim = constraint.dim

        # -- Step 1: geometric sizing (shared with the serving front) -----
        self.total_width, self.gamma, sized_dim = projected_sizing(
            self.horizon, constraint, x_domain, beta=self.beta, gamma=gamma
        )
        if projection is not None:
            if projection.original_dim != self.dim:
                raise ValidationError(
                    f"projection maps from dim {projection.original_dim}, "
                    f"expected {self.dim}"
                )
            projected_dim = projection.projected_dim
        elif projected_dim is None:
            projected_dim = sized_dim
        self.projected_dim = check_int("projected_dim", projected_dim, minimum=1)

        # -- Step 2: draw Φ once ------------------------------------------
        if projection is not None:
            self.projection = projection
        else:
            self.projection = GaussianProjection(self.dim, self.projected_dim, rng=self._rng)
        self.projected_constraint = ProjectedConvexSet(
            self.projection.matrix,
            constraint,
            solver_iterations=check_int(
                "projected_solver_iterations", projected_solver_iterations, minimum=1
            ),
        )

        # -- Steps 5-6 plumbing: two trees over the projected moments -----
        # Independent child generators per tree (see PrivIncReg1): batched
        # and sequential ingestion then draw identical noise.
        half = params.halve()
        m = self.projected_dim
        cross_rng, gram_rng = self._rng.spawn(2)
        self._tree_cross = make_release_mechanism(
            shape=(m,),
            l2_sensitivity=MOMENT_SENSITIVITY,
            params=half,
            rng=cross_rng,
            mechanism="tree",
            horizon=self.horizon,
            decay=self.decay,
            window=self.window,
        )
        self._tree_gram = make_release_mechanism(
            shape=(m, m),
            l2_sensitivity=MOMENT_SENSITIVITY,
            params=half,
            rng=gram_rng,
            mechanism="tree",
            horizon=self.horizon,
            decay=self.decay,
            window=self.window,
        )
        self.accountant = PrivacyAccountant(params, mode="basic")
        self.accountant.charge("tree:projected-cross-moments", half)
        self.accountant.charge("tree:projected-second-moments", half)

        # The projected α, fixed here: the trees' error bounds are
        # configuration constants (see ``error_bound`` in
        # privacy/release.py).  Under the Gordon event the projected set's
        # diameter is (1+γ)‖C‖.
        share = self.beta / 2.0
        self._alpha = PrivateGradientFunction.moment_error_bound(
            self._tree_gram.error_bound_spectral(share),
            self._tree_cross.error_bound(share),
            (1.0 + self.gamma) * constraint.diameter(),
        )

        self.steps_taken = 0
        self.estimate_version = 0
        self._vartheta = self.projected_constraint.project(np.zeros(m))
        self._theta = constraint.project(np.zeros(self.dim))

    # ------------------------------------------------------------------

    def gradient_error(self) -> float:
        """Projected-space analog of Lemma 4.1's ``α`` (scales with ``√m``).

        As in Algorithm 2, the gram tree's error enters through the
        spectral norm of its Gaussian noise matrix (``O(√m)``), not the
        Frobenius norm (``O(m)``).  Computed once at construction.
        """
        return self._alpha

    def _prefix_lipschitz(self, t: float) -> float:
        """Lipschitz bound of the projected loss: ``2t((1+γ)‖C‖ + 1)``."""
        return 2.0 * t * ((1.0 + self.gamma) * self.constraint.diameter() + 1.0)

    def _logical_t(self, t: int) -> int | float:
        """Effective sample weight at stream position ``t``.

        ``t`` when plain, the γ-series under ``decay``, the covered count
        under ``window`` — pure arithmetic in ``t`` (see
        :meth:`PrivIncReg1._logical_t
        <repro.core.incremental_regression.PrivIncReg1._logical_t>`).
        """
        if self.window is not None:
            return max(
                SlidingWindowMechanism.covered_at(
                    t, self.window, self._tree_cross.chunk
                ),
                1,
            )
        if self.decay is not None and self.decay != 1.0:
            return (1.0 - self.decay**t) / (1.0 - self.decay)
        return t

    def _iterations(self, t: float, alpha: float) -> int:
        if self.fidelity == "paper":
            return noisy_pgd_iterations(self._prefix_lipschitz(self.horizon), alpha, cap=None)
        return noisy_pgd_iterations(self._prefix_lipschitz(t), alpha, cap=self.iteration_cap)

    def observe(self, x: np.ndarray, y: float) -> np.ndarray:
        """Process ``(x_t, y_t)``; release the lifted ``θ_t^priv``."""
        x = check_vector("x", x, dim=self.dim)
        y = float(y)
        if np.linalg.norm(x) > 1.0 + 1e-9 or abs(y) > 1.0 + 1e-9:
            raise DomainViolationError(
                "PrivIncReg2 requires ‖x‖ ≤ 1 and |y| ≤ 1 (privacy calibration)"
            )
        # Step 4: rescale so that ‖Φx̃‖ = ‖x‖ (pins the sensitivity).
        _, projected_x = self.projection.rescale_covariate(x)

        # Steps 5-6: advance the projected moment trees (every step — this
        # is the privacy-relevant part and cannot be amortized).  The step
        # counter bumps only after both trees consumed the point, matching
        # observe_batch's commit ordering, so a rejected point never
        # desyncs the counter from the trees' state.
        noisy_cross = self._tree_cross.observe(projected_x * y)
        noisy_gram = self._tree_gram.observe(np.outer(projected_x, projected_x))
        self.steps_taken += 1
        t = self.steps_taken

        # Steps 7-9 are post-processing of the released moments and may be
        # amortized across a solve_every-window (staleness ≤ solve_every
        # points, as in Mechanism 1's τ-window argument).
        if t % self.solve_every == 0 or t == self.horizon:
            self._solve_at(self._logical_t(t), noisy_gram, noisy_cross)
        return self._theta.copy()

    def observe_batch(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Process a block of points; release the lifted ``θ`` after it.

        Step 4's covariate rescaling is applied to the whole block with one
        matrix product, the two projected-moment trees ingest the block via
        their vectorized batch path, and the projected-space solves + lifts
        scheduled inside the block by ``solve_every`` run against the
        matching per-step releases.  Matches point-by-point :meth:`observe`
        up to BLAS reduction order in the ``ΦXᵀ`` product (the trees
        themselves are rng-matched), so released parameters agree to
        floating-point accuracy rather than bit-for-bit.
        """
        xs, ys = check_xy_block(xs, ys, dim=self.dim)
        check_unit_xy_domain("PrivIncReg2", xs, ys)
        k = xs.shape[0]
        # Step 4, vectorized: x̃ = (‖x‖/‖Φx‖)·x so that ‖Φx̃‖ = ‖x‖ — the
        # shared helper the projected serving shards apply to their routed
        # blocks, so both paths build identical moment streams from one Φ.
        projected = step4_rescale_block(self.projection, xs)

        cross_all = self._tree_cross.observe_batch(projected * ys[:, None])
        gram_all = self._tree_gram.observe_batch(
            projected[:, :, None] * projected[:, None, :]
        )
        t0 = self.steps_taken
        self.steps_taken = t0 + k
        for t in solve_schedule(t0, t0 + k, self.solve_every, self.horizon):
            idx = t - t0 - 1
            self._solve_at(self._logical_t(t), gram_all[idx], cross_all[idx])
        return self._theta.copy()

    def _solve_at(
        self, t: float, noisy_gram: np.ndarray, noisy_cross: np.ndarray
    ) -> None:
        """Steps 7-9 against the released projected moments at logical ``t``."""
        self._vartheta = solve_released(
            self.projected_constraint,
            noisy_gram,
            noisy_cross,
            alpha=self._alpha,
            lipschitz=self._prefix_lipschitz(t),
            iterations=self._iterations(t, self._alpha),
            start=self._vartheta,
        )

        lifted = lift(self.projection.matrix, self._vartheta, self.constraint)
        # Numerical safety: the paper argues gauge(θ) ≤ 1 exactly; we
        # project to absorb LP/solver round-off.
        self._theta = self.constraint.project(lifted)
        self.estimate_version += 1

    def refresh_from_released(
        self, t: int | float, noisy_gram: np.ndarray, noisy_cross: np.ndarray
    ) -> np.ndarray:
        """Serve-mode hook: Steps 7–9 against external *projected* moments.

        The moments must live in the projected space (``m × m`` / ``m``) —
        a sharded front serving Algorithm 3 shares one ``Φ`` across shards
        and merges the per-shard projected-moment trees before calling
        this.  Post-processing only; bumps ``estimate_version`` and
        returns the refreshed lifted parameter.  ``t`` may be a positive
        float: a front serving weighted (``decay``/``window``) moments
        passes the mechanisms' effective weight as the logical sample
        count.
        """
        if isinstance(t, (int, np.integer)) and not isinstance(t, bool):
            t = check_int("t", t, minimum=1)
        else:
            t = check_positive("t", t)
        m = self.projected_dim
        noisy_gram = check_matrix("noisy_gram", noisy_gram, shape=(m, m))
        noisy_cross = check_vector("noisy_cross", noisy_cross, dim=m)
        self._solve_at(t, noisy_gram, noisy_cross)
        return self._theta.copy()

    def current_estimate(self) -> np.ndarray:
        """The most recently released (lifted) parameter."""
        return self._theta.copy()

    def memory_floats(self) -> int:
        """Floats held: ``O(m² log T)`` for trees + ``m·d`` for ``Φ``.

        The paper's ``O(m² log T + log d)`` counts ``Φ`` as re-generatable
        from a logarithmic-size seed; we store it explicitly and report
        both terms.
        """
        return (
            self._tree_cross.memory_floats()
            + self._tree_gram.memory_floats()
            + self.projection.matrix.size
            + self.projected_dim
            + self.dim
        )

    def excess_risk_bound(self, opt: float = 0.0) -> float:
        """Theorem 5.7's guarantee shape (reference value for benchmarks).

        ``O(T^{1/3}W^{2/3}·log²T·‖C‖²·√log(1/δ)·log(1/β)/ε
        + T^{1/6}W^{1/3}‖C‖√OPT + T^{1/4}W^{1/2}‖C‖^{3/2}·OPT^{1/4})``.
        """
        t_len = max(self.horizon, 2)
        width = self.total_width
        diameter = self.constraint.diameter()
        leading = (
            t_len ** (1.0 / 3.0)
            * width ** (2.0 / 3.0)
            * math.log(t_len) ** 2
            * diameter**2
            * math.sqrt(math.log(1.0 / self.params.delta))
            * math.log(1.0 / self.beta)
            / self.params.epsilon
        )
        opt_terms = (
            t_len ** (1.0 / 6.0) * width ** (1.0 / 3.0) * diameter * math.sqrt(max(opt, 0.0))
            + t_len**0.25 * width**0.5 * diameter**1.5 * max(opt, 0.0) ** 0.25
        )
        return leading + opt_terms
