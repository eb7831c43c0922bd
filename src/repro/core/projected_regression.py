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

from .._validation import check_int, check_probability
from ..exceptions import ValidationError
from ..geometry.base import ConvexSet, PointSet
from ..privacy.parameters import PrivacyParams
from ..sketching.gaussian import GaussianProjection, step4_rescale_block
from ..sketching.gordon import gordon_dimension
from ..sketching.lifting import lift
from ..sketching.projected_set import ProjectedConvexSet
from .incremental_regression import _MomentRegression

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


class PrivIncReg2(_MomentRegression):
    """Private incremental regression with random projections (Alg. 3).

    Algorithm 2's skeleton over Step-4-rescaled projected rows ``Φx̃_t``,
    solving in ``ΦC`` and lifting each refresh back to ``C``.

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

    _ledger_labels = ("tree:projected-cross-moments", "tree:projected-second-moments")

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
        if x_domain.dim != constraint.dim:
            raise ValidationError(
                f"x_domain dim ({x_domain.dim}) != constraint dim ({constraint.dim})"
            )
        self._check_knobs(
            horizon, constraint, params, beta, fidelity, iteration_cap,
            solve_every, decay, window, rng,
        )
        self.x_domain = x_domain

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

        # -- Step 2: draw Φ once, before the moment trees spawn -----------
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

        # -- Steps 5-6 plumbing: two trees over the projected moments.
        # Under the Gordon event the projected set's radius is (1+γ)‖C‖.
        self._build_moments(self.projected_dim, (1.0 + self.gamma) * constraint.diameter())
        self._vartheta = self.projected_constraint.project(np.zeros(self.projected_dim))

    def _transform_row(self, x: np.ndarray) -> np.ndarray:
        """Step 4: rescale so that ``‖Φx̃‖ = ‖x‖`` (pins the sensitivity)."""
        return self.projection.rescale_covariate(x)[1]

    def _transform_block(self, xs: np.ndarray) -> np.ndarray:
        """Step 4 on a block with one ``ΦXᵀ`` product — the helper the
        projected serving shards apply to their routed blocks, so both
        paths build identical moment streams from one ``Φ``.  Agrees with
        :meth:`_transform_row` only up to BLAS reduction order, so
        :meth:`observe_batch` matches :meth:`observe` to floating-point
        accuracy rather than bit-for-bit."""
        return step4_rescale_block(self.projection, xs)

    def _solve_at(
        self, t: float, noisy_cross: np.ndarray, noisy_gram: np.ndarray
    ) -> None:
        """Steps 7-9 against the released projected moments at logical ``t``."""
        self._vartheta = self._pgd(
            self.projected_constraint, t, noisy_gram, noisy_cross, self._vartheta
        )
        lifted = lift(self.projection.matrix, self._vartheta, self.constraint)
        # Numerical safety: the paper argues gauge(θ) ≤ 1 exactly; we
        # project to absorb LP/solver round-off.
        self._theta = self.constraint.project(lifted)
        self.estimate_version += 1

    def memory_floats(self) -> int:
        """Floats held: ``O(m² log T)`` for trees + ``m·d`` for ``Φ``.

        The paper's ``O(m² log T + log d)`` counts ``Φ`` as re-generatable
        from a logarithmic-size seed; we store it explicitly and report
        both terms.
        """
        return super().memory_floats() + self.projection.matrix.size + self.projected_dim

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
