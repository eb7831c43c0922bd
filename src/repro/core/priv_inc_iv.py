"""``PrivIncIV`` — private incremental two-stage least squares.

The first *multi-statistic* client of the moment-bundle serving stack:
instrumental-variable (IV) regression for streams whose covariates are
endogenous (correlated with the noise), where ordinary least squares — and
with it Algorithm 2 — is inconsistent no matter how small the privacy
noise.  With instruments ``z_t ∈ R^p`` (correlated with ``x_t``,
uncorrelated with the structural noise), the classical two-stage least
squares (2SLS) estimator is a pure function of three running moments:

1. **Stage 1** regresses each covariate coordinate on the instruments,
   ``B_t = (ZᵀZ)⁺ ZᵀX`` — the fitted covariates are ``X̂ = Z B_t``;
2. **Stage 2** regresses the response on the fitted covariates:
   ``θ_t = argmin_θ ‖X̂θ − y‖²``, whose normal equations involve only
   ``X̂ᵀX̂ = BᵀZᵀZ B`` and ``X̂ᵀy = BᵀZᵀy``.

Everything is a function of ``(ZᵀZ, ZᵀX, Zᵀy)`` — so the private
incremental version is the moment-regression skeleton of Algorithm 2 over
the three-statistic bundle
:func:`~repro.core.moments.iv_statistics` (one tree per statistic at one
third of the budget, basic composition; Δ₂ = 2 under
``‖z‖ ≤ 1, ‖x‖ ≤ 1, |y| ≤ 1``), ingesting stacked ``[z | x]`` rows, and
runs both stages as **post-processing** of the released sums:

* stage 1 either solves its normal equations exactly (``stage1="exact"``,
  the default — a pseudo-inverse against the released ``ZᵀZ``), or runs
  one constrained noisy-PGD refresh per covariate column
  (``stage1="pgd"``, reusing
  :meth:`~repro.core.incremental_regression.PrivIncReg1.refresh_from_released`
  over an L2 ball of radius ``stage1_radius``) when the first stage
  itself should be regularized;
* stage 2 hands the reconstructed ``(X̂ᵀX̂, X̂ᵀy)`` pair to an internal
  :class:`~repro.core.incremental_regression.PrivIncReg1` — the same
  warm-started noisy-PGD solve, Lipschitz sizing, and iteration schedule
  Algorithm 2 uses, whose own trees never ingest.

Because both stages are deterministic functions of already-released
moments, privacy is the trees' alone: ``(ε, δ)`` overall by basic
composition of the three thirds.  Repeating a refresh (e.g. calling
:meth:`PrivIncIV.refresh` several times after the stream ends) is free —
each call warm-starts the stage-2 PGD from the previous parameter and
contracts the optimization error further, the same post-hoc polish the
single-equation mechanisms allow.

Served operation: :class:`~repro.streaming.serving.ShardedStream` with
``backend="iv"`` ingests stacked ``[z | x]`` blocks into per-shard
(zz, zx, zy) bundles (a :class:`~repro.streaming.serving.MomentShard`
under the ``iv`` declaration in :data:`~repro.streaming.backends.BACKENDS`)
on any transport and hands the merged bundle to
:meth:`PrivIncIV.refresh_from_bundle`.
"""

from __future__ import annotations

import numpy as np

from .._validation import (
    check_int,
    check_matrix,
    check_non_negative,
    check_positive,
    check_sample_weight,
    check_unit_iv_domain,
    check_vector,
    check_xy_block,
)
from ..exceptions import ValidationError
from ..geometry import L2Ball
from ..geometry.base import ConvexSet
from ..privacy.parameters import PrivacyParams
from .incremental_regression import PrivIncReg1, _MomentRegression
from .moments import iv_statistics

__all__ = ["PrivIncIV", "two_stage_least_squares"]


def two_stage_least_squares(
    zs: np.ndarray, xs: np.ndarray, ys: np.ndarray, ridge: float = 0.0
) -> np.ndarray:
    """The exact (non-private, unconstrained) 2SLS estimate of a batch.

    The ε → ∞ reference the conformance suite compares :class:`PrivIncIV`
    against: ``B = (ZᵀZ + ridge·I)⁺ ZᵀX`` then
    ``θ = (BᵀZᵀZB)⁺ BᵀZᵀy``.  With ``p = d`` (just-identified) this is
    the classical ``(ZᵀX)⁻¹ Zᵀy`` instrument estimator.
    """
    zs = np.asarray(zs, dtype=float)
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    ridge = check_non_negative("ridge", ridge)
    zz = zs.T @ zs
    zx = zs.T @ xs
    zy = zs.T @ ys
    kernel = np.linalg.pinv(zz + ridge * np.eye(zz.shape[0]), hermitian=True)
    B = kernel @ zx
    gram2 = B.T @ zz @ B
    cross2 = B.T @ zy
    return np.linalg.pinv(0.5 * (gram2 + gram2.T), hermitian=True) @ cross2


class PrivIncIV(_MomentRegression):
    """Private incremental two-stage least squares over a (zz, zx, zy) bundle.

    Parameters
    ----------
    horizon:
        The stream length ``T`` (known in advance — the tree calibration).
    constraint:
        The convex constraint set ``C`` for the *structural* parameter
        ``θ`` (dimension ``d``); the stage-2 PGD projects onto it.
    instruments:
        Number of instrument coordinates ``p``.  Identification needs
        ``p ≥ d`` (stage 1 regresses ``d`` covariates on ``p``
        instruments; fewer instruments than covariates leaves the
        structural parameter under-determined).
    params:
        Total ``(ε, δ)`` budget, split into exact thirds across the three
        moment trees (:func:`~repro.privacy.parameters.bundle_budgets`).
    beta:
        Confidence parameter forwarded to the stage solvers.
    fidelity:
        ``"fast"`` (default) or ``"paper"`` inner-iteration sizing of the
        noisy-PGD refreshes.
    iteration_cap:
        PGD iteration ceiling in ``"fast"`` mode.
    solve_every:
        Run the two-stage refresh every ``solve_every`` steps (and at the
        horizon) in the standalone :meth:`observe` path; post-processing
        scheduling only, exactly Algorithm 2's knob.
    ridge:
        Optional Tikhonov term added to the released ``ZᵀZ`` before the
        stage-1 pseudo-inverse (``stage1="exact"`` only) — stabilizes the
        first stage when the noisy instrument Gram is near-singular at
        small ``t``.  ``0.0`` (default) is the plain pseudo-inverse.
    stage1:
        ``"exact"`` (default) — closed-form stage-1 solve against the
        released moments; ``"pgd"`` — one constrained noisy-PGD refresh
        per covariate column through an internal
        :class:`~repro.core.incremental_regression.PrivIncReg1` (whose
        trees never ingest), for a regularized first stage.
    stage1_radius:
        Radius of the per-column L2-ball constraint under
        ``stage1="pgd"`` (each first-stage coefficient column lives in
        ``‖b‖ ≤ stage1_radius``).
    rng:
        Seed or Generator.  The three moment trees receive the first
        three spawned children — in (zz, zx, zy) order, the same slice
        discipline an ``iv`` :class:`~repro.streaming.serving.MomentShard`
        uses, so a ``K = 1`` served stream builds bit-identical trees — and
        the stage solvers spawn after them.
    """

    _ledger_labels = ("tree:zz-moments", "tree:zx-moments", "tree:zy-moments")

    def __init__(
        self,
        horizon: int,
        constraint: ConvexSet,
        instruments: int,
        params: PrivacyParams,
        beta: float = 0.05,
        fidelity: str = "fast",
        iteration_cap: int = 400,
        solve_every: int = 1,
        ridge: float = 0.0,
        stage1: str = "exact",
        stage1_radius: float = 2.0,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if stage1 not in ("exact", "pgd"):
            raise ValidationError(
                f"stage1 must be 'exact' or 'pgd', got {stage1!r}"
            )
        self._check_knobs(
            horizon, constraint, params, beta, fidelity, iteration_cap,
            solve_every, None, None, rng,
        )
        self.instruments = check_int("instruments", instruments, minimum=1)
        if self.instruments < self.dim:
            raise ValidationError(
                f"identification needs instruments >= dim: {self.instruments} "
                f"instruments cannot identify {self.dim} structural "
                f"coefficients"
            )
        self.ridge = check_non_negative("ridge", ridge)
        self.stage1 = stage1
        self.stage1_radius = check_positive("stage1_radius", stage1_radius)
        p, d = self.instruments, self.dim
        self._build_moments(p + d, constraint.diameter())

        # Stage 2 is a full Algorithm-2 solver over the reconstructed
        # (X̂ᵀX̂, X̂ᵀy) pair; its own trees never ingest — it contributes
        # only refresh_from_released post-processing (warm start, Lipschitz
        # sizing, iteration schedule).
        solver = dict(
            horizon=self.horizon, params=params, beta=beta,
            fidelity=fidelity, iteration_cap=iteration_cap,
        )
        self._stage2 = PrivIncReg1(
            constraint=constraint, rng=self._rng.spawn(1)[0], **solver
        )
        # Stage-1 PGD solvers (one per covariate column, over the
        # instrument space) are only built when asked for: the exact
        # stage needs no solver state at all.
        self._stage1_solvers: list[PrivIncReg1] | None = None
        if stage1 == "pgd":
            ball = L2Ball(p, radius=self.stage1_radius)
            self._stage1_solvers = [
                PrivIncReg1(constraint=ball, rng=child, **solver)
                for child in self._rng.spawn(d)
            ]

    def _statistics(self, moment_dim: int) -> tuple:
        """The (zz, zx, zy) bundle over stacked ``[z | x]`` rows."""
        return iv_statistics(self.instruments, self.dim)

    # ------------------------------------------------------------------
    # The two-stage solve (pure post-processing of released moments)
    # ------------------------------------------------------------------

    def _solve_at(
        self, t: int | float, zz: np.ndarray, zx: np.ndarray, zy: np.ndarray
    ) -> None:
        """Both 2SLS stages against one released (zz, zx, zy) triple."""
        p = self.instruments
        zz = 0.5 * (zz + zz.T)
        if self.stage1 == "pgd":
            B = np.column_stack(
                [
                    solver.refresh_from_released(t, zz, zx[:, j])
                    for j, solver in enumerate(self._stage1_solvers)
                ]
            )
        else:
            kernel = np.linalg.pinv(
                zz + self.ridge * np.eye(p), hermitian=True
            )
            B = kernel @ zx
        # Stage 2's moments in the structural space: X̂ᵀX̂ = BᵀZᵀZB and
        # X̂ᵀy = BᵀZᵀy — both running sums of per-point dyads, exactly the
        # shape refresh_from_released expects, and PSD by construction.
        gram2 = B.T @ zz @ B
        gram2 = 0.5 * (gram2 + gram2.T)
        cross2 = B.T @ zy
        # The fitted design x̂ = Bᵀz is not unit-normalized — ‖x̂‖ shrinks
        # with the first-stage fit, so at sample count t the stage-2 Gram
        # carries curvature tr(gram2) ≪ t.  The PGD's Lipschitz sizing
        # (2t(‖C‖+1)) must see that *effective* weight, not the raw step
        # count, or its steps are vanishingly small against the actual
        # quadratic and the refresh barely moves.  The trace is itself a
        # released statistic, so this re-weighting is post-processing.
        t_eff = max(float(np.trace(gram2)), np.finfo(float).tiny)
        self._theta = self._stage2.refresh_from_released(t_eff, gram2, cross2)
        self.estimate_version += 1

    def refresh_from_bundle(self, t: int | float, moments: dict) -> np.ndarray:
        """Serve-mode hook: one two-stage solve from a merged moment bundle.

        ``moments`` maps the bundle names ``"zz"``/``"zx"``/``"zy"`` to
        released values — raw arrays or anything exposing ``.value``
        (e.g. the :class:`~repro.privacy.tree.MergedRelease` handles a
        :class:`~repro.streaming.serving.ShardedStream` merge produces).
        Pure post-processing of already-released statistics, so privacy
        is untouched regardless of how the moments were assembled; each
        call warm-starts the stage-2 PGD from the previous parameter, so
        repeated calls at the same ``t`` polish the optimization error.
        ``t`` is the covered logical sample count (may be a positive
        float, as in
        :meth:`~repro.core.incremental_regression.PrivIncReg1.refresh_from_released`).
        """
        t = check_sample_weight("t", t)
        p, d = self.instruments, self.dim
        missing = [name for name in ("zz", "zx", "zy") if name not in moments]
        if missing:
            raise ValidationError(
                f"moment bundle is missing {missing!r} (need zz, zx, zy)"
            )
        zz = check_matrix(
            "zz", getattr(moments["zz"], "value", moments["zz"]), shape=(p, p)
        )
        zx = check_matrix(
            "zx", getattr(moments["zx"], "value", moments["zx"]), shape=(p, d)
        )
        zy = check_vector(
            "zy", getattr(moments["zy"], "value", moments["zy"]), dim=p
        )
        self._solve_at(t, zz, zx, zy)
        return self._theta.copy()

    def refresh_from_released(self, t, noisy_gram, noisy_cross):
        """Not a 2SLS hook: the three-statistic bundle refreshes through
        :meth:`refresh_from_bundle`."""
        raise ValidationError("PrivIncIV refreshes from a (zz, zx, zy) bundle")

    def refresh(self) -> np.ndarray:
        """Re-run the two-stage solve from the trees' current releases.

        Post-hoc polish for the standalone path: the released moments are
        already public, so re-solving (warm-started) costs no privacy and
        contracts the stage-2 optimization error with every call.
        """
        if self.steps_taken == 0:
            raise ValidationError(
                "nothing to refresh: no points observed yet"
            )
        self._solve_at(self.steps_taken, *(r.value for r in self._moments.released()))
        return self._theta.copy()

    # ------------------------------------------------------------------
    # Standalone ingestion (the serving path uses an iv MomentShard instead)
    # ------------------------------------------------------------------

    def observe(self, z: np.ndarray, x: np.ndarray, y: float) -> np.ndarray:
        """Process ``(z_t, x_t, y_t)``; release ``θ_t^priv``.

        Raises
        ------
        DomainViolationError
            If the point violates ``‖z‖ ≤ 1, ‖x‖ ≤ 1, |y| ≤ 1`` — the
            normalization all three sensitivities are calibrated to.
        """
        z = check_vector("z", z, dim=self.instruments)
        x = check_vector("x", x, dim=self.dim)
        return self.observe_batch(
            z[None, :], x[None, :], np.asarray([float(y)])
        )

    def observe_batch(
        self, zs: np.ndarray, xs: np.ndarray, ys: np.ndarray
    ) -> np.ndarray:
        """Process a block of points; release ``θ`` after the final one.

        The moment bundle commits the stacked ``[z | x]`` rows up to each
        two-stage refresh scheduled inside the block by ``solve_every``,
        which runs against the releases read there — Algorithm 2's
        ingest path (:meth:`PrivIncReg1.observe_batch
        <repro.core.incremental_regression.PrivIncReg1.observe_batch>`).

        Raises
        ------
        StreamExhaustedError
            If the block would pass the horizon; nothing is consumed.
        """
        zs, ys = check_xy_block(zs, ys, dim=self.instruments)
        xs, ys = check_xy_block(xs, ys, dim=self.dim)
        check_unit_iv_domain("PrivIncIV", zs, xs, ys)
        return self._ingest(np.hstack([zs, xs]), ys)

    def memory_floats(self) -> int:
        """Floats held: three trees (``O((p² + pd) log T)``) + the solvers."""
        solvers = [self._stage2, *(self._stage1_solvers or ())]
        return self._moments.memory_floats() + sum(
            solver.memory_floats() for solver in solvers
        )
