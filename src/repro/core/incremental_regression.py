"""Algorithm 2 — ``PrivIncReg1``: private incremental linear regression.

The paper's first regression mechanism (§4).  Per timestep ``t``:

1. feed ``x_t y_t`` into one Tree Mechanism and ``x_t x_tᵀ`` (flattened to a
   ``d²``-vector) into a second, each with budget ``(ε/2, δ/2)`` and
   sensitivity ``Δ₂ = 2`` (both guaranteed by the ``‖x‖ ≤ 1, |y| ≤ 1``
   normalization);
2. form the private gradient function ``g_t(θ) = 2(Q_t θ − q_t)``
   (Definition 5, Lemma 4.1);
3. run ``NOISYPROJGRAD(C, g_t, r)`` (Appendix B) and release its average.

Privacy: the two trees are each ``(ε/2, δ/2)``-DP for the whole stream;
basic composition (Theorem A.3) gives ``(ε, δ)`` overall, and the PGD loop
is post-processing.  Memory is ``O(d² log T)``.

Utility (Theorem 4.2): excess risk
``O(log^{3/2}T · √log(1/δ) · ‖C‖² (√d + √log(T/β)) / ε)`` — the ``√d``
worst-case-optimal row of Table 1.

Engineering knobs (documented deviations; the README's "Knobs" table
lists them):

* ``fidelity="fast"`` (default) sizes the inner PGD iteration count from
  Corollary B.2 with the *current* prefix Lipschitz constant and caps it;
  ``fidelity="paper"`` uses the horizon-based
  ``r = Θ((1 + T‖C‖/α′)²)`` from Algorithm 2's Step 1 (uncapped).
* the released parameter warm-starts the next step's PGD — pure
  post-processing of already-private quantities, so privacy is unaffected.
* ``solve_every=s`` runs the PGD refresh only on multiples of ``s``
  (and at the horizon), replaying the stale parameter in between.  The
  moment trees still advance every step — the privacy-relevant part is
  never amortized — so this is pure post-processing scheduling (the same
  staleness argument as Mechanism 1's τ-window and
  :class:`~repro.core.projected_regression.PrivIncReg2`'s knob).  1
  (default) reproduces Algorithm 2 exactly.
* :meth:`PrivIncReg1.observe_batch` commits a block to the trees up to
  each PGD refresh scheduled inside it and reads the releases only there.
  Tree node noise is keyed by node (each tree's key comes from a child
  generator spawned from the constructor's ``rng``), so the released
  parameters are bit-identical to point-by-point ``observe`` calls under
  the same ``solve_every``.
"""

from __future__ import annotations

import math

import numpy as np

from .._validation import (
    check_int,
    check_probability,
    check_release_knobs,
    check_rng,
    check_sample_weight,
    check_shape,
    check_unit_xy_domain,
    check_vector,
    check_xy_block,
)
from ..erm.noisy_pgd import noisy_pgd_iterations
from ..exceptions import DomainViolationError, ValidationError
from ..geometry.base import ConvexSet
from ..privacy.accountant import PrivacyAccountant
from ..privacy.parameters import PrivacyParams, bundle_budgets
from ..privacy.tree import _check_room
from .moments import MomentBundle, cross_statistic, gram_statistic
from .private_gradient import PrivateGradientFunction, solve_released

__all__ = [
    "PrivIncReg1",
    "adopt_lockstep",
    "lockstep_plan",
    "solve_lockstep",
    "solve_schedule",
]


def solve_schedule(
    t0: int, t1: int, solve_every: int, horizon: int | None
) -> list[int]:
    """Timesteps in ``(t0, t1]`` at which an amortized PGD refresh runs.

    The single definition of the ``solve_every`` schedule shared by the
    batched paths of Algorithms 2 and 3: every multiple of ``solve_every``
    plus the horizon itself (if there is one), so a sequential run with the
    same knob solves at exactly the same steps.
    """
    return [
        t for t in range(t0 + 1, t1 + 1) if t % solve_every == 0 or t == horizon
    ]


class _MomentRegression:
    """The moment-regression skeleton Algorithms 2 and 3, the
    horizon-free variant and private 2SLS share.

    A :class:`~repro.core.moments.MomentBundle` — one release mechanism
    per statistic, each on its own child generator spawned from ``rng`` —
    privatizes the running moments of the rows ``r_t``: by default the
    cross moments ``Σ r_t y_t`` and second moments ``Σ r_t r_tᵀ`` at
    ``(ε/2, δ/2)`` each.  Every scheduled refresh runs against their
    releases.  Subclasses declare only what differs:

    * ``_family`` — the mechanism family (``"tree"`` or ``"hybrid"``);
    * ``_statistics`` — the bundle's statistics (cross, gram here);
    * ``_ledger_labels`` — the accountant labels, one per statistic;
    * ``_transform_row`` / ``_transform_block`` — the covariate-to-row map
      (identity here);
    * ``_solve_at`` — the refresh itself (PGD over ``C`` here);
    * ``gradient_error`` — Lemma 4.1's ``α`` (fixed per configuration here).

    :meth:`__init__` is :meth:`_check_knobs` then :meth:`_build_moments`; a
    subclass that draws randomness before the mechanisms spawn (Algorithm
    3's ``Φ``) calls the two itself with its draws in between.
    """

    _family = "tree"
    _ledger_labels = ("tree:cross-moments", "tree:second-moments")

    def __init__(
        self,
        horizon: int | None,
        constraint: ConvexSet,
        params: PrivacyParams,
        beta: float = 0.05,
        fidelity: str = "fast",
        iteration_cap: int = 400,
        solve_every: int = 1,
        decay: float | None = None,
        window: int | float | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self._check_knobs(
            horizon, constraint, params, beta, fidelity, iteration_cap,
            solve_every, decay, window, rng,
        )
        self._build_moments(self.dim, constraint.diameter())

    def _check_knobs(
        self, horizon, constraint, params, beta, fidelity, iteration_cap,
        solve_every, decay, window, rng,
    ) -> None:
        """Validate and store the shared knobs; no randomness is drawn."""
        if fidelity not in ("paper", "fast"):
            raise ValidationError(f"fidelity must be 'paper' or 'fast', got {fidelity!r}")
        # Trees need the stream length; the hybrid family runs without one.
        self.horizon = (
            None if self._family == "hybrid" else check_int("horizon", horizon, minimum=1)
        )
        self.constraint = constraint
        self.params = params
        self.beta = check_probability("beta", beta)
        self.fidelity = fidelity
        self.iteration_cap = check_int("iteration_cap", iteration_cap, minimum=1)
        self.solve_every = check_int("solve_every", solve_every, minimum=1)
        self.decay, self.window = check_release_knobs(decay, window)
        self._rng = check_rng(rng)
        self.dim = constraint.dim

    def _statistics(self, moment_dim: int) -> tuple:
        """The bundle's statistics over ``moment_dim``-wide rows."""
        return (cross_statistic(moment_dim), gram_statistic(moment_dim))

    def _build_moments(self, moment_dim: int, radius: float) -> None:
        """Spawn the moment bundle over ``moment_dim``-wide rows and charge
        the ledger.

        ``radius`` bounds ``‖θ‖`` over the set the PGD solves in: it sizes
        ``α`` and the prefix Lipschitz constant ``2t(radius + 1)``.
        """
        self._moment_dim = moment_dim
        self._radius = radius
        # Step 1 of Algorithm 2: the budget splits by the statistics'
        # weights (ε/2, δ/2 each by default).  Independent child
        # generators mean the mechanisms' draws never interleave on a
        # shared stream.
        statistics = self._statistics(moment_dim)
        budgets = bundle_budgets(self.params, [s.budget_weight for s in statistics])
        self._moments = MomentBundle(
            statistics,
            budgets,
            self._rng.spawn(len(statistics)),
            mechanism=self._family,
            horizon=self.horizon,
            decay=self.decay,
            window=self.window,
        )
        self.accountant = PrivacyAccountant(self.params, mode="basic")
        for label, budget in zip(self._ledger_labels, budgets):
            self.accountant.charge(label, budget)
        self._alpha = None
        self.steps_taken = 0
        self.estimate_version = 0
        self._theta = self.constraint.project(np.zeros(self.dim))

    @property
    def _tree_cross(self):
        """The cross-moment mechanism (a read-only view into the bundle)."""
        return self._moments.get("cross")

    @property
    def _tree_gram(self):
        """The second-moment mechanism (a read-only view into the bundle)."""
        return self._moments.get("gram")

    def _moment_alpha(self, gram_error: float) -> float:
        """Lemma 4.1's ``α`` from the gram error and the cross tree's
        radius, each at confidence ``β/2``."""
        return PrivateGradientFunction.moment_error_bound(
            gram_error, self._tree_cross.error_bound(self.beta / 2.0), self._radius
        )

    def gradient_error(self) -> float:
        """Lemma 4.1's ``α``: uniform gradient-error bound over ``C``.

        Combines the cross tree's Proposition C.1 radius with the gram
        tree's **spectral** radius (the paper bounds ``‖ΔQ·θ‖`` through
        ``‖ΔQ‖₂`` via its Proposition A.1 — the spectral norm of a Gaussian
        matrix is ``O(√d)``, a ``√d`` factor below Frobenius, which is how
        Theorem 4.2 lands on ``√d`` rather than ``d``), each at confidence
        ``β/2``.  A tree's error bounds are configuration constants, so
        the first refresh computes ``α`` and every later one reuses it.  In
        Algorithm 3 the same bound lives in the projected space (``√m``,
        radius ``(1+γ)‖C‖``).
        """
        if self._alpha is None:
            spectral = self._tree_gram.error_bound_spectral(self.beta / 2.0)
            self._alpha = self._moment_alpha(spectral)
        return self._alpha

    def _prefix_lipschitz(self, t: float) -> float:
        """Lipschitz bound of ``L(·; Γ_t)`` over the solve set:
        ``2t(radius + 1)``."""
        return 2.0 * t * (self._radius + 1.0)

    def _logical_t(self, t: int) -> int | float:
        """The effective sample weight at stream position ``t``.

        The quantity the PGD refresh should size its Lipschitz constant
        (and hence its iteration schedule) from: ``t`` itself for the
        plain mechanism, the γ-series ``(1−γ^t)/(1−γ)`` under decay, and
        the covered count under a window.  Pure arithmetic in ``t`` so the
        batched path's interior solves agree bit-for-bit with the
        sequential path.
        """
        if self.window is not None:
            return max(self._tree_cross.schedule.covered_at(t), 1)
        if self.decay is not None and self.decay != 1.0:
            return (1.0 - self.decay**t) / (1.0 - self.decay)
        return t

    def _iterations(self, t: float, alpha: float) -> int:
        if self.fidelity == "paper":
            # Algorithm 2 Step 1: r = Θ((1 + T‖C‖/α′)²), horizon-based.
            horizon_lipschitz = self._prefix_lipschitz(self.horizon)
            return noisy_pgd_iterations(horizon_lipschitz, alpha, cap=None)
        return noisy_pgd_iterations(self._prefix_lipschitz(t), alpha, cap=self.iteration_cap)

    def _transform_row(self, x: np.ndarray) -> np.ndarray:
        """The moment row of one checked covariate (identity here)."""
        return x

    def _transform_block(self, xs: np.ndarray) -> np.ndarray:
        """The moment rows of a checked covariate block (identity here)."""
        return xs

    def observe(self, x: np.ndarray, y: float) -> np.ndarray:
        """Process ``(x_t, y_t)``; release ``θ_t^priv``.

        Raises
        ------
        DomainViolationError
            If the point violates the unit normalization the sensitivity
            analysis depends on.
        """
        x = check_vector("x", x, dim=self.dim)
        y = float(y)
        if np.linalg.norm(x) > 1.0 + 1e-9 or abs(y) > 1.0 + 1e-9:
            raise DomainViolationError(
                f"{type(self).__name__} requires ‖x‖ ≤ 1 and |y| ≤ 1 (privacy calibration)"
            )
        return self._ingest(self._transform_row(x)[None, :], np.array([y]))

    def observe_batch(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Process a block of points; release ``θ`` after the final one.

        The moment bundle commits the block piece by piece, one piece per
        refresh scheduled inside it by ``solve_every`` (the privacy-relevant
        part still advances element by element inside its mechanisms), and
        each refresh reads the releases at its step.  Bit-identical to
        feeding the same points one at a time through :meth:`observe`
        whenever the row transform is (always, but for Algorithm 3's
        ``ΦXᵀ`` product).

        Parameters
        ----------
        xs, ys:
            Covariates ``(k, d)`` and responses ``(k,)`` with ``k ≥ 1``.

        Returns
        -------
        numpy.ndarray
            The parameter released at the final step of the block.
        """
        xs, ys = check_xy_block(xs, ys, dim=self.dim)
        check_unit_xy_domain(type(self).__name__, xs, ys)
        return self._ingest(self._transform_block(xs), ys)

    def _ingest(self, rows: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Feed checked moment rows to the bundle and run the scheduled
        refreshes; release ``θ`` after the final row.

        The block is cut at its ``solve_every`` points.  The bundle commits
        each piece in one exact ingest and a refresh reads the releases at
        its piece's end — the commit-then-read a shard uses — so the steps
        between two solves are never read.  A block that would pass the
        horizon is refused before any piece commits.  Within the block the
        bundle commits a piece first and the counter bumps after, so the
        counter always agrees with the mechanisms.
        """
        t0, t1 = self.steps_taken, self.steps_taken + rows.shape[0]
        _check_room(self, rows.shape[0])
        solves = set(solve_schedule(t0, t1, self.solve_every, self.horizon))
        mechanisms = [self._moments.get(name) for name in self._moments.names]
        start = t0
        for stop in sorted(solves | {t1}):
            self._moments.ingest(rows[start - t0:stop - t0], ys[start - t0:stop - t0], fast=False)
            self.steps_taken = start = stop
            if stop in solves:
                self._solve_at(self._logical_t(stop), *(m.current_sum() for m in mechanisms))
        return self._theta.copy()

    def _pgd_plan(self, t: float) -> tuple[float, float, int]:
        """``(α, L, r)`` of the refresh at logical ``t``: the gradient
        error, the prefix Lipschitz bound and the iteration count."""
        alpha = self.gradient_error()
        return alpha, self._prefix_lipschitz(t), self._iterations(t, alpha)

    def _pgd(self, constraint, t, noisy_gram, noisy_cross, start) -> np.ndarray:
        """NOISYPROJGRAD over ``constraint`` at logical ``t`` from ``start``."""
        alpha, lipschitz, iterations = self._pgd_plan(t)
        return solve_released(
            constraint,
            noisy_gram,
            noisy_cross,
            alpha=alpha,
            lipschitz=lipschitz,
            iterations=iterations,
            start=start,
        )

    def _solve_at(
        self, t: float, noisy_cross: np.ndarray, noisy_gram: np.ndarray
    ) -> None:
        """One PGD refresh against the released moments at logical ``t``
        (the releases in bundle order)."""
        self._theta = self._pgd(self.constraint, t, noisy_gram, noisy_cross, self._theta)
        self.estimate_version += 1

    def refresh_from_released(
        self, t: int | float, noisy_gram: np.ndarray, noisy_cross: np.ndarray
    ) -> np.ndarray:
        """Serve-mode hook: one refresh against *external* released moments.

        A serving front (e.g. :class:`~repro.streaming.serving.ShardedStream`)
        ingests the stream through its own per-shard mechanisms and hands
        the merged released moments here; this runs the same refresh as
        :meth:`observe` — same warm start, Lipschitz sizing, and iteration
        schedule at logical timestep ``t`` — and bumps
        ``estimate_version``.  The moments live in the estimator's own row
        space (``m × m`` / ``m`` for Algorithm 3, whose front shares its
        ``Φ``).  Pure post-processing of already-released statistics:
        privacy is untouched regardless of how the moments were assembled.
        Returns the refreshed parameter.

        ``t`` may be a positive float: a front serving *weighted* moments
        (``decay`` / ``window``) passes the mechanisms' effective weight —
        the γ-series ``Σ γ^{t−i}`` or the covered window count — as the
        logical sample count the Lipschitz sizing uses.

        Only shapes are checked here: the refresh's
        :class:`~repro.core.private_gradient.PrivateGradientFunction`
        scans the moments for non-finite entries, once, before any state
        moves.
        """
        t = check_sample_weight("t", t)
        m = self._moment_dim
        noisy_gram = check_shape("noisy_gram", noisy_gram, (m, m))
        noisy_cross = check_shape("noisy_cross", noisy_cross, (m,))
        self._solve_at(t, noisy_cross, noisy_gram)
        return self._theta.copy()

    def current_estimate(self) -> np.ndarray:
        """The most recently released parameter (post-processing, free)."""
        return self._theta.copy()

    def memory_floats(self) -> int:
        """Floats held by the mechanism: ``O(d² log T)`` (paper §4)."""
        return self._moments.memory_floats() + self.dim


def lockstep_plan(solver, t: int | float):
    """What ``solver``'s refresh at logical ``t`` must share with others to
    join one lockstep solve (:func:`solve_lockstep`), or ``None``.

    Only a refresh that is exactly one PGD over the solver's constraint
    qualifies — :class:`PrivIncReg1`'s and
    :class:`~repro.core.unbounded.UnboundedPrivIncReg`'s, not Algorithm 3's,
    which lifts its projected solution.  Refreshes with equal plans run
    the same PGD (set, ``α``, ``L``, ``r`` and hence step size), each on
    its own cross moments.
    """
    if getattr(type(solver), "_solve_at", None) is not _MomentRegression._solve_at:
        return None
    return (id(solver.constraint), *solver._pgd_plan(t))


def solve_lockstep(
    solvers, t: int | float, noisy_gram: np.ndarray, noisy_crosses
) -> np.ndarray:
    """The parameters ``refresh_from_released`` would give every solver
    against one shared Gram, as one lockstep PGD; no solver moves.

    ``solvers`` share one :func:`lockstep_plan` at ``t``, and solver ``j``
    refreshes on ``noisy_crosses[j]``.  The Gram is checked and
    symmetrized once; the solvers' warm starts and cross moments stack
    into ``(k, m)`` blocks that
    :meth:`~repro.erm.noisy_pgd.NoisyProjectedGradient.run` steps
    together, so row ``j`` is bit-identical to solver ``j``'s own
    ``refresh_from_released(t, noisy_gram, noisy_crosses[j])``.  Returns
    the ``(k, m)`` block of refreshed parameters, in solver order; the
    solvers' parameters and ``estimate_version`` move only when the
    caller hands the block to :func:`adopt_lockstep`, so a caller solving
    several groups can adopt none of them if a later one fails.
    """
    t = check_sample_weight("t", t)
    lead = solvers[0]
    m = lead._moment_dim
    noisy_gram = check_shape("noisy_gram", noisy_gram, (m, m))
    crosses = np.array([check_shape("noisy_cross", c, (m,)) for c in noisy_crosses])
    alpha, lipschitz, iterations = lead._pgd_plan(t)
    thetas = solve_released(
        lead.constraint,
        noisy_gram,
        crosses,
        alpha=alpha,
        lipschitz=lipschitz,
        iterations=iterations,
        start=np.array([solver._theta for solver in solvers]),
    )
    return thetas


def adopt_lockstep(solvers, thetas) -> None:
    """Make :func:`solve_lockstep`'s ``thetas`` the solvers' parameters.

    Each solver's parameter and ``estimate_version`` move exactly as its
    own ``refresh_from_released`` would have moved them.
    """
    for solver, theta in zip(solvers, thetas):
        solver._theta = theta
        solver.estimate_version += 1


class PrivIncReg1(_MomentRegression):
    """Private incremental linear regression via the Tree Mechanism (Alg. 2).

    Parameters
    ----------
    horizon:
        The stream length ``T`` (known in advance; the paper's footnote 13
        trick — our :class:`~repro.privacy.chunked.HybridMechanism` — lifts
        this, see :class:`PrivIncReg1` docs for the variant).
    constraint:
        The convex constraint set ``C`` the regression parameter lives in.
    params:
        Total ``(ε, δ)`` budget for the entire stream of releases.
    beta:
        Confidence parameter for the internal error bounds (Definition 1's
        ``β``); only affects utility knobs, never privacy.
    fidelity:
        ``"fast"`` (default) or ``"paper"`` inner-iteration sizing.
    iteration_cap:
        PGD iteration ceiling in ``"fast"`` mode.
    solve_every:
        Run the PGD refresh every ``solve_every`` steps (and at the
        horizon), replaying the stale parameter in between; 1 = paper.
        Post-processing only — privacy is unchanged.
    decay:
        Optional forgetting factor ``γ ∈ (0, 1]``: the moment trees become
        :class:`~repro.privacy.tree.DecayedTreeMechanism` instances
        tracking the γ-weighted moments ``Σ γ^{t−i} x_i y_i`` etc., and
        the PGD refresh sizes its Lipschitz constant from the *effective*
        sample weight ``(1−γ^t)/(1−γ)`` instead of ``t``.  Privacy is
        unchanged (per-node sensitivity only shrinks under γ ≤ 1).
        Mutually exclusive with ``window``; ``None``/``1.0`` reproduce
        the paper exactly.
    window:
        Optional sliding window ``W`` (elements): the moment trees become
        :class:`~repro.privacy.chunked.SlidingWindowMechanism` rings whose
        releases cover only the last ``≤ W`` elements.  Mutually
        exclusive with ``decay``.
    rng:
        Seed or Generator.  Each moment tree receives an independent child
        generator spawned from it, so batched and sequential ingestion
        draw identical noise.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.geometry import L2Ball
    >>> from repro.privacy import PrivacyParams
    >>> mech = PrivIncReg1(horizon=4, constraint=L2Ball(2),
    ...                    params=PrivacyParams(1.0, 1e-6), rng=1)
    >>> theta = mech.observe(np.array([0.6, 0.0]), 0.3)
    >>> theta.shape
    (2,)
    """

    def excess_risk_bound(self) -> float:
        """Theorem 4.2's guarantee shape (a reference value for benchmarks).

        ``O(log^{3/2}T √log(1/δ) ‖C‖² (√d + √log(T/β)) / ε)``.
        """
        diameter = self.constraint.diameter()
        kappa = (
            math.log(max(self.horizon, 2)) ** 1.5
            * math.sqrt(math.log(2.0 / self.params.delta))
            / (self.params.epsilon / 2.0)
        )
        return (
            kappa
            * diameter**2
            * (math.sqrt(self.dim) + math.sqrt(math.log(max(self.horizon, 2) / self.beta)))
        )
