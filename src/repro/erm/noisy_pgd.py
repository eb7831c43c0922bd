"""Noisy projected gradient descent (the paper's Appendix B).

Algorithms 2 and 3 never see exact gradients: they query a *private gradient
function* ``g_t`` (Definition 5) that is an ``(α, β)``-approximation of the
true gradient.  Appendix B shows plain projected gradient descent still
converges when driven by such a gradient oracle:

    ``NOISYPROJGRAD``:  ``θ_{k+1} = P_C(θ_k − η · g(θ_k))``, output the
    iterate average ``θ̄ = (1/r) Σ θ_k``.

With the constant step size ``η = ‖C‖ / (√r (α + L))`` Proposition B.1
gives, with probability ``1 − rβ``,

    ``f(θ̄) − f(θ*) ≤ (α + L)‖C‖/√r + α‖C‖``,

and Corollary B.2 shows ``r = (1 + L/α)²`` iterations suffice for excess
error ``2α‖C‖`` — the iteration count Algorithms 2 and 3 plug in
(their ``r = Θ((1 + T‖C‖/α′)²)``).

A key privacy point the paper stresses: evaluating ``g`` at as many points
as we like costs **nothing** extra — the function itself was released
privately, and evaluations are post-processing.  That is why the iteration
count is a pure accuracy/time knob here, never a privacy knob.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .._validation import check_int, check_non_negative, check_positive
from ..exceptions import ValidationError
from ..geometry.base import ConvexSet

__all__ = ["NoisyProjectedGradient", "noisy_pgd_iterations"]


def noisy_pgd_iterations(
    lipschitz: float,
    gradient_error: float,
    cap: int | None = 2000,
) -> int:
    """Corollary B.2's iteration count ``r = (1 + L/α)²``.

    Parameters
    ----------
    lipschitz:
        Lipschitz constant ``L`` of the objective being minimized (for the
        aggregate least-squares loss at time ``t`` this grows like ``t``).
    gradient_error:
        The gradient oracle's error bound ``α``.
    cap:
        Optional ceiling.  The paper's value grows like ``(T‖C‖/α)²`` which
        is prohibitive to run at every timestep of a long stream; the
        default cap keeps per-step work bounded while preserving the
        measured bound shapes (the convergence term ``(α+L)‖C‖/√r`` merely
        needs to be dominated by the noise floor ``α‖C‖``).  Pass ``None``
        for the full paper-fidelity count.
    """
    lipschitz = check_non_negative("lipschitz", lipschitz)
    gradient_error = check_positive("gradient_error", gradient_error)
    exact = int(math.ceil((1.0 + lipschitz / gradient_error) ** 2))
    if cap is None:
        return max(exact, 1)
    return max(min(exact, int(cap)), 1)


class NoisyProjectedGradient:
    """The ``NOISYPROJGRAD`` procedure of Appendix B (eq. 12).

    Parameters
    ----------
    constraint:
        The convex constraint set ``C``.
    lipschitz:
        Lipschitz constant ``L`` of the objective (enters the step size).
    gradient_error:
        The oracle error bound ``α`` (enters the step size).
    iterations:
        The iteration count ``r``; use :func:`noisy_pgd_iterations` for the
        Corollary B.2 value.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.geometry import L2Ball
    >>> ball = L2Ball(dim=2, radius=1.0)
    >>> target = np.array([2.0, 0.0])
    >>> oracle = lambda theta: 2.0 * (theta - target)  # noqa: E731
    >>> pgd = NoisyProjectedGradient(ball, lipschitz=6.0,
    ...                              gradient_error=0.01, iterations=400)
    >>> theta_bar = pgd.run(oracle)
    >>> bool(np.linalg.norm(theta_bar - np.array([1.0, 0.0])) < 0.1)
    True
    """

    def __init__(
        self,
        constraint: ConvexSet,
        lipschitz: float,
        gradient_error: float,
        iterations: int,
    ) -> None:
        self.constraint = constraint
        self.lipschitz = check_non_negative("lipschitz", lipschitz)
        self.gradient_error = check_positive("gradient_error", gradient_error)
        self.iterations = check_int("iterations", iterations, minimum=1)
        diameter = constraint.diameter()
        # Appendix B step size: ‖C‖ / (√r (α + L)).
        self.step_size = diameter / (
            math.sqrt(self.iterations) * (self.gradient_error + self.lipschitz)
        )

    def run(
        self,
        gradient_oracle: Callable[[np.ndarray], np.ndarray],
        start: np.ndarray | None = None,
    ) -> np.ndarray:
        """Run ``r`` projected steps against the oracle; return ``θ̄``.

        One check per solve: ``start`` goes through the checked
        :meth:`~repro.geometry.base.ConvexSet.project` once, and the loop
        then steps in place.  Each step is one oracle evaluation scaled
        by the step size into a buffer, ``θ −= step``, one square
        ``z·z`` of the point ``z`` about to be projected, a finiteness
        test on that square, and
        :meth:`~repro.geometry.base.ConvexSet._project_squared`, which
        takes the same square (the ``L2Ball`` projection uses it as its
        norm).  The test stands in for the per-iterate check: a
        non-finite gradient or iterate still raises
        :class:`~repro.exceptions.ValidationError` before it reaches a
        projection, exactly as a checked ``project`` would.  The result
        is bit-identical to the unbuffered loop
        ``θ ← P_C(θ − η·g(θ))`` except in one edge: an ``into`` oracle
        folds ``η`` into its doubling (``(Qθ − q)·2η``), so where ``2·g``
        overflows but ``g·2η`` does not, this loop takes a finite step
        that the unbuffered one, stepping by ``η·inf``, refuses.  A point
        that step leaves finite but beyond the square's range (‖z‖ >
        ~1e154) is projected, not refused.

        A ``(k, d)`` ``start`` block runs ``k`` problems in lockstep — one
        oracle evaluation, one ``np.vecdot`` of row squares and one
        ``_project_squared`` over the whole block per step — and returns
        the ``(k, d)`` block of averages.  Row ``j`` is bit-identical to
        a 1-D run from ``start[j]`` against an oracle whose value is row
        ``j`` of the block oracle's, on any set whose projection keeps no
        state between calls; a row that goes non-finite raises the error
        its 1-D run raises.

        Parameters
        ----------
        gradient_oracle:
            The private gradient function ``g`` — any callable mapping a
            feasible ``θ`` (or a ``(k, d)`` block of them) to an
            approximate gradient of the same shape.  Post-processing of a
            private release, so evaluations are privacy-free.  The ``θ``
            it receives is a solver buffer reused by later steps, so an
            oracle that keeps it must copy it.  An oracle with an
            ``into(theta, out, scale)`` method (as
            :class:`~repro.core.private_gradient.PrivateGradientFunction`
            has) writes ``scale·g(θ)`` into a buffer instead; a plain
            callable's value is multiplied by ``η`` into it.
        start:
            Optional feasible starting point ``θ_1`` (defaults to
            ``P_C(0)``; the Appendix-B analysis permits any ``θ_1 ∈ C``),
            or a ``(k, d)`` block of starting points.
        """
        constraint = self.constraint
        evaluate = getattr(gradient_oracle, "into", None)
        if evaluate is None:
            def evaluate(theta, out, scale):
                return np.multiply(gradient_oracle(theta), scale, out)
        rows = start is not None and np.ndim(start) == 2
        if rows:
            theta = np.array([constraint.project(row) for row in start])
        else:
            theta = constraint.project(np.zeros(constraint.dim) if start is None else start)
        step_size = self.step_size
        project = constraint._project_squared
        step = np.empty_like(theta)
        iterate_sum = np.zeros_like(theta)
        for _ in range(self.iterations):
            # ``theta`` is always the solver's own array: the checked
            # ``project`` copied ``start``, and a projection returns its
            # argument or a fresh array.
            evaluate(theta, step, step_size)
            theta -= step
            squares = np.vecdot(theta, theta) if rows else theta.dot(theta)
            # A block tests its squares with one BLAS ``dot`` (cheaper than
            # ``sum``): finite when every square is, unless the squares'
            # own squares overflow, which only costs the check below.
            if not math.isfinite(squares.dot(squares) if rows else squares):
                # Non-finite, or finite but overflowing the square: the
                # full check of each such row tells the two apart.
                for row in np.atleast_2d(theta)[~np.isfinite(np.atleast_1d(squares))]:
                    constraint._check_point("point", row)
            theta = project(theta, squares)
            iterate_sum += theta
        average = iterate_sum / self.iterations
        if not np.all(np.isfinite(average)):
            raise ValidationError("noisy PGD produced a non-finite average iterate")
        return average

    def risk_bound(self) -> float:
        """Proposition B.1's guarantee ``(α+L)‖C‖/√r + α‖C‖``."""
        diameter = self.constraint.diameter()
        convergence = (self.gradient_error + self.lipschitz) * diameter / math.sqrt(self.iterations)
        noise_floor = self.gradient_error * diameter
        return convergence + noise_floor
