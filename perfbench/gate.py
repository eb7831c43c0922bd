"""The benchmark's correctness gate: every run's outputs, checked after flush.

The reference is a non-private least-squares fit constrained to the same
L2 ball, solved here in closed form (eigendecomposition plus bisection on
the multiplier) so it shares no code with the library's solvers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: How far above the reference risk a served estimate may sit, as a share of
#: the gap between the risk of theta = 0 and the reference risk.
RISK_TOLERANCE = 0.25


@dataclass(frozen=True)
class Moments:
    """Sufficient statistics of the points a run sent: XᵀX, Xᵀy, yᵀy, n."""

    gram: np.ndarray
    cross: np.ndarray
    yy: float
    count: int

    def risk(self, theta: np.ndarray) -> float:
        """Mean squared error of ``theta`` over the sent points."""
        quad = float(theta @ self.gram @ theta)
        return (self.yy - 2.0 * float(self.cross @ theta) + quad) / self.count


def sent_moments(xs: np.ndarray, ys: np.ndarray, points: int) -> Moments:
    """Moments of the first ``points`` points of the cyclic stream over the pool."""
    cycles, rest = divmod(points, len(xs))
    gram = cycles * (xs.T @ xs) + xs[:rest].T @ xs[:rest]
    cross = cycles * (xs.T @ ys) + xs[:rest].T @ ys[:rest]
    yy = cycles * float(ys @ ys) + float(ys[:rest] @ ys[:rest])
    return Moments(gram, cross, yy, points)


def constrained_least_squares(moments: Moments, radius: float) -> np.ndarray:
    """argmin of the squared error over ``‖θ‖ ≤ radius``."""
    values, vectors = np.linalg.eigh(moments.gram)
    b = vectors.T @ moments.cross

    def theta_at(lam: float) -> np.ndarray:
        return vectors @ (b / np.maximum(values + lam, 1e-300))

    if values.min() > 1e-12 and np.linalg.norm(theta_at(0.0)) <= radius:
        return theta_at(0.0)
    low, high = 0.0, float(np.linalg.norm(b)) / radius + 1.0
    for _ in range(200):
        mid = 0.5 * (low + high)
        if np.linalg.norm(theta_at(mid)) > radius:
            low = mid
        else:
            high = mid
    return theta_at(high)


def check_estimate(label: str, theta, covered: int, moments: Moments, radius: float):
    """The per-estimate checks: coverage, feasibility, and excess risk."""
    theta = np.asarray(theta, dtype=float)
    finite = bool(np.all(np.isfinite(theta)))
    checks = [
        (f"{label}: covered_steps == T", covered == moments.count,
         f"{covered} vs {moments.count}"),
        (f"{label}: theta finite", finite, ""),
    ]
    if not finite:
        return checks
    reference = constrained_least_squares(moments, radius)
    risk = moments.risk(theta)
    ref_risk = moments.risk(reference)
    zero_risk = moments.risk(np.zeros_like(theta))
    bound = ref_risk + RISK_TOLERANCE * (zero_risk - ref_risk)
    detail = f"risk {risk:.6g}, reference {ref_risk:.6g}, zero {zero_risk:.6g}"
    checks += [
        (f"{label}: theta inside the constraint set",
         float(np.linalg.norm(theta)) <= radius * (1 + 1e-9), ""),
        (f"{label}: risk below the risk of theta = 0", risk < zero_risk, detail),
        (f"{label}: risk within tolerance of the reference", risk <= bound, detail),
    ]
    return checks


def check_front(front, points: int, params) -> list[tuple[str, bool, str]]:
    """Stream-level checks shared by both fronts (after ``flush``)."""
    spent = front.accountant.spent()
    checks = [
        ("steps_ingested == T", front.steps_ingested == points,
         f"{front.steps_ingested} vs {points}"),
        ("lost_steps == 0", front.lost_steps == 0, str(front.lost_steps)),
        ("ledger within (epsilon, delta)",
         front.accountant.within_budget()
         and spent.epsilon <= params.epsilon * (1 + 1e-9)
         and spent.delta <= params.delta * (1 + 1e-9),
         f"spent {spent}"),
    ]
    refunded = getattr(front, "blocks_refunded", 0)
    checks.append(("blocks_refunded == 0", refunded == 0, str(refunded)))
    return checks
