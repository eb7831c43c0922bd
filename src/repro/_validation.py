"""Shared argument-validation helpers.

Every public entry point in the library validates its arguments through
these helpers so error messages stay consistent and informative.  The
helpers raise :class:`repro.exceptions.ValidationError` (a ``ValueError``
subclass) with the offending name and value in the message.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Sequence

import numpy as np

from .exceptions import DomainViolationError, ValidationError


def check_positive(name: str, value: float) -> float:
    """Return ``value`` if it is a finite number strictly greater than zero."""
    value = check_finite(name, value)
    if value <= 0:
        raise ValidationError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Return ``value`` if it is a finite number greater than or equal to zero."""
    value = check_finite(name, value)
    if value < 0:
        raise ValidationError(f"{name} must be >= 0, got {value!r}")
    return value


def check_finite(name: str, value: float) -> float:
    """Return ``value`` coerced to ``float`` if it is finite."""
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a real number, got {value!r}") from exc
    if not np.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return value


def check_probability(name: str, value: float, *, allow_zero: bool = False) -> float:
    """Return ``value`` if it lies in ``(0, 1)`` (or ``[0, 1)`` if allowed)."""
    value = check_finite(name, value)
    low_ok = value > 0 or (allow_zero and value == 0)
    if not (low_ok and value < 1):
        interval = "[0, 1)" if allow_zero else "(0, 1)"
        raise ValidationError(f"{name} must be in {interval}, got {value!r}")
    return value


def check_int(name: str, value: int, *, minimum: int | None = None) -> int:
    """Return ``value`` as an ``int``, optionally enforcing a lower bound."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value!r}")
    return value


def check_sample_weight(name: str, value: "int | float") -> "int | float":
    """Return a positive logical sample count: an ``int`` step count as
    ``int``, a weighted count (the γ-series, a covered window) as ``float``.

    A ``bool`` is refused rather than read as ``1``.
    """
    if isinstance(value, (bool, np.bool_)):
        raise ValidationError(f"{name} must be a positive number, got {value!r}")
    if isinstance(value, (int, np.integer)):
        return check_int(name, value, minimum=1)
    return check_positive(name, value)


def check_vector(name: str, value: Sequence[float] | np.ndarray, *, dim: int | None = None) -> np.ndarray:
    """Return ``value`` as a 1-D float array, optionally of fixed dimension."""
    array = np.asarray(value, dtype=float)
    if array.ndim != 1:
        raise ValidationError(f"{name} must be a 1-D vector, got shape {array.shape}")
    if not np.all(np.isfinite(array)):
        raise ValidationError(f"{name} must contain only finite entries")
    if dim is not None and array.shape[0] != dim:
        raise ValidationError(f"{name} must have dimension {dim}, got {array.shape[0]}")
    return array


def check_shape(name: str, value: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Return ``value`` as a float array of exactly ``shape``, its entries
    unscanned: for an entry point whose values are checked once, later
    (released moments reach
    :class:`~repro.core.private_gradient.PrivateGradientFunction`, which
    scans them)."""
    array = np.asarray(value, dtype=float)
    if array.shape != shape:
        raise ValidationError(f"{name} must have shape {shape}, got {array.shape}")
    return array


def check_matrix(name: str, value: np.ndarray, *, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Return ``value`` as a 2-D float array, optionally of fixed shape."""
    array = np.asarray(value, dtype=float)
    if array.ndim != 2:
        raise ValidationError(f"{name} must be a 2-D matrix, got shape {array.shape}")
    if not np.all(np.isfinite(array)):
        raise ValidationError(f"{name} must contain only finite entries")
    if shape is not None and array.shape != shape:
        raise ValidationError(f"{name} must have shape {shape}, got {array.shape}")
    return array


def check_xy_block(
    xs: np.ndarray, ys: np.ndarray, *, dim: int | None = None, outcomes: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Validate a covariate/response block for ``observe_batch`` entry points.

    Returns ``(xs, ys)`` as float arrays of shapes ``(n, d)`` and ``(n,)``
    with ``n ≥ 1`` and finite entries; raises :class:`ValidationError`
    otherwise (including for the empty block, which every batched API in
    the library rejects).  With ``outcomes=k`` the responses are an
    ``(n, k)`` outcome block, one column per outcome (a 1-D ``ys`` is
    that one column when ``k = 1``).
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 2:
        raise ValidationError(f"X must be a 2-D (n, d) block, got shape {xs.shape}")
    if dim is not None and xs.shape[1] != dim:
        raise ValidationError(f"X must have dimension {dim}, got {xs.shape[1]}")
    shape = (xs.shape[0],) if outcomes is None else (xs.shape[0], outcomes)
    if outcomes == 1 and ys.ndim == 1:
        ys = ys[:, None]
    if ys.shape != shape:
        raise ValidationError(f"y must have shape {shape}, got {ys.shape}")
    if xs.shape[0] == 0:
        raise ValidationError("batch must contain at least one point")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ValidationError("batch must contain only finite entries")
    return xs, ys


def check_sequence(name: str, value, *, empty: bool = True) -> tuple:
    """Return a sequence knob as a tuple (non-empty unless ``empty``).

    A bare string or scalar is refused with the knob named, never iterated
    per character or left to fail deep inside the caller.
    """
    if isinstance(value, (str, bytes)) or not isinstance(value, Iterable):
        raise ValidationError(f"{name} must be a sequence, got {value!r}")
    value = tuple(value)
    if not (value or empty):
        raise ValidationError(f"{name} must not be empty")
    return value


def check_unit_xy_domain(name: str, xs: np.ndarray, ys: np.ndarray) -> None:
    """Enforce the paper's unit normalization on a covariate/response block.

    Every privacy calibration in the library derives from ``‖x‖ ≤ 1`` and
    ``|y| ≤ 1``; the tolerance here must match the per-point checks in the
    mechanisms' ``observe`` methods.
    """
    if np.any(np.linalg.norm(xs, axis=1) > 1.0 + 1e-9) or np.any(
        np.abs(ys) > 1.0 + 1e-9
    ):
        raise DomainViolationError(
            f"{name} requires ‖x‖ ≤ 1 and |y| ≤ 1 (privacy calibration)"
        )


def check_unit_iv_domain(
    name: str, zs: np.ndarray, xs: np.ndarray, ys: np.ndarray
) -> None:
    """Enforce the unit normalization on an instrument/covariate/response block.

    The IV moment statistics (ZᵀZ, ZᵀX, Zᵀy) all have L2-sensitivity 2
    under ``‖z‖ ≤ 1, ‖x‖ ≤ 1, |y| ≤ 1`` — the same bound the plain
    cross/gram calibration uses, one norm per factor of each dyad.
    """
    if (
        np.any(np.linalg.norm(zs, axis=1) > 1.0 + 1e-9)
        or np.any(np.linalg.norm(xs, axis=1) > 1.0 + 1e-9)
        or np.any(np.abs(ys) > 1.0 + 1e-9)
    ):
        raise DomainViolationError(
            f"{name} requires ‖z‖ ≤ 1, ‖x‖ ≤ 1 and |y| ≤ 1 (privacy calibration)"
        )


#: The unit-domain bound every privacy calibration assumes, with the
#: tolerance of the per-point checks.
_UNIT = 1.0 + 1e-9


def within_unit_domain(ys: np.ndarray, *blocks: np.ndarray) -> bool:
    """The unit-domain test in one sweep: every row of each ``(n, ·)``
    block has ``‖row‖ ≤ 1 + 1e-9`` and every ``|y| ≤ 1 + 1e-9``.

    The row norms are ``np.linalg.norm``'s own expression,
    ``sqrt(add.reduce(x*x, axis=1))``, so a block passes exactly when
    :func:`check_unit_xy_domain` / :func:`check_unit_iv_domain` would pass
    it.  NaN fails ``<=`` and an infinite entry has an infinite norm, so a
    pass also proves every entry finite.  A finite row whose square
    overflows has an infinite norm and fails, as it fails the domain
    check.
    """
    for block in blocks:
        if not (np.sqrt(np.add.reduce(block * block, axis=1)) <= _UNIT).all():
            return False
    return bool((np.abs(ys) <= _UNIT).all())


def check_unit_xy_block(
    name: str,
    xs: np.ndarray,
    ys: np.ndarray,
    *,
    dim: int,
    outcomes: int | None = None,
    instruments: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`check_xy_block` and the unit-domain check, in one sweep.

    The domain is :func:`check_unit_xy_domain`'s over the whole row, or,
    with ``instruments=p``, :func:`check_unit_iv_domain`'s over a stacked
    ``[z | x]`` row split after column ``p``.  A block of the right shape
    that passes :func:`within_unit_domain` is returned at once; any other
    block re-runs the two checks in their order, so every rejection keeps
    its exception type and message.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim == 2 and xs.shape[0] and xs.shape[1] == dim:
        if outcomes == 1 and ys.ndim == 1:
            ys = ys[:, None]
        shape = (xs.shape[0],) if outcomes is None else (xs.shape[0], outcomes)
        parts = (xs,) if instruments is None else (xs[:, :instruments], xs[:, instruments:])
        if ys.shape == shape and within_unit_domain(ys, *parts):
            return xs, ys
    xs, ys = check_xy_block(xs, ys, dim=dim, outcomes=outcomes)
    if instruments is None:
        check_unit_xy_domain(name, xs, ys.ravel())
    else:
        check_unit_iv_domain(name, xs[:, :instruments], xs[:, instruments:], ys)
    return xs, ys


def check_unit_iv_block(
    name: str, zs: np.ndarray, xs: np.ndarray, ys: np.ndarray, *, instruments: int, dim: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two :func:`check_xy_block` calls (instruments, then covariates) and
    :func:`check_unit_iv_domain`, in one sweep, as
    :func:`check_unit_xy_block` does for one covariate block."""
    zs = np.asarray(zs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    xs = np.asarray(xs, dtype=float)
    n = zs.shape[0] if zs.ndim == 2 else 0
    if (
        n
        and zs.shape[1] == instruments
        and xs.shape == (n, dim)
        and ys.shape == (n,)
        and within_unit_domain(ys, zs, xs)
    ):
        return zs, xs, ys
    zs, ys = check_xy_block(zs, ys, dim=instruments)
    xs, ys = check_xy_block(xs, ys, dim=dim)
    check_unit_iv_domain(name, zs, xs, ys)
    return zs, xs, ys


def check_decay(name: str, value: float) -> float:
    """Validate a forgetting factor ``γ``: a finite number in ``(0, 1]``.

    The single definition of the ``decay=`` knob contract, shared by every
    layer that accepts it (mechanisms, estimators, serving fronts,
    :class:`~repro.erm.objective.QuadraticRisk`), so a nonsensical γ is
    rejected up front with the knob named — never deep inside tree code.
    """
    value = check_finite(name, value)
    if not 0.0 < value <= 1.0:
        raise ValidationError(
            f"{name} must be a forgetting factor in (0, 1], got {value!r}"
        )
    return value


def check_window(name: str, value: "int | float") -> "int | float":
    """Validate a sliding-window length ``W``: an integer ≥ 1, or ``inf``.

    ``math.inf`` selects the degenerate never-expiring window (one tree
    over the whole horizon — bit-identical to the plain mechanism); any
    finite value must be a whole number of stream elements.
    """
    if isinstance(value, float) and np.isinf(value) and value > 0:
        return float("inf")
    return check_int(name, value, minimum=1)


def check_release_knobs(
    decay: "float | None", window: "int | float | None"
) -> "tuple[float | None, int | float | None]":
    """Validate the ``decay=`` / ``window=`` knob pair of a moment layer.

    The two knobs select mutually exclusive non-stationarity models
    (exponential forgetting vs hard expiry), so setting both is rejected
    here — once, for every layer that threads them — with both knobs
    named.  Returns the validated pair (either or both may be ``None``).
    """
    if decay is not None and window is not None:
        raise ValidationError(
            "decay and window cannot both be set: exponential forgetting "
            "(decay=) and hard expiry (window=) are mutually exclusive "
            "non-stationarity models"
        )
    if decay is not None:
        decay = check_decay("decay", decay)
    if window is not None:
        window = check_window("window", window)
    return decay, window


def check_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Normalize a seed-or-generator argument into a ``numpy`` Generator.

    ``None`` produces a fresh non-deterministic generator; an integer seeds a
    new generator; an existing generator is passed through unchanged.
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)) and not isinstance(rng, bool):
        return np.random.default_rng(int(rng))
    raise ValidationError(f"rng must be None, an int seed, or a numpy Generator, got {rng!r}")
