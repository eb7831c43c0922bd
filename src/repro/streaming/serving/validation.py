"""Serving-layer validation helpers shared across the package."""

from __future__ import annotations

from ..._validation import check_decay, check_int
from ...exceptions import ValidationError

__all__ = ["_check_decay_groups", "_check_group", "_check_tenants"]


def _check_decay_groups(decays) -> tuple[float, ...]:
    """Validate a declared tuple of shared-Gram γ groups (PRIMO serving).

    ``None`` means the single plain group ``(1.0,)``.  Each entry must be
    a valid forgetting factor (``γ ∈ (0, 1]``) and the entries must be
    distinct — one shared Gram mechanism is built per group, so a repeat
    would silently spend gram budget twice on the same weighting.
    """
    if decays is None:
        return (1.0,)
    groups = tuple(
        check_decay(f"decays[{i}]", g) for i, g in enumerate(decays)
    )
    if not groups:
        raise ValidationError("decays must declare at least one γ group")
    if len(set(groups)) != len(groups):
        raise ValidationError(f"decays entries must be distinct, got {groups!r}")
    return groups


def _check_group(g: float, decays: tuple[float, ...]) -> None:
    """A tenant's γ must be one of the declared groups."""
    if g not in decays:
        raise ValidationError(
            f"decay {g!r} is not a declared γ group (decays={decays!r}); "
            f"groups are fixed at construction — the gram budget is split "
            f"across them"
        )


def _check_tenants(names, capacity, decays, tenant_decays):
    """Validate one tenant set (PRIMO serving).

    Returns ``(names, capacity, decays, tenant_decays)`` normalized:
    unique non-empty names, a slot capacity of at least the tenant count
    (default: the tenant count), the declared γ groups, and one declared
    group per tenant (default: the first).
    """
    names = tuple(str(name) for name in names)
    if not names:
        raise ValidationError("tenants must name at least one tenant")
    if len(set(names)) != len(names):
        raise ValidationError(f"tenant names must be unique, got {names!r}")
    if any(not name for name in names):
        raise ValidationError("tenant names must be non-empty")
    decays = _check_decay_groups(decays)
    if tenant_decays is None:
        tenant_decays = tuple(decays[0] for _ in names)
    tenant_decays = tuple(float(g) for g in tenant_decays)
    if len(tenant_decays) != len(names):
        raise ValidationError(
            f"need one decay per tenant: {len(names)} tenants, "
            f"{len(tenant_decays)} tenant_decays"
        )
    for g in tenant_decays:
        _check_group(g, decays)
    capacity = check_int(
        "tenant_capacity",
        len(names) if capacity is None else capacity,
        minimum=len(names),
    )
    return names, capacity, decays, tenant_decays
