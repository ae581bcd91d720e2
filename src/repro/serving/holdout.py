"""Online-arrival scenarios: hold accounts out of a world for later replay.

:func:`holdout_split` splits a generated world into a base world to fit on
and the held-out accounts that arrive later through
:meth:`~repro.serving.service.LinkageService.add_accounts` (or the
gateway's ``POST /ingest``).
"""

from __future__ import annotations

from repro.socialnet.platform import SocialWorld, subset_world

__all__ = ["holdout_split"]


def holdout_split(
    world: SocialWorld, per_platform: int
) -> tuple[SocialWorld, list[tuple[str, str]]]:
    """Stage an online-arrival scenario from a fully generated world.

    Returns ``(base_world, held_refs)``: the base world is the input minus
    ``per_platform`` held-out accounts per platform, and ``held_refs`` are
    the accounts to replay later with
    :func:`~repro.socialnet.platform.transplant_account`.  The owners of
    the globally earliest and latest behavior events are never held out, so
    the base world's fitted observation window is guaranteed to cover every
    held-out account's events (the frozen temporal grids cannot absorb
    events outside the window they were fitted on).
    """
    if per_platform < 1:
        raise ValueError(f"per_platform must be >= 1, got {per_platform}")
    extremes: dict[str, tuple[float, str, str]] = {}
    for name in world.platform_names():
        for event in world.platforms[name].events.iter_all():
            stamp = (event.timestamp, name, event.account_id)
            if "min" not in extremes or stamp[0] < extremes["min"][0]:
                extremes["min"] = stamp
            if "max" not in extremes or stamp[0] > extremes["max"][0]:
                extremes["max"] = stamp
    protected = {(v[1], v[2]) for v in extremes.values()}
    keep: dict[str, list[str]] = {}
    held_refs: list[tuple[str, str]] = []
    for name in world.platform_names():
        eligible = [
            account_id
            for account_id in world.platforms[name].account_ids()
            if (name, account_id) not in protected
        ]
        if per_platform >= len(eligible):
            raise ValueError(
                f"cannot hold out {per_platform} of {len(eligible)} eligible "
                f"accounts on {name!r}"
            )
        held = set(eligible[-per_platform:])
        keep[name] = [
            account_id
            for account_id in world.platforms[name].account_ids()
            if account_id not in held
        ]
        held_refs.extend((name, account_id) for account_id in sorted(held))
    return subset_world(world, keep), held_refs
