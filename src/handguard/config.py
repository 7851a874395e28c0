"""Checks for JSON config objects, shared by the scenario loader and the CLI.

`sim.Scenario.from_json_dict` builds its sections with `build_section`, and
`handguard pose` and `calibrate` read their intrinsics file with it, so an
intrinsics JSON gets the scenario's own section checks and messages.  This
module imports only the standard library, so reading intrinsics loads no
simulation layer.
"""

from __future__ import annotations

import dataclasses
import math
import numbers


class ScenarioError(ValueError):
    """Scenario config failed validation; message names the offending field."""


def require_finite(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not math.isfinite(value):
        raise ScenarioError(f"{name}: must be a finite number")


def check_object(doc, allowed: set, path: str, all_required: bool = False) -> None:
    """doc is a JSON object with keys from allowed, all of them if all_required;
    ScenarioError names the path and the first offending key."""
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: expected a JSON object")
    unknown = set(doc) - allowed
    if unknown:
        raise ScenarioError(f"{path}: unknown keys {sorted(unknown)}")
    missing = sorted(allowed - set(doc)) if all_required else []
    if missing:
        raise ScenarioError(f"{path}.{missing[0]}: missing")


def build_section(cls, doc, path: str):
    """A section dataclass built from its JSON object.  Its fields are the
    keys, and each numeric field must be a finite number; ScenarioError names
    the offending key or field, or the section when the dataclass's own
    range check fails."""
    check_object(doc, {f.name for f in dataclasses.fields(cls)}, path)
    for f in dataclasses.fields(cls):
        if f.name in doc and isinstance(f.default, numbers.Real):
            require_finite(f"{path}.{f.name}", doc[f.name])
    try:
        return cls(**doc)
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
