"""Builtin group specs and name resolution for the CLI and the suite."""

from __future__ import annotations

import json
import re

from .algebra import AlgebraSpec, build_free_nilpotent, build_from_table, spec_from_json


def heisenberg() -> AlgebraSpec:
    """Step-2 group with a two-dimensional horizontal layer."""
    table = {(((1, 1)), ((1, 2))): {(2, 1): 1}}
    return build_from_table([2, 1], table, name="heisenberg")


def engel() -> AlgebraSpec:
    """Step-3 group with layer dimensions [2, 1, 1]; the smallest group
    whose middle layer exercises the derivative-shifting machinery."""
    table = {
        ((1, 1), (1, 2)): {(2, 1): 1},
        ((1, 1), (2, 1)): {(3, 1): 1},
        ((1, 2), (2, 1)): {},
    }
    return build_from_table([2, 1, 1], table, name="engel")


def resolve_group(name_or_path: str) -> AlgebraSpec:
    """Resolve a builtin name (heisenberg | engel | free:m,r), a path to a
    group-spec JSON file, or an abelian shorthand abelian:n."""
    name = name_or_path.strip()
    if name == "heisenberg":
        return heisenberg()
    if name == "engel":
        return engel()
    m = re.fullmatch(r"free:(\d+),(\d+)", name)
    if m:
        return build_free_nilpotent(int(m.group(1)), int(m.group(2)))
    m = re.fullmatch(r"abelian:(\d+)", name)
    if m:
        return build_free_nilpotent(int(m.group(1)), 1)
    try:
        with open(name_or_path) as fh:
            return spec_from_json(json.load(fh))
    except OSError as exc:
        raise type(exc)(exc.errno, f"{exc.strerror}: {name_or_path!r}, and not a builtin "
                        "group (heisenberg, engel, free:m,r, abelian:n)") from None
