"""Seeded random generator for codec values, shared across test modules."""

from __future__ import annotations

import random

from enclaveflow.labels import (
    CNF,
    CNF_FALSE,
    DC_PUBLIC,
    DCLabel,
    LabeledValue,
    cnf_reduce,
)
from enclaveflow.ifc import make_labeled
from enclaveflow.wire import I64_MAX, I64_MIN, Value

NAMES = ["Alice", "Bob", "Carol", "P1", "P2", "ω"]

_SPECIAL_FLOATS = [0.0, -0.0, 1.5, -2.25, 1e308, 5e-324, float("inf"), float("-inf"), float("nan")]
_ALPHABET = "abcXYZ019 _-ωλ語🎉"


def random_cnf(rng: random.Random) -> CNF:
    if rng.random() < 0.05:
        return CNF_FALSE
    clauses = frozenset(
        frozenset(rng.sample(NAMES, rng.randint(1, 3)))
        for _ in range(rng.randint(0, 2))
    )
    return cnf_reduce(clauses)


def random_label(rng: random.Random) -> DCLabel:
    return DCLabel(random_cnf(rng), random_cnf(rng))


def random_string(rng: random.Random) -> str:
    return "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(0, 20)))


def random_value(rng: random.Random, depth: int = 0) -> Value:
    choices = ["unit", "bool", "int", "float", "string", "bytes"]
    if depth < 3:
        choices += ["list", "list", "labeled"]
    kind = rng.choice(choices)
    if kind == "unit":
        return None
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "int":
        if rng.random() < 0.2:
            return rng.choice([0, 1, -1, I64_MIN, I64_MAX])
        return rng.randint(-10_000_000, 10_000_000)
    if kind == "float":
        if rng.random() < 0.3:
            return rng.choice(_SPECIAL_FLOATS)
        return rng.uniform(-1e6, 1e6)
    if kind == "string":
        return random_string(rng)
    if kind == "bytes":
        return rng.randbytes(rng.randint(0, 24))
    if kind == "list":
        return [random_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    return make_labeled(random_label(rng), random_value(rng, depth + 1))


def nested(depth: int, kind: str = "list", leaf: Value = 1) -> Value:
    """``leaf`` at nesting ``depth`` (see ``wire.MAX_DEPTH``), inside lists
    or inside public labeled values."""
    v = leaf
    for _ in range(depth):
        v = [v] if kind == "list" else LabeledValue(DC_PUBLIC, v)
    return v
