"""Semantic oracle for the label algebra, independent of the implementation.

Treats a CNF as a plain boolean function over truth assignments to
principals and decides implication by enumerating every assignment.  Only
usable for small principal universes, which is exactly the point: slow,
obviously-correct ground truth for the syntactic algorithms.
"""

from __future__ import annotations

import itertools

from enclaveflow.labels import CNF, DCLabel


def all_principals(*formulas: CNF) -> list[str]:
    names = {n for f in formulas for c in f for n in c}
    return sorted(names)


def satisfied(a: CNF, true_names: frozenset[str]) -> bool:
    return all(any(n in true_names for n in c) for c in a)


def oracle_implies(a: CNF, b: CNF) -> bool:
    """a entails b iff no assignment satisfies a but not b."""
    universe = all_principals(a, b)
    for bits in itertools.product([False, True], repeat=len(universe)):
        assignment = frozenset(n for n, bit in zip(universe, bits) if bit)
        if satisfied(a, assignment) and not satisfied(b, assignment):
            return False
    return True


def oracle_equivalent(a: CNF, b: CNF) -> bool:
    return oracle_implies(a, b) and oracle_implies(b, a)


def oracle_can_flow_to(l1: DCLabel, l2: DCLabel) -> bool:
    return oracle_implies(l2.secrecy, l1.secrecy) and oracle_implies(
        l1.integrity, l2.integrity
    )


def nonempty_subsets(names: list[str]) -> list[frozenset[str]]:
    out = []
    for r in range(1, len(names) + 1):
        out.extend(frozenset(c) for c in itertools.combinations(names, r))
    return out


def enumerate_canonical_cnfs(names: list[str]) -> list[CNF]:
    """Every canonical CNF over the given principals: all antichains of
    nonempty clauses, plus False.  Sizes: 6 for two names, 20 for three."""
    subsets = nonempty_subsets(names)
    results = [frozenset({frozenset()})]  # False
    for picks in itertools.product([False, True], repeat=len(subsets)):
        chosen = [s for s, keep in zip(subsets, picks) if keep]
        if any(a < b for a in chosen for b in chosen):
            continue
        results.append(frozenset(chosen))
    return results
