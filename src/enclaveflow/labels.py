"""DC labels: CNF policy formulas over principals and the flow lattice.

A policy is a monotone boolean formula in conjunctive normal form: a set
of clauses, each clause a disjunction of principals.  A label pairs a
secrecy formula with an integrity formula.  Labels are ordered by
``can_flow_to``; privileges relax that order via ``can_flow_to_p``.

All operations return canonical CNFs: an antichain of clauses (no clause
contains another), with ``True`` the empty clause set and ``False`` the
singleton set holding the empty clause.  Everything here is an immutable
value, safe to share across threads, so ``join`` and ``downgrade`` are
memoized on their arguments in bounded caches of ``LABEL_CACHE_SIZE``
entries each.  (``can_flow_to`` is not: hashing its two labels costs
about what its two implication checks do.)
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from typing import Iterable

from .errors import LabelError

__all__ = [
    "Principal",
    "Clause",
    "CNF",
    "DCLabel",
    "Privilege",
    "LabeledValue",
    "LABEL_CACHE_SIZE",
    "CNF_TRUE",
    "CNF_FALSE",
    "DC_PUBLIC",
    "DC_BOTTOM",
    "DC_TOP",
    "EMPTY_PRIVILEGE",
    "cnf_from_principal",
    "cnf",
    "cnf_and",
    "cnf_or",
    "cnf_implies",
    "cnf_reduce",
    "can_flow_to",
    "can_flow_to_p",
    "join",
    "meet",
    "downgrade",
    "encode_cnf",
    "decode_cnf",
    "read_cnf",
    "encode_label",
    "decode_label",
    "read_label",
]


@dataclass(frozen=True)
class Principal:
    """A named party.  Prototype representation is a plain string; the
    codec length-prefixes names so key-hash principals drop in later."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise LabelError("principal name must be non-empty")
        if "\x00" in self.name:
            raise LabelError("principal name must not contain NUL")

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Clause:
    """One disjunctive category: any of these principals satisfies it."""

    principals: frozenset[Principal]

    def sorted_names(self) -> list[str]:
        return sorted((p.name for p in self.principals), key=lambda n: n.encode("utf-8"))

    def __repr__(self) -> str:
        return "{" + ",".join(self.sorted_names()) + "}"


@dataclass(frozen=True)
class CNF:
    """A conjunction of clauses.  Canonical once reduced to an antichain."""

    clauses: frozenset[Clause]

    def is_true(self) -> bool:
        return not self.clauses

    def is_false(self) -> bool:
        return len(self.clauses) == 1 and not next(iter(self.clauses)).principals

    def sole_principal(self) -> str | None:
        """The single principal name, when the formula is exactly one
        singleton clause; None otherwise."""
        if len(self.clauses) != 1:
            return None
        only = next(iter(self.clauses))
        if len(only.principals) != 1:
            return None
        return next(iter(only.principals)).name

    def __repr__(self) -> str:
        if self.is_true():
            return "True"
        if self.is_false():
            return "False"
        return "{" + ",".join(sorted(repr(c) for c in self.clauses)) + "}"


CNF_TRUE = CNF(frozenset())
CNF_FALSE = CNF(frozenset({Clause(frozenset())}))


def cnf(*clauses: Iterable[str]) -> CNF:
    """Build a canonical CNF from iterables of principal names.

    ``cnf({"Alice"}, {"Bob", "Carol"})`` is (Alice) AND (Bob OR Carol).
    """
    built = frozenset(
        Clause(frozenset(Principal(n) for n in group)) for group in clauses
    )
    return cnf_reduce(CNF(built))


def cnf_from_principal(name: str) -> CNF:
    """The CNF asserting a single principal."""
    return CNF(frozenset({Clause(frozenset({Principal(name)}))}))


def cnf_reduce(a: CNF) -> CNF:
    """Canonicalize: an empty clause collapses the formula to False,
    otherwise drop every clause that is a superset of another clause."""
    for c in a.clauses:
        if not c.principals:
            return CNF_FALSE
    kept = frozenset(
        c
        for c in a.clauses
        if not any(d.principals < c.principals for d in a.clauses)
    )
    return CNF(kept)


def cnf_and(a: CNF, b: CNF) -> CNF:
    """Conjunction: the union of clause sets, reduced."""
    return cnf_reduce(CNF(a.clauses | b.clauses))


def cnf_or(a: CNF, b: CNF) -> CNF:
    """Disjunction by pairwise clause union, reduced.

    Or with True yields True (empty product); or with False yields the
    other operand (the empty clause is the unit of union).
    """
    pairs = frozenset(
        Clause(x.principals | y.principals) for x in a.clauses for y in b.clauses
    )
    return cnf_reduce(CNF(pairs))


def cnf_implies(a: CNF, b: CNF) -> bool:
    """Does ``a`` entail ``b``?

    For monotone CNFs the syntactic check suffices: every clause of ``b``
    must be covered by some clause of ``a`` that is a subset of it.
    """
    return all(
        any(d.principals <= c.principals for d in a.clauses) for c in b.clauses
    )


@dataclass(frozen=True)
class DCLabel:
    """A ⟨secrecy, integrity⟩ pair of canonical CNFs."""

    secrecy: CNF
    integrity: CNF

    def __repr__(self) -> str:
        return f"<{self.secrecy!r},{self.integrity!r}>"


DC_PUBLIC = DCLabel(CNF_TRUE, CNF_TRUE)
DC_BOTTOM = DCLabel(CNF_TRUE, CNF_FALSE)
DC_TOP = DCLabel(CNF_FALSE, CNF_TRUE)


@dataclass(frozen=True)
class Privilege:
    """A CNF whose clauses the holder may speak for.  The empty privilege
    is True and relaxes nothing."""

    description: CNF

    @classmethod
    def for_principal(cls, name: str) -> "Privilege":
        return cls(cnf_from_principal(name))

    def __repr__(self) -> str:
        return f"Privilege({self.description!r})"


EMPTY_PRIVILEGE = Privilege(CNF_TRUE)

# Entries per memoized lattice operation.  A fixed count, so a peer that
# sends ever new labels evicts old entries instead of growing the cache.
LABEL_CACHE_SIZE = 1024


def can_flow_to(l1: DCLabel, l2: DCLabel) -> bool:
    """The unprivileged flow relation: secrecy may only grow, integrity
    may only shrink."""
    return cnf_implies(l2.secrecy, l1.secrecy) and cnf_implies(l1.integrity, l2.integrity)


def can_flow_to_p(p: Privilege, l1: DCLabel, l2: DCLabel) -> bool:
    """The privileged flow relation: the privilege is conjoined with each
    antecedent before the implication checks."""
    d = p.description
    return cnf_implies(cnf_and(d, l2.secrecy), l1.secrecy) and cnf_implies(
        cnf_and(d, l1.integrity), l2.integrity
    )


@functools.lru_cache(maxsize=LABEL_CACHE_SIZE)
def join(l1: DCLabel, l2: DCLabel) -> DCLabel:
    """Least upper bound under ``can_flow_to``."""
    return DCLabel(cnf_and(l1.secrecy, l2.secrecy), cnf_or(l1.integrity, l2.integrity))


def meet(l1: DCLabel, l2: DCLabel) -> DCLabel:
    """Greatest lower bound under ``can_flow_to``."""
    return DCLabel(cnf_or(l1.secrecy, l2.secrecy), cnf_and(l1.integrity, l2.integrity))


@functools.lru_cache(maxsize=LABEL_CACHE_SIZE)
def downgrade(p: Privilege, l: DCLabel) -> DCLabel:
    """The lowest label ``l`` may reach with privilege ``p``.

    Secrecy keeps only the clauses the privilege cannot discharge;
    integrity is endorsed by conjoining the privilege.  For every l2,
    ``can_flow_to_p(p, l, l2)`` iff ``can_flow_to(downgrade(p, l), l2)``.
    """
    remaining = frozenset(
        c
        for c in l.secrecy.clauses
        if not cnf_implies(p.description, CNF(frozenset({c})))
    )
    return DCLabel(
        cnf_reduce(CNF(remaining)), cnf_and(l.integrity, p.description)
    )


@dataclass(frozen=True)
class LabeledValue:
    """A label attached to a wire value, as LIO's ``Labeled l a`` holds an
    ``a``.  Build one with ``ifc.make_labeled`` and open it with
    ``IfcContext.unlabel``, which copy the value in and out.  Equality is
    value equality, as Python compares the values: ``1 == True``, and NaN ≠
    NaN unless both are one float object.  Holding a list makes it
    unhashable."""

    label: DCLabel
    value: object


# --- wire encoding ---------------------------------------------------------
#
# CNF: u16 BE clause count, then each clause as u16 BE principal count
# followed by principals, each u16 BE byte length + UTF-8 bytes.  Clauses
# sorted by their own encoding, principals sorted by UTF-8 bytes.  A label
# is the secrecy CNF followed by the integrity CNF.

_U16 = struct.Struct(">H")


def _encode_clause(c: Clause) -> bytes:
    names = c.sorted_names()
    if len(names) > 0xFFFF:
        raise LabelError("clause too large to encode")
    out = [_U16.pack(len(names))]
    for name in names:
        raw = name.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise LabelError("principal name too long to encode")
        out.append(_U16.pack(len(raw)))
        out.append(raw)
    return b"".join(out)


def encode_cnf(a: CNF) -> bytes:
    if len(a.clauses) > 0xFFFF:
        raise LabelError("CNF too large to encode")
    encoded = sorted(_encode_clause(c) for c in a.clauses)
    return _U16.pack(len(a.clauses)) + b"".join(encoded)


def read_cnf(buf: bytes, pos: int) -> tuple[CNF, int]:
    """Parse one CNF starting at ``pos``; returns the value and the next
    offset.  Enforces canonical form: strict orderings and the antichain
    invariant."""
    count, pos = _read_u16(buf, pos)
    clauses: list[Clause] = []
    prev_enc: bytes | None = None
    for _ in range(count):
        start = pos
        pcount, pos = _read_u16(buf, pos)
        names: list[str] = []
        prev_raw: bytes | None = None
        for _ in range(pcount):
            ln, pos = _read_u16(buf, pos)
            raw = buf[pos : pos + ln]
            if len(raw) != ln:
                raise LabelError("truncated label encoding")
            pos += ln
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise LabelError("principal is not valid UTF-8") from e
            if prev_raw is not None and raw <= prev_raw:
                raise LabelError("principals not in canonical order")
            prev_raw = raw
            names.append(name)
        enc = buf[start:pos]
        if prev_enc is not None and enc <= prev_enc:
            raise LabelError("clauses not in canonical order")
        prev_enc = enc
        clauses.append(Clause(frozenset(Principal(n) for n in names)))
    value = CNF(frozenset(clauses))
    if cnf_reduce(value) != value:
        raise LabelError("CNF is not a canonical antichain")
    return value, pos


def decode_cnf(b: bytes) -> CNF:
    value, pos = read_cnf(b, 0)
    if pos != len(b):
        raise LabelError("trailing bytes after CNF")
    return value


def encode_label(l: DCLabel) -> bytes:
    return encode_cnf(l.secrecy) + encode_cnf(l.integrity)


def read_label(buf: bytes, pos: int) -> tuple[DCLabel, int]:
    secrecy, pos = read_cnf(buf, pos)
    integrity, pos = read_cnf(buf, pos)
    return DCLabel(secrecy, integrity), pos


def decode_label(b: bytes) -> DCLabel:
    value, pos = read_label(b, 0)
    if pos != len(b):
        raise LabelError("trailing bytes after label")
    return value


def _read_u16(buf: bytes, pos: int) -> tuple[int, int]:
    chunk = buf[pos : pos + 2]
    if len(chunk) != 2:
        raise LabelError("truncated label encoding")
    return _U16.unpack(chunk)[0], pos + 2
