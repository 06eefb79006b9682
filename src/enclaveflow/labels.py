"""DC labels: CNF policy formulas over principals and the flow lattice.

A policy is a monotone boolean formula in conjunctive normal form: a set
of clauses, each clause a set of principal names read as their
disjunction.  A formula is a plain ``frozenset`` of clauses and a clause a
``frozenset`` of names, as LIO's ``Set (Set Principal)``; ``CNF`` is only
the name of that type, so formulas compare, hash and pickle as frozensets.
A label pairs a secrecy formula with an integrity formula.  Labels are
ordered by ``can_flow_to``; privileges relax that order via
``can_flow_to_p``.

All operations return canonical CNFs: an antichain of clauses (no clause
contains another), with ``True`` the empty clause set and ``False`` the
singleton set holding the empty clause.  Everything here is an immutable
value, safe to share across threads.  ``DCLabel`` and ``Privilege`` are
hash-consed through one weak intern table: building a value equal to a
live one, by any route (the constructor, a lattice operation, decoding,
pickling, ``copy``), returns that object, so equality is identity and
hashing is native.  ``can_flow_to``, ``join``, ``downgrade`` and
``encode_label`` are memoized on their arguments in bounded caches of
``LABEL_CACHE_SIZE`` entries each, and a warm ``can_flow_to`` runs no
implication check at all.

``read_label`` also skips the parse: it maps the exact bytes of an
encoding of at most ``LABEL_INTERN_MAX`` bytes, through one more cache of
``LABEL_CACHE_SIZE`` entries, to the label parsed from them.  Only
successful parses are cached, so malformed bytes are parsed and refused on
every call; longer encodings are parsed afresh each time, so a peer cannot
pin large labels.
``read_cnf`` refuses a CNF of more than ``LABEL_MAX_CLAUSES`` clauses
before it builds any, so its canonical check, which compares every pair
of clauses, stays cheap however a peer pads a label; ``encode_cnf``
refuses the same, and every principal name that the decoder refuses
(empty, or holding NUL), so nothing encoded here is undecodable.
"""

from __future__ import annotations

import functools
import struct
import threading
import weakref
from typing import Iterable

from .errors import LabelError, Record

__all__ = [
    "CNF",
    "DCLabel",
    "Privilege",
    "LabeledValue",
    "LABEL_CACHE_SIZE",
    "LABEL_INTERN_MAX",
    "LABEL_MAX_CLAUSES",
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
    "sole_principal",
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


def _checked_name(name: str) -> str:
    """``name`` if it may name a principal: non-empty, without NUL."""
    if not name:
        raise LabelError("principal name must be non-empty")
    if "\x00" in name:
        raise LabelError("principal name must not contain NUL")
    return name


def _sorted_names(clause: frozenset[str]) -> list[str]:
    """A clause's names in canonical order, by their UTF-8 bytes."""
    return sorted(clause, key=lambda n: n.encode("utf-8"))


CNF = frozenset[frozenset[str]]
CNF_TRUE: CNF = frozenset()
CNF_FALSE: CNF = frozenset({frozenset()})


def sole_principal(a: CNF) -> str | None:
    """The single principal name, when the formula is exactly one singleton
    clause; None otherwise."""
    only = next(iter(a)) if len(a) == 1 else ()
    return next(iter(only)) if len(only) == 1 else None


def _formula_repr(a: CNF) -> str:
    """``True``, ``False``, or the clauses as ``{{A},{B,C}}``, sorted."""
    if not a:
        return "True"
    if a == CNF_FALSE:
        return "False"
    clauses = ("{" + ",".join(_sorted_names(c)) + "}" for c in a)
    return "{" + ",".join(sorted(clauses)) + "}"


def cnf(*clauses: Iterable[str]) -> CNF:
    """Build a canonical CNF from iterables of principal names.

    ``cnf({"Alice"}, {"Bob", "Carol"})`` is (Alice) AND (Bob OR Carol).
    """
    return cnf_reduce(frozenset(frozenset(map(_checked_name, group)) for group in clauses))


def cnf_from_principal(name: str) -> CNF:
    """The CNF asserting a single principal."""
    return frozenset({frozenset({_checked_name(name)})})


def cnf_reduce(a: CNF) -> CNF:
    """Canonicalize: an empty clause collapses the formula to False,
    otherwise drop every clause that is a superset of another clause."""
    if frozenset() in a:
        return CNF_FALSE
    return frozenset(c for c in a if not any(d < c for d in a))


def cnf_and(a: CNF, b: CNF) -> CNF:
    """Conjunction: the union of clause sets, reduced."""
    return cnf_reduce(a | b)


def cnf_or(a: CNF, b: CNF) -> CNF:
    """Disjunction by pairwise clause union, reduced.

    Or with True yields True (empty product); or with False yields the
    other operand (the empty clause is the unit of union).
    """
    return cnf_reduce(frozenset(x | y for x in a for y in b))


def cnf_implies(a: CNF, b: CNF) -> bool:
    """Does ``a`` entail ``b``?

    For monotone CNFs the syntactic check suffices: every clause of ``b``
    must be covered by some clause of ``a`` that is a subset of it.
    """
    return all(any(d <= c for d in a) for c in b)


# One live object per interned value, keyed on its class and then its
# fields.  Weak, so it holds only what the enclave or a bounded cache holds;
# the lock on the miss path keeps two threads from each building their own.
_INTERNED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_INTERN_LOCK = threading.Lock()


class _Interned(Record):
    """A record with one live instance per class and field values, which
    ``__new__`` finds or builds through ``_intern``; pickling and ``copy``
    rebuild through it too.  Equality is identity, the hash ``object``'s."""

    __slots__ = ("__weakref__",)
    __eq__ = object.__eq__
    __hash__ = object.__hash__


def _intern(key: tuple):
    value = _INTERNED.get(key)
    if value is None:
        with _INTERN_LOCK:
            value = _INTERNED.get(key)  # another thread may have built it
            if value is None:
                value = object.__new__(key[0])
                for name, field in zip(value._fields, key[1:]):
                    object.__setattr__(value, name, field)
                _INTERNED[key] = value
    return value


class DCLabel(_Interned):
    """A ⟨secrecy, integrity⟩ pair of canonical CNFs, interned."""

    __slots__ = ("secrecy", "integrity")

    def __new__(cls, secrecy: CNF, integrity: CNF) -> DCLabel:
        return _intern((cls, secrecy, integrity))

    def __repr__(self) -> str:
        return f"<{_formula_repr(self.secrecy)},{_formula_repr(self.integrity)}>"


DC_PUBLIC = DCLabel(CNF_TRUE, CNF_TRUE)
DC_BOTTOM = DCLabel(CNF_TRUE, CNF_FALSE)
DC_TOP = DCLabel(CNF_FALSE, CNF_TRUE)


class Privilege(_Interned):
    """A CNF whose clauses the holder may speak for, interned.  The empty
    privilege is True and relaxes nothing."""

    __slots__ = ("description",)

    def __new__(cls, description: CNF) -> Privilege:
        return _intern((cls, description))

    @classmethod
    def for_principal(cls, name: str) -> "Privilege":
        return cls(cnf_from_principal(name))

    def __repr__(self) -> str:
        return f"Privilege({_formula_repr(self.description)})"


EMPTY_PRIVILEGE = Privilege(CNF_TRUE)

# Entries per memoized label operation.  A fixed count, so a peer that
# sends ever new labels evicts old entries instead of growing the cache.
LABEL_CACHE_SIZE = 1024
# Longest label encoding, in bytes, that ``read_label`` interns.
LABEL_INTERN_MAX = 256
# Most clauses ``read_cnf`` accepts, and ``encode_cnf`` writes, in one
# CNF.  The canonical check compares every clause with every other, so the
# bound keeps that check within a small multiple of the label's bytes.
LABEL_MAX_CLAUSES = 16


@functools.lru_cache(maxsize=LABEL_CACHE_SIZE)
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
        c for c in l.secrecy if not cnf_implies(p.description, frozenset({c}))
    )
    return DCLabel(cnf_reduce(remaining), cnf_and(l.integrity, p.description))


class LabeledValue(Record):
    """A label attached to a wire value, as LIO's ``Labeled l a`` holds an
    ``a``.  Build one with ``ifc.make_labeled`` and open it with
    ``IfcContext.unlabel``, which copy the value in and out.  Equality is
    value equality, as Python compares the values: ``1 == True``, and NaN ≠
    NaN unless both are one float object.  Holding a list makes it
    unhashable."""

    __slots__ = ("label", "value")

    def __init__(self, label: DCLabel, value: object) -> None:
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "value", value)


# --- wire encoding ---------------------------------------------------------
#
# CNF: u16 BE clause count, then each clause as u16 BE principal count
# followed by principals, each u16 BE byte length + UTF-8 bytes.  Clauses
# sorted by their own encoding, principals sorted by UTF-8 bytes.  A label
# is the secrecy CNF followed by the integrity CNF.

_U16 = struct.Struct(">H")


def _encode_clause(c: frozenset[str]) -> bytes:
    names = _sorted_names(c)
    if len(names) > 0xFFFF:
        raise LabelError("clause too large to encode")
    out = [_U16.pack(len(names))]
    for name in names:
        raw = _checked_name(name).encode("utf-8")
        if len(raw) > 0xFFFF:
            raise LabelError("principal name too long to encode")
        out.append(_U16.pack(len(raw)))
        out.append(raw)
    return b"".join(out)


def encode_cnf(a: CNF) -> bytes:
    if len(a) > LABEL_MAX_CLAUSES:
        raise LabelError(f"CNF has more than {LABEL_MAX_CLAUSES} clauses")
    encoded = sorted(_encode_clause(c) for c in a)
    return _U16.pack(len(a)) + b"".join(encoded)


def read_cnf(buf: bytes, pos: int) -> tuple[CNF, int]:
    """Parse one CNF starting at ``pos``; returns the value and the next
    offset.  Enforces canonical form: strict orderings and the antichain
    invariant."""
    count, pos = _read_u16(buf, pos)
    if count > LABEL_MAX_CLAUSES:
        # every clause takes at least its own u16 count: too few bytes left
        # for that many is reported as truncated, as a shorter CNF would be
        if len(buf) - pos < 2 * count:
            raise LabelError("truncated label encoding")
        raise LabelError(f"CNF has more than {LABEL_MAX_CLAUSES} clauses")
    clauses: list[frozenset[str]] = []
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
        clauses.append(frozenset(map(_checked_name, names)))
    value = frozenset(clauses)
    if cnf_reduce(value) != value:
        raise LabelError("CNF is not a canonical antichain")
    return value, pos


def decode_cnf(b: bytes) -> CNF:
    value, pos = read_cnf(b, 0)
    if pos != len(b):
        raise LabelError("trailing bytes after CNF")
    return value


@functools.lru_cache(maxsize=LABEL_CACHE_SIZE)
def encode_label(l: DCLabel) -> bytes:
    return encode_cnf(l.secrecy) + encode_cnf(l.integrity)


def _parse_label(buf: bytes, pos: int) -> tuple[DCLabel, int]:
    """The strict parse: both CNFs, canonical form enforced."""
    secrecy, pos = read_cnf(buf, pos)
    integrity, pos = read_cnf(buf, pos)
    return DCLabel(secrecy, integrity), pos


@functools.lru_cache(maxsize=LABEL_CACHE_SIZE)
def _intern_label(raw: bytes) -> DCLabel:
    return _parse_label(raw, 0)[0]


def _short_label_end(buf: bytes, pos: int) -> int | None:
    """Where the label at ``pos`` ends, found from its u16 length fields
    alone, or None unless it ends within ``LABEL_INTERN_MAX`` bytes and
    within ``buf``.  Builds nothing and checks nothing else."""
    limit = min(len(buf), pos + LABEL_INTERN_MAX)
    for _ in range(2):  # secrecy, then integrity
        if pos + 2 > limit:
            return None
        clauses = buf[pos] << 8 | buf[pos + 1]
        pos += 2
        for _ in range(clauses):
            if pos + 2 > limit:
                return None
            names = buf[pos] << 8 | buf[pos + 1]
            pos += 2
            for _ in range(names):
                if pos + 2 > limit:
                    return None
                pos += 2 + (buf[pos] << 8 | buf[pos + 1])
    return pos if pos <= limit else None


def read_label(buf: bytes, pos: int) -> tuple[DCLabel, int]:
    """Parse one label starting at ``pos``; returns the value and the next
    offset.  A short encoding is interned: equal bytes give the one
    ``DCLabel`` the strict parse built for them.  Anything else, including
    every truncated encoding, goes to the strict parse, so errors are the
    same either way."""
    end = _short_label_end(buf, pos)
    if end is None:
        return _parse_label(buf, pos)
    return _intern_label(buf[pos:end]), end


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
