"""Label algebra tests: syntactic operations against a truth-table oracle."""

from __future__ import annotations

import copy
import itertools
import os
import pickle
import random
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from enclaveflow import labels
from enclaveflow.errors import LabelError
from enclaveflow.ifc import IfcContext, make_labeled
from enclaveflow.labels import (
    CNF,
    CNF_FALSE,
    CNF_TRUE,
    DC_BOTTOM,
    DC_PUBLIC,
    DC_TOP,
    DCLabel,
    EMPTY_PRIVILEGE,
    LABEL_CACHE_SIZE,
    LABEL_INTERN_MAX,
    LABEL_MAX_CLAUSES,
    Privilege,
    can_flow_to,
    can_flow_to_p,
    cnf,
    cnf_and,
    cnf_from_principal,
    cnf_implies,
    cnf_or,
    cnf_reduce,
    decode_cnf,
    decode_label,
    downgrade,
    encode_cnf,
    encode_label,
    join,
    meet,
    read_cnf,
    read_label,
    sole_principal,
)
from label_oracle import (
    enumerate_canonical_cnfs,
    oracle_can_flow_to,
    oracle_equivalent,
    oracle_implies,
    satisfied,
)

TWO = enumerate_canonical_cnfs(["A", "B"])
THREE = enumerate_canonical_cnfs(["A", "B", "C"])

LABELS_TWO = [DCLabel(s, i) for s in TWO for i in TWO]

PRIVILEGES = [
    EMPTY_PRIVILEGE,
    Privilege.for_principal("A"),
    Privilege.for_principal("B"),
    Privilege(cnf({"A"}, {"B"})),
    Privilege(cnf({"A", "B"})),
]


def random_cnf(rng: random.Random, names: list[str]) -> CNF:
    if rng.random() < 0.05:
        return CNF_FALSE
    n_clauses = rng.randint(0, 3)
    clauses = frozenset(
        frozenset(rng.sample(names, rng.randint(1, len(names))))
        for _ in range(n_clauses)
    )
    return cnf_reduce(clauses)


# --- canonical universes ----------------------------------------------------


def test_universe_sizes():
    assert len(TWO) == 6
    assert len(THREE) == 20


def test_universe_is_canonical():
    for a in THREE:
        assert cnf_reduce(a) == a


# --- implication vs oracle --------------------------------------------------


def test_implies_matches_oracle_exhaustive_two():
    for a, b in itertools.product(TWO, repeat=2):
        assert cnf_implies(a, b) == oracle_implies(a, b), (a, b)


def test_implies_matches_oracle_exhaustive_three():
    for a, b in itertools.product(THREE, repeat=2):
        assert cnf_implies(a, b) == oracle_implies(a, b), (a, b)


def test_implies_matches_oracle_random_four():
    rng = random.Random(1701)
    names = ["A", "B", "C", "D"]
    for _ in range(300):
        a, b = random_cnf(rng, names), random_cnf(rng, names)
        assert cnf_implies(a, b) == oracle_implies(a, b), (a, b)


def test_implies_basics():
    assert cnf_implies(CNF_FALSE, cnf({"A"}))
    assert cnf_implies(cnf({"A"}), CNF_TRUE)
    assert not cnf_implies(CNF_TRUE, cnf({"A"}))
    assert cnf_implies(cnf({"A"}), cnf({"A", "B"}))
    assert not cnf_implies(cnf({"A", "B"}), cnf({"A"}))


# --- and / or / reduce ------------------------------------------------------


def test_and_or_semantics_exhaustive():
    universe = ["A", "B", "C"]
    assignments = [
        frozenset(n for n, bit in zip(universe, bits) if bit)
        for bits in itertools.product([False, True], repeat=3)
    ]
    for a, b in itertools.product(THREE, repeat=2):
        conj, disj = cnf_and(a, b), cnf_or(a, b)
        assert cnf_reduce(conj) == conj
        assert cnf_reduce(disj) == disj
        for m in assignments:
            assert satisfied(conj, m) == (satisfied(a, m) and satisfied(b, m))
            assert satisfied(disj, m) == (satisfied(a, m) or satisfied(b, m))


def test_reduce_preserves_meaning_and_is_idempotent():
    rng = random.Random(42)
    names = ["A", "B", "C", "D"]
    for _ in range(300):
        n_clauses = rng.randint(0, 5)
        raw = frozenset(
            frozenset(rng.sample(names, rng.randint(0, len(names))))
            for _ in range(n_clauses)
        )
        reduced = cnf_reduce(raw)
        assert oracle_equivalent(raw, reduced)
        assert cnf_reduce(reduced) == reduced


def test_reduce_collapses_empty_clause():
    messy = frozenset({frozenset(), frozenset({"A"})})
    assert cnf_reduce(messy) == CNF_FALSE


def test_reduce_drops_superset_clauses():
    assert cnf(
        {"A"}, {"A", "B"}
    ) == cnf({"A"})


# --- hypothesis: random formulas agree with the oracle -----------------------

names_st = st.sampled_from(["A", "B", "C"])
clause_st = st.frozensets(names_st, min_size=1, max_size=3)
cnf_st = st.builds(cnf_reduce, st.frozensets(clause_st, max_size=4))


@given(cnf_st, cnf_st)
def test_hypothesis_implies_matches_oracle(a, b):
    assert cnf_implies(a, b) == oracle_implies(a, b)


@given(cnf_st, cnf_st)
def test_hypothesis_and_or_roundtrip_absorption(a, b):
    # lattice absorption: a ∧ (a ∨ b) ≡ a ≡ a ∨ (a ∧ b)
    assert oracle_equivalent(cnf_and(a, cnf_or(a, b)), a)
    assert oracle_equivalent(cnf_or(a, cnf_and(a, b)), a)


# --- the flow relation and the label lattice ---------------------------------


def test_can_flow_to_matches_oracle():
    for l1, l2 in itertools.product(LABELS_TWO, repeat=2):
        assert can_flow_to(l1, l2) == oracle_can_flow_to(l1, l2)


def test_flow_is_a_partial_order():
    for l1 in LABELS_TWO:
        assert can_flow_to(l1, l1)
    for l1, l2 in itertools.product(LABELS_TWO, repeat=2):
        if can_flow_to(l1, l2) and can_flow_to(l2, l1):
            assert l1 == l2  # canonical form makes equivalence literal equality
    for l1, l2, l3 in itertools.product(LABELS_TWO, repeat=3):
        if can_flow_to(l1, l2) and can_flow_to(l2, l3):
            assert can_flow_to(l1, l3)


def test_join_is_least_upper_bound():
    for l1, l2 in itertools.product(LABELS_TWO, repeat=2):
        j = join(l1, l2)
        assert can_flow_to(l1, j) and can_flow_to(l2, j)
        for m in LABELS_TWO:
            if can_flow_to(l1, m) and can_flow_to(l2, m):
                assert can_flow_to(j, m)


def test_meet_is_greatest_lower_bound():
    for l1, l2 in itertools.product(LABELS_TWO, repeat=2):
        m = meet(l1, l2)
        assert can_flow_to(m, l1) and can_flow_to(m, l2)
        for low in LABELS_TWO:
            if can_flow_to(low, l1) and can_flow_to(low, l2):
                assert can_flow_to(low, m)


def test_extremes():
    for l in LABELS_TWO:
        assert can_flow_to(DC_BOTTOM, l)
        assert can_flow_to(l, DC_TOP)
    assert DC_PUBLIC == DCLabel(CNF_TRUE, CNF_TRUE)
    secret = DCLabel(cnf_from_principal("A"), CNF_TRUE)
    assert can_flow_to(DC_PUBLIC, secret)
    assert not can_flow_to(secret, DC_PUBLIC)


# --- privileges and downgrade -------------------------------------------------


def test_downgrade_characterizes_privileged_flow():
    for p in PRIVILEGES:
        for l1, l2 in itertools.product(LABELS_TWO, repeat=2):
            assert can_flow_to_p(p, l1, l2) == can_flow_to(downgrade(p, l1), l2), (
                p,
                l1,
                l2,
            )


def test_downgrade_without_privilege_is_identity():
    for l in LABELS_TWO:
        assert downgrade(EMPTY_PRIVILEGE, l) == l


def test_downgrade_never_raises_the_label():
    for p in PRIVILEGES:
        for l in LABELS_TWO:
            assert can_flow_to(downgrade(p, l), l)


def test_privileged_flow_examples():
    alice = Privilege.for_principal("Alice")
    secret = DCLabel(cnf_from_principal("Alice"), cnf_from_principal("Alice"))
    assert not can_flow_to(secret, DC_PUBLIC)
    assert can_flow_to_p(alice, secret, DC_PUBLIC)
    assert downgrade(alice, secret) == DCLabel(CNF_TRUE, cnf_from_principal("Alice"))


def test_downgrade_joint_secret_needs_both_owners():
    # two providers' rows joined: secrecy (P1) AND (P2)
    joint = DCLabel(cnf({"P1"}, {"P2"}), CNF_TRUE)
    p1 = Privilege.for_principal("P1")
    assert downgrade(p1, joint) == DCLabel(cnf({"P2"}), cnf({"P1"}))
    assert not can_flow_to_p(p1, joint, DC_PUBLIC)
    both = Privilege(cnf({"P1"}, {"P2"}))
    assert can_flow_to_p(both, joint, DC_PUBLIC)


def test_disjunctive_secret_satisfied_by_one_owner():
    either = DCLabel(cnf({"P1", "P2"}), CNF_TRUE)
    assert can_flow_to_p(Privilege.for_principal("P1"), either, DC_PUBLIC)
    assert can_flow_to_p(Privilege.for_principal("P2"), either, DC_PUBLIC)


# --- the memoized operations -----------------------------------------------------

CACHED = (join, downgrade)
ASSIGNMENTS_TWO = [frozenset(s) for s in ([], ["A"], ["B"], ["A", "B"])]


def _check_against_oracle(p: Privilege, l1: DCLabel, l2: DCLabel) -> None:
    assert can_flow_to(l1, l2) == oracle_can_flow_to(l1, l2)
    j = join(l1, l2)
    for x in ASSIGNMENTS_TWO:
        assert satisfied(j.secrecy, x) == (satisfied(l1.secrecy, x) and satisfied(l2.secrecy, x))
        assert satisfied(j.integrity, x) == (
            satisfied(l1.integrity, x) or satisfied(l2.integrity, x)
        )
    # downgrade(p, l1) is the label that flows exactly where p lets l1 flow
    d = downgrade(p, l1)
    pd = p.description
    for m in LABELS_TWO:
        privileged = oracle_implies(pd | m.secrecy, l1.secrecy) and oracle_implies(
            pd | l1.integrity, m.integrity
        )
        assert oracle_can_flow_to(d, m) == privileged


def test_label_caches_agree_with_oracle_cold_and_warm():
    rng = random.Random(5)
    cases = [
        (rng.choice(PRIVILEGES), rng.choice(LABELS_TWO), rng.choice(LABELS_TWO))
        for _ in range(200)
    ]
    for fn in CACHED:
        fn.cache_clear()
    for p, l1, l2 in cases:  # cold: filling the caches
        _check_against_oracle(p, l1, l2)
    cold = [fn.cache_info() for fn in CACHED]
    assert all(info.misses > 0 for info in cold)
    for p, l1, l2 in cases:  # warm: every answer from the caches
        _check_against_oracle(p, l1, l2)
        assert join(l1, l2) == join.__wrapped__(l1, l2)
        assert downgrade(p, l1) == downgrade.__wrapped__(p, l1)
    assert [fn.cache_info().misses for fn in CACHED] == [info.misses for info in cold]


def test_label_caches_stay_bounded_under_distinct_labels():
    # a peer that sends ever new labels evicts entries; it cannot grow the caches
    for fn in CACHED:
        fn.cache_clear()
    svc = Privilege.for_principal("svc")
    for i in range(LABEL_CACHE_SIZE + 100):
        lv = make_labeled(DCLabel(cnf_from_principal(f"P{i}"), CNF_TRUE), i)
        assert IfcContext(svc).unlabel_p(svc, lv) == i
        assert all(fn.cache_info().currsize <= LABEL_CACHE_SIZE for fn in CACHED)
    assert [fn.cache_info().currsize for fn in CACHED] == [LABEL_CACHE_SIZE] * 2


def _rebuilt(a: CNF) -> CNF:
    """An equal CNF sharing no object with ``a``."""
    return frozenset(frozenset(n for n in c) for c in a)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.builds(DCLabel, cnf_st, cnf_st), st.builds(DCLabel, cnf_st, cnf_st))
def test_memoized_can_flow_to_agrees_with_the_oracle_cold_and_warm(l1, l2):
    twin = DCLabel(_rebuilt(l1.secrecy), _rebuilt(l1.integrity))
    assert twin == l1 and hash(twin) == hash(l1)
    p = Privilege(l2.secrecy)
    assert Privilege(_rebuilt(l2.secrecy)) is p
    can_flow_to.cache_clear()
    want = oracle_can_flow_to(l1, l2)
    assert can_flow_to(l1, l2) == want  # cold
    assert can_flow_to(twin, l2) == want  # warm: the equal twin finds the entry
    assert can_flow_to.cache_info().hits == 1
    assert can_flow_to.__wrapped__(l1, l2) == want


def test_can_flow_to_cache_stays_bounded_under_distinct_pairs():
    can_flow_to.cache_clear()
    for i in range(LABEL_CACHE_SIZE + 100):
        lab = DCLabel(cnf_from_principal(f"P{i}"), CNF_TRUE)
        assert can_flow_to(DC_PUBLIC, lab) and not can_flow_to(lab, DC_PUBLIC)
    assert can_flow_to.cache_info().currsize == LABEL_CACHE_SIZE


_PICKLE_LABEL = """
import pickle, sys
from enclaveflow.labels import DCLabel, Privilege, cnf
pair = (DCLabel(cnf({"Alice", "Bob"}), cnf({"Carol"})), Privilege(cnf({"Carol"})))
sys.stdout.write(pickle.dumps(pair).hex())
"""

_FIND_LABEL = """
import pickle, sys
from enclaveflow.labels import DCLabel, Privilege, cnf
label, priv = pickle.loads(bytes.fromhex(sys.stdin.read()))
fresh = {
    DCLabel(cnf({"Alice", "Bob"}), cnf({"Carol"})): "label",
    Privilege(cnf({"Carol"})): "priv",
}
assert (fresh[label], fresh[priv]) == ("label", "priv")
print(hash(label))
"""


def test_a_pickled_label_is_found_under_another_hash_seed():
    # str hashes are salted per process: an unpickled label must hash anew
    def run(code: str, seed: str, stdin: str = "") -> str:
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", code],
            input=stdin,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    pickled = run(_PICKLE_LABEL, "1")
    assert run(_FIND_LABEL, "2", pickled) != run(_FIND_LABEL, "3", pickled)


def test_a_formula_is_a_builtin_frozenset_of_clauses():
    svc = cnf_from_principal("svc")
    assert type(svc) is frozenset and svc == frozenset({frozenset({"svc"})})
    assert CNF_TRUE == frozenset() and CNF_FALSE == frozenset({frozenset()})
    assert repr(CNF_TRUE) == "frozenset()"
    assert pickle.loads(pickle.dumps(svc)) == svc
    # the labels built on them keep their own notation
    assert repr(DC_BOTTOM) == "<True,False>" and repr(DC_TOP) == "<False,True>"
    assert repr(DCLabel(cnf({"b", "a"}, {"c"}), svc)) == "<{{a,b},{c}},{{svc}}>"
    assert repr(Privilege(CNF_FALSE)) == "Privilege(False)"


def test_sole_principal():
    assert sole_principal(cnf_from_principal("P1")) == "P1"
    assert sole_principal(decode_cnf(encode_cnf(cnf({"ω"})))) == "ω"
    assert sole_principal(CNF_TRUE) is None
    assert sole_principal(CNF_FALSE) is None
    assert sole_principal(cnf({"P1", "P2"})) is None  # either
    assert sole_principal(cnf({"P1"}, {"P2"})) is None  # joint
    assert sole_principal(cnf({"P1"}, {"P2", "P3"})) is None  # a singleton and more


# --- wire encoding ------------------------------------------------------------


def test_encoding_byte_vectors():
    assert encode_cnf(CNF_TRUE) == b"\x00\x00"
    assert encode_cnf(CNF_FALSE) == b"\x00\x01\x00\x00"
    assert (
        encode_cnf(cnf_from_principal("Alice"))
        == b"\x00\x01\x00\x01\x00\x05Alice"
    )
    assert encode_label(DC_PUBLIC) == b"\x00\x00\x00\x00"
    assert encode_label(DC_BOTTOM) == b"\x00\x00\x00\x01\x00\x00"


def test_encoding_orders_principals_by_utf8():
    one_clause = cnf({"Bob", "Alice"})
    assert (
        encode_cnf(one_clause)
        == b"\x00\x01\x00\x02\x00\x05Alice\x00\x03Bob"
    )


def test_encoding_orders_clauses_by_their_encoding():
    two_clauses = cnf({"Alice"}, {"Bob"})
    # the Bob clause encodes lower (shorter name length prefix), so it leads
    assert (
        encode_cnf(two_clauses)
        == b"\x00\x02\x00\x01\x00\x03Bob\x00\x01\x00\x05Alice"
    )


def test_roundtrip_exhaustive():
    for a in THREE:
        assert decode_cnf(encode_cnf(a)) == a
    for s, i in itertools.product(TWO, repeat=2):
        lab = DCLabel(s, i)
        assert decode_label(encode_label(lab)) == lab


def test_roundtrip_random():
    rng = random.Random(7)
    names = ["Alice", "Bob", "Carol", "Dave"]
    for _ in range(300):
        a = random_cnf(rng, names)
        assert decode_cnf(encode_cnf(a)) == a


def test_roundtrip_unicode_names():
    a = cnf({"aließ", "bób"}, {"ω"})
    assert decode_cnf(encode_cnf(a)) == a


def test_decode_rejects_every_truncation():
    full = encode_cnf(cnf({"Alice"}, {"Bob", "Carol"}))
    for cut in range(len(full)):
        with pytest.raises(LabelError):
            decode_cnf(full[:cut])


def test_decode_rejects_trailing_bytes():
    with pytest.raises(LabelError):
        decode_cnf(encode_cnf(CNF_TRUE) + b"\x00")
    with pytest.raises(LabelError):
        decode_label(encode_label(DC_PUBLIC) + b"\x00")


def test_decode_rejects_noncanonical_clause_order():
    # valid clauses, deliberately swapped
    bob = b"\x00\x01\x00\x03Bob"
    alice = b"\x00\x01\x00\x05Alice"
    assert decode_cnf(b"\x00\x02" + bob + alice) == cnf({"Alice"}, {"Bob"})
    with pytest.raises(LabelError):
        decode_cnf(b"\x00\x02" + alice + bob)


def test_decode_rejects_duplicate_clause():
    bob = b"\x00\x01\x00\x03Bob"
    with pytest.raises(LabelError):
        decode_cnf(b"\x00\x02" + bob + bob)


def test_decode_rejects_noncanonical_principal_order():
    with pytest.raises(LabelError):
        decode_cnf(b"\x00\x01\x00\x02\x00\x03Bob\x00\x05Alice")


def test_decode_rejects_duplicate_principal():
    with pytest.raises(LabelError):
        decode_cnf(b"\x00\x01\x00\x02\x00\x03Bob\x00\x03Bob")


def test_decode_rejects_non_antichain():
    # {Alice} and {Alice,Bob}: the second clause is redundant
    inner = b"\x00\x01\x00\x05Alice" + b"\x00\x02\x00\x05Alice\x00\x03Bob"
    with pytest.raises(LabelError):
        decode_cnf(b"\x00\x02" + inner)


def test_decode_rejects_empty_clause_mixed_with_others():
    inner = b"\x00\x00" + b"\x00\x01\x00\x03Bob"
    with pytest.raises(LabelError):
        decode_cnf(b"\x00\x02" + inner)


def test_decode_rejects_bad_utf8_and_bad_names():
    with pytest.raises(LabelError):
        decode_cnf(b"\x00\x01\x00\x01\x00\x02\xff\xfe")
    with pytest.raises(LabelError):
        decode_cnf(b"\x00\x01\x00\x01\x00\x00")  # empty principal name
    with pytest.raises(LabelError):
        decode_cnf(b"\x00\x01\x00\x01\x00\x01\x00")  # NUL in name


def test_principal_validation():
    with pytest.raises(LabelError, match="non-empty"):
        cnf({""})
    with pytest.raises(LabelError, match="NUL"):
        cnf({"a", "b\x00"})
    with pytest.raises(LabelError, match="non-empty"):
        cnf_from_principal("")
    with pytest.raises(LabelError, match="NUL"):
        cnf_from_principal("a\x00b")


@pytest.mark.parametrize("name", ["", "a\x00b"], ids=["empty", "nul"])
def test_the_encoder_refuses_a_name_no_decoder_accepts(name):
    # a CNF built by hand skips cnf()'s check; the encoder checks again, so
    # nothing encoded here is undecodable
    hand_built = frozenset({frozenset({"Alice", name})})
    with pytest.raises(LabelError, match="^principal name must"):
        encode_cnf(hand_built)
    with pytest.raises(LabelError, match="^principal name must"):
        encode_label(DCLabel(CNF_TRUE, hand_built))


def test_a_clause_out_of_order_is_refused_before_its_empty_name():
    # the second clause holds one empty name, and its bytes sort before
    # those of ``{B}``: the parse checks a clause's order before its names
    with pytest.raises(LabelError, match="^clauses not in canonical order$"):
        decode_cnf(b"\x00\x02\x00\x01\x00\x01B\x00\x01\x00\x00")


# --- interning at the codec ----------------------------------------------------

label_st = st.builds(DCLabel, cnf_st, cnf_st)


def uncached_read(buf: bytes) -> tuple[DCLabel, int]:
    """The strict parse with no cache in front of it."""
    secrecy, pos = read_cnf(buf, 0)
    integrity, pos = read_cnf(buf, pos)
    return DCLabel(secrecy, integrity), pos


def uncached_parse(b: bytes) -> DCLabel:
    value, pos = uncached_read(b)
    assert pos == len(b)
    return value


def named_label(name: str) -> DCLabel:
    return DCLabel(cnf_from_principal(name), CNF_TRUE)  # encodes in 8 + len(name) bytes


def test_equal_bytes_decode_to_one_label_object():
    raw = encode_label(DCLabel(cnf({"Alice", "Bob"}), cnf({"Carol"})))
    first = decode_label(bytes(raw))
    again, end = read_label(b"xy" + raw + b"zz", 2)  # other bytes, other offset
    assert again is first and end == 2 + len(raw)
    assert first == uncached_parse(raw)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(label_st)
def test_interned_decode_and_memoized_encode_match_the_uncached_codec(lab):
    raw = encode_label.__wrapped__(lab)
    assert encode_label(lab) == raw  # byte for byte, cold or warm
    assert encode_label(lab) == raw
    assert decode_label(raw) == uncached_parse(raw) == lab
    assert encode_label(decode_label(raw)) == raw


def _outcome(read, buf: bytes):
    try:
        return read(buf)
    except LabelError as e:
        return str(e)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(label_st.map(encode_label), st.integers(0, 255), st.integers(0, 255), st.integers(0, 8))
def test_damaged_bytes_read_as_the_uncached_parse_reads_them(raw, at, byte, cut):
    # same label and end, or the same error, for bytes overwritten or cut short
    damaged = raw[: at % len(raw)] + bytes([byte]) + raw[at % len(raw) + 1 :]
    for buf in (damaged, damaged[: max(0, len(damaged) - cut)], raw + bytes([byte])):
        assert _outcome(lambda b: read_label(b, 0), buf) == _outcome(uncached_read, buf)


def test_intern_cache_stays_bounded_under_distinct_labels():
    labels._intern_label.cache_clear()
    encode_label.cache_clear()
    for i in range(LABEL_CACHE_SIZE + 100):
        lab = named_label(f"P{i}")
        assert decode_label(encode_label(lab)) == lab
    assert labels._intern_label.cache_info().currsize == LABEL_CACHE_SIZE
    assert encode_label.cache_info().currsize == LABEL_CACHE_SIZE


def test_only_labels_within_the_bound_are_interned():
    at_bound = encode_label(named_label("x" * (LABEL_INTERN_MAX - 8)))
    over = encode_label(named_label("y" * (LABEL_INTERN_MAX - 7)))
    assert (len(at_bound), len(over)) == (LABEL_INTERN_MAX, LABEL_INTERN_MAX + 1)
    assert decode_label(at_bound) is decode_label(at_bound)
    before = labels._intern_label.cache_info()
    first, second = decode_label(over), decode_label(over)
    assert first == second == uncached_parse(over) and first is second
    assert labels._intern_label.cache_info() == before  # neither looked up nor stored


def test_a_label_whose_last_clause_is_empty_and_ends_the_buffer_is_interned():
    # DC_BOTTOM's integrity is False, one clause of no names: the label's
    # last u16 is that clause's name count, and it ends the buffer
    raw = encode_label(DC_BOTTOM)
    assert raw == b"\x00\x00\x00\x01\x00\x00"
    labels._intern_label.cache_clear()
    assert decode_label(raw) is DC_BOTTOM
    assert decode_label(raw) is DC_BOTTOM
    info = labels._intern_label.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_a_principal_name_of_65535_bytes_round_trips():
    # a name's byte length is a u16 in the encoding
    lab = named_label("n" * 0xFFFF)
    raw = encode_label(lab)
    assert len(raw) == 8 + 0xFFFF
    assert decode_label(raw) == lab


@pytest.mark.parametrize(
    "name", ["n" * 0x10000, "\u00e9" * 0x8000], ids=["ascii", "two-byte-chars"]
)
def test_a_principal_name_of_65536_bytes_is_refused(name):
    # the bound counts UTF-8 bytes: 32768 two-byte characters are over it
    assert len(name.encode("utf-8")) == 0x10000
    with pytest.raises(LabelError, match="^principal name too long to encode$"):
        encode_label(named_label(name))


# --- one live object per label and privilege --------------------------------------


def test_every_way_to_build_an_equal_label_or_privilege_gives_one_object():
    secrecy, integrity = cnf({"Alice"}, {"Bob", "Carol"}), cnf({"Dave"})
    lab = DCLabel(secrecy, integrity)
    dave = Privilege(cnf({"Dave"}))
    built = [
        DCLabel(_rebuilt(secrecy), _rebuilt(integrity)),
        DCLabel(integrity=integrity, secrecy=secrecy),
        join(DCLabel(cnf({"Alice"}), integrity), DCLabel(cnf({"Bob", "Carol"}), integrity)),
        meet(DCLabel(secrecy, CNF_TRUE), DCLabel(secrecy, integrity)),
        downgrade(dave, DCLabel(cnf_and(secrecy, cnf({"Dave"})), CNF_TRUE)),
        decode_label(encode_label(lab)),
        uncached_parse(encode_label.__wrapped__(lab)),
        pickle.loads(pickle.dumps(lab)),
        copy.deepcopy(lab),
        copy.copy(lab),
    ]
    assert all(b is lab for b in built)
    for again in (
        Privilege.for_principal("Dave"),
        Privilege(description=_rebuilt(dave.description)),
        pickle.loads(pickle.dumps(dave)),
        copy.deepcopy(dave),
    ):
        assert again is dave
    assert DCLabel(integrity, secrecy) is not lab
    assert Privilege(integrity) is dave and Privilege(secrecy) is not dave


def test_the_intern_table_holds_only_live_values():
    # a peer that sends ever new labels leaves nothing behind once the
    # bounded caches that hold labels let them go
    for fn in (can_flow_to, *CACHED, encode_label, labels._intern_label):
        fn.cache_clear()
    before = len(labels._INTERNED)
    for i in range(10_000):
        DCLabel(cnf_from_principal(f"P{i}"), CNF_TRUE)
        Privilege.for_principal(f"P{i}")
        decode_label(encode_label.__wrapped__(named_label(f"Q{i}")))
    assert len(labels._INTERNED) == before + LABEL_CACHE_SIZE  # the decode cache's
    labels._intern_label.cache_clear()
    assert len(labels._INTERNED) == before


def test_threads_that_build_one_label_at_once_get_one_object():
    threads, rounds = 8, 2000
    barrier = threading.Barrier(threads, timeout=30)
    got: list[list] = [[None] * threads for _ in range(rounds)]

    def build(t: int) -> None:
        for r in range(rounds):
            name = f"race{r}"  # a label nobody has built yet
            secrecy, integrity = cnf({name}), cnf({name, "x"})
            barrier.wait()
            got[r][t] = DCLabel(secrecy, integrity)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=build, args=(t,)) for t in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert all(lab is row[0] for row in got for lab in row)


def test_malformed_bytes_are_refused_on_every_call():
    # the canonical twin is cached first: a refusal must not depend on it
    canonical = encode_label(DCLabel(cnf({"Alice", "Bob"}), CNF_TRUE))
    assert canonical == b"\x00\x01\x00\x02\x00\x05Alice\x00\x03Bob\x00\x00"
    decode_label(canonical)
    swapped = b"\x00\x01\x00\x02\x00\x03Bob\x00\x05Alice\x00\x00"
    before = labels._intern_label.cache_info().currsize
    for bad in (swapped, canonical[:-1], canonical[:3]):
        for _ in range(3):
            with pytest.raises(LabelError):
                decode_label(bad)
    assert labels._intern_label.cache_info().currsize == before


def test_a_huge_clause_count_with_no_clauses_fails_at_once():
    for buf in (b"\xff\xff", b"\xff\xff\x00\x01", encode_label(DC_PUBLIC)[:2] + b"\xff\xff"):
        with pytest.raises(LabelError, match="truncated"):
            read_label(buf, 0)


def singleton_clauses(n: int) -> CNF:
    return frozenset(frozenset({f"p{i:04}"}) for i in range(n))


def singleton_clauses_encoded(n: int) -> bytes:
    """``singleton_clauses(n)`` encoded by hand, since the encoder refuses
    more than LABEL_MAX_CLAUSES: a u16 count, then the sorted clauses."""
    clauses = sorted(b"\x00\x01\x00\x05" + f"p{i:04}".encode() for i in range(n))
    return n.to_bytes(2, "big") + b"".join(clauses)


def test_a_cnf_over_the_clause_bound_is_refused_before_it_is_built():
    at_bound = DCLabel(singleton_clauses(LABEL_MAX_CLAUSES), CNF_TRUE)
    raw = encode_label(at_bound)
    assert raw == singleton_clauses_encoded(LABEL_MAX_CLAUSES) + b"\x00\x00"
    assert decode_label(raw) == uncached_parse(raw) == at_bound
    for n in (LABEL_MAX_CLAUSES + 1, 4000):
        raw = singleton_clauses_encoded(n) + b"\x00\x00"  # then CNF_TRUE: no clauses
        with pytest.raises(LabelError, match="more than"):
            encode_label(DCLabel(CNF_TRUE, singleton_clauses(n)))
        with pytest.raises(LabelError, match="more than"):
            decode_label(raw)
        with pytest.raises(LabelError, match="more than"):
            read_cnf(raw, 0)
