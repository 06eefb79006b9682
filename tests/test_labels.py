"""Label algebra tests: syntactic operations against a truth-table oracle."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from enclaveflow.errors import LabelError
from enclaveflow.ifc import IfcContext, make_labeled
from enclaveflow.labels import (
    CNF,
    CNF_FALSE,
    CNF_TRUE,
    DC_BOTTOM,
    DC_PUBLIC,
    DC_TOP,
    Clause,
    DCLabel,
    EMPTY_PRIVILEGE,
    LABEL_CACHE_SIZE,
    Principal,
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
        Clause(frozenset(Principal(n) for n in rng.sample(names, rng.randint(1, len(names)))))
        for _ in range(n_clauses)
    )
    return cnf_reduce(CNF(clauses))


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
        raw = CNF(
            frozenset(
                Clause(
                    frozenset(
                        Principal(n)
                        for n in rng.sample(names, rng.randint(0, len(names)))
                    )
                )
                for _ in range(n_clauses)
            )
        )
        reduced = cnf_reduce(raw)
        assert oracle_equivalent(raw, reduced)
        assert cnf_reduce(reduced) == reduced


def test_reduce_collapses_empty_clause():
    messy = CNF(frozenset({Clause(frozenset()), Clause(frozenset({Principal("A")}))}))
    assert cnf_reduce(messy) == CNF_FALSE


def test_reduce_drops_superset_clauses():
    assert cnf(
        {"A"}, {"A", "B"}
    ) == cnf({"A"})


# --- hypothesis: random formulas agree with the oracle -----------------------

names_st = st.sampled_from(["A", "B", "C"])
clause_st = st.frozensets(names_st, min_size=1, max_size=3)
cnf_st = st.builds(
    lambda groups: cnf_reduce(
        CNF(frozenset(Clause(frozenset(Principal(n) for n in g)) for g in groups))
    ),
    st.frozensets(clause_st, max_size=4),
)


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
    pd = p.description.clauses
    for m in LABELS_TWO:
        privileged = oracle_implies(CNF(pd | m.secrecy.clauses), l1.secrecy) and oracle_implies(
            CNF(pd | l1.integrity.clauses), m.integrity
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
    template = IfcContext(svc)
    for i in range(LABEL_CACHE_SIZE + 100):
        lv = make_labeled(DCLabel(cnf_from_principal(f"P{i}"), CNF_TRUE), i)
        assert template.clone().unlabel_p(svc, lv) == i
        assert all(fn.cache_info().currsize <= LABEL_CACHE_SIZE for fn in CACHED)
    assert [fn.cache_info().currsize for fn in CACHED] == [LABEL_CACHE_SIZE] * 2


def test_sole_principal():
    assert cnf_from_principal("P1").sole_principal() == "P1"
    assert CNF_TRUE.sole_principal() is None
    assert CNF_FALSE.sole_principal() is None
    assert cnf({"P1", "P2"}).sole_principal() is None  # either
    assert cnf({"P1"}, {"P2"}).sole_principal() is None  # joint


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
    with pytest.raises(LabelError):
        Principal("")
    with pytest.raises(LabelError):
        Principal("a\x00b")
