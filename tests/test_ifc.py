"""IFC runtime tests: guard rules, floating labels, refs, and the output gate."""

from __future__ import annotations

import itertools
import random

import pytest

from enclaveflow.errors import IfcViolation
from enclaveflow.ifc import IfcContext, LabeledRef, make_labeled
from enclaveflow.labels import (
    CNF_TRUE,
    DC_PUBLIC,
    DC_TOP,
    DCLabel,
    EMPTY_PRIVILEGE,
    Privilege,
    can_flow_to,
    cnf,
    cnf_from_principal,
)
from label_oracle import enumerate_canonical_cnfs

ALICE = DCLabel(cnf_from_principal("Alice"), CNF_TRUE)
BOB = DCLabel(cnf_from_principal("Bob"), CNF_TRUE)
ALICE_BOTH = DCLabel(cnf_from_principal("Alice"), cnf_from_principal("Alice"))
P_ALICE = Privilege.for_principal("Alice")


def fresh(privilege: Privilege = EMPTY_PRIVILEGE, **kw) -> IfcContext:
    return IfcContext(privilege=privilege, **kw)


# --- label / label_p -----------------------------------------------------------


def test_label_seals_at_higher_label():
    ctx = fresh()
    lv = ctx.label(ALICE, "password")
    assert lv.label == ALICE and lv.value == "password"
    assert ctx.current == DC_PUBLIC  # context unchanged


def test_label_and_label_p_store_a_copy():
    ctx = fresh(P_ALICE)
    for seal in (lambda v: ctx.label(ALICE, v), lambda v: ctx.label_p(P_ALICE, ALICE, v)):
        v = [[1], 2]
        lv = seal(v)
        v[0].append(9)
        v.append(3)
        assert ctx.unlabel(lv) == [[1], 2]


def test_label_at_current_is_allowed():
    ctx = fresh()
    assert ctx.label(DC_PUBLIC, 1).label == DC_PUBLIC


def test_label_below_current_is_blocked():
    ctx = fresh()
    ctx.taint(ALICE)
    with pytest.raises(IfcViolation):
        ctx.label(DC_PUBLIC, "laundered")


def test_label_above_clearance_is_blocked():
    ctx = fresh(clearance=DC_PUBLIC)
    with pytest.raises(IfcViolation):
        ctx.label(ALICE, 1)


def test_label_p_discharges_owned_clause():
    ctx = fresh(P_ALICE)
    ctx.taint(ALICE)
    lv = ctx.label_p(P_ALICE, DC_PUBLIC, True)
    assert lv.label == DC_PUBLIC


def test_label_p_with_empty_privilege_equals_label():
    two = enumerate_canonical_cnfs(["A", "B"])
    labels = [DCLabel(s, i) for s in two for i in two]
    for start in (DC_PUBLIC, DCLabel(cnf({"A"}), CNF_TRUE)):
        for l in labels:
            a = fresh(current=start)
            b = fresh(current=start)
            try:
                va = a.label(l, 0)
            except IfcViolation:
                va = None
            try:
                vb = b.label_p(EMPTY_PRIVILEGE, l, 0)
            except IfcViolation:
                vb = None
            assert va == vb


def test_label_p_clearance_is_privilege_insensitive():
    ctx = fresh(P_ALICE, clearance=DC_PUBLIC)
    with pytest.raises(IfcViolation):
        ctx.label_p(P_ALICE, ALICE, 1)


# --- unlabel / unlabel_p ----------------------------------------------------------


def test_unlabel_taints_and_returns():
    ctx = fresh()
    lv = make_labeled(ALICE, "secret")
    assert ctx.unlabel(lv) == "secret"
    assert ctx.current == ALICE


def test_unlabel_and_unlabel_p_return_a_copy():
    lv = make_labeled(ALICE_BOTH, [[1], 2])
    for open_ in (fresh().unlabel, lambda lv: fresh(P_ALICE).unlabel_p(P_ALICE, lv)):
        got = open_(lv)
        got[0].append(9)
        got.append(3)
        assert open_(lv) == [[1], 2]


def test_unlabel_at_current_label_is_stable():
    ctx = fresh(current=ALICE)
    ctx.unlabel(make_labeled(ALICE, 1))
    assert ctx.current == ALICE


def test_unlabel_accumulates_owners():
    ctx = fresh()
    ctx.unlabel(make_labeled(ALICE, 1))
    ctx.unlabel(make_labeled(BOB, 2))
    assert ctx.current == DCLabel(cnf({"Alice"}, {"Bob"}), CNF_TRUE)


def test_unlabel_clearance_breach_leaves_context_unchanged():
    ctx = fresh(clearance=DC_PUBLIC)
    with pytest.raises(IfcViolation):
        ctx.unlabel(make_labeled(ALICE, 1))
    assert ctx.current == DC_PUBLIC


def test_unlabel_p_password_checker_path():
    # privilege for the secret's sole owner keeps the context releasable:
    # downgrade strips the secrecy clause, and joining the endorsed integrity
    # with the public context's True integrity lands back at public exactly
    ctx = fresh(P_ALICE)
    got = ctx.unlabel_p(P_ALICE, make_labeled(ALICE_BOTH, "hunter2"))
    assert got == "hunter2"
    assert ctx.current == DC_PUBLIC
    assert ctx.output_gate()


def test_unlabel_p_with_empty_privilege_matches_unlabel():
    three = enumerate_canonical_cnfs(["A", "B", "C"])
    for s, i in itertools.product(three, repeat=2):
        lv = make_labeled(DCLabel(s, i), 0)
        a, b = fresh(), fresh()
        a.unlabel(lv)
        b.unlabel_p(EMPTY_PRIVILEGE, lv)
        assert a.current == b.current


def test_unlabel_p_foreign_clause_sticks():
    p1 = Privilege.for_principal("P1")
    row = make_labeled(DCLabel(cnf({"P2"}), CNF_TRUE), 7)
    ctx = fresh(p1)
    ctx.unlabel_p(p1, row)
    assert ctx.current == DCLabel(cnf({"P2"}), CNF_TRUE)
    assert not ctx.output_gate()


# --- taint ---------------------------------------------------------------------


def test_taint_public_is_noop():
    ctx = fresh()
    ctx.taint(DC_PUBLIC)
    assert ctx.current == DC_PUBLIC


def test_taint_raises_label():
    ctx = fresh()
    ctx.taint(ALICE)
    assert ctx.current == ALICE


def test_taint_breaching_clearance():
    ctx = fresh(clearance=DC_PUBLIC)
    with pytest.raises(IfcViolation):
        ctx.taint(ALICE)


def test_taint_p_downgrades_first():
    plain = fresh(P_ALICE)
    plain.taint(ALICE)
    assert plain.current == ALICE
    privved = fresh(P_ALICE)
    privved.taint_p(P_ALICE, ALICE)
    assert privved.current == DC_PUBLIC


def test_get_privilege():
    ctx = fresh(P_ALICE)
    assert ctx.get_privilege() is P_ALICE
    assert fresh().get_privilege() is EMPTY_PRIVILEGE


# --- refs ----------------------------------------------------------------------


def test_new_ref_stores_a_copy():
    ctx = fresh()
    v = [1, 2]
    r = ctx.new_ref(DC_PUBLIC, v)
    assert isinstance(r, LabeledRef)
    assert r.label == DC_PUBLIC and r.cell == [1, 2]
    assert r.cell is not v


def test_refs_refuse_what_the_codec_refuses():
    ctx = fresh()
    r = ctx.new_ref(DC_PUBLIC, [])
    writers = (
        lambda v: ctx.new_ref(DC_PUBLIC, v),
        lambda v: ctx.write_ref(r, v),
        lambda v: ctx.append_ref(r, v),
    )
    for write in writers:
        for bad in (object(), [1, (2, 3)]):
            with pytest.raises(TypeError):
                write(bad)
        for bad in (2**63, [[-(2**63) - 1]]):
            with pytest.raises(OverflowError):
                write(bad)
    assert r.cell == []


def test_new_ref_no_write_down():
    ctx = fresh()
    ctx.taint(ALICE)
    with pytest.raises(IfcViolation):
        ctx.new_ref(DC_PUBLIC, 0)
    assert ctx.new_ref(ALICE, 0).label == ALICE


def test_read_ref_public_keeps_context():
    ctx = fresh()
    r = ctx.new_ref(DC_PUBLIC, 5)
    assert ctx.read_ref(r) == 5
    assert ctx.current == DC_PUBLIC


def test_read_ref_floats_context():
    ctx = fresh()
    r = ctx.new_ref(ALICE, "s")
    assert ctx.read_ref(r) == "s"
    assert ctx.current == ALICE


def test_read_ref_blocked_by_clearance():
    writer = fresh()
    r = writer.new_ref(ALICE, 1)
    reader = fresh(clearance=DC_PUBLIC)
    with pytest.raises(IfcViolation):
        reader.read_ref(r)


def test_write_ref_updates_cell():
    ctx = fresh()
    r = ctx.new_ref(DC_PUBLIC, 1)
    ctx.write_ref(r, 2)
    assert ctx.read_ref(r) == 2


def test_write_ref_no_write_down():
    ctx = fresh()
    r = ctx.new_ref(DC_PUBLIC, 0)
    ctx.taint(ALICE)
    with pytest.raises(IfcViolation):
        ctx.write_ref(r, 1)
    assert ctx.read_ref(r) == 0  # unchanged


def test_read_ref_returns_a_copy():
    ctx = fresh()
    r = ctx.new_ref(DC_PUBLIC, [[1], 2])
    got = ctx.read_ref(r)
    got.append(3)
    got[0].append(9)
    assert ctx.read_ref(r) == [[1], 2]


def test_cell_shares_nothing_with_what_was_stored():
    ctx = fresh()
    inner = [1]
    r = ctx.new_ref(DC_PUBLIC, [inner])
    inner.append(2)
    written = [[5]]
    ctx.write_ref(r, written)
    written[0].append(6)
    written.append(7)
    appended = [8]
    ctx.append_ref(r, appended)
    appended.append(9)
    assert ctx.read_ref(r) == [[5], [8]]


def test_append_ref_appends_in_place():
    ctx = fresh()
    r = ctx.new_ref(DC_PUBLIC, [1])
    ctx.append_ref(r, make_labeled(ALICE, 2))
    assert ctx.read_ref(r) == [1, make_labeled(ALICE, 2)]
    assert ctx.current == DC_PUBLIC  # appending reads nothing


def test_append_ref_no_write_down():
    ctx = fresh()
    r = ctx.new_ref(DC_PUBLIC, [0])
    ctx.taint(ALICE)
    with pytest.raises(IfcViolation):
        ctx.append_ref(r, 1)
    assert ctx.current == ALICE
    assert r.cell == [0]  # unchanged


def test_append_ref_unenforced_still_appends():
    ctx = fresh(enforce=False)
    r = ctx.new_ref(DC_PUBLIC, [])
    ctx.taint(ALICE)  # a write-down if enforced
    ctx.append_ref(r, 1)
    assert r.cell == [1]
    assert ctx.current == ALICE


def test_write_ref_keeps_the_shape_fixed_at_allocation():
    ctx = fresh()
    lst, scalar = ctx.new_ref(DC_PUBLIC, []), ctx.new_ref(DC_PUBLIC, 0)
    for r, v in ((lst, 0), (lst, None), (lst, make_labeled(ALICE, [])), (scalar, []), (scalar, [1])):
        with pytest.raises(TypeError):
            ctx.write_ref(r, v)
    assert lst.cell == [] and scalar.cell == 0
    ctx.write_ref(lst, [1])
    ctx.write_ref(scalar, "s")
    assert (lst.cell, scalar.cell) == ([1], "s")


def test_append_ref_needs_a_list_cell():
    ctx = fresh()
    r = ctx.new_ref(DC_PUBLIC, 0)
    with pytest.raises(TypeError):
        ctx.append_ref(r, 1)
    assert r.cell == 0


def test_labeled_rows_in_public_ref():
    # appending a still-labeled value to a public ref is fine: the secrecy
    # travels with the value, not the container
    ctx = fresh()
    db = ctx.new_ref(DC_PUBLIC, [])
    row = make_labeled(ALICE, ["flu", 30])
    rows = ctx.read_ref(db)
    rows.append(row)
    ctx.write_ref(db, rows)
    assert ctx.current == DC_PUBLIC
    assert ctx.read_ref(db) == [row]


# --- output gate ------------------------------------------------------------------


def test_gate_open_for_public_context():
    assert fresh().output_gate()


def test_gate_closed_after_float_up():
    ctx = fresh()
    ctx.unlabel(make_labeled(DCLabel(cnf({"P1"}, {"P2"}), CNF_TRUE), 0))
    assert not ctx.output_gate()


def test_gate_reopens_after_privileged_unlabel():
    ctx = fresh(P_ALICE)
    ctx.unlabel_p(P_ALICE, make_labeled(ALICE_BOTH, 0))
    assert ctx.output_gate()


# --- initial state and cloning --------------------------------------------------


def test_constructor_defaults():
    ctx = IfcContext(P_ALICE)
    assert ctx.current == DC_PUBLIC
    assert ctx.clearance == DC_TOP
    assert ctx.output == DC_PUBLIC
    assert ctx.privilege is P_ALICE
    assert ctx.enforce


def test_clone_isolates_state():
    base = IfcContext(P_ALICE)
    c1, c2 = base.clone(), base.clone()
    c1.taint(ALICE)
    assert c2.current == DC_PUBLIC and base.current == DC_PUBLIC


# --- enforcement switch ------------------------------------------------------------


def test_enforce_off_skips_guards_keeps_bookkeeping():
    ctx = fresh(enforce=False, clearance=DC_PUBLIC)
    ctx.taint(ALICE)  # would breach clearance if enforced
    assert ctx.current == ALICE  # bookkeeping still happened
    ctx.label(DC_PUBLIC, "x")  # would be a write-down if enforced
    assert ctx.output_gate()  # gate forced open


def test_violation_message_is_fixed():
    ctx = fresh(clearance=DC_PUBLIC)
    with pytest.raises(IfcViolation) as exc:
        ctx.taint(ALICE)
    assert str(exc.value) == "information flow violation"


# --- lattice discipline under random operation sequences ----------------------------


def test_monotone_and_clearance_safe_random_sequences():
    two = enumerate_canonical_cnfs(["A", "B"])
    labels = [DCLabel(s, i) for s in two for i in two]
    privs = [EMPTY_PRIVILEGE, Privilege.for_principal("A"), Privilege(cnf({"A"}, {"B"}))]
    rng = random.Random(31337)
    for _ in range(200):
        clearance = rng.choice([DC_TOP, DC_TOP, DCLabel(cnf({"A"}), CNF_TRUE), DC_PUBLIC])
        ctx = fresh(rng.choice(privs), clearance=clearance)
        refs = [ctx.new_ref(DC_PUBLIC, [])]
        for _ in range(12):
            before = ctx.current
            op = rng.choice(
                ["taint", "taint_p", "unlabel", "unlabel_p", "label", "new_ref", "read", "write", "append"]
            )
            l = rng.choice(labels)
            try:
                if op == "taint":
                    ctx.taint(l)
                elif op == "taint_p":
                    ctx.taint_p(ctx.privilege, l)
                elif op == "unlabel":
                    ctx.unlabel(make_labeled(l, 1))
                elif op == "unlabel_p":
                    ctx.unlabel_p(ctx.privilege, make_labeled(l, 1))
                elif op == "label":
                    ctx.label(l, 1)
                elif op == "new_ref":
                    refs.append(ctx.new_ref(l, []))
                elif op == "read":
                    ctx.read_ref(rng.choice(refs))
                else:
                    r = rng.choice(refs)
                    assert_can_write = can_flow_to(ctx.current, r.label)
                    if op == "write":
                        ctx.write_ref(r, [1])
                    else:
                        ctx.append_ref(r, 1)
                    assert assert_can_write  # no-write-down held
            except IfcViolation:
                assert ctx.current == before  # failed ops leave no trace
                continue
            assert can_flow_to(before, ctx.current)  # monotone
            assert can_flow_to(ctx.current, ctx.clearance)  # clearance safety
