"""The immutable records keep what a frozen record promises: no assignment
after construction, pickling to an equal value, equality and hashing field
by field within one class only, and a fixed repr.  The mutable
configuration classes keep their constructors and fresh defaults."""

from __future__ import annotations

import pickle

import pytest

from enclaveflow.app import SecureRef
from enclaveflow.cleanroom import CleanRoomConfig, Row
from enclaveflow.cli import RunConfig
from enclaveflow.errors import ErrorCode
from enclaveflow.ifc import IfcContext, LabeledRef
from enclaveflow.labels import (
    DC_PUBLIC,
    DC_TOP,
    EMPTY_PRIVILEGE,
    DCLabel,
    LabeledValue,
    Privilege,
    cnf_from_principal,
)
from enclaveflow.wire import CallMessage, ResultErr, ResultOk

SVC_CNF = cnf_from_principal("svc")
SVC = DCLabel(SVC_CNF, SVC_CNF)

# (record, its field names, its repr), each row named for its class and
# the number it has always had, so adding or deleting a row renames no case
RECORDS = [
    pytest.param(SVC, ("secrecy", "integrity"), "<{{svc}},{{svc}}>", id="DCLabel-4"),
    pytest.param(Privilege(SVC_CNF), ("description",), "Privilege({{svc}})", id="Privilege-5"),
    pytest.param(
        LabeledValue(SVC, "hunter2"),
        ("label", "value"),
        "LabeledValue(label=<{{svc}},{{svc}}>, value='hunter2')",
        id="LabeledValue-6",
    ),
    pytest.param(
        CallMessage(7, [1, "a"]),
        ("call_id", "args"),
        "CallMessage(call_id=7, args=[1, 'a'])",
        id="CallMessage-7",
    ),
    pytest.param(
        ResultOk(LabeledValue(SVC, "hunter2")),  # the reply that leaked before the result gate
        ("value",),
        "ResultOk(value=LabeledValue(label=<{{svc}},{{svc}}>, value='hunter2'))",
        id="ResultOk-8",
    ),
    pytest.param(
        ResultErr(ErrorCode.IFC_VIOLATION, "information flow violation"),
        ("code", "message"),
        "ResultErr(code=<ErrorCode.IFC_VIOLATION: 1>, message='information flow violation')",
        id="ResultErr-9",
    ),
    pytest.param(
        SecureRef(3, 2, (b"\x05",)),
        ("call_id", "arity", "args"),
        "SecureRef(call_id=3, arity=2, args=(b'\\x05',))",
        id="SecureRef-10",
    ),
    pytest.param(Row("flu", 30), ("strain", "age"), "Row(strain='flu', age=30)", id="Row-11"),
]


def fields_of(record, names) -> tuple:
    return tuple(getattr(record, n) for n in names)


@pytest.mark.parametrize("record, names, text", RECORDS)
def test_a_record_refuses_every_assignment(record, names, text):
    before = fields_of(record, names)
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    with pytest.raises(AttributeError):
        delattr(record, names[0])
    assert fields_of(record, names) == before


@pytest.mark.parametrize("record, names, text", RECORDS)
def test_a_record_pickles_to_an_equal_value_with_an_equal_hash(record, names, text):
    again = pickle.loads(pickle.dumps(record))
    assert type(again) is type(record) and again == record and not again != record
    assert fields_of(again, names) == fields_of(record, names)
    if not isinstance(record, CallMessage):  # holds a list: unhashable
        assert hash(again) == hash(record)


@pytest.mark.parametrize("record, names, text", RECORDS)
def test_a_record_equals_only_its_own_class(record, names, text):
    twin_class = type("Twin" + type(record).__name__, (type(record),), {})
    twin = twin_class(*fields_of(record, names))
    assert fields_of(twin, names) == fields_of(record, names)
    assert twin != record and record != twin
    values = fields_of(record, names)
    assert record != values and record != list(values)
    if len(values) == 1:
        assert record != values[0]


@pytest.mark.parametrize("record, names, text", RECORDS)
def test_a_record_keeps_its_repr(record, names, text):
    assert repr(record) == text


def test_records_of_two_classes_with_equal_fields_differ():
    assert ResultErr(7, "a") != CallMessage(7, "a")
    assert CallMessage(7, "a") != ResultErr(7, "a")
    assert ResultOk(1) != (1,) and (1,) != ResultOk(1)
    assert LabeledValue(SVC, 1) != CallMessage(SVC, 1)


def test_record_equality_is_field_by_field():
    assert LabeledValue(SVC, 1) == LabeledValue(SVC, True)  # as Python compares 1 and True
    assert hash(LabeledValue(SVC, 1)) == hash(LabeledValue(SVC, True))
    assert LabeledValue(SVC, 1) != LabeledValue(DC_PUBLIC, 1)
    nan = float("nan")
    assert ResultOk(nan) == ResultOk(nan)  # one float object, as in a tuple
    assert ResultOk(nan) != ResultOk(float("nan"))
    a_twin = frozenset({frozenset({"a"})})
    assert {cnf_from_principal("a"), a_twin, cnf_from_principal("b")} == {
        cnf_from_principal("b"),
        cnf_from_principal("a"),
    }
    with pytest.raises(TypeError):
        hash(LabeledValue(SVC, [1]))


# --- the mutable classes ------------------------------------------------------------


def test_constructors_take_the_same_positional_and_keyword_arguments():
    assert SecureRef(call_id=1, arity=2) == SecureRef(1, 2, ())
    assert Row(strain="flu", age=30) == Row("flu", 30)
    ctx = IfcContext(EMPTY_PRIVILEGE, SVC, DC_TOP, SVC, False)
    assert (ctx.privilege, ctx.current, ctx.clearance, ctx.output, ctx.enforce) == (
        EMPTY_PRIVILEGE,
        SVC,
        DC_TOP,
        SVC,
        False,
    )
    ctx = IfcContext(privilege=EMPTY_PRIVILEGE, output=SVC)
    assert (ctx.current, ctx.clearance, ctx.output, ctx.enforce) == (DC_PUBLIC, DC_TOP, SVC, True)
    ref = LabeledRef(label=SVC, cell=5)
    assert (ref.label, ref.cell) == (SVC, 5)

    cfg = RunConfig("cleanroom", "0.0.0.0", 7100)
    assert (cfg.app, cfg.host, cfg.port, cfg.consumer, cfg.ifc) == (
        "cleanroom",
        "0.0.0.0",
        7100,
        "C1",
        True,
    )
    room = CleanRoomConfig("A", "B", "C", {"A": 2})
    assert (room.provider_a, room.provider_b, room.consumer, room.thresholds) == (
        "A",
        "B",
        "C",
        {"A": 2},
    )
    assert CleanRoomConfig(consumer="D").data_files == {}


def test_mutable_defaults_are_fresh_per_instance():
    one, two = RunConfig(), RunConfig()
    assert one.providers == ["P1", "P2"] and one.providers is not two.providers
    for name in ("client_keys", "signing_keys", "thresholds", "data_files"):
        assert getattr(one, name) == {} and getattr(one, name) is not getattr(two, name)
    a, b = CleanRoomConfig(), CleanRoomConfig()
    assert a.thresholds is not b.thresholds and a.data_files is not b.data_files
