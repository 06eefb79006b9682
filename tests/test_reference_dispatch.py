"""``App.dispatch`` against the executable reference (differential testing,
as McKeeman's "Differential Testing for Software", 1998).

Generated programs take generated requests; ``App.dispatch`` and
``tests/reference_dispatch.py`` must give byte-identical replies and leave
equal refs, first with every label cache cleared and then warm.  The
reference keeps no cache, so every fast path on the call path answers to
it: the four ``lru_cache``s, the decode intern table with
``_short_label_end``, the in-place CALL header read, and the one-walk gate
inside the encoder.
"""

from __future__ import annotations

import ast
import random
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

import program_gen
import reference_dispatch
from reference_dispatch import ReferenceApp
from value_gen import random_label, random_value

from enclaveflow import labels
from enclaveflow.app import ENCLAVE_ROLE, App
from enclaveflow.cli import build_leaky_program, build_password_program
from enclaveflow.ifc import make_labeled
from enclaveflow.labels import LABEL_INTERN_MAX

_CACHES = (
    labels.can_flow_to,
    labels.join,
    labels.downgrade,
    labels.encode_label,
    labels._intern_label,
)


def _encode_call(call_id: int, args: list) -> bytes:
    head = bytes([reference_dispatch.CALL]) + call_id.to_bytes(4, "big")
    return head + len(args).to_bytes(2, "big") + b"".join(map(reference_dispatch.encode, args))


def _value_gen_call(program: program_gen.Program):
    """A call of one function with a value_gen labeled value for each
    argument: alone, or in a list where a list is declared."""

    def build(choice):
        call_id, seed = choice
        rng = random.Random(seed)
        args = []
        for spec in program.functions[call_id].arg_types:
            lv = make_labeled(random_label(rng), random_value(rng))
            args.append([lv] if spec is list else lv)
        return call_id, args

    return st.tuples(st.integers(0, len(program.functions) - 1), st.integers(0, 2**32)).map(build)


def _requests(program: program_gen.Program):
    encoded = st.one_of(program_gen.calls(program), _value_gen_call(program)).map(
        lambda call: _encode_call(*call)
    )

    def mutate(args):
        raw, at, byte, how = args
        at %= len(raw) + 1
        if how == "replace":
            return raw[:at] + bytes([byte]) + raw[at + 1 :]
        if how == "insert":
            return raw[:at] + bytes([byte]) + raw[at:]
        return raw[:at] + raw[at + 1 :]

    mutated = st.tuples(
        encoded, st.integers(0, 1 << 16), st.integers(0, 255),
        st.sampled_from(["replace", "insert", "delete"]),
    ).map(mutate)
    # each function is called once, then anything goes
    each = st.tuples(*(program_gen.call(program, i) for i in range(len(program.functions))))
    first = each.map(lambda calls: [_encode_call(*c) for c in calls])
    more = st.lists(st.one_of(mutated, encoded), max_size=5)
    return st.tuples(first, more).map(lambda requests: requests[0] + requests[1])


def _run(program, requests, warm: bool):
    """Stage ``program`` on ``App`` and on the reference and send both the
    requests: each reply byte-identical, the refs equal afterwards."""
    if not warm:
        for cache in _CACHES:
            cache.cache_clear()
    app = App(ENCLAVE_ROLE, ifc_enforce=program.enforce)
    app_refs = program.stage(app)
    app.freeze()
    ref = ReferenceApp(program.enforce)
    ref_refs = program.stage(ref)
    short_labels: set[bytes] = set()
    for request in requests:
        got = app.dispatch(request)
        want = ref.dispatch(request)
        assert got == want, request
        # the decode cache holds each label of at most LABEL_INTERN_MAX bytes
        # decoded since it was cleared, and no longer one
        short_labels.update(raw for raw in ref.labels_seen if len(raw) <= LABEL_INTERN_MAX)
        if not warm:
            assert labels._intern_label.cache_info().currsize == len(short_labels)
    assert [repr(r.cell) for r in app_refs] == [repr(r.cell) for r in ref_refs]


@settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(program_gen.programs, st.data())
def test_dispatch_agrees_with_the_reference_cold_and_warm(program, data):
    requests = data.draw(_requests(program))
    _run(program, requests, warm=False)
    _run(program, requests, warm=True)


def test_the_shipped_programs_agree_with_the_reference():
    for program, calls in (
        (build_password_program("s3cr3t"), [(0, ["s3cr3t"]), (0, ["guess"]), (0, [1]), (1, [])]),
        (build_leaky_program(), [(0, []), (0, ["x"])]),
    ):
        app = App(ENCLAVE_ROLE)
        program(app)
        ref = ReferenceApp()
        program(ref)
        for call in calls:
            request = _encode_call(*call)
            assert app.dispatch(request) == ref.dispatch(request), call


def test_the_reference_names_no_cached_or_fast_path_function():
    fast = {"can_flow_to", "join", "downgrade", "encode_label", "read_label", "read_value",
            "decode_message", "encode_value", "encode_result_ok"}
    tree = ast.parse(Path(reference_dispatch.__file__).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                if node.module.startswith("enclaveflow") for alias in node.names}
    assert not imported & fast
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Import)
                if any(alias.name.startswith("enclaveflow") for alias in node.names)]
    # its own join and downgrade are built from the CNF algebra
    assert reference_dispatch.join.__module__ == reference_dispatch.__name__
