"""Hypothesis strategies for small enclave programs and the calls they take.

A ``Program`` is plain data: labeled constants, labeled refs and enclave
functions, each function a template, argument types, a body of operations
and a result.  ``Program.stage(app)`` registers it on anything with
``App``'s staging surface (``labeled_constant``, ``labeled_ref``,
``enclave_fn``), so one program can be staged on ``App`` and on
``tests/reference_dispatch.py`` alike; each staging gets its own constants
and refs.  The functions run only through ``IfcContext``'s operations:
``unlabel``, ``unlabel_p``, ``taint``, ``taint_p``, ``label``, ``label_p``,
``new_ref``, ``read_ref``, ``write_ref``, ``append_ref``, an equality test,
and a branch on any value they hold, an unlabeled secret included.  They return values, labeled
values (nested too), constants or ref contents, or raise.

Operations name registers by index, taken modulo the registers in use, so
every generated body runs; register 0 onwards holds the arguments, then a
seed value, then each operation's result.
"""

from __future__ import annotations

from hypothesis import strategies as st

from enclaveflow.errors import DecodeError, IfcViolation, NotReady
from enclaveflow.ifc import IfcContext
from enclaveflow.labels import (
    CNF_FALSE,
    CNF_TRUE,
    DC_PUBLIC,
    DC_TOP,
    DCLabel,
    LabeledValue,
    Privilege,
    cnf,
)
from enclaveflow.wire import I64_MAX, I64_MIN, MAX_DEPTH

# a name this long puts every label that holds it past labels.LABEL_INTERN_MAX
LONG_PRINCIPAL = "L" * 300
PRINCIPALS = ("Alice", LONG_PRINCIPAL, "Bob", "Carol")
# strings a function may hold as a secret and a caller may guess
SECRETS = ("", "pw", "s3cr3t")
ARG_TYPES = (None, bool, int, float, str, bytes, list, LabeledValue)
# what a function declares: labeled values and strings, as the shipped
# functions take, more often than the rest
_DECLARED = st.sampled_from((LabeledValue, str) + ARG_TYPES)
RAISES = {"NotReady": NotReady, "DecodeError": DecodeError, "IfcViolation": IfcViolation,
          "KeyError": KeyError}


_clause = st.frozensets(st.sampled_from(PRINCIPALS), min_size=1, max_size=2)
# one CNF in ten is False (not the first choice: Hypothesis draws the
# first alternative most often and shrinks toward it, here and below)
cnfs = st.tuples(st.integers(0, 9), st.frozensets(_clause, max_size=2)).map(
    lambda drawn: CNF_FALSE if drawn[0] == 9 else cnf(*drawn[1])
)
# secrecy mostly keeps a secret; integrity is mostly True, which a public
# context may label at
labels = st.builds(
    DCLabel,
    st.frozensets(_clause, min_size=1, max_size=2).map(lambda c: cnf(*c)) | cnfs,
    st.just(CNF_TRUE) | st.just(CNF_TRUE) | cnfs,
)
privileges = st.builds(Privilege, cnfs)


def values(depth: int = 2):
    """Wire values: scalars, then lists and labeled values ``depth`` deep."""
    leaves = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 3) | st.sampled_from([I64_MIN, I64_MAX]),
        st.sampled_from([0.0, -0.0, 1.5, float("inf"), float("nan")]),
        st.sampled_from(SECRETS) | st.text(max_size=4),
        st.binary(max_size=4),
    )
    if depth == 0:
        return leaves
    inner = values(depth - 1)
    return st.one_of(
        leaves, st.lists(inner, max_size=3), st.builds(LabeledValue, labels, inner)
    )


def _deep(n: int) -> list:
    v: list = []
    for _ in range(n):
        v = [v]
    return v


# a function's own value: a wire value, or what no caller can send but a
# function may hold (out of i64 range, no UTF-8 text, no wire type, too deep)
seeds = values() | st.sampled_from([I64_MAX + 1, "\ud800", (1,), _deep(MAX_DEPTH + 1)])

registers = st.integers(0, 7)
# a labeled value to open: a staged constant, or whatever a register holds
sources = st.tuples(st.sampled_from(["const", "reg"]), registers)
# a ref: a staged one, or whatever a register holds (a ref from new_ref)
refs = st.tuples(st.sampled_from(["staged", "reg"]), registers)


def operations(depth: int = 1):
    # operations that keep the context public first, so that more
    # functions reach their result with the gate open
    ops = [
        st.tuples(st.just("label"), labels, registers),
        st.tuples(st.just("eq"), registers, registers),
        st.tuples(st.just("append_ref"), refs, registers),
        st.tuples(st.just("write_ref"), refs, registers),
        st.tuples(st.just("new_ref"), labels, registers),
        st.tuples(st.just("label_p"), privileges, labels, registers),
        st.tuples(st.just("unlabel_p"), privileges, sources),
        st.tuples(st.just("read_ref"), refs),
        st.tuples(st.just("unlabel"), sources),
        st.tuples(st.just("taint"), labels),
        st.tuples(st.just("taint_p"), privileges, labels),
        st.tuples(st.just("raise"), st.sampled_from(sorted(RAISES))),
    ]
    if depth:
        branch = operations(depth - 1)
        ops.append(st.tuples(st.just("branch"), registers, branch, branch))
    return st.one_of(ops)


# labeled results, which the output gate walks, first; a public envelope
# round a secret is the case the gate must look inside
results = st.one_of(
    st.tuples(st.just("nested"), st.just(DC_PUBLIC) | labels, labels, registers),
    st.tuples(st.just("label"), labels, registers),
    st.tuples(st.just("list"), st.lists(registers, max_size=3)),
    st.tuples(st.just("reg"), registers),
    st.tuples(st.just("read_ref"), refs),
    st.tuples(st.just("const"), registers),
)


class Fn:
    """One enclave function: its template's four labels, its argument
    types, its body and its result."""

    def __init__(self, privilege, current, clearance, output, arg_types, seed, body, result):
        self.template = (privilege, current, clearance, output)
        self.arg_types = arg_types
        self.seed = seed
        self.body = body
        self.result = result

    def __repr__(self) -> str:
        return (f"Fn(template={self.template!r}, arg_types={self.arg_types!r}, "
                f"seed={self.seed!r}, body={self.body!r}, result={self.result!r})")


# a template mostly starts public, may rise to anything and releases only
# public output; now and then any label goes
def _usually(common):
    return st.one_of(*[st.just(common)] * 5, labels)


fns = st.builds(
    Fn,
    privileges,
    _usually(DC_PUBLIC),
    _usually(DC_TOP),
    _usually(DC_PUBLIC),
    st.lists(_DECLARED, max_size=2).map(tuple),
    seeds,
    st.lists(operations(), max_size=3).map(tuple),
    results,
)


class Program:
    """Staged state and enclave functions, as data."""

    def __init__(self, constants, refs, functions, enforce):
        self.constants = constants  # (label, value) pairs
        self.refs = refs  # (label, initial value) pairs
        self.functions = functions
        self.enforce = enforce

    def __repr__(self) -> str:
        return (f"Program(constants={self.constants!r}, refs={self.refs!r}, "
                f"functions={self.functions!r}, enforce={self.enforce!r})")

    def stage(self, app) -> list:
        """Register the program on ``app``; returns its staged refs."""
        consts = [app.labeled_constant(l, v) for l, v in self.constants]
        cells = [app.labeled_ref(l, v) for l, v in self.refs]
        for i, fn in enumerate(self.functions):
            app.enclave_fn(IfcContext(*fn.template), _body(fn, consts, cells), fn.arg_types,
                           name=f"f{i}")
        return cells


programs = st.builds(
    Program,
    st.lists(st.tuples(labels, values()), min_size=1, max_size=3),
    # one list cell, so appends have somewhere to go, then anything
    st.tuples(
        st.tuples(labels, st.lists(values(1), max_size=2)),
        st.lists(st.tuples(labels, values(1)), max_size=2),
    ).map(lambda cells: [cells[0], *cells[1]]),
    st.lists(fns, min_size=1, max_size=3),
    st.sampled_from([True, True, True, False]),
)


def _body(fn: Fn, consts: list, cells: list):
    def run(ctx, *args):
        env = [*args, fn.seed]

        def reg(i):
            return env[i % len(env)]

        def source(kind, i):
            return consts[i % len(consts)] if kind == "const" else reg(i)

        def ref(kind, i):
            return cells[i % len(cells)] if kind == "staged" else reg(i)

        def step(op):
            name, *a = op
            if name == "unlabel":
                env.append(ctx.unlabel(source(*a[0])))
            elif name == "unlabel_p":
                env.append(ctx.unlabel_p(a[0], source(*a[1])))
            elif name == "taint":
                ctx.taint(a[0])
            elif name == "taint_p":
                ctx.taint_p(a[0], a[1])
            elif name == "label":
                env.append(ctx.label(a[0], reg(a[1])))
            elif name == "label_p":
                env.append(ctx.label_p(a[0], a[1], reg(a[2])))
            elif name == "new_ref":
                env.append(ctx.new_ref(a[0], reg(a[1])))
            elif name == "read_ref":
                env.append(ctx.read_ref(ref(*a[0])))
            elif name == "write_ref":
                ctx.write_ref(ref(*a[0]), reg(a[1]))
            elif name == "append_ref":
                ctx.append_ref(ref(*a[0]), reg(a[1]))
            elif name == "eq":
                env.append(reg(a[0]) == reg(a[1]))
            elif name == "raise":
                raise RAISES[a[0]]()
            else:  # branch: which operation runs depends on the value
                step(a[1] if reg(a[0]) else a[2])

        for op in fn.body:
            step(op)
        name, *a = fn.result
        if name == "reg":
            return reg(a[0])
        if name == "label":
            return ctx.label(a[0], reg(a[1]))
        if name == "nested":
            return ctx.label(a[0], ctx.label(a[1], reg(a[2])))
        if name == "list":
            return [reg(i) for i in a[0]]
        if name == "read_ref":
            return ctx.read_ref(ref(*a[0]))
        return consts[a[0] % len(consts)]

    return run


# a value a caller may send, per declared argument type
ARGUMENTS = {
    None: st.none(),
    bool: st.booleans(),
    int: st.integers(-3, 3),
    float: st.sampled_from([0.0, 1.5, float("nan")]),
    str: st.sampled_from(SECRETS) | st.text(max_size=4),
    bytes: st.binary(max_size=4),
    list: st.lists(values(1), max_size=3),
    # a public envelope, round anything, as often as any other label
    LabeledValue: st.builds(LabeledValue, st.just(DC_PUBLIC) | labels, values(1)),
}


def call(program: Program, i: int):
    """``(i, args)``: a valid call of the program's function ``i``."""
    args = st.tuples(*(ARGUMENTS[t] for t in program.functions[i].arg_types)).map(list)
    return st.tuples(st.just(i), args)


def calls(program: Program):
    """``(call_id, args)`` for a valid call of one of the program's
    functions, or now and then for the id past the last one."""
    n = len(program.functions)
    valid = st.integers(0, n - 1).flatmap(lambda i: call(program, i))
    return st.one_of(valid, valid, valid, st.just((n, [])))
