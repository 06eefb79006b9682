"""In-memory tracing of enclaveflow's layers, installed from outside.

``install(tracer)`` wraps public functions of ``labels``, ``wire``,
``ifc``, ``attest``, ``app`` and ``cleanroom`` and returns a function that
undoes every wrap.  Nothing under ``src/`` knows it is traced.

Two kinds of wrapper:

* stored spans keep one record per call (name, start, end, parent, attrs),
  for the few boundaries whose percentiles or cross-process join matter;
* counted calls keep per-name totals (calls, time, self time, bytes,
  errors), for hot functions that run thousands of times per request and
  would otherwise flood memory.

Both push a frame on a per-thread stack, so every span knows its parent
and how much of its time its children took.  Timestamps are
``time.monotonic_ns()``, which is CLOCK_MONOTONIC on Linux: one clock for
every process on the machine, so enclave and client times compare.

Modules bind with ``from .labels import join``, so a wrap rebinds the name
in every enclaveflow module that holds the original object.  Recursive
functions keep their own module's binding, so only the outer call counts.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

from enclaveflow.wire import MSG_CALL, MSG_RESULT_OK

now = time.monotonic_ns


def _session_key(session, seq: int) -> list:
    return [session.session_id.hex(), seq]


class Tracer:
    """Spans and counters of one process, kept in memory until dumped."""

    def __init__(self, side: str):
        self.side = side
        self._spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._thread_aggs: list[dict] = []
        self._lock = threading.Lock()  # guards _thread_aggs registration only

    def _thread(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack = []
            loc.agg = {}
            loc.sealed = None
            loc.opened = None
            loc.call_names = {}
            with self._lock:
                self._thread_aggs.append(loc.agg)
        return loc

    # --- wrappers ----------------------------------------------------------------

    def stored(self, name: str, fn: Callable, annotate=None) -> Callable:
        """Record one span per call.  ``annotate(attrs, args, result, loc)``
        adds facts known only once the call returned."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            loc = tracer._thread()
            stack = loc.stack
            parent = stack[-1] if stack else None
            frame = [next(tracer._ids), 0, 0, {}]
            stack.append(frame)
            result = None
            t0 = now()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:  # not the SIGINT that stops the enclave
                frame[3]["error"] = type(e).__name__
                raise
            finally:
                t1 = now()
                stack.pop()
                if parent is not None:
                    parent[2] += t1 - t0
                if annotate is not None:
                    annotate(frame[3], args, result, loc)
                tracer._spans.append(
                    (frame[0], parent[0] if parent else None, name, t0, t1, frame[1], frame[3])
                )

        return wrapper

    def counted(self, name: str, fn: Callable, before=None, nbytes=None) -> Callable:
        """Keep totals only: calls, total and self nanoseconds, bytes (via
        ``nbytes(args, result)``), errors, and False results."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            loc = tracer._thread()
            if before is not None:
                before(args, loc)
            stack = loc.stack
            parent = stack[-1] if stack else None
            frame = [None, 0, 0, None]
            stack.append(frame)
            failed = False
            result = None
            t0 = now()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception:
                failed = True
                raise
            finally:
                t1 = now()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[1] += dur
                rec = loc.agg.get(name)
                if rec is None:
                    rec = loc.agg[name] = [0, 0, 0, 0, 0, 0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1] - frame[2]
                if nbytes is not None and not failed:
                    rec[3] += nbytes(args, result)
                rec[4] += failed
                rec[5] += result is False

        return wrapper

    # --- output ------------------------------------------------------------------

    def snapshot(self) -> dict:
        spans = [
            {"id": i, "parent": p, "name": n, "start": a, "end": b, "agg_ns": g, "attrs": at}
            for i, p, n, a, b, g, at in list(self._spans)
        ]
        agg: dict[str, dict] = {}
        with self._lock:
            per_thread = list(self._thread_aggs)
        for thread_agg in per_thread:
            for name, rec in list(thread_agg.items()):
                into = agg.setdefault(
                    name,
                    {"calls": 0, "total_ns": 0, "self_ns": 0, "bytes": 0, "errors": 0, "false": 0},
                )
                for key, v in zip(("calls", "total_ns", "self_ns", "bytes", "errors", "false"), rec):
                    into[key] += v
        return {"side": self.side, "spans": spans, "agg": agg}

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.snapshot()))


# --- what gets wrapped ------------------------------------------------------------------


def _ann_handshake_client(attrs, args, result, loc):
    if result is not None:
        attrs["sid"] = result.session_id.hex()


def _ann_handshake_server(attrs, args, result, loc):
    if result is not None:
        attrs["sid"] = result[0].session_id.hex()


def _ann_gateway(attrs, args, result, loc):
    # the request record sealed inside this call names it on both ends
    attrs["key"] = loc.sealed


def _ann_dispatch(attrs, args, result, loc):
    app, request = args[0], args[1]
    attrs["key"] = loc.opened
    if len(request) >= 5 and request[0] == MSG_CALL:
        names = loc.call_names.get(id(app))
        if names is None:
            names = loc.call_names[id(app)] = dict(app.call_table())
        attrs["fn"] = names.get(int.from_bytes(request[1:5], "big"), "?")
    attrs["ok"] = bool(result) and result[0] == MSG_RESULT_OK


def _before_seal(args, loc):
    loc.sealed = _session_key(args[0], args[0].send_seq)


def _before_open(args, loc):
    loc.opened = _session_key(args[0], args[0].recv_seq)


def _len_arg(args, result):
    return len(args[0])


def _len_result(args, result):
    return len(result)


# (module, attribute, span name, annotate) for stored spans
STORED = [
    ("attest", "handshake_client", "attest.handshake_client", _ann_handshake_client),
    ("attest", "handshake_server", "attest.handshake_server", _ann_handshake_server),
    ("attest", "Monitor.serve_connection", "attest.serve_connection", None),
    ("app", "App.gateway", "app.gateway", _ann_gateway),
    ("app", "App.dispatch", "app.dispatch", _ann_dispatch),
]

# (module, attribute, name, before, nbytes) for counted calls.  cnf_implies
# is left alone: it is the innermost helper of every label check.
COUNTED = [
    ("attest", "Session.seal", "attest.seal", _before_seal, None),
    ("attest", "Session.open", "attest.open", _before_open, None),
    ("wire", "decode_message", "wire.decode_message", None, None),
    ("wire", "encode_result_ok", "wire.encode_result_ok", None, None),
    ("wire", "decode_value", "wire.decode_value", None, _len_arg),
    ("wire", "encode_value", "wire.encode_value", None, _len_result),
    ("labels", "read_cnf", "labels.read_cnf", None, None),
    ("labels", "cnf_reduce", "labels.cnf_reduce", None, None),
    ("labels", "join", "labels.join", None, None),
    ("labels", "downgrade", "labels.downgrade", None, None),
    ("labels", "can_flow_to", "labels.can_flow_to", None, None),
    ("ifc", "IfcContext.read_ref", "ifc.read_ref", None, None),
    ("ifc", "IfcContext.write_ref", "ifc.write_ref", None, None),
    ("ifc", "IfcContext.unlabel_p", "ifc.unlabel_p", None, None),
    ("ifc", "IfcContext.output_gate", "ifc.output_gate", None, None),
    ("cleanroom", "unlabel_row", "cleanroom.unlabel_row", None, None),
    ("cleanroom", "psi_mean_age", "cleanroom.psi_mean_age", None, None),
    ("cleanroom", "encrypt_result", "cleanroom.encrypt_result", None, None),
    ("cleanroom", "decrypt_result", "cleanroom.decrypt_result", None, None),
]

# Functions that call themselves through their module global: the
# defining module keeps the original so nested calls are not counted.
RECURSIVE = {"encode_value"}

_MODULES = ("labels", "wire", "ifc", "attest", "app", "cleanroom", "cli")


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target and return the undo function."""
    import importlib

    mods = {m: importlib.import_module(f"enclaveflow.{m}") for m in _MODULES}
    package = sys.modules["enclaveflow"]
    undo: list[tuple[Any, str, Any]] = []

    def rebind(home: str, attr: str, make: Callable[[Callable], Callable]) -> None:
        if "." in attr:  # a method: wrap it on its class
            cls_name, meth = attr.split(".")
            cls = getattr(mods[home], cls_name)
            original = cls.__dict__[meth]
            undo.append((cls, meth, original))
            setattr(cls, meth, make(original))
            return
        original = getattr(mods[home], attr)
        wrapped = make(original)
        for mod_name, mod in list(mods.items()) + [("", package)]:
            if mod_name == home and attr in RECURSIVE:
                continue
            if mod.__dict__.get(attr) is original:
                undo.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    for home, attr, name, annotate in STORED:
        rebind(home, attr, lambda fn, n=name, a=annotate: tracer.stored(n, fn, a))
    for home, attr, name, before, nbytes in COUNTED:
        rebind(home, attr, lambda fn, n=name, b=before, nb=nbytes: tracer.counted(n, fn, b, nb))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
