"""Floating-label execution context for enclave-side computation.

Each incoming call runs under its own ``IfcContext``.  The current label
starts public and only rises as secrets are observed; clearance bounds how
far it may rise; the output label is the single gate consulted before any
result leaves for a client.  Guard failures raise ``IfcViolation``, which
deliberately carries no detail — error responses must not leak.
"""

from __future__ import annotations

from .errors import IfcViolation
from .labels import (
    DC_PUBLIC,
    DC_TOP,
    DCLabel,
    LabeledValue,
    Privilege,
    can_flow_to,
    can_flow_to_p,
    downgrade,
    join,
)
from .wire import I64_MAX, I64_MIN, MAX_DEPTH, Value, encode_value

__all__ = ["IfcContext", "LabeledRef", "make_labeled"]


def _copy_value(v: Value, depth: int = 0) -> Value:
    """A copy of ``v`` that shares no list with it.  Leaves are immutable
    and pass through.  The codec decides what else is a value: an int out
    of i64 range raises ``OverflowError``, a str with no UTF-8 encoding
    ``UnicodeEncodeError`` and a list deeper than ``MAX_DEPTH`` ``ValueError``,
    as ``encode_value`` does; a non-value raises what ``encode_value``
    raises.  So a cell only ever holds a wire value.  Every ``LabeledValue``
    and ``LabeledRef`` is filled and emptied through here, so neither shares
    a list with anyone, and a ``LabeledValue`` inside a value is a leaf."""
    if depth > MAX_DEPTH:
        raise ValueError("value nesting too deep")
    if isinstance(v, list):
        return [_copy_value(item, depth + 1) for item in v]
    if v is None or isinstance(v, (bool, float, bytes, LabeledValue)):
        return v
    if isinstance(v, str) and v.isascii():
        return v  # ASCII always encodes; encode_value checks any other str
    if isinstance(v, int):
        if not I64_MIN <= v <= I64_MAX:
            raise OverflowError("integer out of i64 range")
        return v
    encode_value(v)
    return v


def make_labeled(label: DCLabel, v: Value) -> LabeledValue:
    """Attach a label to a copy of a value."""
    return LabeledValue(label, _copy_value(v))


class LabeledRef:
    """A mutable cell with a label fixed at allocation, holding a wire
    value (as LIO's ``LIORef`` holds its value).  Values are copied in and
    out, so the stored lists change only through a guarded call.  Whether
    the cell is a list is fixed at allocation (``write_ref`` keeps it), so
    ``append_ref`` reveals only what the allocator chose."""

    __slots__ = ("label", "cell")

    def __init__(self, label: DCLabel, cell: Value) -> None:
        self.label = label
        self.cell = _copy_value(cell)


class IfcContext:
    """Per-call IFC state: ⟨current, clearance, output, privilege⟩.

    ``enforce=False`` turns every guard into a no-op while keeping the
    label bookkeeping, so benchmarks can price the checks themselves.
    """

    __slots__ = ("privilege", "current", "clearance", "output", "enforce")

    def __init__(
        self,
        privilege: Privilege,
        current: DCLabel = DC_PUBLIC,
        clearance: DCLabel = DC_TOP,
        output: DCLabel = DC_PUBLIC,
        enforce: bool = True,
    ) -> None:
        self.privilege = privilege
        self.current = current
        self.clearance = clearance
        self.output = output
        self.enforce = enforce

    # --- guards ------------------------------------------------------------

    def _require(self, ok: bool) -> None:
        if self.enforce and not ok:
            raise IfcViolation()

    def _raise_to(self, target: DCLabel) -> None:
        self._require(can_flow_to(target, self.clearance))
        self.current = target

    # --- labeling ------------------------------------------------------------

    def label(self, l: DCLabel, v: Value) -> LabeledValue:
        """Seal a value at label ``l``; the context must sit at or below it."""
        self._require(can_flow_to(self.current, l) and can_flow_to(l, self.clearance))
        return make_labeled(l, v)

    def label_p(self, p: Privilege, l: DCLabel, v: Value) -> LabeledValue:
        self._require(
            can_flow_to_p(p, self.current, l) and can_flow_to(l, self.clearance)
        )
        return make_labeled(l, v)

    def unlabel(self, lv: LabeledValue) -> Value:
        """Open a labeled value, tainting the context with its label."""
        self._raise_to(join(self.current, lv.label))
        return _copy_value(lv.value)

    def unlabel_p(self, p: Privilege, lv: LabeledValue) -> Value:
        """Open with privilege: the label is downgraded before tainting, so
        clauses the privilege speaks for never stick to the context."""
        self._raise_to(join(self.current, downgrade(p, lv.label)))
        return _copy_value(lv.value)

    def taint(self, l: DCLabel) -> None:
        self._raise_to(join(self.current, l))

    def taint_p(self, p: Privilege, l: DCLabel) -> None:
        self._raise_to(join(self.current, downgrade(p, l)))

    def get_privilege(self) -> Privilege:
        return self.privilege

    # --- labeled references -----------------------------------------------------

    def new_ref(self, l: DCLabel, v: Value) -> LabeledRef:
        self._require(can_flow_to(self.current, l) and can_flow_to(l, self.clearance))
        return LabeledRef(l, v)

    def read_ref(self, r: LabeledRef) -> Value:
        self._raise_to(join(self.current, r.label))
        return _copy_value(r.cell)

    def write_ref(self, r: LabeledRef, v: Value) -> None:
        self._require(can_flow_to(self.current, r.label))
        v = _copy_value(v)
        if isinstance(v, list) != isinstance(r.cell, list):
            raise TypeError("write_ref cannot change whether a ref holds a list")
        r.cell = v

    def append_ref(self, r: LabeledRef, v: Value) -> None:
        """Append ``v`` to a list cell: ``write_ref``'s guard, without
        reading or re-storing what the cell already holds."""
        self._require(can_flow_to(self.current, r.label))
        if not isinstance(r.cell, list):
            raise TypeError("append_ref needs a list cell")
        r.cell.append(_copy_value(v))

    # --- the output gate ---------------------------------------------------------

    def output_gate(self) -> bool:
        """May this context's results and errors flow to the client channel?
        Its label must flow to the output label.  A result's own labels are
        checked as it is encoded: ``encode_result_ok(result, max_len,
        ctx.output)`` refuses a ``LabeledValue`` whose label does not flow
        to the output label, since one leaves in plaintext inside its
        envelope and returning it unopened never taints the context."""
        return not self.enforce or can_flow_to(self.current, self.output)
