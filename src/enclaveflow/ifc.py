"""Floating-label execution context for enclave-side computation.

Each incoming call runs under its own ``IfcContext``.  The current label
starts public and only rises as secrets are observed; clearance bounds how
far it may rise; the output label is the single gate consulted before any
result leaves for a client.  Guard failures raise ``IfcViolation``, which
deliberately carries no detail — error responses must not leak.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
from .wire import Value, decode_value, encode_value, make_labeled

__all__ = ["IfcContext", "LabeledRef"]


@dataclass
class LabeledRef:
    """A mutable cell with a label fixed at allocation.  Contents are kept
    codec-encoded, mirroring how labeled values travel."""

    label: DCLabel
    cell: bytes


@dataclass
class IfcContext:
    """Per-call IFC state: ⟨current, clearance, output, privilege⟩.

    ``enforce=False`` turns every guard into a no-op while keeping the
    label bookkeeping, so benchmarks can price the checks themselves.
    """

    privilege: Privilege
    current: DCLabel = field(default=DC_PUBLIC)
    clearance: DCLabel = field(default=DC_TOP)
    output: DCLabel = field(default=DC_PUBLIC)
    enforce: bool = True

    def clone(self) -> "IfcContext":
        """A fresh context for one call, sharing no mutable state."""
        return IfcContext(
            privilege=self.privilege,
            current=self.current,
            clearance=self.clearance,
            output=self.output,
            enforce=self.enforce,
        )

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
        return decode_value(lv.payload)

    def unlabel_p(self, p: Privilege, lv: LabeledValue) -> Value:
        """Open with privilege: the label is downgraded before tainting, so
        clauses the privilege speaks for never stick to the context."""
        self._raise_to(join(self.current, downgrade(p, lv.label)))
        return decode_value(lv.payload)

    def taint(self, l: DCLabel) -> None:
        self._raise_to(join(self.current, l))

    def taint_p(self, p: Privilege, l: DCLabel) -> None:
        self._raise_to(join(self.current, downgrade(p, l)))

    def get_privilege(self) -> Privilege:
        return self.privilege

    # --- labeled references -----------------------------------------------------

    def new_ref(self, l: DCLabel, v: Value) -> LabeledRef:
        self._require(can_flow_to(self.current, l) and can_flow_to(l, self.clearance))
        return LabeledRef(l, encode_value(v))

    def read_ref(self, r: LabeledRef) -> Value:
        self._raise_to(join(self.current, r.label))
        return decode_value(r.cell)

    def write_ref(self, r: LabeledRef, v: Value) -> None:
        self._require(can_flow_to(self.current, r.label))
        r.cell = encode_value(v)

    # --- the output gate ---------------------------------------------------------

    def output_gate(self) -> bool:
        """May results flow from this context to the client channel?"""
        if not self.enforce:
            return True
        return can_flow_to(self.current, self.output)
