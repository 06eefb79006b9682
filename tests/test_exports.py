"""Every public name the package promises resolves, so a moved name fails
here and not first in a program that imports it."""

from __future__ import annotations

import importlib

import pytest

import enclaveflow
import enclaveflow.ifc
import enclaveflow.wire


@pytest.mark.parametrize(
    "module",
    [
        "enclaveflow",
        "enclaveflow.app",
        "enclaveflow.attest",
        "enclaveflow.cleanroom",
        "enclaveflow.ifc",
        "enclaveflow.labels",
        "enclaveflow.wire",
    ],
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_make_labeled_is_defined_once():
    assert enclaveflow.make_labeled is enclaveflow.ifc.make_labeled
    assert not hasattr(enclaveflow.wire, "make_labeled")
