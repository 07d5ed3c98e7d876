"""Exact-mode CLI outputs compared byte for byte with the recorded goldens.

The goldens live in tests/golden/ and are written by
`python3 tests/golden/record.py`.  A change that alters one of them has to
re-record it and say why.
"""

import contextlib
import importlib.util
import io
import json
import os

import pytest

from modcat.cli import main as cli_main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

with open(os.path.join(GOLDEN, "manifest.json"), encoding="utf-8") as _fh:
    MANIFEST = json.load(_fh)


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_golden_output(name):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(list(MANIFEST[name]))
    assert code == 0
    with open(os.path.join(GOLDEN, f"{name}.out"), "rb") as fh:
        want = fh.read()
    assert buf.getvalue().encode("utf-8") == want, name


def test_manifest_matches_record_commands():
    # a command added to record.py but never recorded would go unchecked
    spec = importlib.util.spec_from_file_location(
        "record", os.path.join(GOLDEN, "record.py"))
    record = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(record)
    assert record.COMMANDS == MANIFEST
    outs = {f[:-len(".out")] for f in os.listdir(GOLDEN) if f.endswith(".out")}
    assert outs == set(MANIFEST)
