"""Exact-mode CLI outputs compared byte for byte with the recorded goldens.

The goldens live in tests/golden/ and are written by
`python3 tests/golden/record.py` from its COMMANDS.  A change that alters
one of them has to re-record it and say why.
"""

import contextlib
import importlib.util
import io
import os

import pytest

from modcat.cli import main as cli_main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

_spec = importlib.util.spec_from_file_location(
    "record", os.path.join(GOLDEN, "record.py"))
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


@pytest.mark.parametrize("name", sorted(record.COMMANDS))
def test_golden_output(name):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(list(record.COMMANDS[name]))
    assert code == 0
    with open(os.path.join(GOLDEN, f"{name}.out"), "rb") as fh:
        want = fh.read()
    assert buf.getvalue().encode("utf-8") == want, name


def test_outputs_match_record_commands():
    # a command added to record.py but never recorded would go unchecked,
    # and a stale .out file would check nothing
    outs = {f[:-len(".out")] for f in os.listdir(GOLDEN) if f.endswith(".out")}
    assert outs == set(record.COMMANDS)
