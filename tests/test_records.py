import os
import subprocess
import sys

import pytest

from modcat.fusion import build_fusion_table
from modcat.lie import build_root_system
from modcat.macdonald import build_context, build_su_data
from modcat.modular import build_modular_data
from modcat.report import CheckResult, VerificationReport
from modcat.weyl import fold_to_alcove

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def immutable_records():
    rs = build_root_system("A", 1)
    md = build_modular_data(rs, 4)
    return [rs, md, build_fusion_table(rs, 4),
            fold_to_alcove(rs, 4, (5,)),
            build_su_data(build_context(2, 1, 1)),
            CheckResult("s^2 = D^2 c", "pass")]


def test_record_fields_are_read_only():
    for record in immutable_records():
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def test_replace_recomputes_cached_unitarity_witness():
    md = build_modular_data(build_root_system("A", 1), 4)
    assert md.unitarity_witness is None
    s = list(md.smatrix)
    s[1] = s[0]
    bad = md._replace(smatrix=tuple(s))
    assert "unitarity_witness" not in vars(bad)
    assert bad.unitarity_witness == (
        "entry (0,1) at (0,), (1,): CycNum(4) vs CycNum(0)")
    assert md.unitarity_witness is None


def test_root_system_hash_and_identity():
    rs = build_root_system("A", 2)
    assert hash(rs) == hash((rs.series, rs.rank))
    assert build_root_system("A", 2) is rs
    assert repr(rs) == "RootSystemData(A2)"
    assert rs.comarks == (1, 1) and set(vars(rs)) == set()


def test_mutable_records_keep_their_own_state():
    # the caches and the check list are per instance, never shared
    a, b = build_context(2, 1, 1), build_context(2, 1, 1)
    assert a._polys is not b._polys and a._norms is not b._norms
    rep = VerificationReport(suite="modular")
    assert rep.checks is not VerificationReport(suite="modular").checks
    rep.record("s^2 = D^2 c", False, "entry (0,0)")
    assert rep.checks == [CheckResult("s^2 = D^2 c", "fail", "entry (0,0)")]
    assert rep.duration_seconds >= 0.0 and not rep.passed


def test_cold_start_loads_no_dataclasses_inspect_or_typing():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import modcat, modcat.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} "
            "& set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, SRC],
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
