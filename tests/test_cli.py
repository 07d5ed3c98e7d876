import json
import math
import os
import re
import time

import pytest

from modcat.cli import main
from modcat.lie import build_root_system
from modcat.macdonald import build_context, verify_section5
from modcat.modular import build_modular_data, verify_modular_relations
from modcat.numeric import CycNum, approx_eq


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lie_info(capsys):
    code, out, _ = run_cli(capsys, "lie-info", "--algebra", "G2")
    assert code == 0
    obj = json.loads(out)
    assert obj["lacing"] == 3 and obj["dual_coxeter"] == 4


def test_alcove_both_flavors(capsys):
    code, out, _ = run_cli(capsys, "alcove", "--algebra", "A2", "--kappa", "4")
    assert code == 0
    assert json.loads(out)["weights"] == [[0, 0], [0, 1], [1, 0]]
    code, out, _ = run_cli(capsys, "alcove", "--n", "2", "--K", "2")
    assert code == 0
    assert json.loads(out)["weights"] == [[0], [1], [2]]


def test_alcove_needs_arguments(capsys):
    code, _, err = run_cli(capsys, "alcove", "--algebra", "A2")
    assert code == 2 and "alcove needs" in err


@pytest.mark.parametrize("argv,refusal", [
    (("lie-info", "--algebra", "A513"), "invalid rank 513 for series A"),
    (("alcove", "--n", "514", "--K", "0"), "invalid rank 513 for series A"),
    (("lie-info", "--algebra", "E9"), "invalid rank 9 for series E"),
    (("lie-info", "--algebra", "H3"), "unknown series 'H'"),
], ids=["A513", "n514", "E9", "H3"])
def test_refusals_state_every_rank_bound(capsys, argv, refusal):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err == (f"error: {refusal}; valid types are A1-A512, B2-B512, "
                   "C2-C512, D4-D512, E6-E8, F4, G2\n")


def test_dims_json_and_csv(capsys):
    code, out, _ = run_cli(capsys, "dims", "--algebra", "A1", "--kappa", "4")
    assert code == 0
    obj = json.loads(out)
    dims = [CycNum.from_json_obj(d["dim"]) for d in obj["dims"]]
    assert dims[0] == CycNum.one()
    assert abs(dims[1].to_complex() - math.sqrt(2)) < 1e-9
    code, out, _ = run_cli(capsys, "dims", "--algebra", "A1", "--kappa", "4",
                           "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "weight,dim"
    assert len(lines) == 4


def test_modular_minimal_level(capsys):
    code, out, _ = run_cli(capsys, "modular", "--algebra", "A1",
                           "--kappa", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["alcove"] == [[0]]
    assert len(obj["s"]) == 1 and len(obj["s"][0]) == 1


def test_modular_fixture_exact_json(capsys):
    code, out, _ = run_cli(capsys, "modular", "--algebra", "A1",
                           "--kappa", "3")
    assert code == 0
    obj = json.loads(out)
    s = [[CycNum.from_json_obj(x) for x in row] for row in obj["s"]]
    one = CycNum.one()
    assert s[0][0] == one and s[0][1] == one
    assert s[1][0] == one and s[1][1] == -one
    assert obj["central_charge"] == "1"
    assert CycNum.from_json_obj(obj["d_squared"]).as_fraction() == 2


def test_modular_rejects_bad_kappa(capsys):
    code, _, err = run_cli(capsys, "modular", "--algebra", "A1",
                           "--kappa", "1")
    assert code == 2 and "dual Coxeter" in err


def test_float_mode_agrees_with_exact(capsys):
    _, exact_out, _ = run_cli(capsys, "modular", "--algebra", "A2",
                              "--kappa", "5")
    _, float_out, _ = run_cli(capsys, "modular", "--algebra", "A2",
                              "--kappa", "5", "--mode", "float")
    exact = json.loads(exact_out)
    flt = json.loads(float_out)
    for key in ("s", "t"):
        for row_e, row_f in zip(exact[key], flt[key]):
            for cell_e, (re, im) in zip(row_e, row_f):
                z = CycNum.from_json_obj(cell_e).to_complex()
                assert abs(z - complex(re, im)) < 1e-9


def test_float_mode_agrees_with_exact_su(capsys):
    args = ("macdonald", "su", "--n", "2", "--k", "2", "--K", "2")
    _, exact_out, _ = run_cli(capsys, *args)
    _, float_out, _ = run_cli(capsys, *args, "--mode", "float")
    exact = json.loads(exact_out)
    flt = json.loads(float_out)
    for key in ("s", "t"):
        for row_e, row_f in zip(exact[key], flt[key]):
            for cell_e, (re, im) in zip(row_e, row_f):
                z = CycNum.from_json_obj(cell_e).to_complex()
                assert abs(z - complex(re, im)) < 1e-9


def test_fusion_product_json(capsys):
    code, out, _ = run_cli(capsys, "fusion", "--algebra", "A1", "--kappa",
                           "4", "--lhs", "1", "--rhs", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["result"] == [{"nu": [0], "mult": 1}, {"nu": [2], "mult": 1}]


def test_fusion_full_table(capsys):
    code, out, _ = run_cli(capsys, "fusion", "--algebra", "A2", "--kappa", "4")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["products"]) == 9


def test_fusion_rejects_outside_alcove(capsys):
    code, _, err = run_cli(capsys, "fusion", "--algebra", "A1", "--kappa",
                           "3", "--lhs", "2", "--rhs", "1")
    assert code == 2 and "alcove" in err


def test_macdonald_poly_json(capsys):
    code, out, _ = run_cli(capsys, "macdonald", "poly", "--n", "2", "--k",
                           "2", "--lambda", "2")
    assert code == 0
    obj = json.loads(out)
    weights = [t["weight"] for t in obj["terms"]]
    assert weights == [[-2], [0], [2]]


def test_macdonald_su_json(capsys):
    code, out, _ = run_cli(capsys, "macdonald", "su", "--n", "2", "--k", "2",
                           "--K", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["kappa"] == 6
    assert len(obj["s"]) == 3


def test_verify_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "modular",
                           "--algebra", "A1", "--kappa", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True
    checks = obj["suites"][0]["checks"]
    assert len(checks) >= 6
    assert all(c["status"] == "pass" for c in checks)


def test_verify_pretty_lines(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--algebra",
                           "A1", "--kappa", "3", "--format", "pretty")
    assert code == 0
    lines = re.sub(r"in \d+\.\d\ds$", "in <t>s", out, flags=re.M)
    lines = lines.splitlines()
    assert [line for line in lines if line.startswith("suite ")] == [
        "suite modular", "suite fusion", "suite grothendieck"]
    assert lines.count("  => PASSED in <t>s") == 3
    assert "  [ok  ] s^2 = D^2 c" in lines
    assert all(line.startswith(("suite ", "  [ok  ] ", "  => PASSED in "))
               for line in lines)


def test_verify_failing_check_carries_its_witness(capsys, monkeypatch):
    import modcat.cli as cli
    from modcat.modular import build_modular_data

    def off_by_one(rs, kappa):
        md = build_modular_data(rs, kappa)
        return md._replace(d_squared=md.d_squared + 1)

    monkeypatch.setattr(cli, "build_modular_data", off_by_one)
    argv = ("verify", "--suite", "modular", "--algebra", "A1", "--kappa", "4")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    obj = json.loads(out)
    assert obj["passed"] is False and obj["suites"][0]["passed"] is False
    checks = {c["name"]: c for c in obj["suites"][0]["checks"]}
    assert checks["D^2 closed form |P/kQv| (-1)^|R+| delta^-2"] == {
        "name": "D^2 closed form |P/kQv| (-1)^|R+| delta^-2",
        "status": "fail", "witness": "CycNum(5) vs CycNum(4)"}
    code, out, _ = run_cli(capsys, *argv, "--format", "pretty")
    assert code == 1
    assert ("  [FAIL] D^2 closed form |P/kQv| (-1)^|R+| delta^-2  "
            "(CycNum(5) vs CycNum(4))") in out.splitlines()
    assert re.search(r"^  => FAILED in \d+\.\d\ds$", out, flags=re.M)


def test_bad_algebra_names(capsys):
    # ASCII digits only: no Arabic-Indic digit, no superscript
    for name in ("2A", "Ax", "A", "", "A\u0661", "A\u00b2"):
        code, out, err = run_cli(capsys, "lie-info", "--algebra", name)
        assert code == 2 and out == "" and "bad algebra name" in err, name
    code, out, _ = run_cli(capsys, "lie-info", "--algebra", " g2 ")
    assert code == 0 and json.loads(out)["algebra"] == "G2"


def test_bad_weights(capsys):
    for lhs, message in (("1,x", "bad weight '1,x'"),
                         ("1_0", "bad weight '1_0'"),
                         ("\u0663", "bad weight '\u0663'"),
                         ("1,0", "weight '1,0' has 2 coordinates")):
        code, out, err = run_cli(capsys, "fusion", "--algebra", "A1",
                                 "--kappa", "4", "--lhs", lhs, "--rhs", "1")
        assert code == 2 and out == "" and message in err, lhs


def test_signed_weights_and_alcove_rank(capsys):
    code, out, _ = run_cli(capsys, "fusion", "--algebra", "A1", "--kappa",
                           "4", "--lhs", "+1", "--rhs", "1")
    assert code == 0 and json.loads(out)["lambda"] == [1]
    code, out, err = run_cli(capsys, "alcove", "--n", "1", "--K", "2")
    assert (code, out, err) == (2, "", "error: need n >= 2\n")


def test_macdonald_poly_rejects_non_dominant_weight(capsys):
    code, out, err = run_cli(capsys, "macdonald", "poly", "--n", "2", "--k",
                             "2", "--lambda", "-1")
    assert code == 2 and out == ""
    assert err == "error: need a dominant weight, got (-1,)\n"


def test_verify_section5(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "section5", "--n",
                           "2", "--k", "2", "--K", "2")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_verify_all_with_both_parameter_sets(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--algebra",
                           "A1", "--kappa", "4", "--n", "2", "--k", "1",
                           "--K", "2")
    assert code == 0
    obj = json.loads(out)
    assert {s["suite"] for s in obj["suites"]} == {
        "modular", "fusion", "grothendieck", "section5"}


def test_verify_usage_errors(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "modular")
    assert code == 2 and "needs" in err
    code, out, err = run_cli(capsys, "verify", "--suite", "all")
    assert code == 2 and out == ""
    assert err == ("error: suite all needs --algebra and --kappa or "
                   "--n, --k and --K\n")
    code, _, err = run_cli(capsys, "verify", "--suite", "section5")
    assert code == 2
    # a partial set of flags, or a set the suite does not read
    cat = ("--algebra", "A1", "--kappa", "3")
    mac = ("--n", "2", "--k", "1", "--K", "1")
    for argv, flags in ((("all", *cat, "--n", "2"), "--n, --k and --K"),
                        (("all", "--algebra", "A1", *mac), "--kappa"),
                        (("modular", *cat, *mac), "--n, --k and --K"),
                        (("section5", *mac, *cat), "--algebra and --kappa")):
        code, out, err = run_cli(capsys, "verify", "--suite", *argv)
        assert code == 2 and out == "" and flags in err, argv
    for bad in ("nan", "-1", "inf", "-inf", "0"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "modular", "--algebra", "A1",
                  "--kappa", "3", f"--tolerance={bad}"])
        assert exc.value.code == 2
        assert "finite positive" in capsys.readouterr().err


def test_options_only_where_read(capsys):
    # each subcommand takes only the options its handler reads
    for argv in (("lie-info", "--algebra", "A1", "--format", "csv"),
                 ("fusion", "--algebra", "A1", "--kappa", "4",
                  "--mode", "float"),
                 ("modular", "--algebra", "A1", "--kappa", "3",
                  "--tolerance", "1e-9"),
                 ("macdonald", "poly", "--n", "2", "--k", "1",
                  "--lambda", "1", "--format", "pretty"),
                 ("macdonald", "poly", "--n", "2", "--k", "2",
                  "--lambda", "2", "--K", "7")):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2, argv
        assert "error" in capsys.readouterr().err
    # alcove reads one of its two sets of options, never both
    code, _, err = run_cli(capsys, "alcove", "--algebra", "A2", "--kappa", "5",
                           "--n", "3")
    assert code == 2 and "--n and --K" in err


def test_exact_mode_byte_determinism(capsys):
    commands = [
        ("modular", "--algebra", "A2", "--kappa", "5"),
        ("modular", "--algebra", "B2", "--kappa", "4", "--format", "csv"),
        ("fusion", "--algebra", "A1", "--kappa", "5"),
        ("dims", "--algebra", "G2", "--kappa", "5"),
        ("macdonald", "su", "--n", "2", "--k", "2", "--K", "2"),
        ("macdonald", "poly", "--n", "3", "--k", "2", "--lambda", "1,1"),
        ("verify", "--suite", "modular", "--algebra", "A1", "--kappa", "4"),
        ("lie-info", "--algebra", "F4"),
        ("alcove", "--algebra", "A3", "--kappa", "5"),
    ]
    for cmd in commands:
        _, first, _ = run_cli(capsys, *cmd)
        _, second, _ = run_cli(capsys, *cmd)
        assert first == second, cmd


def test_parser_reused_after_usage_errors(capsys):
    # one parser serves the whole process, so a command after failed ones
    # must still print its golden bytes
    import modcat.cli as cli
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["modular", "--algebra", "A1", "--kappa", "3", "--lhs", "0"])
    assert exc.value.code == 2
    code, _, err = run_cli(capsys, "fusion", "--algebra", "A1", "--kappa",
                           "4", "--lhs", "9")
    assert code == 2 and "error" in err
    code, out, _ = run_cli(capsys, "fusion", "--algebra", "B2", "--kappa",
                           "4", "--lhs", "0,1", "--rhs", "0,1")
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden", "fusion-B2-k4-point.out")
    with open(golden, "rb") as fh:
        assert code == 0 and out.encode("utf-8") == fh.read()


def test_internal_error_exit_code(capsys, monkeypatch):
    import modcat.cli as cli
    from modcat.fusion import FusionConsistencyError

    def boom(*args, **kwargs):
        raise FusionConsistencyError("synthetic inconsistency")

    monkeypatch.setattr(cli, "build_fusion_table", boom)
    code, _, err = run_cli(capsys, "fusion", "--algebra", "A1", "--kappa", "4")
    assert code == 3 and "internal consistency" in err


def test_calibration_failure_exit_code(capsys, monkeypatch):
    import modcat.macdonald as macdonald
    from modcat.numeric import QRatFn

    # a closed-form norm that is not +- the constant term of the density
    monkeypatch.setattr(macdonald, "norm_formula",
                        lambda rs, k, lam: QRatFn.from_rational(7))
    code, out, err = run_cli(capsys, "macdonald", "poly", "--n", "2",
                             "--k", "2", "--lambda", "2")
    assert code == 3 and out == ""
    assert "internal consistency" in err
    assert "inner-product sign calibration failed" in err
    assert "Traceback" not in err


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, out, _ = run_cli(capsys, "modular", "--algebra", "A1", "--kappa",
                           "3", "--out", str(target))
    assert code == 0 and out == ""
    obj = json.loads(target.read_text())
    assert obj["kappa"] == 3


def test_unwritable_out_path_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "table.json"
    code, out, err = run_cli(capsys, "modular", "--algebra", "A1", "--kappa",
                             "3", "--out", str(target))
    assert code == 2 and out == ""
    assert err == (f"error: cannot write {target}: "
                   "No such file or directory\n")
    code, _, err = run_cli(capsys, "verify", "--suite", "modular",
                           "--algebra", "A1", "--kappa", "3",
                           "--out", str(tmp_path))
    assert code == 2 and err.startswith(f"error: cannot write {tmp_path}: ")
    assert "Traceback" not in err


def test_tolerance_env_override(capsys, monkeypatch):
    monkeypatch.setenv("MODCAT_TOLERANCE", "1e-3")
    from modcat.numeric import default_tolerance
    assert default_tolerance() == 1e-3
    monkeypatch.delenv("MODCAT_TOLERANCE")
    assert default_tolerance() == 1e-9
    for bad in ("nan", "-1", "inf", "0", "abc"):
        monkeypatch.setenv("MODCAT_TOLERANCE", bad)
        with pytest.raises(ValueError, match="MODCAT_TOLERANCE"):
            default_tolerance()
        code, _, err = run_cli(capsys, "verify", "--suite", "modular",
                               "--algebra", "A1", "--kappa", "3")
        assert code == 2 and "MODCAT_TOLERANCE" in err


def test_library_reads_no_tolerance_from_the_environment(capsys,
                                                         monkeypatch):
    # only the CLI reads MODCAT_TOLERANCE; the library uses its default
    monkeypatch.setenv("MODCAT_TOLERANCE", "abc")
    assert approx_eq(1.0, 1.0 + 1e-12) and not approx_eq(1.0, 1.0 + 1e-6)
    md = build_modular_data(build_root_system("A", 1), 3)
    assert verify_modular_relations(md).passed
    assert verify_section5(build_context(2, 1, 2)).passed
    code, _, err = run_cli(capsys, "verify", "--suite", "modular",
                           "--algebra", "A1", "--kappa", "3")
    assert code == 2 and "MODCAT_TOLERANCE" in err


def test_real_values_print_with_imaginary_part_zero(capsys):
    # an exactly real value carries no float residue of cmath.exp
    _, out, _ = run_cli(capsys, "dims", "--algebra", "A2", "--kappa", "5",
                        "--format", "pretty")
    assert "(0, 1): 1.61803398875+0j" in out.splitlines()
    _, out, _ = run_cli(capsys, "dims", "--algebra", "A2", "--kappa", "5",
                        "--mode", "float")
    assert all(d["dim"][1] == 0 for d in json.loads(out)["dims"])
    _, out, _ = run_cli(capsys, "modular", "--algebra", "B2", "--kappa", "4",
                        "--format", "csv")
    assert "0.1,1.41421356237+0j,0+0j,-1.41421356237+0j" in out.splitlines()


def test_weyl_cap_refused_fast(capsys):
    t0 = time.monotonic()
    code, _, err = run_cli(capsys, "modular", "--algebra", "E8", "--kappa",
                           "31")
    assert time.monotonic() - t0 < 2
    assert code == 2 and "beyond the enumeration cap" in err


def test_dims_beyond_weyl_cap(capsys):
    # quantum dimensions need no Weyl orbit, so E7 is not refused
    code, out, _ = run_cli(capsys, "dims", "--algebra", "E7", "--kappa", "20")
    assert code == 0
    dims = json.loads(out)["dims"]
    assert dims[0]["weight"] == [0] * 7
    assert CycNum.from_json_obj(dims[0]["dim"]) == CycNum.one()
