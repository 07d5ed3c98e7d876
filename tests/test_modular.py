import cmath
import random

import pytest

from modcat.chardata import quantum_dim
from modcat.lie import build_root_system
from modcat import modular
from modcat.modular import (build_modular_data, s_entry_extended, twist,
                            verify_modular_relations)
from modcat.numeric import CycNum, matrix_product, solve
from modcat.weyl import fold_to_alcove

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
B2 = build_root_system("B", 2)
G2 = build_root_system("G", 2)


def test_rank_one_level_one_fixture():
    md = build_modular_data(A1, 3)
    assert md.alcove == ((0,), (1,))
    one = CycNum.one()
    assert md.smatrix == ((one, one), (one, -one))
    i = CycNum.root_of_unity(4, 1)
    assert md.tmatrix[0][0] == one and md.tmatrix[1][1] == i
    assert md.d_squared.as_fraction() == 2
    assert md.p_plus == one + i
    assert md.p_minus == one - i
    assert md.central_charge == 1
    assert abs(md.zeta.to_complex() - cmath.exp(1j * cmath.pi / 12)) < 1e-9


def test_minimal_kappa_is_scalar():
    for rs in (A1, A2, B2, G2):
        md = build_modular_data(rs, rs.dual_coxeter)
        assert md.size == 1
        assert md.smatrix[0][0] == CycNum.one()
        assert md.tmatrix[0][0] == CycNum.one()
        assert md.d_squared == CycNum.one()
        assert md.p_plus == CycNum.one() and md.p_minus == CycNum.one()
        assert verify_modular_relations(md).passed


def test_a2_kappa5_alcove_and_relations():
    md = build_modular_data(A2, 5)
    assert set(md.alcove) == {(0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1)}
    rep = verify_modular_relations(md)
    assert rep.passed, [c.name for c in rep.checks if c.status == "fail"]


def test_rejects_small_kappa():
    with pytest.raises(ValueError):
        build_modular_data(G2, 3)


def test_twist_values():
    # theta for the level-one rank-one point: eps^((w, 3w)') = i at kappa 3
    assert twist(A1, 3, (1,)) == CycNum.root_of_unity(4, 1)
    assert twist(A1, 3, (0,)) == CycNum.one()


def test_extended_entries_vanish_on_wall():
    for mu in [(0,), (1,), (4,), (-2,)]:
        assert s_entry_extended(A1, 3, (2,), mu).is_zero()
    # B2 wall weight: <lam+rho, theta^vee> = kappa
    assert s_entry_extended(B2, 4, (1, 1), (0, 0)).is_zero()


def test_extended_entries_symmetric():
    rng = random.Random(12)
    for _ in range(20):
        lam = tuple(rng.randrange(-4, 5) for _ in range(2))
        mu = tuple(rng.randrange(-4, 5) for _ in range(2))
        assert (s_entry_extended(A2, 5, lam, mu)
                == s_entry_extended(A2, 5, mu, lam))


def test_extended_entries_fold_with_sign():
    md = build_modular_data(A1, 3)
    assert s_entry_extended(A1, 3, (1,), (3,)) == -md.smatrix[1][1]
    rng = random.Random(8)
    for rs, kappa in [(A1, 4), (A2, 5)]:
        md = build_modular_data(rs, kappa)
        for _ in range(25):
            lam = rng.choice(md.alcove)
            mu = tuple(rng.randrange(-7, 8) for _ in range(rs.rank))
            folded = fold_to_alcove(rs, kappa, mu)
            value = s_entry_extended(rs, kappa, lam, mu)
            if folded.sign == 0:
                assert value.is_zero()
            else:
                base = md.smatrix[md.index_of(lam)][
                    md.index_of(folded.representative)]
                assert value == (base if folded.sign > 0 else -base)


def test_s_column_zero_is_dims():
    for rs, kappa in [(A1, 5), (B2, 5), (G2, 6)]:
        md = build_modular_data(rs, kappa)
        for i, lam in enumerate(md.alcove):
            assert md.smatrix[i][0] == quantum_dim(rs, kappa, lam)
            assert md.smatrix[0][i] == md.smatrix[i][0]


def test_relation_suite_passes_everywhere():
    for rs, kappa in [(A1, 7), (A2, 6), (B2, 5), (G2, 6),
                      (build_root_system("A", 3), 5)]:
        rep = verify_modular_relations(build_modular_data(rs, kappa))
        assert rep.passed, [c.name for c in rep.checks if c.status == "fail"]


def test_report_witnesses_on_failure():
    # a deliberately corrupted matrix must be caught with a witness
    md = build_modular_data(A1, 4)
    bad_s = tuple(
        tuple(x + CycNum.one() if (i, j) == (0, 0) else x
              for j, x in enumerate(row))
        for i, row in enumerate(md.smatrix))
    bad = type(md)(
        rs=md.rs, kappa=md.kappa, alcove=md.alcove, smatrix=bad_s,
        tmatrix=md.tmatrix, cmatrix=md.cmatrix, dims=md.dims,
        p_plus=md.p_plus, p_minus=md.p_minus, d_squared=md.d_squared,
        zeta=md.zeta, central_charge=md.central_charge)
    rep = verify_modular_relations(bad)
    assert not rep.passed
    failed = [c for c in rep.checks if c.status == "fail"]
    assert failed and all(c.witness for c in failed)
    # the first mismatch names the entry and its weights
    sym = next(c for c in failed if c.name == "s^2 = D^2 c")
    assert sym.witness.startswith("entry (0,0) at (0,), (0,): ")
    # corrupted scalars and a non-unitary twist fail with witnesses too
    bad_t = tuple(
        tuple(x * 2 if (i, j) == (1, 1) else x for j, x in enumerate(row))
        for i, row in enumerate(md.tmatrix))
    bad = md._replace(tmatrix=bad_t, p_plus=md.p_plus + 1,
                      dims=(md.dims[0] + 1,) + md.dims[1:])
    rep = verify_modular_relations(bad)
    failed = {c.name: c.witness for c in rep.checks if c.status == "fail"}
    assert {"D^2 = sum of squared quantum dimensions", "zeta^6 p- = p+",
            "conj(p+) = p-", "s_{l 0} = quantum dimensions",
            "twists unitary and star-invariant, theta_0 = 1",
            "float: D zeta^3 = p+"} <= set(failed)
    assert all(failed.values())
    assert failed["twists unitary and star-invariant, theta_0 = 1"] \
        .startswith("entry (1,1) at (1,), (1,): ")


@pytest.mark.parametrize("rs,kappa,witness", [
    (A1, 4, "CycNum(5) vs CycNum(4)"),
    (B2, 4, "CycNum(5) vs CycNum(4)"),
    (G2, 5, "CycNum(3 + 1*z30^2 + 1*z30^3 + -1*z30^7)"
            " vs CycNum(2 + 1*z30^2 + 1*z30^3 + -1*z30^7)"),
], ids=["A1-k4", "B2-k4", "G2-k5"])
def test_d_squared_closed_form_witness(rs, kappa, witness):
    # D^2 off by one: the witness is the stored D^2 against the closed form
    md = build_modular_data(rs, kappa)
    checks = {c.name: c for c in verify_modular_relations(
        md._replace(d_squared=md.d_squared + 1)).checks}
    check = checks["D^2 closed form |P/kQv| (-1)^|R+| delta^-2"]
    assert check.status == "fail" and check.witness == witness


def test_twists_and_zeta_are_roots_of_unity():
    for rs, kappa in [(A1, 5), (A2, 5), (B2, 4), (G2, 5)]:
        md = build_modular_data(rs, kappa)
        for i in range(md.size):
            theta = md.tmatrix[i][i]
            assert theta ** theta.order == CycNum.one()
        assert md.zeta ** md.zeta.order == CycNum.one()


def test_solve_over_cyclotomic_entries():
    one, zero = CycNum.one(), CycNum.zero()
    assert solve(((one, zero), (zero, one)))[0] == one
    assert solve(((one, one), (one, one))) == (0, None)
    # a = [[1, i], [i, 2]]: det a = 3, and a x = b for b = a [[z8], [1]]
    i, z8 = CycNum.root_of_unity(4, 1), CycNum.root_of_unity(8, 1)
    a = ((one, i), (i, one * 2))
    b = matrix_product(a, [[z8], [one]])
    det, x = solve(a, b)
    assert det == 3 and x == [[z8], [one]]


def with_row(md, i, row):
    s = list(md.smatrix)
    s[i] = tuple(row)
    return md._replace(smatrix=tuple(s))


def count_eliminations(monkeypatch):
    calls = []
    real = modular.solve
    monkeypatch.setattr(modular, "solve",
                        lambda a, b=None: calls.append(a) or real(a, b))
    return calls


def test_det_s_from_unitarity_without_elimination(monkeypatch):
    calls = count_eliminations(monkeypatch)
    for rs, kappa in [(A1, 4), (A2, 5), (B2, 4), (G2, 5)]:
        rep = verify_modular_relations(build_modular_data(rs, kappa))
        assert rep.passed
    assert calls == []


def test_singular_s_fails_det_check():
    # A1 kappa 4 with row 0 copied over row 1
    md = build_modular_data(A1, 4)
    checks = {c.name: c for c in verify_modular_relations(
        with_row(md, 1, md.smatrix[0])).checks}
    assert checks["s s^dagger = D^2 Id"].status == "fail"
    assert checks["det s != 0"].status == "fail"
    assert checks["det s != 0"].witness == "singular s-matrix"


def test_non_unitary_s_passes_det_check_by_elimination(monkeypatch):
    # row 1 scaled by 2: s s^dagger != D^2 Id, yet det s != 0
    md = build_modular_data(A1, 4)
    bad = with_row(md, 1, (x * 2 for x in md.smatrix[1]))
    calls = count_eliminations(monkeypatch)
    checks = {c.name: c.status
              for c in verify_modular_relations(bad).checks}
    assert checks["s s^dagger = D^2 Id"] == "fail"
    assert checks["det s != 0"] == "pass"
    assert calls == [bad.smatrix]


def test_matrix_multiply_against_float():
    md = build_modular_data(B2, 5)
    s2 = matrix_product(md.smatrix, md.smatrix)
    sf = [[x.to_complex() for x in row] for row in md.smatrix]
    n = md.size
    for i in range(n):
        for j in range(n):
            want = sum(sf[i][k] * sf[k][j] for k in range(n))
            assert abs(s2[i][j].to_complex() - want) < 1e-8
