import random
import re

import pytest

from modcat.chardata import weight_multiplicities, weyl_dimension
from modcat.fusion import (FusionConsistencyError, FusionTable,
                           _associativity_failures, build_fusion_table,
                           classical_tensor, fusion_coefficients,
                           verify_fusion, verify_grothendieck)
from modcat.lie import build_root_system
from modcat import modular
from modcat.modular import build_modular_data, verify_modular_relations
from modcat.numeric import CycNum, QRatFn
from modcat.report import mismatches
from modcat.weyl import enumerate_alcove, star

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
B2 = build_root_system("B", 2)
G2 = build_root_system("G", 2)


def character(rs, lam):
    # group-ring character as an exact polynomial, for the product oracle
    from modcat.macdonald import WPoly
    return WPoly({w: QRatFn.from_rational(m)
                  for w, m in weight_multiplicities(rs, lam).items()})


def test_clebsch_gordan():
    assert classical_tensor(A1, (1,), (1,)) == {(0,): 1, (2,): 1}
    assert classical_tensor(A1, (3,), (2,)) == {(1,): 1, (3,): 1, (5,): 1}


def test_tensor_with_unit():
    for rs, lam in [(A1, (3,)), (A2, (2, 1)), (G2, (1, 0))]:
        assert classical_tensor(rs, lam, rs.zero) == {lam: 1}


def test_three_times_three_bar():
    assert classical_tensor(A2, (1, 0), (0, 1)) == {(0, 0): 1, (1, 1): 1}


@pytest.mark.parametrize("rs,lam,mu", [
    (A2, (1, 1), (1, 1)), (A2, (2, 0), (1, 1)), (B2, (1, 0), (0, 1)),
    (B2, (1, 1), (0, 1)), (G2, (1, 0), (1, 0)),
])
def test_classical_tensor_character_oracle(rs, lam, mu):
    # independent oracle: multiply exact characters in the group ring
    product = character(rs, lam) * character(rs, mu)
    recombined = None
    for nu, mult in classical_tensor(rs, lam, mu).items():
        term = character(rs, nu).scale(QRatFn.from_rational(mult))
        recombined = term if recombined is None else recombined + term
    assert recombined == product


def test_classical_tensor_dimension_identity():
    rng = random.Random(6)
    for rs in (A2, B2):
        for _ in range(6):
            lam = tuple(rng.randrange(0, 3) for _ in range(rs.rank))
            mu = tuple(rng.randrange(0, 3) for _ in range(rs.rank))
            out = classical_tensor(rs, lam, mu)
            assert (sum(m * weyl_dimension(rs, nu) for nu, m in out.items())
                    == weyl_dimension(rs, lam) * weyl_dimension(rs, mu))


def test_classical_tensor_symmetric():
    for rs, lam, mu in [(A2, (2, 0), (1, 1)), (B2, (1, 1), (0, 2))]:
        assert classical_tensor(rs, lam, mu) == classical_tensor(rs, mu, lam)


def test_fusion_examples():
    assert fusion_coefficients(A1, 3, (1,), (1,)) == {(0,): 1}
    assert fusion_coefficients(A1, 4, (1,), (1,)) == {(0,): 1, (2,): 1}
    assert fusion_coefficients(A2, 4, (1, 0), (1, 0)) == {(0, 1): 1}


def test_fusion_unit_column():
    for rs, kappa in [(A1, 4), (A2, 5), (G2, 5)]:
        alcove = enumerate_alcove(rs, kappa)
        for lam in alcove:
            for mu in alcove:
                want = {rs.zero: 1} if mu == star(rs, lam) else {}
                got = {nu: c
                       for nu, c in fusion_coefficients(rs, kappa, lam, mu)
                       .items() if nu == rs.zero}
                assert got == want


def test_classical_limit():
    # large kappa keeps every classical summand inside the alcove
    for rs, lam, mu, kappa in [(A1, (2,), (3,), 12), (A2, (1, 1), (1, 0), 10)]:
        assert (fusion_coefficients(rs, kappa, lam, mu)
                == classical_tensor(rs, lam, mu))


def verlinde(md):
    """N_{lam mu}^nu by the Verlinde sum
    sum_sigma s_{lam sigma} s_{mu sigma} conj(s_{nu sigma}) / (D^2 s_{0 sigma}),
    written out independently of the matrix form in verify_fusion."""
    s = md.smatrix
    weights = [(s[0][c] * md.d_squared).inverse() for c in range(md.size)]

    def coefficient(lam, mu, nu):
        i, j, k = md.index_of(lam), md.index_of(mu), md.index_of(nu)
        acc = CycNum.zero()
        for c, w in enumerate(weights):
            acc = acc + s[i][c] * s[j][c] * s[k][c].conjugate() * w
        return acc
    return coefficient


def test_verlinde_values():
    n = verlinde(build_modular_data(A1, 4))
    assert n((0,), (0,), (0,)) == CycNum.one()
    assert n((1,), (1,), (2,)) == CycNum.one()
    assert verlinde(build_modular_data(A1, 3))((1,), (1,), (1,)).is_zero()


@pytest.mark.parametrize("rs,kappa", [(A1, 5), (A2, 5), (B2, 4), (G2, 5)])
def test_verlinde_matches_folding(rs, kappa):
    md = build_modular_data(rs, kappa)
    n = verlinde(md)
    table = build_fusion_table(rs, kappa)
    for lam in md.alcove:
        for mu in md.alcove:
            for nu in md.alcove:
                assert n(lam, mu, nu) == CycNum.from_rational(
                    table.n(lam, mu, nu))


def test_fusion_suite_reports():
    for rs, kappa in [(A1, 3), (A1, 4), (A1, 5), (A2, 4), (A2, 5), (B2, 4),
                      (B2, 5), (G2, 5)]:
        md = build_modular_data(rs, kappa)
        table = build_fusion_table(rs, kappa)
        rep = verify_fusion(md, table)
        assert rep.passed, [c.name for c in rep.checks if c.status == "fail"]
        rep = verify_grothendieck(md, table)
        assert rep.passed, [c.name for c in rep.checks if c.status == "fail"]


def with_entries(table, changes):
    """The table with N_{ij}^k replaced for each (i, j, k): value."""
    mats = [[list(row) for row in m] for m in table.matrices]
    for (i, j, k), value in changes.items():
        mats[i][j][k] = value
    return table._replace(matrices=tuple(tuple(map(tuple, m)) for m in mats))


def statuses(rep):
    assert all(c.witness for c in rep.checks if c.status == "fail")
    return {c.name: c for c in rep.checks}


def test_bumped_entry_fails_diagonalization():
    md = build_modular_data(A2, 5)
    table = build_fusion_table(A2, 5)
    alcove = md.alcove
    i, j, k = 1, 2, 3
    bad = with_entries(table, {(i, j, k): table.matrices[i][j][k] + 1})
    checks = statuses(verify_fusion(md, bad))
    diag = checks["folded coefficients = s-matrix diagonalization"]
    assert diag.status == "fail"
    # the first mismatch is in row j of N_i s, and names both weights
    assert diag.witness.startswith(f"N_{alcove[i]} s entry ({j},0) at "
                                   f"{alcove[j]}, {alcove[0]}: ")
    assert checks["quantum dimension homomorphism"].status == "fail"
    assert statuses(verify_grothendieck(md, bad))[
        "pointwise ring homomorphism"].status == "fail"


def test_perturbed_last_column_fails_diagonalization():
    # only the last column of N_i s = s diag(s_{i p} / s_{0 p}) breaks
    md = build_modular_data(A2, 5)
    table = build_fusion_table(A2, 5)
    last = md.size - 1
    s = tuple(tuple(x * 2 if q == last and p else x for q, x in enumerate(row))
              for p, row in enumerate(md.smatrix))
    checks = statuses(verify_fusion(md._replace(smatrix=s), table))
    diag = checks["folded coefficients = s-matrix diagonalization"]
    assert diag.status == "fail"
    assert f",{last}) at " in diag.witness
    assert diag.witness.split(": ")[0].endswith(str(md.alcove[last]))


def with_row(md, i, row):
    s = list(md.smatrix)
    s[i] = tuple(row)
    return md._replace(smatrix=tuple(s))


def test_singular_s_fails_evaluation_matrix_check():
    # A1 kappa 4 with row 0 copied over row 1: F = s diag(dims)^-1 is
    # singular with s
    md = build_modular_data(A1, 4)
    table = build_fusion_table(A1, 4)
    checks = statuses(verify_grothendieck(
        with_row(md, 1, md.smatrix[0]), table))
    singular = checks["character evaluation matrix non-singular"]
    assert singular.status == "fail"
    assert singular.witness == "singular evaluation matrix"


def test_non_unitary_s_passes_evaluation_matrix_check(monkeypatch):
    # row 1 scaled by 2 keeps det s != 0; elimination decides it
    md = build_modular_data(A1, 4)
    table = build_fusion_table(A1, 4)
    bad = with_row(md, 1, (x * 2 for x in md.smatrix[1]))
    calls = []
    real = modular.solve
    monkeypatch.setattr(modular, "solve",
                        lambda a, b=None: calls.append(a) or real(a, b))
    checks = statuses(verify_grothendieck(bad, table))
    assert checks["character evaluation matrix non-singular"].status == "pass"
    assert calls == [bad.smatrix]
    calls.clear()
    assert statuses(verify_grothendieck(md, table))[
        "character evaluation matrix non-singular"].status == "pass"
    assert calls == []


def test_grothendieck_reuses_unitarity_of_modular_suite(monkeypatch):
    # verify --suite all: s s^dagger is formed once, by the modular suite
    md = build_modular_data(A2, 5)
    table = build_fusion_table(A2, 5)
    assert verify_modular_relations(md).passed
    products = []
    real = modular.matrix_product
    monkeypatch.setattr(modular, "matrix_product",
                        lambda a, b: products.append(a) or real(a, b))
    assert verify_grothendieck(md, table).passed
    assert products == []
    # a fresh copy of the same data has to form it
    assert verify_grothendieck(md._replace(), table).passed
    assert len(products) == 1


def test_grothendieck_alone_gives_fusion_witness():
    # each suite decides the Verlinde identity itself and writes nothing
    # into md: run alone on a bumped table, the Grothendieck suite names
    # the fusion suite's witness
    md = build_modular_data(A2, 5)
    table = build_fusion_table(A2, 5)
    bad = with_entries(table, {(1, 2, 3): table.matrices[1][2][3] + 1})
    alone = statuses(verify_grothendieck(md, bad))[
        "pointwise ring homomorphism"]
    assert set(vars(md)) == {"unitarity_witness"}
    fused = statuses(verify_fusion(build_modular_data(A2, 5), bad))[
        "folded coefficients = s-matrix diagonalization"]
    assert alone.status == fused.status == "fail"
    assert alone.witness == fused.witness
    assert alone.witness.startswith("N_(0, 1) s entry (2,0) at (0, 2), ")


def test_zero_dimension_stops_grothendieck():
    # f = s diag(dims)^-1 and its det check need every dim nonzero
    md = build_modular_data(A1, 4)
    table = build_fusion_table(A1, 4)
    bad = md._replace(dims=(md.dims[0], CycNum.zero(), md.dims[2]))
    assert not verify_fusion(bad, table).passed
    with pytest.raises(FusionConsistencyError,
                       match="vanishing quantum dimension"):
        verify_grothendieck(bad, table)


def test_non_associative_table_fails_associativity():
    # Ising with N_{ss}^p = N_{sp}^s = N_{ps}^s = 2 keeps every index
    # symmetry, but N_s N_s has 4 at (p, p) where N_0 + 2 N_p has 1
    md = build_modular_data(A1, 4)
    table = build_fusion_table(A1, 4)
    bad = with_entries(table, {(1, 1, 2): 2, (1, 2, 1): 2, (2, 1, 1): 2})
    checks = statuses(verify_fusion(md, bad))
    assert checks["index symmetries of N"].status == "pass"
    assoc = checks["associativity"]
    assert assoc.status == "fail"
    assert assoc.witness == "N_(1,) N_(1,) entry (2,2) at (2,), (2,): 4 vs 1"


def test_asymmetric_table_fails_symmetry_and_diagonalization():
    # build_fusion_table mirrors (i, j) into (j, i), so only a hand-made
    # table can have N_{sp}^s = 0 while N_{ps}^s = 1; the diagonalization
    # check catches it on its own, as its right side is symmetric in i, j
    md = build_modular_data(A1, 4)
    table = build_fusion_table(A1, 4)
    bad = with_entries(table, {(1, 2, 1): 0})
    checks = statuses(verify_fusion(md, bad))
    sym = checks["index symmetries of N"]
    assert sym.status == "fail"
    assert sym.witness == "N_(1,) entry (2,1) at (2,), (1,): 0 vs 1"
    diag = checks["folded coefficients = s-matrix diagonalization"]
    assert diag.status == "fail"
    assert diag.witness.startswith("N_(1,) s entry (2,0) at (2,), (0,): ")


def test_ising_fusion_table():
    table = build_fusion_table(A1, 4)
    sigma, psi = (1,), (2,)
    assert table.product(sigma, sigma) == {(0,): 1, psi: 1}
    assert table.product(sigma, psi) == {sigma: 1}
    assert table.product(psi, psi) == {(0,): 1}


def test_z3_fusion_table():
    table = build_fusion_table(A2, 4)
    a, b = (1, 0), (0, 1)
    assert table.product(a, a) == {b: 1}
    assert table.product(a, b) == {(0, 0): 1}


def test_known_small_categories():
    import math
    from fractions import Fraction

    phi = (1 + math.sqrt(5)) / 2
    # rank-one level 3: golden-ratio dimensions and Fibonacci fusion
    md = build_modular_data(A1, 5)
    dims = [d.to_complex().real for d in md.dims]
    assert abs(dims[1] - phi) < 1e-12 and abs(dims[2] - phi) < 1e-12
    assert md.central_charge == Fraction(9, 5)
    table = build_fusion_table(A1, 5)
    assert table.product((2,), (2,)) == {(0,): 1, (2,): 1}
    # exceptional rank-two at the first admissible level: same fusion ring
    md = build_modular_data(G2, 5)
    assert md.size == 2
    tau = md.alcove[1]
    assert abs(md.dims[1].to_complex().real - phi) < 1e-12
    table = build_fusion_table(G2, 5)
    assert table.product(tau, tau) == {(0, 0): 1, tau: 1}
    assert md.central_charge == Fraction(14, 5)
    # rank-two type A at the first admissible level: three simple currents
    md = build_modular_data(A2, 4)
    assert md.size == 3
    assert all(abs(d.to_complex() - 1) < 1e-12 for d in md.dims)
    assert md.central_charge == 2


def _combine(coeffs, rows):
    """sum_k coeffs[k] rows[k] over the nonzero integer coeffs."""
    terms = [row if c == 1 else [c * x for x in row]
             for c, row in zip(coeffs, rows) if c]
    if not terms:
        return [0 * x for x in rows[0]]
    return [sum(col[1:], col[0]) for col in zip(*terms)]


def reference_associativity_failures(table):
    """The associativity witnesses by sparse row combinations, unpacked."""
    mats, alcove = table.matrices, table.alcove
    rows_at = list(zip(*mats))   # rows_at[j][s] = row j of N_s
    for i, n_i in enumerate(mats):
        for j, n_j in enumerate(mats):
            left = [_combine(row, n_i) for row in n_j]
            right = [_combine(n_i[j], rows) for rows in rows_at]
            for w in mismatches(left, right, alcove):
                yield f"N_{alcove[j]} N_{alcove[i]} {w}"


def test_associativity_random_systems():
    for rs, kappa in [(A1, 6), (G2, 6)]:
        alcove = enumerate_alcove(rs, kappa)
        table = build_fusion_table(rs, kappa)
        for lam in alcove:
            for mu in alcove:
                for nu in alcove:
                    for tau in alcove:
                        left = sum(table.n(lam, mu, s) * table.n(s, nu, tau)
                                   for s in alcove)
                        right = sum(table.n(mu, nu, s) * table.n(lam, s, tau)
                                    for s in alcove)
                        assert left == right
    # the packed check against sparse row combinations: every witness, on
    # random tables with negative entries and entries that need wide
    # digits, and none on built tables
    rng = random.Random(13)
    for trial in range(40):
        n = rng.randrange(1, 6)
        big = 2 ** rng.choice((3, 40, 90)) if trial % 2 else 3
        mats = tuple(tuple(tuple(rng.choice((0, 0, rng.randrange(-big, big)))
                                 for _ in range(n)) for _ in range(n))
                     for _ in range(n))
        table = FusionTable(A1, n + 1, tuple((k,) for k in range(n)), mats)
        want = list(reference_associativity_failures(table))
        assert list(_associativity_failures(table)) == want, trial
    for rs, kappa in [(A1, 6), (G2, 6), (B2, 5)]:
        table = build_fusion_table(rs, kappa)
        assert list(_associativity_failures(table)) == []

DIAG = "folded coefficients = s-matrix diagonalization"
SYM, ASSOC = "index symmetries of N", "associativity"
DIMS, POINTWISE = "quantum dimension homomorphism", "pointwise ring homomorphism"

# hand-broken tables: (rs, kappa, changed entries N_{ij}^k, the witness of
# every failing check of the fusion suite); the entries (1, 2, 3) of A2 k5,
# B2 k5 and G2 k6 are the built entry plus one.  The Grothendieck suite's
# pointwise check fails with the fusion suite's Verlinde witness.
BROKEN_TABLES = {
    "A2-k5-bumped": (A2, 5, {(1, 2, 3): 1}, {
        # (N_i s)_{jp} prints at the common order 30 of s; the sum of its
        # terms one at a time printed CycNum(2 + 2*z10^2 + -2*z10^3)
        DIAG: "N_(0, 1) s entry (2,0) at (0, 2), (0, 0): "
              "CycNum(2*z30^2 + 2*z30^3 + -2*z30^7) vs CycNum(1 + 1*z10^2 + "
              "-1*z10^3)",
        SYM: "N_(0, 1) entry (2,3) at (0, 2), (1, 0): 1 vs 0",
        ASSOC: "N_(0, 1) N_(0, 1) entry (1,3) at (0, 1), (1, 0): 1 vs 0",
        DIMS: "N_(0, 1) dims entry (2,0) at (0, 2), (0, 0): "
              "CycNum(2 + 2*z10^2 + -2*z10^3) vs CycNum(1 + 1*z10^2 + "
              "-1*z10^3)"}),
    "ising-asymmetric": (A1, 4, {(1, 2, 1): 0}, {
        DIAG: "N_(1,) s entry (2,0) at (2,), (0,): "
              "CycNum(0) vs CycNum(1*z8^1 + -1*z8^3)",
        SYM: "N_(1,) entry (2,1) at (2,), (1,): 0 vs 1",
        ASSOC: "N_(1,) N_(1,) entry (1,1) at (1,), (1,): 1 vs 2",
        DIMS: "N_(1,) dims entry (2,0) at (2,), (0,): "
              "CycNum(0) vs CycNum(1*z8^1 + -1*z8^3)"}),
    "ising-non-associative": (
        A1, 4, {(1, 1, 2): 2, (1, 2, 1): 2, (2, 1, 1): 2}, {
            DIAG: "N_(1,) s entry (1,0) at (1,), (0,): CycNum(3) vs CycNum(2)",
            ASSOC: "N_(1,) N_(1,) entry (2,2) at (2,), (2,): 4 vs 1",
            DIMS: "N_(1,) dims entry (1,0) at (1,), (0,): "
                  "CycNum(3) vs CycNum(2)"}),
    "B2-k5-bumped": (B2, 5, {(1, 2, 3): 1}, {
        DIAG: "N_(0, 1) s entry (2,0) at (0, 2), (0, 0): "
              "CycNum(4 + 4*z20^4 + -4*z20^6) vs CycNum(2 + 4*z20^4 + "
              "-4*z20^6)",
        SYM: "N_(0, 1) entry (2,3) at (0, 2), (1, 0): 1 vs 0",
        ASSOC: "N_(0, 1) N_(0, 1) entry (1,3) at (0, 1), (1, 0): 1 vs 0",
        DIMS: "N_(0, 1) dims entry (2,0) at (0, 2), (0, 0): "
              "CycNum(4 + 4*z20^4 + -4*z20^6) vs CycNum(2 + 4*z20^4 + "
              "-4*z20^6)"}),
    "G2-k6-bumped": (G2, 6, {(1, 2, 3): 2}, {
        DIAG: "N_(0, 1) s entry (2,0) at (1, 0), (0, 0): "
              "CycNum(3 + 3*z36^2 + 3*z36^4 + -2*z36^8 + -1*z36^10) vs "
              "CycNum(2 + 2*z36^2 + 2*z36^4 + -1*z36^8 + -1*z36^10)",
        SYM: "N_(0, 1) entry (2,3) at (1, 0), (2, 0): 2 vs 1",
        ASSOC: "N_(0, 1) N_(0, 1) entry (2,1) at (1, 0), (0, 1): 2 vs 1",
        DIMS: "N_(0, 1) dims entry (2,0) at (1, 0), (0, 0): "
              "CycNum(3 + 3*z36^2 + 3*z36^4 + -2*z36^8 + -1*z36^10) vs "
              "CycNum(2 + 2*z36^2 + 2*z36^4 + -1*z36^8 + -1*z36^10)"}),
    "A1-k5-negative": (A1, 5, {(1, 1, 1): -1}, {
        DIAG: "N_(1,) s entry (1,0) at (1,), (0,): "
              "CycNum(1) vs CycNum(2 + 1*z10^2 + -1*z10^3)",
        ASSOC: "N_(1,) N_(1,) entry (2,3) at (2,), (3,): 0 vs -1",
        DIMS: "N_(1,) dims entry (1,0) at (1,), (0,): "
              "CycNum(1) vs CycNum(2 + 1*z10^2 + -1*z10^3)"}),
}


@pytest.mark.parametrize("name", sorted(BROKEN_TABLES))
def test_broken_table_witnesses(name):
    rs, kappa, changes, want = BROKEN_TABLES[name]
    md = build_modular_data(rs, kappa)
    table = build_fusion_table(rs, kappa)
    if name.endswith("bumped"):
        assert all(table.matrices[i][j][k] + 1 == v
                   for (i, j, k), v in changes.items())
    bad = with_entries(table, changes)
    want = {**want, POINTWISE: want[DIAG]}
    got = {c.name: c.witness
           for rep in (verify_fusion(md, bad), verify_grothendieck(md, bad))
           for c in rep.checks if c.status == "fail"}
    assert got == want


@pytest.mark.parametrize("verify", [verify_fusion, verify_grothendieck])
@pytest.mark.parametrize("data,table", [
    ((A1, 4), (A1, 5)), ((A1, 5), (A1, 4)), ((A1, 5), (A2, 5))])
def test_verify_refuses_data_and_table_of_two_categories(verify, data, table):
    md, ft = build_modular_data(*data), build_fusion_table(*table)
    with pytest.raises(ValueError, match=re.escape(
            f"modular data of {data[0]!r} at kappa {data[1]}, "
            f"fusion table of {table[0]!r} at kappa {table[1]}")):
        verify(md, ft)
