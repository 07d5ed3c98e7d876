"""Acceptance suite: one test and one printed verdict line per criterion.

Everything exact unless a check is explicitly a float cross-check, in which
case the tolerance is 1e-9.  Runtime bounds are asserted where stated.
"""

import cmath
import time

import pytest

from modcat.chardata import quantum_dim
from modcat.cli import main as cli_main
from modcat.fusion import build_fusion_table, verify_fusion, verify_grothendieck
from modcat.lie import build_root_system, form, lattice_index, wadd, wscale
from modcat.macdonald import (build_context, build_su_data, d_coefficient,
                              verify_generic_macdonald, verify_section5)
from modcat.modular import build_modular_data, verify_modular_relations
from modcat.numeric import CycNum, epsilon_power
from modcat.chardata import weyl_denominator_value

TOL = 1e-9

CATEGORY_GRID = ([("A", 1, k) for k in range(2, 9)]
                 + [("A", 2, k) for k in range(3, 7)]
                 + [("A", 3, k) for k in (4, 5)]
                 + [("B", 2, k) for k in (3, 4, 5)]
                 + [("G", 2, k) for k in (4, 5, 6)])

SECTION5_GRID = [(2, 1, 2), (2, 2, 2), (2, 3, 1), (3, 2, 1)]


def announce(capsys, number, name, ok):
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


@pytest.fixture(scope="module")
def grid_data():
    out = {}
    for series, rank, kappa in CATEGORY_GRID:
        rs = build_root_system(series, rank)
        md = build_modular_data(rs, kappa)
        table = build_fusion_table(rs, kappa)
        out[(series, rank, kappa)] = (md, table)
    return out


def test_criterion_1_modular_relations_grid(grid_data, capsys):
    t0 = time.monotonic()
    ok = True
    for key, (md, _) in grid_data.items():
        rep = verify_modular_relations(md, TOL)
        if not rep.passed:
            ok = False
            with capsys.disabled():
                print(f"  {key}: " + "; ".join(
                    c.name for c in rep.checks if c.status == "fail"))
    elapsed = time.monotonic() - t0
    announce(capsys, 1, f"modular relations grid ({elapsed:.1f}s < 60s)",
             ok and elapsed < 60)


def test_criterion_2_rank_one_fixture(capsys):
    md = build_modular_data(build_root_system("A", 1), 3)
    one = CycNum.one()
    i = CycNum.root_of_unity(4, 1)
    ok = (md.smatrix == ((one, one), (one, -one))
          and md.tmatrix[0][0] == one and md.tmatrix[1][1] == i
          and md.tmatrix[0][1].is_zero() and md.tmatrix[1][0].is_zero()
          and md.d_squared.as_fraction() == 2
          and md.p_plus == one + i and md.p_minus == one - i
          and md.central_charge == 1
          and abs(md.zeta.to_complex() - cmath.exp(1j * cmath.pi / 12)) < TOL)
    announce(capsys, 2, "pinned rank-one level-one fixture", ok)


def test_criterion_3_fusion_consistency(grid_data, capsys):
    t0 = time.monotonic()
    ok = True
    for key, (md, table) in grid_data.items():
        rep = verify_fusion(md, table)
        if not rep.passed:
            ok = False
            with capsys.disabled():
                print(f"  {key}: " + "; ".join(
                    c.name for c in rep.checks if c.status == "fail"))
    elapsed = time.monotonic() - t0
    announce(capsys, 3, f"fusion folding = diagonalization ({elapsed:.1f}s "
             "< 120s)", ok and elapsed < 120)


def test_criterion_4_grothendieck_homomorphism(grid_data, capsys):
    ok = True
    for key, (md, table) in grid_data.items():
        rep = verify_grothendieck(md, table)
        if not rep.passed:
            ok = False
            with capsys.disabled():
                print(f"  {key}: " + "; ".join(
                    c.name for c in rep.checks if c.status == "fail"))
    announce(capsys, 4, "character map is a ring isomorphism", ok)


def test_criterion_5_generic_macdonald(capsys):
    t0 = time.monotonic()
    ok = True
    for n, k, bound in [(2, 1, 6), (2, 2, 6), (2, 3, 6),
                        (3, 1, 3), (3, 2, 3)]:
        rep = verify_generic_macdonald(n, k, bound)
        if not rep.passed:
            ok = False
            with capsys.disabled():
                print(f"  (n={n},k={k}): " + "; ".join(
                    c.name for c in rep.checks if c.status == "fail"))
    elapsed = time.monotonic() - t0
    announce(capsys, 5, f"generic-q Macdonald grid ({elapsed:.1f}s < 300s)",
             ok and elapsed < 300)


def test_criterion_6_section5_suite(capsys):
    t0 = time.monotonic()
    ok = True
    for n, k, level in SECTION5_GRID:
        ctx = build_context(n, k, level)
        rep = verify_section5(ctx, TOL)
        if not rep.passed:
            ok = False
            with capsys.disabled():
                print(f"  (n={n},k={k},K={level}): " + "; ".join(
                    c.name for c in rep.checks if c.status == "fail"))
    elapsed = time.monotonic() - t0
    announce(capsys, 6, f"intertwiner modular action suite ({elapsed:.1f}s "
             "< 300s)", ok and elapsed < 300)


def test_criterion_7_cross_module_coherence(capsys):
    ok = True
    # k = 1 intertwiner matrix equals the normalized category s-matrix
    for n, level in [(2, 2), (3, 1)]:
        ctx = build_context(n, 1, level)
        su = build_su_data(ctx)
        md = build_modular_data(ctx.rs, ctx.kappa)
        d_pos = md.d_squared.to_complex().real ** 0.5
        if md.alcove != su.alcove:
            ok = False
            continue
        for i in range(len(su.alcove)):
            for j in range(len(su.alcove)):
                got = su.smatrix[i][j].to_complex()
                want = md.smatrix[i][j].to_complex() / d_pos
                if abs(got - want) > TOL:
                    ok = False
    # row normalization equals (dim of the shifted module / D) times the
    # intertwiner leading-term value, in float
    for n, k, level in SECTION5_GRID:
        ctx = build_context(n, k, level)
        rs, kappa = ctx.rs, ctx.kappa
        index = lattice_index(rs, kappa)
        delta_val = weyl_denominator_value(rs, kappa, wscale(-2, rs.rho))
        dsq = index * (-1) ** len(rs.positive_roots)
        d_pos = (dsq / (delta_val * delta_val).to_complex()).real ** 0.5
        for lam in ctx.alcove:
            lam_k = wadd(lam, wscale(k - 1, rs.rho))
            dim_val = quantum_dim(rs, kappa, lam_k).to_complex()
            shifted = wadd(lam, wscale(k, rs.rho))
            phi0 = 1 + 0j
            for alpha in rs.positive_roots:
                x = form(rs, alpha, shifted)
                for i in range(1, k):
                    phi0 *= (epsilon_power(-x, 1, kappa)
                             - epsilon_power(x - 2 * i, 1, kappa)).to_complex()
            want = dim_val / d_pos * phi0
            got = d_coefficient(ctx, lam).to_complex()
            if abs(got - want) > TOL:
                ok = False
    announce(capsys, 7, "cross-module coherence (float, 1e-9)", ok)


def test_criterion_8_exact_mode_determinism(capsys):
    commands = [
        ("modular", "--algebra", "A1", "--kappa", "3"),
        ("modular", "--algebra", "A2", "--kappa", "5"),
        ("modular", "--algebra", "G2", "--kappa", "5", "--format", "csv"),
        ("fusion", "--algebra", "A1", "--kappa", "4"),
        ("fusion", "--algebra", "B2", "--kappa", "4", "--lhs", "0,1",
         "--rhs", "0,1"),
        ("dims", "--algebra", "A3", "--kappa", "5"),
        ("alcove", "--algebra", "A2", "--kappa", "6"),
        ("lie-info", "--algebra", "E6"),
        ("macdonald", "poly", "--n", "2", "--k", "3", "--lambda", "2"),
        ("macdonald", "su", "--n", "3", "--k", "2", "--K", "1"),
        ("verify", "--suite", "all", "--algebra", "A1", "--kappa", "3",
         "--n", "2", "--k", "2", "--K", "2"),
    ]
    ok = True
    for cmd in commands:
        outputs = []
        for _ in range(2):
            code = cli_main(list(cmd))
            captured = capsys.readouterr()
            outputs.append((code, captured.out))
        if outputs[0] != outputs[1] or outputs[0][0] != 0:
            ok = False
            with capsys.disabled():
                print(f"  nondeterministic or failing: {cmd}")
    announce(capsys, 8, "byte-identical exact-mode output", ok)
