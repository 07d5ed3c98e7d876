import itertools
import random
from fractions import Fraction

import pytest

from modcat.chardata import dominant_weights_below, weight_multiplicities
from modcat.lie import (build_root_system, form, root_alpha_coords, wadd,
                        wneg, wscale, wsub)
from modcat.macdonald import (WPoly, build_context, build_su_data,
                              d_coefficient, delta_k_product, dominance_leq,
                              inner_product_k, macdonald_norm,
                              macdonald_polynomial, monomial_sum,
                              norm_formula, verify_section5)
from modcat.numeric import (CycNum, QRatFn, _clear_denominators,
                            cyclotomic_polynomial, epsilon_power, q_number)
from modcat.weyl import enumerate_alcove, star

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)


def test_dominance_basics():
    from modcat.lie import root_alpha_coords

    assert dominance_leq(A1, (0,), (2,))
    assert not dominance_leq(A1, (2,), (0,))
    assert dominance_leq(A2, (1, 1), (1, 1))
    # different root-lattice classes are incomparable
    assert not dominance_leq(A1, (0,), (1,))
    # 3w1 - (w1+w2) = 2w1 - w2 expands to (alpha1 + ...)/1? pin the answer
    # from the root-expansion oracle: coords of (2, -1) are (1, 0)
    assert root_alpha_coords(A2, (2, -1)) == (Fraction(1), Fraction(0))
    assert dominance_leq(A2, (1, 1), (3, 0))


@pytest.mark.parametrize("series", ["A", "B", "G"])
def test_dominance_leq_matches_root_coordinates(series):
    # mu - lam in Q+ exactly when its simple-root coordinates are
    # non-negative integers; A2 and B2 also have fractional coordinates
    rs = build_root_system(series, 2)
    weights = list(itertools.product(range(-2, 3), repeat=2))
    seen = set()
    for lam in weights:
        for mu in weights:
            coords = root_alpha_coords(rs, wsub(mu, lam))
            want = all(c.denominator == 1 and c >= 0 for c in coords)
            assert dominance_leq(rs, lam, mu) == want, (lam, mu)
            seen.add("leq" if want else
                     "fractional" if any(c.denominator > 1 for c in coords)
                     else "negative")
    assert seen == ({"leq", "negative"} if series == "G"
                    else {"leq", "negative", "fractional"})


def test_dominance_is_partial_order_sample():
    rng = random.Random(19)
    weights = [tuple(rng.randrange(0, 4) for _ in range(2)) for _ in range(12)]
    for a in weights:
        assert dominance_leq(A2, a, a)
        for b in weights:
            if dominance_leq(A2, a, b) and dominance_leq(A2, b, a):
                assert a == b


def test_delta_products():
    d1 = delta_k_product(A1, 1)
    alpha = A1.simple_roots[0]
    minus_two = QRatFn.from_rational(-2)
    assert d1.terms == {alpha: QRatFn.one(), (0,): minus_two,
                        (-2,): QRatFn.one()}
    assert d1.coefficient((0,)) == minus_two
    s = QRatFn.monomial(4) + QRatFn.monomial(-4)   # q^2 + q^-2
    d2 = delta_k_product(A1, 2)
    assert d2.coefficient((4,)) == QRatFn.one()
    assert d2.coefficient((2,)) == -(s + 2)
    assert d2.coefficient((0,)) == 2 + s * 2
    assert d2.coefficient((-2,)) == -(s + 2)
    assert d2.bar(A1) == d2


def test_cached_density_is_shared_and_read_only():
    # every context of (n, k) shares the cached density, so no caller may
    # write to it
    delta = build_context(3, 2, 1).delta
    assert delta is build_context(3, 2, 2).delta
    with pytest.raises(TypeError):
        delta[(0, 0)] = ((0, 1),)


def test_delta_bar_invariant_a2():
    d = delta_k_product(A2, 2)
    assert d.bar(A2) == d


def test_sign_calibration():
    # |R+| odd for the rank-one and rank-two type A systems
    assert build_context(2, 1, 2).sigma == -1     # (-1)^k = (-1)^|R+| = -1
    assert build_context(2, 2, 2).sigma == 1
    assert build_context(3, 1, 1).sigma == -1
    assert build_context(3, 2, 1).sigma == 1
    # the calibrated sign follows (-1)^(k |R+|)
    for n, k in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
        ctx = build_context(n, k, 1)
        rplus = len(ctx.rs.positive_roots)
        assert ctx.sigma == (-1) ** (k * rplus)


def test_inner_product_examples():
    ctx = build_context(2, 1, 3)
    one = WPoly.one(1)
    assert inner_product_k(ctx, one, one) == QRatFn.one()
    ctx2 = build_context(2, 2, 3)
    assert inner_product_k(ctx2, one, one) == q_number(3)


def test_inner_product_hermitian():
    ctx = build_context(2, 2, 3)
    f = monomial_sum(A1, (2,))
    g = monomial_sum(A1, (4,)) + WPoly.one(1)
    assert inner_product_k(ctx, g, f) == inner_product_k(ctx, f, g).bar()


def test_polynomial_unit():
    ctx = build_context(3, 2, 2)
    assert macdonald_polynomial(ctx, ctx.rs.zero) == WPoly.one(2)


def test_rank_one_k2_worked_polynomial():
    ctx = build_context(2, 2, 2)
    p = macdonald_polynomial(ctx, (2,))
    want_const = q_number(2) * q_number(2) / q_number(3)
    assert p.coefficient((2,)) == QRatFn.one()
    assert p.coefficient((-2,)) == QRatFn.one()
    assert p.coefficient((0,)) == want_const
    assert len(p.terms) == 3


def test_k1_polynomials_are_characters():
    ctx = build_context(3, 1, 2)
    for lam in enumerate_alcove(A2, 2 + A2.dual_coxeter):
        want = WPoly({w: QRatFn.from_rational(m)
                      for w, m in weight_multiplicities(A2, lam).items()})
        assert macdonald_polynomial(ctx, lam) == want


def test_norm_formula_values():
    # empty product at k = 1
    for lam in [(0,), (3,)]:
        assert norm_formula(A1, 1, lam) == QRatFn.one()
    # rank one, k = 2: [l+3]/[l+1]
    for l in range(5):
        assert (norm_formula(A1, 2, (l,))
                == q_number(l + 3) / q_number(l + 1))


def test_cached_norm_formula_takes_any_weight_sequence():
    want = norm_formula(A2, 2, (1, 1))
    assert norm_formula(A2, 2, [1, 1]) == want
    assert norm_formula(A2, 2, [1, 1]) is want
    for bad in [(1,), [1, 1, 0]]:
        with pytest.raises(ValueError, match="rank mismatch: expected 2"):
            norm_formula(A2, 2, bad)


def test_norms_match_closed_form():
    for n, k, bound in [(2, 2, 4), (2, 3, 3), (3, 2, 2)]:
        ctx = build_context(n, k, bound)
        for lam in enumerate_alcove(ctx.rs, bound + ctx.rs.dual_coxeter):
            assert macdonald_norm(ctx, lam) == norm_formula(ctx.rs, k, lam)


def test_orthogonality_grid():
    ctx = build_context(2, 2, 4)
    grid = enumerate_alcove(A1, 4 + A1.dual_coxeter)
    for a, lam in enumerate(grid):
        for mu in grid[a + 1:]:
            val = inner_product_k(ctx, macdonald_polynomial(ctx, lam),
                                  macdonald_polynomial(ctx, mu))
            assert val.is_zero()


def value_at(ctx, lam, point):
    """P_lam at eps^point, term by term: c(eps^(1/2)) eps^((w, point))."""
    acc = CycNum.zero()
    for w, c in macdonald_polynomial(ctx, lam).terms.items():
        acc = acc + c.eval_at_epsilon(1, ctx.kappa) * epsilon_power(
            form(ctx.rs, w, point), 1, ctx.kappa)
    return acc


def test_bar_symmetry_and_point_symmetry():
    ctx = build_context(3, 2, 2)
    for lam in ctx.alcove:
        p = macdonald_polynomial(ctx, lam)
        assert p.bar(ctx.rs) == macdonald_polynomial(ctx, star(ctx.rs, lam))
    # conj(P_lam(eps^mu)) = P_{lam*}(eps^mu) = P_lam(eps^{-mu})
    for lam in ctx.alcove:
        for mu in ctx.alcove:
            point = wscale(-2, wadd(mu, wscale(ctx.k, ctx.rs.rho)))
            conj_val = value_at(ctx, lam, point).conjugate()
            assert conj_val == value_at(ctx, star(ctx.rs, lam), point)
            assert conj_val == value_at(ctx, lam, wscale(-1, point))
    # the special values of build_su_data are these values at x_mu
    values = build_su_data(ctx).values
    for l, lam in enumerate(ctx.alcove):
        for m, mu in enumerate(ctx.alcove):
            point = wscale(-2, wadd(mu, wscale(ctx.k, ctx.rs.rho)))
            assert values[l][m] == value_at(ctx, lam, point)


def test_specialization_pole_free_on_sub_alcove():
    for n, k, K in [(2, 2, 2), (2, 3, 1), (3, 2, 1)]:
        ctx = build_context(n, k, K)
        values = build_su_data(ctx).values   # must not raise
        assert len(values) == len(ctx.alcove)


def test_specialization_k1_matches_characters():
    ctx = build_context(2, 1, 2)
    from modcat.chardata import char_value
    values = build_su_data(ctx).values
    for l, lam in enumerate(ctx.alcove):
        for m, mu in enumerate(ctx.alcove):
            point = wscale(-2, wadd(mu, ctx.rs.rho))
            assert values[l][m] == char_value(ctx.rs, ctx.kappa, lam, point)


def test_su_matrices_scalar_case():
    # single-object case: S is 1x1 and squares to the conjugation scalar
    ctx = build_context(2, 2, 0)
    su = build_su_data(ctx)
    assert len(su.alcove) == 1
    s00 = su.smatrix[0][0]
    assert s00 * s00 == su.conj_scalar
    # value check: -exp(i pi / 4)
    import cmath
    assert abs(s00.to_complex() + cmath.exp(1j * cmath.pi / 4)) < 1e-12


def test_su_t_entry_at_zero():
    ctx = build_context(2, 2, 2)
    su = build_su_data(ctx)
    rho_norm = form(ctx.rs, ctx.rs.rho, ctx.rs.rho)
    exp = (ctx.k ** 2) * rho_norm - Fraction(ctx.kappa, ctx.n) * rho_norm
    from modcat.numeric import epsilon_power
    assert su.tmatrix[0][0] == epsilon_power(exp, 1, ctx.kappa)


def test_d_coefficient_nonzero_on_sub_alcove():
    ctx = build_context(3, 2, 1)
    for lam in ctx.alcove:
        assert not d_coefficient(ctx, lam).is_zero()


def test_section5_reports_pass():
    for n, k, K in [(2, 1, 2), (2, 2, 2), (2, 3, 1), (3, 2, 1)]:
        ctx = build_context(n, k, K)
        rep = verify_section5(ctx)
        assert rep.passed, [c.name for c in rep.checks if c.status == "fail"]


CONJ_PRODUCT = "conjugation scalars of S^2 and the dual basis map are inverse"
CONJ_SQUARE = "conj_scalar^2 = 1 / twist_u"


@pytest.mark.parametrize("scale,failing", [
    (CycNum.from_rational(2), {CONJ_PRODUCT, CONJ_SQUARE}),
    (CycNum.root_of_unity(8, 1), {CONJ_SQUARE}),
])
def test_scaled_s_fails_the_conjugation_scalar_checks(monkeypatch, scale,
                                                      failing):
    # both checks read kappa_C off S^2 and the dual-basis phase off S, so a
    # rescaled S breaks them while SUData's own scalars stay right; a phase
    # z scales kappa_C by z^2 and the dual-basis phase by z^-2
    import modcat.macdonald as macdonald
    build = macdonald.build_su_data

    def scaled(ctx):
        su = build(ctx)
        return su._replace(smatrix=[[scale * x for x in row]
                                    for row in su.smatrix])

    monkeypatch.setattr(macdonald, "build_su_data", scaled)
    for n, k, K in [(2, 2, 2), (3, 2, 2)]:
        rep = verify_section5(build_context(n, k, K))
        failed = {c.name for c in rep.checks if c.status == "fail"}
        assert failed & {CONJ_PRODUCT, CONJ_SQUARE} == failing, (n, k, K)


EVALUATION_SYMMETRY = "explicit symmetry through polynomial special values"


@pytest.mark.parametrize("n,k,K", [(2, 2, 2), (3, 2, 1), (3, 1, 2)])
def test_perturbed_polynomial_fails_evaluation_symmetry(n, k, K):
    ctx = build_context(n, k, K)
    rep = verify_section5(ctx)
    names = [c.name for c in rep.checks]
    assert rep.passed and EVALUATION_SYMMETRY in names
    # P_lam + 1 in place of one P_lam, lam != 0; the suite takes its norms
    # from norm_formula, so only the special values change
    lam = ctx.alcove[-1]
    assert lam != ctx.rs.zero
    ctx._polys[lam] = macdonald_polynomial(ctx, lam) + WPoly(
        {ctx.rs.zero: QRatFn.one()})
    rep = verify_section5(ctx)
    assert [c.name for c in rep.checks] == names
    failed = {c.name: c.witness for c in rep.checks if c.status == "fail"}
    assert failed[EVALUATION_SYMMETRY]


def test_pole_in_a_specialized_coefficient_is_the_only_check():
    # a coefficient 1 / Phi_{4 kappa}(v) has a pole at v = eps^(1/2): the
    # suite stops after its first check and names lambda and the weight
    ctx = build_context(3, 2, 2)
    lam = (0, 2)
    ctx._polys[lam] = macdonald_polynomial(ctx, lam) + WPoly(
        {(1, 1): QRatFn((1,), cyclotomic_polynomial(4 * ctx.kappa))})
    rep = verify_section5(ctx)
    assert [(c.name, c.status, c.witness) for c in rep.checks] == [(
        "specialization pole-free on the sub-alcove", "fail",
        "(0, 2): coefficient at weight (1, 1): pole at the root of unity "
        "(lacing 1, kappa 8): denominator 1 + 1*v^16 vanishes")]


def test_norm_criterion_detects_boundary():
    # k = 2, level 2: the norm vanishes at the first level beyond the
    # sub-alcove and the suite's box stops inside the theorem's domain
    ctx = build_context(2, 2, 2)
    inside = norm_formula(A1, 2, (2,)).eval_at_epsilon(1, ctx.kappa)
    outside = norm_formula(A1, 2, (3,)).eval_at_epsilon(1, ctx.kappa)
    assert not inside.is_zero()
    assert outside.is_zero()


NORM_CRITERION = "norm at the root of unity vanishes exactly off the sub-alcove"


@pytest.mark.parametrize("norm,witness", [
    # a nonzero norm just beyond the sub-alcove
    (QRatFn.one(), "(3,): norm nonzero True vs in sub-alcove False"),
    # a norm with a pole at v = eps^(1/2)
    (QRatFn((1,), cyclotomic_polynomial(24)),
     "pole at (3,): pole at the root of unity (lacing 1, kappa 6): "
     "denominator 1 + -1*v^4 + 1*v^8 vanishes"),
], ids=["nonzero", "pole"])
def test_norm_criterion_witnesses(monkeypatch, norm, witness):
    # the box of the criterion reaches (3,), outside the sub-alcove and so
    # read by no other check
    import modcat.macdonald as macdonald

    closed = macdonald.norm_formula
    monkeypatch.setattr(macdonald, "norm_formula", lambda rs, k, lam: (
        norm if lam == (3,) else closed(rs, k, lam)))
    ctx = build_context(2, 2, 2)
    assert (3,) not in ctx.alcove
    failed = {c.name: c.witness for c in verify_section5(ctx).checks
              if c.status == "fail"}
    assert failed == {NORM_CRITERION: witness}


def test_invalid_context_arguments():
    with pytest.raises(ValueError):
        build_context(1, 1, 1)
    with pytest.raises(ValueError):
        build_context(2, 0, 1)
    with pytest.raises(ValueError):
        build_context(2, 1, -1)


def test_wpoly_invariance_checker():
    sym = monomial_sum(A2, (1, 1))
    assert sym.is_w_invariant(A2)
    broken = WPoly({(1, 1): QRatFn.one()})
    assert not broken.is_w_invariant(A2)
    # the orbit sizes are counted off the support, and decided once
    assert sym.orbit_terms(A2) == (((1, 1), 6, QRatFn.one()),)
    assert sym.orbit_terms(A2) is sym.orbit_terms(A2)
    two = QRatFn.from_rational(2)
    both = monomial_sum(A2, (1, 0)) + monomial_sum(A2, (0, 0)).scale(two)
    assert sorted(both.orbit_terms(A2)) == [((0, 0), 1, two),
                                           ((1, 0), 3, QRatFn.one())]
    assert broken.orbit_terms(A2) is None
    assert WPoly({}).orbit_terms(A2) == ()


# -- the generic suite's witnesses ----------------------------------------------
#
# verify_generic_macdonald(3, 2, 2) on a context whose P_(1,1) is perturbed
# to P': no grid weight lies above (1, 1), so no other P_lam is built from it
# and only the checks that read P_(1,1) fail.  The norm check prints
# <m_(1,1), P'>, which equals <P', P'> only when P' is P_(1,1).

ORTHOGONALITY = "pairwise orthogonality"
NORMS = "constant-term norms equal the closed product"
TRIANGULARITY = "unit leading coefficient and triangular support"
WEYL = "Weyl invariance"
HERMITIAN = "hermitian symmetry of the pairing"

NORM_11 = ("QRatFn((1*v^-12 + 1*v^-8 + 3*v^-4 + 3 + 4*v^4 + 4*v^8 + 4*v^12 + "
           "3*v^16 + 3*v^20 + 1*v^24 + 1*v^28) / (1 + 1*v^4 + 1*v^8 + "
           "1*v^12 + 1*v^16))")


def _failed_checks(rep):
    return {c.name: c.witness for c in rep.checks if c.status == "fail"}


@pytest.mark.parametrize("extra,witnesses", [
    # a doubled leading term
    ({(1, 1): QRatFn.one()}, {
        TRIANGULARITY: "leading coefficient of (1, 1): QRatFn(2) vs QRatFn(1)",
        ORTHOGONALITY: (
            "((0, 0), (1, 1)): QRatFn(-1/3*v^-12 + -5/6*v^-8 + -7/6*v^-4 + "
            "-4/3 + -7/6*v^4 + -5/6*v^8 + -1/3*v^12) vs 0"),
        NORMS: (
            "(1, 1): QRatFn((11/6*v^-12 + 23/6*v^-8 + 9*v^-4 + 37/3 + "
            "33/2*v^4 + 53/3*v^8 + 33/2*v^12 + 37/3*v^16 + 9*v^20 + "
            "23/6*v^24 + 11/6*v^28) / (1 + 1*v^4 + 1*v^8 + 1*v^12 + "
            "1*v^16)) vs " + NORM_11),
        WEYL: "(1, 1): P_lam is not invariant under the simple reflections",
    }),
    # one term above (1, 1) in dominance
    ({(3, 0): QRatFn.one()}, {
        TRIANGULARITY: "support of (1, 1) leaks to (3, 0)",
        ORTHOGONALITY: (
            "((0, 0), (1, 1)): QRatFn(1/3*v^-12 + 1*v^-8 + 5/3*v^-4 + 2 + "
            "5/3*v^4 + 1*v^8 + 1/3*v^12) vs 0"),
        NORMS: (
            "(1, 1): QRatFn((-8/3*v^-8 + -16/3*v^-4 + -32/3 + -43/3*v^4 + "
            "-16*v^8 + -43/3*v^12 + -32/3*v^16 + -16/3*v^20 + -8/3*v^24) / "
            "(1 + 1*v^4 + 1*v^8 + 1*v^12 + 1*v^16)) vs " + NORM_11),
        "bar sends P_lam to P_{lam*}": "(1, 1): bar P_lam differs from P_(1, 1)",
        WEYL: "(1, 1): P_lam is not invariant under the simple reflections",
    }),
], ids=["lead", "leak"])
def test_perturbed_polynomial_witnesses(monkeypatch, extra, witnesses):
    import modcat.macdonald as macdonald

    ctx = build_context(3, 2, 2)
    lam = (1, 1)
    assert not any(dominance_leq(ctx.rs, lam, mu) for mu in ctx.alcove
                   if mu != lam)
    ctx._polys[lam] = macdonald_polynomial(ctx, lam) + WPoly(extra)
    monkeypatch.setattr(macdonald, "build_context", lambda n, k, bound: ctx)
    rep = macdonald.verify_generic_macdonald(3, 2, 2)
    assert _failed_checks(rep) == witnesses


@pytest.mark.parametrize("n,k,bound,calls", [
    (3, 2, 2, 30), (2, 3, 4, 25), (3, 3, 2, 30)])
def test_generic_suite_pairs_each_ordered_pair_once(monkeypatch, n, k, bound,
                                                    calls):
    # Gram-Schmidt and the norms pair m_lam with P_mu; the orthogonality
    # and hermitian checks share one <P_lam, P_mu> per ordered pair
    import modcat.macdonald as macdonald

    pairing, seen = macdonald.inner_product_k, []

    def counted(ctx, f, g):
        seen.append(1)
        return pairing(ctx, f, g)

    monkeypatch.setattr(macdonald, "inner_product_k", counted)
    assert macdonald.verify_generic_macdonald(n, k, bound).passed
    assert len(seen) == calls


def test_non_hermitian_pairing_witnesses(monkeypatch):
    # the pairing times v: the Gram-Schmidt quotients and so every P_lam
    # stay, zero stays zero, and the pairing is no longer hermitian
    import modcat.macdonald as macdonald

    pairing = macdonald.inner_product_k
    monkeypatch.setattr(macdonald, "inner_product_k", lambda ctx, f, g: (
        pairing(ctx, f, g) * QRatFn.monomial(1)))
    rep = macdonald.verify_generic_macdonald(3, 2, 2)
    assert _failed_checks(rep) == {
        NORMS: (
            "(0, 0): QRatFn(1*v^-11 + 2*v^-7 + 3*v^-3 + 3*v^1 + 3*v^5 + "
            "2*v^9 + 1*v^13) vs QRatFn(1*v^-12 + 2*v^-8 + 3*v^-4 + 3 + "
            "3*v^4 + 2*v^8 + 1*v^12)"),
        HERMITIAN: (
            "((0, 0), (0, 0)): QRatFn(1*v^-11 + 2*v^-7 + 3*v^-3 + 3*v^1 + "
            "3*v^5 + 2*v^9 + 1*v^13) vs QRatFn(1*v^-13 + 2*v^-9 + 3*v^-5 + "
            "3*v^-1 + 3*v^3 + 2*v^7 + 1*v^11)"),
    }


# -- the QRatFn-per-step routes, as independent checkers ----------------------
#
# delta_k_product, inner_product_k and norm_formula sum in integer Laurent
# coefficients and normalise once per result (per denominator pair in the
# pairing).  These copies normalise after every step instead: the density as
# a WPoly product of its factors, the pairing as the full product f bar(g)
# matched against delta, and the norm as a running q-number quotient.
# macdonald_polynomial pairs each P_mu with the monomial sum m_lam and
# macdonald_norm is <m_lam, P_lam>; the reference is modified Gram-Schmidt,
# which pairs P_mu with the partly reduced polynomial, with norms
# <P_lam, P_lam>.

def stepwise_delta(rs, k):
    out = WPoly.one(rs.rank)
    for i in range(k):
        gap = QRatFn.monomial(4 * i) + QRatFn.monomial(-4 * i)
        for alpha in rs.positive_roots:
            out = out * WPoly({alpha: QRatFn.one(), rs.zero: -gap,
                               wneg(alpha): QRatFn.one()})
    return out


def full_product_pairing(ctx, f, g):
    h = f * g.bar(ctx.rs)
    delta = delta_k_product(ctx.rs, ctx.k)
    acc = QRatFn.zero()
    for w, c in h.terms.items():
        d = delta.terms.get(wneg(w))
        if d is not None:
            acc = acc + c * d
    return acc * Fraction(ctx.sigma, ctx.group_order)


def stepwise_norm(rs, k, lam):
    out = QRatFn.one()
    shifted = wadd(lam, wscale(k, rs.rho))
    for alpha in rs.positive_roots:
        x = int(form(rs, alpha, shifted))
        for i in range(1, k):
            out = out * q_number(x + i) / q_number(x - i)
    return out


def modified_gram_schmidt(ctx):
    """(polys, norms) over the alcove of ctx, each P_lam reduced in turn
    against every lower P_mu, and each norm <P_lam, P_lam>."""
    polys, norms = {}, {}

    def build(lam):
        if lam in polys:
            return polys[lam]
        p = monomial_sum(ctx.rs, lam)
        for mu in dominant_weights_below(ctx.rs, lam):
            if mu != lam:
                p_mu = build(mu)
                p = p - p_mu.scale(inner_product_k(ctx, p, p_mu) / norms[mu])
        polys[lam] = p
        norms[lam] = inner_product_k(ctx, p, p)
        return p

    for lam in ctx.alcove:
        build(lam)
    return polys, norms


@pytest.mark.parametrize("n,k,bound", [(2, 3, 4), (3, 2, 3), (3, 3, 2),
                                       (4, 2, 2)])
def test_polynomials_match_modified_gram_schmidt(n, k, bound):
    ctx = build_context(n, k, bound)
    polys, norms = modified_gram_schmidt(ctx)
    for lam, p in polys.items():
        assert macdonald_polynomial(ctx, lam) == p, lam
        assert macdonald_norm(ctx, lam) == norms[lam], lam


# A1-A3 with k = 1-3, except A3 at k = 3, whose stepwise density alone
# takes ~18 s (2-vCPU Xeon, Python 3.11); the pairing and norm comparisons
# cover that case
@pytest.mark.parametrize("n,k", [(n, k) for n in (2, 3, 4) for k in (1, 2, 3)
                                 if (n, k) != (4, 3)])
def test_delta_matches_stepwise_product(n, k):
    rs = build_root_system("A", n - 1)
    assert delta_k_product(rs, k) == stepwise_delta(rs, k)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_norm_formula_matches_stepwise_quotient(n, k):
    rs = build_root_system("A", n - 1)
    for lam in enumerate_alcove(rs, 3 - n + k + rs.dual_coxeter):
        assert norm_formula(rs, k, lam) == stepwise_norm(rs, k, lam)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("k", [2, 3])
def test_norm_formula_matches_stepwise_quotient_off_the_alcove(n, k):
    # non-dominant weights: negative q-numbers [-m] = -[m], a factor
    # [0] = 0 in the numerator, and [0] in the denominator, which raises
    rs = build_root_system("A", n - 1)
    seen = set()
    for lam in itertools.product(range(-2 * k - 1, 2), repeat=n - 1):
        try:
            want = stepwise_norm(rs, k, lam)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                norm_formula(rs, k, lam)
            seen.add("pole")
            continue
        got = norm_formula(rs, k, lam)
        assert got == want, lam
        assert (got.low, got.num, got.den) == (want.low, want.num, want.den)
        seen.add("zero" if got.is_zero() else "nonzero")
    assert seen == {"pole", "zero", "nonzero"}


def _denominators(p):
    return {c.den for c in p.terms.values() if not c.is_polynomial()}


@pytest.mark.parametrize("n,bound", [(2, 4), (3, 2), (4, 1)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_pairing_matches_full_product_on_polynomials(n, k, bound):
    ctx = build_context(n, k, bound)
    polys = [macdonald_polynomial(ctx, lam) for lam in
             enumerate_alcove(ctx.rs, bound + ctx.rs.dual_coxeter)]
    # a sum of two polynomials whose coefficients carry different
    # non-trivial denominators, so that one pairing sums several groups
    mixed = [p + q.scale(q_number(2)) for p in polys for q in polys
             if _denominators(p) and _denominators(q)
             and _denominators(p) != _denominators(q)][:1]
    if k > 1 and n < 4:
        assert mixed
    # one term more at a weight whose orbit has more than one point: the
    # pairing must take the full loop whenever f or g is such a polynomial
    top = max(ctx.alcove)
    broken = [polys[0] + WPoly({top: q_number(2)})]
    assert all(p.orbit_terms(ctx.rs) is not None for p in polys + mixed)
    assert broken[0].orbit_terms(ctx.rs) is None
    for f in polys + mixed + broken:
        for g in polys + mixed + broken:
            assert (inner_product_k(ctx, f, g)
                    == full_product_pairing(ctx, f, g))


def _random_coefficient(rng):
    # denominators as (low, coefficients from v^low up)
    dens = [(0, (1,)), (q_number(2).low, q_number(2).num),
            (q_number(3).low, q_number(3).num),
            (0, (Fraction(1, 3), Fraction(0), Fraction(1))),
            (-2, (Fraction(2), Fraction(-1, 2), Fraction(5)))]
    low = rng.randrange(-6, 6)
    num = [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
           for _ in range(rng.randrange(1, 5))]
    if not any(num):
        low, num = 0, [1]
    den_low, den = rng.choice(dens)
    ints, _ = _clear_denominators(num + list(den))
    return QRatFn(ints[:len(num)], ints[len(num):], low - den_low)


@pytest.mark.parametrize("n,k", [(2, 2), (3, 1), (3, 2), (4, 2)])
def test_pairing_matches_full_product_on_random_polys(n, k):
    rng = random.Random(100 * n + k)
    ctx = build_context(n, k, 1)
    rank = ctx.rs.rank

    def random_poly():
        return WPoly({tuple(rng.randrange(-2, 3) for _ in range(rank)):
                      _random_coefficient(rng) for _ in range(4)})

    nonzero = 0
    for _ in range(4):
        f, g = random_poly(), random_poly()
        got = inner_product_k(ctx, f, g)
        assert got == full_product_pairing(ctx, f, g)
        nonzero += not got.is_zero()
    assert nonzero


def test_section5_evaluates_each_special_value_once(monkeypatch):
    # build_su_data computes the table of P_l(x_m) in one call, and the
    # explicit-symmetry check reads those values from SUData
    import modcat.macdonald as macdonald

    ctx = build_context(3, 2, 2)
    calls = []
    special_values = macdonald._special_values

    def counted(ctx, points):
        calls.append(points)
        return special_values(ctx, points)

    monkeypatch.setattr(macdonald, "_special_values", counted)
    assert verify_section5(ctx).passed
    assert len(calls) == 1 and len(calls[0]) == len(ctx.alcove)


def section5_points(ctx):
    """The points x_m = eps^(-2(m + k rho)) of build_su_data."""
    shift = wscale(ctx.k, ctx.rs.rho)
    return [wscale(-2, wadd(lam, shift)) for lam in ctx.alcove]


def term_by_term_values(ctx, points):
    """P_l(x_m) as the sum of x zeta^e over the sorted terms of P_l, one
    power of the root of unity per weight."""
    from modcat.chardata import _eps_order
    from modcat.lie import _dot, _gram_vector

    order = _eps_order(ctx.rs, ctx.kappa)
    vectors = [_gram_vector(ctx.rs, p) for p in points]
    rows = []
    for lam in ctx.alcove:
        terms = [(w, c.eval_at_epsilon(1, ctx.kappa))
                 for w, c in macdonald_polynomial(ctx, lam).sorted_terms()]
        rows.append(tuple(
            sum((x * CycNum.root_of_unity(order, _dot(w, v))
                 for w, x in terms), CycNum.zero())
            for v in vectors))
    return tuple(rows)


# the section-5 cases of the macdonald-generic benchmark, and (3, 1, 5)
@pytest.mark.parametrize("n,k,level", [
    (2, 1, 2), (2, 2, 2), (2, 3, 1), (3, 2, 1), (3, 2, 2), (3, 1, 5)])
def test_special_values_match_term_by_term_sums(n, k, level):
    from modcat.macdonald import _special_values

    ctx = build_context(n, k, level)
    points = section5_points(ctx)
    assert _special_values(ctx, points) == term_by_term_values(ctx, points)


def test_special_values_of_a_polynomial_that_is_not_w_invariant():
    # the coefficient [2] spans weights of the orbits of w1 and w2, the orbit
    # of w1 carries both [2] and 3, and Phi_{4 kappa}(v) vanishes at the root
    # of unity: the classes of equal coefficients are not the orbits
    from modcat.macdonald import _special_values

    ctx = build_context(3, 2, 2)
    for lam in ctx.alcove:
        macdonald_polynomial(ctx, lam)
    two, three = q_number(2), QRatFn.from_rational(3)
    poly = WPoly({(1, 0): two, (0, 1): two, (-1, 1): three, (0, -1): three,
                  (1, 1): QRatFn(cyclotomic_polynomial(4 * ctx.kappa))})
    assert not poly.is_w_invariant(ctx.rs)
    ctx._polys[ctx.alcove[-1]] = poly
    points = section5_points(ctx)
    got = _special_values(ctx, points)
    assert got == term_by_term_values(ctx, points)
    assert any(not x.is_zero() for x in got[-1])
