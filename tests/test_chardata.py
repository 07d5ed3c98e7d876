import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from modcat.chardata import (_binomial_product, alternating_sum, char_value,
                             dominant_weights_below, is_dominant, quantum_dim,
                             vanishing_criterion, weight_multiplicities,
                             weyl_denominator_value, weyl_dimension)
from modcat.lie import (_gram_vector, build_root_system, form,
                        root_alpha_coords, wadd, wscale, wsub)
from modcat.fusion import classical_tensor
from modcat.macdonald import build_context, d_coefficient, d_prefactor
from modcat.modular import twist
from modcat.numeric import (CycNum, QRatFn, _clear_denominators,
                            _prime_factors, epsilon_power, sqrt_of_int)
from modcat.weyl import (enumerate_alcove, fold_to_alcove, make_dominant,
                         star, weyl_orbit)

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
B2 = build_root_system("B", 2)
G2 = build_root_system("G", 2)


def test_trivial_module():
    mults = weight_multiplicities(A1, (0,))
    assert mults == {(0,): 1}


def test_a1_three_dimensional():
    mults = weight_multiplicities(A1, (2,))
    assert mults == {(2,): 1, (0,): 1, (-2,): 1}


def test_a2_adjoint():
    mults = weight_multiplicities(A2, A2.highest_root)
    assert mults[(0, 0)] == 2
    root_weights = [w for w in mults if w != (0, 0)]
    assert len(root_weights) == 6
    assert all(mults[w] == 1 for w in root_weights)


def test_non_dominant_rejected():
    with pytest.raises(ValueError):
        weight_multiplicities(A2, (-1, 0))
    with pytest.raises(ValueError):
        quantum_dim(A2, 4, (-1, 0))


def test_cached_multiplicities_are_read_only():
    # every caller shares the cached diagram, so no caller may write to it
    mults = weight_multiplicities(A2, (1, 0))
    with pytest.raises(TypeError):
        mults[(1, 0)] = 2
    assert classical_tensor(A2, (1, 0), (1, 0)) == {(2, 0): 1, (0, 1): 1}


@pytest.mark.parametrize("rs,lam", [
    (A1, (4,)), (A2, (2, 1)), (B2, (1, 2)), (G2, (1, 1)),
])
def test_multiplicities_sum_to_weyl_dimension(rs, lam):
    mults = weight_multiplicities(rs, lam)
    assert sum(mults.values()) == weyl_dimension(rs, lam)
    # W-invariance of the diagram
    for w, mult in mults.items():
        for i in range(rs.rank):
            img = tuple(w[k] - w[i] * rs.cartan[k][i] for k in range(rs.rank))
            assert mults.get(img) == mult
    assert mults[lam] == 1


def test_known_dimensions():
    assert weyl_dimension(A2, (1, 0)) == 3
    assert weyl_dimension(A2, (1, 1)) == 8
    assert weyl_dimension(B2, (0, 1)) == 4
    assert weyl_dimension(B2, (1 , 0)) == 5
    assert weyl_dimension(G2, (1, 0)) == 7
    assert weyl_dimension(G2, (0, 1)) == 14


def test_char_of_unit():
    for rs, kappa in [(A1, 3), (A2, 5), (G2, 5)]:
        for point in [rs.zero, wscale(2, rs.rho), wscale(-2, rs.rho)]:
            assert char_value(rs, kappa, rs.zero, point) == CycNum.one()


def test_char_examples():
    assert char_value(A1, 3, (1,), wscale(2, A1.rho)).as_fraction() == 1
    v = char_value(A1, 4, (1,), wscale(2, A1.rho))
    z8 = CycNum.root_of_unity(8, 1)
    assert v == z8 + z8.conjugate()


def test_char_ratio_matches_weight_sum():
    # the Weyl ratio, numerator over denominator, equals the weight sum at
    # the regular points of the s-matrix
    for rs, kappa in [(A1, 4), (A2, 5), (B2, 4)]:
        alcove = enumerate_alcove(rs, kappa)
        for lam in alcove:
            mults = weight_multiplicities(rs, lam)
            for mu in alcove:
                point = wscale(-2, wadd(mu, rs.rho))
                ratio = (alternating_sum(rs, kappa, wadd(lam, rs.rho), point)
                         / weyl_denominator_value(rs, kappa, point))
                direct = CycNum.zero()
                for w, mult in sorted(mults.items()):
                    direct = direct + epsilon_power(
                        fraction_form(rs, w, point), rs.lacing, kappa) * mult
                assert ratio == direct == char_value(rs, kappa, lam, point)


def test_char_affine_invariance():
    # W-invariant functions cannot see the level-kappa affine action
    rng = random.Random(4)
    rs, kappa = A2, 5
    for _ in range(25):
        lam = tuple(rng.randrange(0, 3) for _ in range(2))
        mu = tuple(rng.randrange(-6, 7) for _ in range(2))
        folded = fold_to_alcove(rs, kappa, mu).representative
        p1 = wscale(-2, wadd(mu, rs.rho))
        p2 = wscale(-2, wadd(folded, rs.rho))
        assert char_value(rs, kappa, lam, p1) == char_value(rs, kappa, lam, p2)


def test_char_fold_of_non_dominant_weights():
    # ch_lam = sign ch_(dom - rho) for lam + rho folded to dom, also at a
    # singular point: on A1, ch_-3 = -ch_1, whose value at eps^0 is -dim
    assert char_value(A1, 3, (-3,), (0,)) == -2
    # lam + rho on a wall gives zero
    assert char_value(A1, 3, (-1,), (0,)).is_zero()
    assert char_value(A1, 3, (-1,), (1,)).is_zero()
    # the fold equals the Weyl ratio wherever the denominator is nonzero
    rng = random.Random("fold")
    for rs, kappa in [(A2, 5), (B2, 4), (G2, 5)]:
        regular = 0
        while regular < 8:
            lam = tuple(rng.randrange(-5, 3) for _ in range(rs.rank))
            point = tuple(rng.randrange(-6, 7) for _ in range(rs.rank))
            den = weyl_denominator_value(rs, kappa, point)
            if den.is_zero() or is_dominant(lam):
                continue
            regular += 1
            ratio = alternating_sum(rs, kappa, wadd(lam, rs.rho), point) / den
            assert char_value(rs, kappa, lam, point) == ratio, (lam, point)


def test_quantum_dim_examples():
    assert quantum_dim(A1, 3, (0,)) == CycNum.one()
    assert quantum_dim(A1, 3, (1,)) == CycNum.one()
    assert quantum_dim(A1, 3, (2,)).is_zero()


def test_quantum_dim_real_and_star_invariant():
    for rs, kappa in [(A2, 5), (B2, 5), (G2, 6)]:
        for lam in enumerate_alcove(rs, kappa):
            d = quantum_dim(rs, kappa, lam)
            assert d.conjugate() == d
            assert d == quantum_dim(rs, kappa, star(rs, lam))
            z = d.to_complex()
            assert z.real > 0 and abs(z.imag) < 1e-12


def test_quantum_dim_sine_product():
    for rs, kappa in [(A1, 5), (A2, 6), (B2, 5), (G2, 6)]:
        for lam in enumerate_alcove(rs, kappa):
            got = quantum_dim(rs, kappa, lam).to_complex()
            want = 1.0
            shifted = wadd(lam, rs.rho)
            for alpha in rs.positive_roots:
                want *= (math.sin(math.pi * float(form(rs, alpha, shifted))
                                  / kappa)
                         / math.sin(math.pi * float(form(rs, alpha, rs.rho))
                                    / kappa))
            assert abs(got - want) < 1e-9


def test_quantum_dim_two_rho_points_agree():
    # the q-Weyl product and the alternating sums at +2 rho and -2 rho
    for rs, kappa in [(A2, 5), (G2, 5)]:
        for lam in enumerate_alcove(rs, kappa):
            dim = quantum_dim(rs, kappa, lam)
            assert dim == char_value(rs, kappa, lam, wscale(2, rs.rho))
            assert dim == char_value(rs, kappa, lam, wscale(-2, rs.rho))


def test_weyl_denominator_values():
    d = weyl_denominator_value(A1, 3, wscale(-2, A1.rho))
    z6 = CycNum.root_of_unity(6, 1)
    assert d == z6.conjugate() - z6
    assert abs(d.to_complex() - (-1j * math.sqrt(3))) < 1e-12
    assert weyl_denominator_value(A2, 4, A2.zero).is_zero()
    d = weyl_denominator_value(A2, 4, wscale(-2, A2.rho))
    want = ((-2j * math.sin(math.pi / 4)) ** 2
            * (-2j * math.sin(2 * math.pi / 4)))
    assert abs(d.to_complex() - want) < 1e-12


def test_vanishing_criterion_examples():
    for lam in enumerate_alcove(A1, 3):
        assert not vanishing_criterion(A1, 3, lam)
    assert vanishing_criterion(A1, 3, (2,))   # affine wall
    assert vanishing_criterion(A1, 3, (5,))


@pytest.mark.parametrize("rs,kappa", [(A1, 3), (A1, 6), (A2, 4), (A2, 6),
                                      (B2, 4), (G2, 5)])
def test_vanishing_criterion_matches_dimension(rs, kappa):
    for lam in itertools.product(range(4), repeat=rs.rank):
        assert (vanishing_criterion(rs, kappa, lam)
                == quantum_dim(rs, kappa, lam).is_zero())


# The Fraction-exponent formulas the integer Gram matrix replaced, kept as
# the reference: every exponent is a Fraction from a Gram matrix the test
# builds itself, and every root of unity goes through epsilon_power.

@functools.lru_cache(maxsize=None)
def fraction_gram(rs):
    """(omega_i, omega_j)' = d_i (A^-1)_ij as Fractions, A^-1 by the
    test's own Gauss-Jordan elimination, not from rs.gram."""
    n = rs.rank
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j))
                                         for j in range(n)]
           for i, row in enumerate(rs.cartan)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            f = aug[r][col]
            if r != col and f:
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [[d * x for x in row[n:]] for d, row in zip(rs.symmetrizers, aug)]


def fraction_form(rs, lam, mu):
    gram = fraction_gram(rs)
    return sum(lam[i] * gram[i][j] * mu[j]
               for i in range(rs.rank) for j in range(rs.rank))


def fraction_denominator(rs, kappa, point):
    acc = CycNum.one()
    for alpha in rs.positive_roots:
        half = fraction_form(rs, alpha, point) / 2
        acc = acc * (epsilon_power(half, rs.lacing, kappa)
                     - epsilon_power(-half, rs.lacing, kappa))
        if acc.is_zero():
            return acc
    return acc


def fraction_alternating_sum(rs, kappa, xi, point):
    dom, parity = make_dominant(rs, xi)
    acc = CycNum.zero()
    if not all(dom):
        return acc
    for image, sign in weyl_orbit(rs, dom):
        term = epsilon_power(fraction_form(rs, image, point), rs.lacing,
                             kappa)
        acc = acc + (term if sign == parity else -term)
    return acc


def fraction_char_value(rs, kappa, lam, point):
    dom, parity = make_dominant(rs, wadd(lam, rs.rho))
    acc = CycNum.zero()
    if not all(dom):
        return acc
    for mu, mult in sorted(weight_multiplicities(rs, wsub(dom, rs.rho))
                           .items()):
        acc = acc + epsilon_power(fraction_form(rs, mu, point), rs.lacing,
                                  kappa) * (parity * mult)
    return acc


def fraction_weyl_dimension(rs, lam):
    num = Fraction(1)
    for alpha in rs.positive_roots:
        num *= (fraction_form(rs, wadd(lam, rs.rho), alpha)
                / fraction_form(rs, rs.rho, alpha))
    return num


def exact(x):
    # the representation, not just the value, so an order drift shows
    return x.order, x.num, x.den


@pytest.mark.parametrize("series,rank,kappa", [
    ("A", 2, 5), ("B", 2, 4), ("G", 2, 5), ("B", 3, 6), ("C", 3, 5),
    ("D", 4, 7), ("F", 4, 10)])
def test_integer_exponents_match_fraction_formulas(series, rank, kappa):
    rs = build_root_system(series, rank)
    rng = random.Random(f"{series}{rank}")

    def weight(lo, hi):
        return tuple(rng.randrange(lo, hi) for _ in range(rank))

    # random points, points of the s-matrix (-2 rho is regular), and points
    # where the Weyl denominator vanishes (zero and multiples of 2 m kappa),
    # so that weyl_denominator_value is checked at both kinds of point
    points = ([weight(-4, 5) for _ in range(4)] + [wscale(-2, rs.rho)]
              + [wscale(-2, wadd(weight(0, 2), rs.rho)) for _ in range(2)]
              + [rs.zero, wscale(2 * rs.lacing * kappa, weight(-1, 2))])
    branches = set()
    for point in points:
        den = weyl_denominator_value(rs, kappa, point)
        assert exact(den) == exact(fraction_denominator(rs, kappa, point))
        branches.add(den.is_zero())
        xi = weight(-3, 4)
        assert (exact(alternating_sum(rs, kappa, xi, point))
                == exact(fraction_alternating_sum(rs, kappa, xi, point)))
        lam = weight(-2, 2)
        assert (exact(char_value(rs, kappa, lam, point))
                == exact(fraction_char_value(rs, kappa, lam, point)))
    assert branches == {True, False}
    for lam in [rs.zero, rs.rho, rs.highest_root, weight(0, 3)]:
        assert weyl_dimension(rs, lam) == fraction_weyl_dimension(rs, lam)
        shifted = wadd(lam, rs.rho)
        assert vanishing_criterion(rs, kappa, lam) == any(
            (fraction_form(rs, shifted, alpha) / (rs.lacing * kappa))
            .denominator == 1 for alpha in rs.positive_roots)
        assert exact(twist(rs, kappa, lam)) == exact(epsilon_power(
            fraction_form(rs, lam, wadd(lam, wscale(2, rs.rho))),
            rs.lacing, kappa))


# -- the tally callers against their former term-by-term loops

def term_by_term(terms):
    """(sum, order): the terms added one CycNum at a time, and the order a
    tally stores the sum at: the lcm of the term orders, or 1 for zero.
    The two orders differ only where the running sum passes through 0,
    after which the loop restarts from order 1."""
    acc, top, through_zero = CycNum.zero(), 1, False
    for term in terms:
        through_zero |= acc.is_zero() and top > 1
        acc = acc + term
        top = math.lcm(top, term.order)
    if not through_zero:
        assert acc.order == (1 if acc.is_zero() else top)
    return acc, 1 if acc.is_zero() else top


def loop_denominator(rs, kappa, point):
    order = 4 * rs.lacing * kappa * rs.denominator
    v = _gram_vector(rs, point)
    acc = CycNum.one()
    for alpha in rs.positive_roots:
        e = sum(a * x for a, x in zip(alpha, v))
        acc = acc * (CycNum.root_of_unity(order, e)
                     - CycNum.root_of_unity(order, -e))
        if acc.is_zero():
            return acc
    return acc


def loop_alternating_sum(rs, kappa, xi, point):
    dom, parity = make_dominant(rs, xi)
    if not all(dom):
        return CycNum.zero(), 1
    order = 2 * rs.lacing * kappa * rs.denominator
    v = _gram_vector(rs, point)
    terms = []
    for image, sign in weyl_orbit(rs, dom):
        term = CycNum.root_of_unity(
            order, sum(a * x for a, x in zip(image, v)))
        terms.append(term if sign == parity else -term)
    return term_by_term(terms)


def loop_weight_sum(rs, kappa, lam, point):
    order = 2 * rs.lacing * kappa * rs.denominator
    v = _gram_vector(rs, point)
    return term_by_term(
        CycNum.root_of_unity(order, sum(a * x for a, x in zip(mu, v))) * mult
        for mu, mult in sorted(weight_multiplicities(rs, lam).items()))


def loop_eval_eps_half(terms, lacing, kappa):
    return term_by_term(epsilon_power(Fraction(e, 2), lacing, kappa) * c
                        for e, c in terms)


def loop_binomial_product(order, pairs):
    acc = CycNum.one()
    for a, b in pairs:
        acc = acc * (CycNum.root_of_unity(order, a)
                     - CycNum.root_of_unity(order, b))
    return acc


def loop_d_coefficient(ctx, lam):
    """d_lam with one CycNum product per factor and Fraction forms."""
    shifted = wadd(lam, wscale(ctx.k, ctx.rs.rho))
    acc = d_prefactor(ctx.n, ctx.kappa)
    for alpha in ctx.rs.positive_roots:
        x = form(ctx.rs, alpha, shifted)
        for i in range(ctx.k):
            acc = acc * (epsilon_power(-x, 1, ctx.kappa)
                         - epsilon_power(x - 2 * i, 1, ctx.kappa))
    return acc


@pytest.mark.parametrize("series,rank,kappa", [
    ("A", 1, 7), ("A", 2, 5), ("A", 3, 6), ("B", 2, 4), ("C", 3, 5),
    ("G", 2, 5), ("D", 4, 7)])
def test_tally_callers_match_term_by_term_loops(series, rank, kappa):
    rs = build_root_system(series, rank)
    rng = random.Random(f"tally {series}{rank}")

    def weight(lo, hi):
        return tuple(rng.randrange(lo, hi) for _ in range(rank))

    points = ([weight(-4, 5) for _ in range(5)] + [wscale(-2, rs.rho)]
              + [wscale(-2, wadd(weight(0, 3), rs.rho)) for _ in range(3)]
              + [rs.zero, wscale(2 * rs.lacing * kappa, weight(-1, 2))])
    singular = 0
    for point in points:
        den = weyl_denominator_value(rs, kappa, point)
        assert exact(den) == exact(loop_denominator(rs, kappa, point))
        for xi in [weight(-3, 4) for _ in range(3)] + [rs.rho]:
            got = alternating_sum(rs, kappa, xi, point)
            want, order = loop_alternating_sum(rs, kappa, xi, point)
            assert got == want and got.order == order, (xi, point)
        if den.is_zero():
            singular += 1
            for lam in (rs.zero, weight(0, 2), rs.highest_root):
                got = char_value(rs, kappa, lam, point)
                want, order = loop_weight_sum(rs, kappa, lam, point)
                assert got == want and got.order == order, (lam, point)
    assert singular >= 2
    for _ in range(20):
        low = rng.randrange(-12, 12)
        coeffs = [Fraction(rng.randrange(-5, 6), rng.choice((1, 2, 3, 10)))
                  for _ in range(rng.randrange(0, 9))]
        # a Laurent polynomial with rational coefficients: an integer
        # numerator tally over a constant denominator
        nums, den = _clear_denominators(coeffs)
        poly = QRatFn(nums, (den,), low)
        got = poly.eval_at_epsilon(rs.lacing, kappa)
        want, order = loop_eval_eps_half(
            [(low + i, c) for i, c in enumerate(coeffs) if c],
            rs.lacing, kappa)
        assert got == want and got.order == order, poly
    # the binomial kernel: exponents of mixed orders (multiples of divisors
    # of the order), and pairs with a = b mod order, which give zero
    for order in (2 * kappa, 4 * rs.lacing * kappa * rs.denominator):
        divisors = [d for d in range(1, order + 1) if order % d == 0]
        for _ in range(12):
            pairs = []
            for _ in range(rng.randrange(0, 5)):
                a = rng.choice(divisors) * rng.randrange(-3, 4)
                b = (a + order * rng.randrange(-1, 2) if rng.random() < 0.1
                     else rng.choice(divisors) * rng.randrange(-3, 4))
                pairs.append((a, b))
            assert exact(_binomial_product(order, pairs)) == exact(
                loop_binomial_product(order, pairs)), pairs
        assert exact(_binomial_product(order, [(1, 1 + order)])) == exact(
            CycNum.zero())
    # d_lam of the section-5 S-matrix, on the sub-alcove and off it
    if series == "A":
        for k in (1, 2, 3):
            ctx = build_context(rank + 1, k, 1)
            for lam in ctx.alcove + tuple(weight(0, ctx.kappa + 2)
                                          for _ in range(4)):
                assert (d_coefficient(ctx, lam).to_json_obj()
                        == loop_d_coefficient(ctx, lam).to_json_obj()), lam
    # the Gauss sums of sqrt_of_int: sqrt p = g for p = 1 mod 4, -i g else
    for p in range(3, 4 * kappa):
        if _prime_factors(p) == [p]:
            gauss, order = term_by_term(CycNum.root_of_unity(p, t * t % p)
                                        for t in range(p))
            root = gauss if p % 4 == 1 else CycNum.root_of_unity(4, 3) * gauss
            assert exact(sqrt_of_int(p)) == exact(root), p
            assert gauss.order == order


@pytest.mark.parametrize("series,rank", [
    ("A", 2), ("A", 3), ("B", 2), ("C", 3), ("G", 2)])
def test_dominant_weights_below_in_depth_order(series, rank):
    rs = build_root_system(series, rank)
    for lam in (rs.highest_root, wscale(2, rs.rho), tuple(range(rank))):
        got = dominant_weights_below(rs, lam)
        depth = [sum(root_alpha_coords(rs, wsub(lam, mu))) for mu in got]
        assert list(zip(depth, got)) == sorted(zip(depth, got)), lam
        assert set(got) == set(filter(is_dominant,
                                      weight_multiplicities(rs, lam)))
