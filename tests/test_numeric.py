import ast
import cmath
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from modcat.numeric import (CycNum, InternalConsistencyError,
                            PoleAtEpsilonError, QRatFn, _clear_denominators,
                            _pack, _pdivexact,
                            _phi, _pmul, _poly_gcd, _residues, _strip,
                            approx_eq, cyclotomic_polynomial, epsilon_power,
                            matrix_product, q_number, sqrt_of_int)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def random_cyc(rng, orders=(5, 8, 12, 24)):
    L = rng.choice(orders)
    acc = CycNum.zero()
    for _ in range(4):
        coeff = Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
        acc = acc + CycNum.root_of_unity(L, rng.randrange(L)) * coeff
    return acc


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomials_integral_and_factor_xn_minus_1():
    for n in range(1, 121):
        phi = cyclotomic_polynomial(n)
        assert all(type(c) is int for c in phi), n
        assert len(phi) - 1 == sum(1 for k in range(1, n + 1)
                                   if math.gcd(k, n) == 1)
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = _pmul(prod, cyclotomic_polynomial(d))
        assert prod == [-1] + [0] * (n - 1) + [1], n
    # the first cyclotomic polynomial with a coefficient outside {-1, 0, 1}
    phi105 = cyclotomic_polynomial(105)
    assert [e for e, c in enumerate(phi105) if c == -2] == [7, 41]
    assert all(abs(c) <= 1 for n in range(1, 105)
               for c in cyclotomic_polynomial(n))


def _random_poly(rng, length):
    return [rng.randrange(-5, 6) if rng.random() < 0.8 else 0
            for _ in range(length)]


def _padd(a, b):
    n = max(len(a), len(b))
    return _strip([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                   for i in range(n)])


# -- test-local references: division with remainder over Q, and Euclid's
# gcd and modular inverse over Q built on it

def _pdivmod(a, b):
    """(q, r) with a = q b + r, deg r < deg b; b stripped and nonzero."""
    r = _strip(list(a))
    n = len(b) - 1
    # a monic b keeps integer input integral; any other b works over Q
    inv = None if b[-1] == 1 else Fraction(1, b[-1])
    low = b[:n]
    q = [0] * max(0, len(r) - n)
    while len(r) > n:
        f = r.pop() if inv is None else r.pop() * inv
        shift = len(r) - n
        q[shift] = f
        for i, c in enumerate(low):
            if c:
                r[shift + i] -= f * c
        _strip(r)
    return q, r


def _euclid_gcd(a, b):
    """The monic gcd over Q."""
    a, b = _strip(list(a)), _strip(list(b))
    while b:
        a, b = b, _pdivmod(a, b)[1]
    return [Fraction(c, a[-1]) for c in a]


def _poly_modular_inverse(poly, mod):
    """Inverse of poly modulo mod by the extended Euclidean algorithm."""
    r0, r1 = list(mod), _strip(list(poly))
    s0, s1 = [], [1]
    while True:
        q, r = _pdivmod(r0, r1)
        if not r:
            break
        r0, r1 = r1, r
        s0, s1 = s1, _padd(s0, [-c for c in _pmul(q, s1)])
    if len(r1) != 1:
        raise ZeroDivisionError("element is a zero divisor (not invertible)")
    return [Fraction(c, r1[0]) for c in s1]


def test_pdivexact_randomized():
    # exact division in Z[x], also by non-monic divisors and negative leads
    rng = random.Random(2024)
    for _ in range(300):
        q = _strip(_random_poly(rng, rng.randrange(1, 10)))
        b = _strip(_random_poly(rng, rng.randrange(1, 7)))
        if not q or not b:
            continue
        a = _pmul(q, b)
        got = _pdivexact(a, b)
        assert got == q and all(type(c) is int for c in got)
        assert a == _pmul(q, b)         # the dividend is left as it is
        r = _strip(_random_poly(rng, len(b) - 1))
        if r:
            with pytest.raises(InternalConsistencyError):
                _pdivexact(_padd(a, r), b)
        if any(c % 2 for c in q):       # divides over Q, not over Z
            with pytest.raises(InternalConsistencyError):
                _pdivexact(a, [2 * c for c in b])
    # a remainder at the first step, or one left at the last
    for a, b in (([0, 1], [0, 2]), ([1, 1], [2, 2]), ([1, 0, 1], [1, 1])):
        with pytest.raises(InternalConsistencyError):
            _pdivexact(a, b)


def test_poly_gcd_matches_euclid_over_q():
    rng = random.Random(77)
    for trial in range(300):
        common = _strip(_random_poly(rng, rng.randrange(1, 6)))
        a = _strip(_random_poly(rng, rng.randrange(0, 8)))
        b = _strip(_random_poly(rng, rng.randrange(0, 8)))
        if not common or not (a or b):
            continue
        common = [c * rng.choice((1, 1, 2, -3)) for c in common]
        a = _pmul(a, common) if a else a
        b = _pmul(b, common) if b else b
        args = (list(a), list(b))
        g = _poly_gcd(a, b)
        assert (a, b) == args           # the inputs are left as they are
        assert all(type(c) is int for c in g) and math.gcd(*g) == 1
        for p in (a, b):
            if p:
                _pdivexact(p, g)        # g divides both in Z[x]
        assert [Fraction(c, g[-1]) for c in g] == _euclid_gcd(a, b), trial
    assert _poly_gcd([6, 6], [4, 0, -4]) in ([1, 1], [-1, -1])
    assert _poly_gcd([0, 2], [0, 0, 4]) in ([0, 1], [0, -1])
    assert _poly_gcd([5], [0, 3]) == [1]


def test_pdivexact_raises_under_python_O():
    # a half-integral weight breaks the integrality of weyl_dimension
    code = ("from fractions import Fraction\n"
            "from modcat.chardata import weyl_dimension\n"
            "from modcat.lie import build_root_system\n"
            "from modcat.numeric import _pdivexact, InternalConsistencyError\n"
            "assert False, 'asserts are live'\n"
            "try:\n"
            "    _pdivexact([1, 0, 1], [1, 1])\n"
            "except InternalConsistencyError:\n"
            "    print('raised')\n"
            "try:\n"
            "    weyl_dimension(build_root_system('A', 1), (Fraction(1, 2),))\n"
            "except InternalConsistencyError:\n"
            "    print('raised')\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["raised", "raised"]


def test_no_assert_statements_in_package():
    # invariants raise InternalConsistencyError, which python -O keeps
    package = os.path.join(SRC, "modcat")
    found = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=name)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert found == []


def test_rational_embedding():
    x = CycNum.from_rational(Fraction(-7, 3))
    assert x.is_rational() and x.as_fraction() == Fraction(-7, 3)
    assert (x + Fraction(7, 3)).is_zero()


def test_exact_zero_only_in_canonical_form():
    # 1 + z + z^2 + z^3 + z^4 = 0 for the fifth root of unity
    acc = CycNum.zero()
    for e in range(5):
        acc = acc + CycNum.root_of_unity(5, e)
    assert acc.is_zero()


def test_field_axioms_randomized():
    rng = random.Random(101)
    orders = (5, 7, 8, 9, 12, 24, 36, 60)
    for _ in range(40):
        a, b, c = (random_cyc(rng, orders) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        if not a.is_zero():
            assert a * a.inverse() == CycNum.one()


def schoolbook_product(a, b):
    """Reference product entry by entry in CycNum arithmetic, each term
    lifted to the orders of its two factors (the former modular.mat_mul,
    for rectangular shapes)."""
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = CycNum.zero()
            for k, x in enumerate(row):
                y = b[k][j]
                if not (x.is_zero() or y.is_zero()):
                    acc = acc + x * y
            out_row.append(acc)
        out.append(out_row)
    return out


def _random_entry(rng, orders):
    order = rng.choice(orders)
    big = rng.random() < 0.3
    coeffs = tuple(rng.randrange(-2 ** 70, 2 ** 70) if big
                   else rng.randrange(-9, 10) for _ in range(_phi(order)))
    return CycNum(order, coeffs, rng.choice((1, 2, 3, 7, 12, 2 ** 65 + 1)))


def _random_matrix(rng, rows, cols, orders):
    mat = [[_random_entry(rng, orders) for _ in range(cols)]
           for _ in range(rows)]
    if rows > 1 and rng.random() < 0.5:
        mat[rng.randrange(rows)] = [CycNum.zero()] * cols
    return mat


def test_matrix_product_matches_schoolbook():
    rng = random.Random(4096)
    order_sets = ((1,), (4,), (1, 4, 8), (12, 24), (1, 4, 8, 12, 24, 60),
                  (60, 8))
    for trial in range(60):
        orders = order_sets[trial % len(order_sets)]
        m, n, p = (rng.randrange(1, 5) for _ in range(3))
        a = _random_matrix(rng, m, n, orders)
        b = _random_matrix(rng, n, p, orders)
        got = matrix_product(a, b)
        assert len(got) == m and all(len(row) == p for row in got)
        assert got == schoolbook_product(a, b), (trial, orders)


def test_matrix_product_at_its_digit_bound():
    # all coordinates equal and of one sign: the middle digit of every
    # entry reaches n phi max|a| max|b|, the bound the packing width covers
    for order, big, n in ((8, 1, 1), (12, 5, 3), (60, 2 ** 64 + 7, 4),
                          (24, 2 ** 31 - 1, 2)):
        phi = _phi(order)
        for sa, sb in ((1, 1), (-1, 1), (-1, -1)):
            a = [[CycNum(order, (sa * big,) * phi, 1)] * n] * 2
            b = [[CycNum(order, (sb * big,) * phi, 1)] * 3] * n
            assert matrix_product(a, b) == schoolbook_product(a, b)


def test_residues_decide_zero_within_the_bound():
    # y adds at most 3 signed products of two entries, so bound 3 covers
    # it: its residue is 0 exactly when y = 0 (times den^2, as each residue
    # is the image of den x)
    rng = random.Random(1515)
    for L in (1, 2, 12, 72, 80):
        orders = [d for d in (1, 2, 5, 8, 9, 12, 16, 24, 40, 72, 80)
                  if L % d == 0]
        for _ in range(8):
            xs = [_random_entry(rng, orders) for _ in range(4)]
            xs += [xs[0] + xs[1], xs[2] * xs[3], CycNum.one()]
            res, q = _residues([xs], 3)
            zeros = [((4, 5, 1), (0, 5, -1), (1, 5, -1)),  # distributivity
                     ((5, 6, 1), (2, 3, -1)),             # a stored product
                     ((0, 1, 1), (1, 0, -1))]
            randoms = [tuple((rng.randrange(7), rng.randrange(7),
                              rng.choice((1, -1))) for _ in range(3))
                       for _ in range(4)]
            for terms in zeros + randoms:
                y = sum((xs[a] * xs[b] * c for a, b, c in terms),
                        start=CycNum.zero())
                image = sum(res[0][a] * res[0][b] * c for a, b, c in terms)
                assert (image % q == 0) == y.is_zero(), (L, terms)
                if terms in zeros:
                    assert y.is_zero()
    # at order 1 the width is the least one allowed: y = bound T^2 is a
    # sum of bound products T * T, and one bit less would map it to 0
    for top, bound in ((1, 3), (3, 7)):
        res, q = _residues([[CycNum.from_rational(-top)]], bound)
        assert bound * res[0][0] ** 2 % q != 0


def test_residues_rest_on_the_bound():
    # 2^w - zeta_L is not 0 but maps to 0: of size about 2^w, it is far
    # beyond the bound 1 the width was chosen for, so only the bound makes
    # the residues exact
    for L in (1, 2, 72, 80):
        res, q = _residues([[CycNum.root_of_unity(L, 1)]], 1)
        w = next(w for w in itertools.count(1)
                 if _pack(cyclotomic_polynomial(L), w) == q)
        y = 2 ** w - CycNum.root_of_unity(L, 1)
        assert not y.is_zero()
        assert _pack(y._lift_num(L), w) % q == 0
        assert (2 ** w - res[0][0]) % q == 0


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        CycNum.zero().inverse()


def test_conjugation():
    rng = random.Random(31)
    for _ in range(30):
        a = random_cyc(rng)
        assert a.conjugate().conjugate() == a
        assert abs(a.conjugate().to_complex()
                   - a.to_complex().conjugate()) < 1e-12
    i = CycNum.root_of_unity(4, 1)
    assert (CycNum.one() + i) * (CycNum.one() - i) == CycNum.from_rational(2)


def test_cross_order_arithmetic():
    half = CycNum.from_rational(Fraction(1, 2))
    quarter = CycNum.from_rational(Fraction(1, 4))
    assert (half + quarter).as_fraction() == Fraction(3, 4)
    z6 = CycNum.root_of_unity(6, 1)
    z4 = CycNum.root_of_unity(4, 1)
    v = z6 + z4
    assert abs(v.to_complex()
               - (cmath.exp(1j * cmath.pi / 3) + 1j)) < 1e-12
    assert v - z4 == z6


# -- the general route of the CycNum kernel, as a test-local reference:
# lift both operands to the lcm of their orders by polynomial remainder
# mod Phi_L, combine, and normalise by one gcd

def ref_coords(order, pairs):
    """Coordinates of sum c zeta_order^e, by remainder mod Phi_order."""
    poly = [0] * order
    for e, c in pairs:
        poly[e % order] += c
    _, rem = _pdivmod(poly, list(cyclotomic_polynomial(order)))
    return rem + [0] * (_phi(order) - len(rem))


def ref_make(order, nums, den):
    g = math.gcd(den, *nums)
    nums, den = [x // g for x in nums], den // g
    if not any(nums):
        return 1, (0,), 1
    return order, tuple(nums), den


def ref_lift(x, order):
    step = order // x.order
    return ref_coords(order, [(e * step, c) for e, c in enumerate(x.num)])


def ref_add(x, y):
    L = math.lcm(x.order, y.order)
    nums = [a * y.den + b * x.den
            for a, b in zip(ref_lift(x, L), ref_lift(y, L))]
    return ref_make(L, nums, x.den * y.den)


def ref_mul(x, y):
    if x.is_zero() or y.is_zero():
        return 1, (0,), 1
    L = math.lcm(x.order, y.order)
    prod = _pmul(ref_lift(x, L), ref_lift(y, L))
    return ref_make(L, ref_coords(L, enumerate(prod)), x.den * y.den)


def ref_inverse(x):
    inv = _poly_modular_inverse([Fraction(c, x.den) for c in x.num],
                                cyclotomic_polynomial(x.order))
    den = math.lcm(*(f.denominator for f in inv))
    nums = [f.numerator * (den // f.denominator) for f in inv]
    return ref_make(x.order, nums + [0] * (_phi(x.order) - len(nums)), den)


def ref_json(order, num, den):
    return {"order": order,
            "coeffs": [[e, str(Fraction(c, den))]
                       for e, c in enumerate(num) if c]}


def exact(x):
    return x.order, x.num, x.den


def kernel_pool(rng):
    """Seeded values at every order of ORDERS: monomials c zeta^e (also
    with gcd(e, L) > 1), rationals, zero, and general sums, with unit and
    non-unit denominators, each stored at the order it is built at."""
    pool = [CycNum.zero(), CycNum.one(), CycNum.from_rational(Fraction(-5, 6))]
    for L in (1, 3, 4, 5, 8, 12, 15, 24, 40):
        phi = _phi(L)
        for den in (1, 6):
            e = rng.randrange(L)
            c = rng.choice((1, -1, 3, -4))
            pool.append(CycNum(L, tuple(ref_coords(L, [(e, c)])), den))
            pool.append(CycNum(L, tuple(ref_coords(L, [(0, c)])), den))
            nums = [rng.randrange(-6, 7) for _ in range(phi)]
            pool.append(CycNum(*ref_make(L, nums, den)))
    return pool


def test_kernel_fast_paths_match_general_route():
    rng = random.Random(1)
    pool = kernel_pool(rng)
    assert {x.order for x in pool} == {1, 3, 4, 5, 8, 12, 15, 24, 40}
    for x in pool:
        assert x.to_json_obj() == ref_json(*exact(x))
        for y in pool:
            assert exact(x + y) == ref_add(x, y), (x, y)
            assert exact(x * y) == ref_mul(x, y), (x, y)
            assert (x == y) == (ref_add(x, -y) == (1, (0,), 1))
        for r in (0, 3, -2, Fraction(-7, 4)):
            q = CycNum.from_rational(r)
            for got in (x + r, r + x):
                assert exact(got) == ref_add(x, q)
            for got in (x * r, r * x):
                assert exact(got) == ref_mul(x, q)
            assert exact(x - r) == ref_add(x, CycNum.from_rational(-r))
        if not x.is_zero():
            inv = x.inverse()
            assert exact(inv) == ref_inverse(x), x
            assert inv.to_json_obj() == ref_json(*ref_inverse(x))
            assert x.inverse() * x == 1


def test_inverse_matches_euclid_at_large_orders():
    # dense elements where the conjugate product multiplies phi - 1 factors
    rng = random.Random(3)
    for L, den in ((60, 1), (80, 7), (105, 1), (120, 4), (156, 3)):
        x = CycNum(*ref_make(L, [rng.randrange(-4, 5)
                                 for _ in range(_phi(L))], den))
        inv = x.inverse()
        assert exact(inv) == ref_inverse(x), L
        assert x * inv == 1


def test_galois_automorphisms():
    rng = random.Random(41)
    for _ in range(40):
        L = rng.choice((3, 5, 8, 12, 15, 24))
        x, y = (CycNum(*ref_make(L, [rng.randrange(-5, 6)
                                     for _ in range(_phi(L))],
                                 rng.randrange(1, 4))) for _ in range(2))
        units = [a for a in range(1, L) if math.gcd(a, L) == 1]
        a, b = rng.choice(units), rng.choice(units)
        assert (x + y).galois(a) == x.galois(a) + y.galois(a)
        assert (x * y).galois(a) == x.galois(a) * y.galois(a)
        assert x.galois(b).galois(a) == x.galois(a * b)
        assert exact(x.galois(a - L)) == exact(x.galois(a))
        assert exact(x.galois(-1)) == exact(x.conjugate())
        assert x.galois(1) == x
        p = min(d for d in range(2, L + 1) if L % d == 0)
        for bad in (0, p, L):
            with pytest.raises(ValueError):
                x.galois(bad)
    # sigma_a sends zeta to zeta^a
    assert CycNum.root_of_unity(12, 1).galois(5) == CycNum.root_of_unity(12, 5)


def test_from_tally_order_rule():
    # a sum is stored at the lcm of the orders of its terms: zeta_12^3 = i
    # has order 4 and zeta_12^4 order 3, so their sum lies at order 12
    got = CycNum.from_tally(12, [(3, 1), (4, 1)])
    assert got.order == 12
    assert got == CycNum.root_of_unity(4, 1) + CycNum.root_of_unity(3, 1)
    # any exponent is read mod the order, and repeats are summed
    assert (exact(CycNum.from_tally(12, [(-9, 1), (16, 2), (4, -1)]))
            == exact(got))
    # terms whose counts cancel still count: i - i + zeta_3 is zeta_3 at
    # order 12, where adding the terms one at a time passes through 0 and
    # restarts from order 1, to end at order 3
    running = CycNum.zero()
    for term in (CycNum.root_of_unity(12, 3), -CycNum.root_of_unity(12, 3),
                 CycNum.root_of_unity(12, 4)):
        running = running + term
    for terms in ([(3, 0), (4, 1)], [(3, 1), (4, 1), (15, -1)]):
        tally = CycNum.from_tally(12, terms)
        assert running == tally
        assert (running.order, tally.order) == (3, 12)
    # a product passes its factor exponents: (zeta_8 - zeta_8^-1)^2 = -2
    # has terms at {2, 0, 6} of gcd 2 with 8, but its factors have order 8
    square = CycNum.from_tally(8, [(2, 1), (0, -2), (6, 1)], exponents=(1, 7))
    step = CycNum.root_of_unity(8, 1) - CycNum.root_of_unity(8, 7)
    assert exact(square) == exact(step * step)
    assert square.order == 8 and square == -2
    # no terms is zero
    assert exact(CycNum.from_tally(24, [])) == (1, (0,), 1)


def test_epsilon_power_examples():
    assert epsilon_power(0, 1, 3) == CycNum.one()
    # A1 kappa=3: eps^(3/2) = i
    assert epsilon_power(Fraction(3, 2), 1, 3) == CycNum.root_of_unity(4, 1)
    # full turn
    assert epsilon_power(2 * 1 * 3, 1, 3) == CycNum.one()
    assert epsilon_power(2 * 3 * 5, 3, 5) == CycNum.one()


def test_epsilon_power_homomorphism():
    rng = random.Random(9)
    for _ in range(60):
        a = Fraction(rng.randrange(-30, 31), rng.randrange(1, 9))
        b = Fraction(rng.randrange(-30, 31), rng.randrange(1, 9))
        assert (epsilon_power(a, 2, 4) * epsilon_power(b, 2, 4)
                == epsilon_power(a + b, 2, 4))
        assert epsilon_power(a, 2, 4).conjugate() == epsilon_power(-a, 2, 4)


def test_epsilon_embedding_value():
    for kappa, m in [(3, 1), (4, 1), (5, 2), (6, 3)]:
        for num in range(-6, 7):
            a = Fraction(num, 2)
            got = epsilon_power(a, m, kappa).to_complex()
            want = cmath.exp(1j * cmath.pi * float(a) / (m * kappa))
            assert abs(got - want) < 1e-12


def test_zero_test_matches_float():
    rng = random.Random(77)
    for _ in range(60):
        a = random_cyc(rng)
        b = random_cyc(rng)
        diff = (a + b) - b - a
        assert diff.is_zero()
        assert a.is_zero() == (abs(a.to_complex()) < 1e-9)


def test_roots_of_unity_power_to_one():
    rng = random.Random(5)
    for _ in range(20):
        L = rng.choice([6, 8, 20, 36])
        x = CycNum.root_of_unity(L, rng.randrange(L))
        assert x ** L == CycNum.one()


def test_pow_negative():
    z = CycNum.root_of_unity(12, 5)
    assert z ** -1 == z.conjugate()
    assert z ** -3 == (z ** 3).inverse()


def test_sqrt_of_int():
    for n in (2, 3, 5, 7, 8, 12, 14, 45, 243):
        s = sqrt_of_int(n)
        assert (s * s).as_fraction() == n
        assert abs(s.to_complex() - math.sqrt(n)) < 1e-9
    with pytest.raises(ValueError):
        sqrt_of_int(0)


def test_cycnum_json_round_trip():
    rng = random.Random(15)
    for _ in range(20):
        x = random_cyc(rng)
        blob = json.dumps(x.to_json_obj())
        y = CycNum.from_json_obj(json.loads(blob))
        assert y == x
        assert json.dumps(y.to_json_obj()) == blob


def test_cycnum_from_json_reads_any_exponent():
    def parse(order, coeffs):
        return CycNum.from_json_obj({"order": order, "coeffs": coeffs})

    z5 = CycNum.root_of_unity(5, 1)
    assert exact(parse(5, [[-1, "1"]])) == exact(z5.inverse())
    assert exact(parse(5, [[4, "1"]])) == exact(z5 ** 4)
    assert exact(parse(5, [[7, "1/2"], [2, "-1/2"]])) == (1, (0,), 1)
    # repeated exponents are summed, as QRatFn.from_json_obj sums them
    assert exact(parse(5, [[0, "1"], [0, "2"]])) == (5, (3, 0, 0, 0), 1)
    assert QRatFn.from_json_obj({"num": [[0, "1"], [0, "2"]],
                                 "den": [[0, "1"]]}) == 3
    for order in (0, -4):
        with pytest.raises(ValueError):
            parse(order, [[0, "1"]])


# -- rational functions -------------------------------------------------------

def test_q_number_basics():
    assert q_number(0).is_zero()
    assert q_number(1) == QRatFn.one()
    two = q_number(2)
    assert two == QRatFn.monomial(2) + QRatFn.monomial(-2)
    assert q_number(-3) == -q_number(3)
    # d-weighted variant
    assert q_number(2, 2) == QRatFn.monomial(4) + QRatFn.monomial(-4)


def test_q_number_bar_symmetric():
    for n in range(1, 7):
        assert q_number(n).bar() == q_number(n)


def test_qratfn_field_ops():
    rng = random.Random(21)

    def rand_fn():
        low = rng.randrange(-3, 1)
        num = [rng.randrange(-4, 5) for _ in range(4)]
        if rng.random() < 0.4:
            # one term: a non-unit coefficient times a power of v
            c = Fraction(rng.choice((-3, -1, 2, 5)), rng.randrange(1, 4))
            e = rng.randrange(-3, 4)
            f = QRatFn([x * c.denominator for x in num], (c.numerator,),
                       low - e)
            if any(num):
                # a constant denominator, the numerator num v^(low-e) / c
                lead = next(i for i, x in enumerate(num) if x)
                assert f.is_polynomial() and f.low == low - e + lead
                assert ([Fraction(x, f.den[0]) for x in f.num]
                        == _strip([x / c for x in num[lead:]]))
            return f
        den = (rng.randrange(1, 5), rng.randrange(0, 3), 1)
        return QRatFn(num, den, low)

    for _ in range(40):
        f, g, h = rand_fn(), rand_fn(), rand_fn()
        assert (f + g) * h == f * h + g * h
        assert f - f == QRatFn.zero()
        if not f.is_zero():
            assert (f / f) == QRatFn.one()
        assert (f * g).bar() == f.bar() * g.bar()
        assert f.bar().bar() == f


def test_qratfn_reduction_canonical():
    # (v^2 - 1)/(v - 1) reduces to v + 1
    f = QRatFn((-1, 0, 1), (-1, 1))
    assert f == QRatFn.monomial(1) + QRatFn.one()
    assert (f.low, f.num, f.den) == (0, (1, 1), (1,))
    # the power of v in the denominator goes into low, and 3 / 2 is
    # integers over a positive denominator
    g = QRatFn((3,), (0, 2))
    assert (g.low, g.num, g.den) == (-1, (3,), (2,))
    assert g.is_polynomial() and repr(g) == "QRatFn(3/2*v^-1)"
    # a negative leading coefficient of the denominator changes both signs
    h = QRatFn((3, 0, -6), (-8, 0, -12), 3)
    assert (h.low, h.num, h.den) == (3, (-3, 0, 6), (8, 0, 12))


@pytest.mark.parametrize("num,den", [
    ((Fraction(1, 2),), (1,)),          # one-term denominator
    ((1, 1), (Fraction(2), 1)),          # through the gcd in Z[v]
    ((1, 0, 1), (1, Fraction(1, 3))),
    ((), (Fraction(1, 2),)),             # the zero numerator
    ((1.0,), (1,)),
])
def test_qratfn_takes_int_coefficients_only(num, den):
    with pytest.raises(TypeError):
        QRatFn(num, den)


def test_qratfn_from_json_reads_rational_coefficients():
    # (1/2 - 3/4 v^3) / (2/3 v^-1 + 1) has the integer form
    # v^1 (6 - 9 v^3) / (8 + 12 v)
    f = QRatFn.from_json_obj({"num": [[0, "1/2"], [3, "-3/4"]],
                              "den": [[-1, "2/3"], [0, "1"]]})
    assert (f.low, f.num, f.den) == (1, (6, 0, 0, -9), (8, 12))


def test_qratfn_eval_and_pole():
    assert q_number(2).eval_at_epsilon(1, 3).as_fraction() == 1
    assert (QRatFn.from_rational(Fraction(5, 3)).eval_at_epsilon(1, 4)
            .as_fraction() == Fraction(5, 3))
    # 1/[2] has a pole where [2] vanishes: kappa = 2 means eps = i, [2] = 0
    f = QRatFn.one() / q_number(2)
    with pytest.raises(PoleAtEpsilonError):
        f.eval_at_epsilon(1, 2)


def test_qratfn_eval_is_homomorphism():
    rng = random.Random(2)
    fns = [q_number(2), q_number(3) / q_number(2),
           QRatFn.monomial(1) + QRatFn.from_rational(Fraction(1, 3))]
    for f in fns:
        for g in fns:
            lhs = (f * g).eval_at_epsilon(1, 5)
            rhs = f.eval_at_epsilon(1, 5) * g.eval_at_epsilon(1, 5)
            assert lhs == rhs


def test_qratfn_json_round_trip():
    f = q_number(3) / q_number(2) + QRatFn.monomial(-3, Fraction(2, 7))
    blob = json.dumps(f.to_json_obj())
    g = QRatFn.from_json_obj(json.loads(blob))
    assert g == f
    assert json.dumps(g.to_json_obj()) == blob


def _random_qratfn(rng):
    """v^low n / d for random n, d with rational coefficients, some of
    them sharing a factor, some with zero end coefficients."""
    def poly():
        return [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                for _ in range(rng.randrange(1, 5))]

    num, den = poly(), poly()
    if not any(den):
        den = [Fraction(rng.randrange(1, 5), rng.randrange(1, 3))]
    if rng.random() < 0.5:
        common = poly()
        if any(common):
            num, den = _pmul(num, common), _pmul(den, common)
    ints, _ = _clear_denominators(num + den)
    return QRatFn(ints[:len(num)], ints[len(num):], rng.randrange(-4, 5))


def _assert_canonical(f):
    if f.is_zero():
        assert (f.low, f.num, f.den) == (0, (), (1,))
        return
    assert all(type(c) is int for c in f.num + f.den)
    assert f.num[0] and f.den[0] and f.den[-1] > 0
    assert math.gcd(*f.num, *f.den) == 1
    assert len(_poly_gcd(f.num, f.den)) == 1


def test_qratfn_canonical_form_is_unique():
    # equal values built in different orders have one (low, num, den)
    rng = random.Random(31)
    for _ in range(60):
        f, g, h = (_random_qratfn(rng) for _ in range(3))
        k = rng.choice((1, 2, 3))
        routes = [
            [(f + g) * h, f * h + g * h, h * g + (h * f - QRatFn.zero())],
            [f - g, -(g - f), f + (-g), (f.bar() - g.bar()).bar()],
            [f * q_number(k), q_number(k) * f, (f.bar() * q_number(k)).bar()],
        ]
        if not g.is_zero():
            routes.append([f, (f / g) * g, (f * g) / g, f / (g / g)])
        for values in routes:
            blobs = {json.dumps(x.to_json_obj()) for x in values}
            forms = {(x.low, x.num, x.den) for x in values}
            assert len(blobs) == 1 and len(forms) == 1, values
            for x in values:
                _assert_canonical(x)


def test_qratfn_bar_is_reduced_without_the_gcd():
    # bar reverses a reduced form in place; the normalising constructor on
    # the reversed coefficients is the reference
    rng = random.Random(33)
    pinned = [QRatFn((1, 2), (-3, 1)), QRatFn((2, 0, -1), (-1, 0, 4), -2),
              QRatFn.monomial(-3, Fraction(-2, 5)), QRatFn.monomial(4),
              QRatFn.zero(), q_number(3) / q_number(2)]
    fns = pinned + [_random_qratfn(rng) for _ in range(200)]
    assert any(f.den[0] < 0 for f in fns)
    for f in fns:
        want = QRatFn(f.num[::-1], f.den[::-1],
                      len(f.den) - len(f.num) - f.low)
        got = f.bar()
        assert (got.low, got.num, got.den) == (want.low, want.num, want.den)
        _assert_canonical(got)
        back = got.bar()
        assert (back.low, back.num, back.den) == (f.low, f.num, f.den)


def test_qratfn_json_round_trip_random():
    rng = random.Random(32)
    for _ in range(200):
        f = _random_qratfn(rng)
        obj = json.loads(json.dumps(f.to_json_obj()))
        g = QRatFn.from_json_obj(obj)
        assert g == f and (g.low, g.num, g.den) == (f.low, f.num, f.den)
        assert g.to_json_obj() == obj


def _pinned_qratfns():
    m, r = QRatFn.monomial, QRatFn.from_rational
    f3 = (m(2, 3) - 1) / (m(1, 2) + Fraction(1, 3))
    f6 = (m(-1, -4) + 1) / (m(2, Fraction(-3, 2)) + 5)
    return {
        "zero": QRatFn.zero(),
        "rational": r(Fraction(-5, 3)),
        "negative low": m(-3, Fraction(2, 7)),
        "non-monic rational den": f3,
        "negative leading den": f6,
        "bar": f3.bar(),
        "quotient": q_number(3) / q_number(2),
        "mixed quotient": (f3 * f6) / (q_number(3) / q_number(2) + 1),
        "bar of difference": (f6 - f3).bar(),
        "scaled q-number": q_number(2, 2) * m(-5, Fraction(-1, 4)),
        "reciprocal": r(Fraction(3, 4)) / (m(-2, Fraction(-2, 5)) + m(1, 7)),
    }


# JSON and repr print the denominator monic; no golden prints a non-integer
# coefficient, so these strings pin the printed form
PINNED_QRATFN = {
    "zero": (
        '{"num": [], "den": [[0, "1"]]}',
        "QRatFn(0)"),
    "rational": (
        '{"num": [[0, "-5/3"]], "den": [[0, "1"]]}',
        "QRatFn(-5/3)"),
    "negative low": (
        '{"num": [[-3, "2/7"]], "den": [[0, "1"]]}',
        "QRatFn(2/7*v^-3)"),
    "non-monic rational den": (
        '{"num": [[0, "-1/2"], [2, "3/2"]], "den": [[0, "1/6"], [1, "1"]]}',
        "QRatFn((-1/2 + 3/2*v^2) / (1/6 + 1*v^1))"),
    "negative leading den": (
        '{"num": [[-1, "8/3"], [0, "-2/3"]], '
        '"den": [[0, "-10/3"], [2, "1"]]}',
        "QRatFn((8/3*v^-1 + -2/3) / (-10/3 + 1*v^2))"),
    "bar": (
        '{"num": [[-1, "9"], [1, "-3"]], "den": [[0, "6"], [1, "1"]]}',
        "QRatFn((9*v^-1 + -3*v^1) / (6 + 1*v^1))"),
    "quotient": (
        '{"num": [[-2, "1"], [2, "1"], [6, "1"]], '
        '"den": [[0, "1"], [4, "1"]]}',
        "QRatFn((1*v^-2 + 1*v^2 + 1*v^6) / (1 + 1*v^4))"),
    "mixed quotient": (
        '{"num": [[1, "-4/3"], [2, "1/3"], [3, "4"], [4, "-1"], '
        '[5, "-4/3"], [6, "1/3"], [7, "4"], [8, "-1"]], '
        '"den": [[0, "-5/9"], [1, "-10/3"], [2, "-7/18"], [3, "-7/3"], '
        '[4, "-7/18"], [5, "-7/3"], [6, "-7/18"], [7, "-7/3"], '
        '[8, "-7/18"], [9, "-7/3"], [10, "1/6"], [11, "1"]]}',
        "QRatFn((-4/3*v^1 + 1/3*v^2 + 4*v^3 + -1*v^4 + -4/3*v^5 + 1/3*v^6 "
        "+ 4*v^7 + -1*v^8) / (-5/9 + -10/3*v^1 + -7/18*v^2 + -7/3*v^3 "
        "+ -7/18*v^4 + -7/3*v^5 + -7/18*v^6 + -7/3*v^7 + -7/18*v^8 "
        "+ -7/3*v^9 + 1/6*v^10 + 1*v^11))"),
    "bar of difference": (
        '{"num": [[-1, "27/10"], [1, "-99/10"], [2, "6/5"], [3, "-8/5"], '
        '[4, "-4/5"]], "den": [[0, "-9/5"], [1, "-3/10"], [2, "6"], '
        '[3, "1"]]}',
        "QRatFn((27/10*v^-1 + -99/10*v^1 + 6/5*v^2 + -8/5*v^3 + -4/5*v^4) "
        "/ (-9/5 + -3/10*v^1 + 6*v^2 + 1*v^3))"),
    "scaled q-number": (
        '{"num": [[-9, "-1/4"], [-1, "-1/4"]], "den": [[0, "1"]]}',
        "QRatFn(-1/4*v^-9 + -1/4*v^-1)"),
    "reciprocal": (
        '{"num": [[2, "3/28"]], "den": [[0, "-2/35"], [3, "1"]]}',
        "QRatFn((3/28*v^2) / (-2/35 + 1*v^3))"),
}


@pytest.mark.parametrize("name", sorted(PINNED_QRATFN))
def test_qratfn_printed_forms_pinned(name):
    f = _pinned_qratfns()[name]
    blob, text = PINNED_QRATFN[name]
    assert json.dumps(f.to_json_obj()) == blob
    assert repr(f) == text
    assert QRatFn.from_json_obj(json.loads(blob)) == f


def test_qratfn_pole_message_pinned():
    m = QRatFn.monomial
    # 1 / ((v^2 + 1)(2v + 1)) has a pole at v = i, that is kappa = 1
    f = QRatFn.one() / ((m(2) + 1) * (m(1, 2) + 1))
    with pytest.raises(PoleAtEpsilonError) as info:
        f.eval_at_epsilon(1, 1)
    assert str(info.value) == (
        "pole at the root of unity (lacing 1, kappa 1): denominator "
        "1/2 + 1*v^1 + 1/2*v^2 + 1*v^3 vanishes")


def test_approx_eq_tolerance():
    assert approx_eq(1.0, 1.0 + 1e-12)
    assert not approx_eq(1.0, 1.1)
    assert approx_eq(1.0, 1.05, tol=0.1)
