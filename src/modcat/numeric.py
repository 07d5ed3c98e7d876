"""Exact arithmetic kernels.

One polynomial kernel over ascending lists of ``int`` coefficients
(``_strip``, ``_pmul``, ``_padd``, and ``_pdivexact`` and ``_poly_gcd``,
exact division and gcd in Z[x]; ``_clear_denominators`` turns the
``Fraction`` coefficients read by ``from_json_obj`` into integers once)
carries three domains:

* ``CycNum`` -- an element of the cyclotomic field Q(zeta_L), stored over
  the power basis {zeta_L^e : 0 <= e < phi(L)} with an integer coefficient
  vector over a common positive denominator.  The form is canonical for
  its order L, so the zero test is exact; ``==`` compares two values at
  their common order.  The order kept can exceed the least one that holds
  the value, so one value can print in more than one form: i*(-i) at
  order 4, 1 at order 1.  Arithmetic between different orders lifts both
  operands to the least common multiple of the orders.  ``galois(a)`` maps zeta to
  zeta^a; an inverse is the product of the other conjugates over the norm.
  Fast paths keep to that form: equal orders need no lift, a rational
  operand scales the coordinates, and c zeta^e inverts to (1/c) zeta^-e.
  ``CycNum.from_tally`` makes a sum or product of powers of one root of
  unity from its integer terms (e, c), any e and repeats summed, with one
  reduction, at M / gcd(M, every exponent tallied): the lcm of the term
  orders.
  ``matrix_product`` multiplies CycNum matrices over one field and reduces
  each entry once; ``_pack``/``_unpack`` are the one Kronecker packing.
  ``_residues`` maps entries into Z/q by zeta -> 2^w, exact by a norm bound.

* ``QRatFn`` -- a rational function v^low num(v) / den(v) over Q in a
  formal variable v standing for a square root of q, the one format of
  every generic-q scalar.  The constructor takes int coefficients only.
  num and den are integer coefficient tuples, divided exactly by their gcd
  in Z[v] and by the gcd of all their coefficients, with nonzero constant
  terms and den[-1] > 0; so the form is unique.  The bar involution sends
  v to 1/v; evaluation at v = eps^(1/2) is one ``CycNum.from_tally`` each
  for num and den.

* plain ``complex`` -- the float mode used for cross-checks only, with the
  default tolerance ``DEFAULT_TOLERANCE``; only the CLI reads an override
  from the environment, by ``default_tolerance``.  Floats never decide a
  pass/fail verdict when an exact route exists.

``solve`` is the one Gaussian elimination, for Fraction or CycNum
entries alike: it gives det a and the solution of a x = b, or only det a.
Every determinant and inverse in the package comes from it.

Broken invariants raise ``InternalConsistencyError``, also under -O.
"""

from __future__ import annotations

import cmath
import os
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import gcd, isfinite, lcm
from operator import mul

DEFAULT_TOLERANCE = 1e-9


class InternalConsistencyError(RuntimeError):
    """An internal invariant of an exact computation failed."""


def check_tolerance(tol: float) -> float:
    """tol itself if finite and positive (0 fails every float check)."""
    if not (isfinite(tol) and tol > 0):
        raise ValueError("tolerance must be a finite positive number, "
                         f"got {tol!r}")
    return tol


def default_tolerance() -> float:
    env = os.environ.get("MODCAT_TOLERANCE")
    if not env:
        return DEFAULT_TOLERANCE
    try:
        return check_tolerance(float(env))
    except ValueError:
        raise ValueError("MODCAT_TOLERANCE must be a finite positive "
                         f"number, got {env!r}") from None


def approx_eq(a: complex, b: complex, tol: float = DEFAULT_TOLERANCE) -> bool:
    return abs(a - b) <= tol


# --------------------------------------------------------------------------
# the polynomial kernel (ascending integer coefficient lists)

def _strip(p: list) -> list:
    """Drop trailing zeros in place; the zero polynomial is []."""
    while p and not p[-1]:
        p.pop()
    return p


def _pmul(a, b) -> list:
    """Schoolbook product of two nonzero polynomials."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _padd(a, b) -> list:
    """a + b, stripped."""
    out = list(a) + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] += y
    return _strip(out)


def _pdivexact(a, b) -> list:
    """a / b in Z[x] for b stripped and dividing a there; a nonzero
    remainder at any step is an InternalConsistencyError."""
    r = _strip(list(a))
    n, lead = len(b) - 1, b[-1]
    q = [0] * max(0, len(r) - n)
    while r:
        f, rem = divmod(r.pop(), lead)
        if rem or len(r) < n:
            raise InternalConsistencyError(f"inexact division in Z[x] by {b}")
        q[len(r) - n] = f
        for i, c in enumerate(b[:n], len(r) - n):
            r[i] -= f * c
        _strip(r)
    return q


def _poly_gcd(a, b) -> list:
    """A gcd of content 1 in Z[x] of two integer polynomials, not both zero
    and left as they are, by a primitive pseudo-remainder sequence (Cohen,
    A Course in Computational Algebraic Number Theory, 3.3)."""
    a, b = _strip(list(a)), _strip(list(b))
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        n, lead = len(b) - 1, b[-1]
        while len(a) > n:           # a <- lead^k a mod b, a term at a time
            f = a.pop()
            if lead != 1:
                a = [c * lead for c in a]
            for i, c in enumerate(b[:n], len(a) - n):
                a[i] -= f * c
            _strip(a)
        g = gcd(*a) or 1
        a, b = b, [c // g for c in a]
    if b:
        return [1]
    g = gcd(*a)
    return [c // g for c in a]


def _clear_denominators(fracs) -> tuple[list[int], int]:
    """(nums, den) with fracs[i] = nums[i] / den over the least common den."""
    den = lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


@lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Coefficients of the cyclotomic polynomial of the given order, ascending."""
    if order == 1:
        return (-1, 1)
    poly = [-1] + [0] * (order - 1) + [1]          # x^order - 1
    for d in range(1, order):
        if order % d == 0:
            poly = _pdivexact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def _phi(order: int) -> int:
    return len(cyclotomic_polynomial(order)) - 1


@lru_cache(maxsize=None)
def _power_rows(order: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row e = the nonzero coordinates (i, c) of zeta^e over the power basis,
    e < max(order, 2 phi - 1)."""
    phi = _phi(order)
    top = max(order, 2 * phi - 1)
    dense = [int(i == phi - 1) for i in range(phi)]
    rows = [((e, 1),) for e in range(phi)]
    # x^phi = -(lower part of the cyclotomic polynomial), which is monic
    head = tuple(-c for c in cyclotomic_polynomial(order)[:phi])
    for _ in range(phi, top):
        carry = dense[phi - 1]
        dense = [0] + dense[:phi - 1]
        if carry:
            dense = [s + carry * h for s, h in zip(dense, head)]
        rows.append(tuple((i, c) for i, c in enumerate(dense) if c))
    return tuple(rows)


def _reduce_exponents(order: int, pairs) -> list[int]:
    """Canonical coordinates of sum c * zeta^e over integer pairs (e, c)."""
    phi = _phi(order)
    rows = _power_rows(order)
    out = [0] * phi
    for e, c in pairs:
        if not c:
            continue
        if e >= order or e < 0:
            e %= order
        if e < phi:
            out[e] += c
        else:
            for i, r in rows[e]:
                out[i] += c * r
    return out


class CycNum:
    """Exact element of a cyclotomic field, in the canonical form for its
    order.  == compares two values at their common order; the order kept
    can exceed the least one that holds the value."""

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, num: tuple[int, ...], den: int,
                 _normalized: bool = False):
        if not _normalized:
            if not any(num):
                order, num, den = 1, (0,), 1
            elif den != 1:
                g = gcd(den, *num)
                if g > 1:
                    num = tuple(x // g for x in num)
                    den //= g
        self.order = order
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(value) -> "CycNum":
        f = Fraction(value)
        return CycNum(1, (f.numerator,), f.denominator)

    @staticmethod
    def zero() -> "CycNum":
        return CycNum(1, (0,), 1, _normalized=True)

    @staticmethod
    def one() -> "CycNum":
        return CycNum(1, (1,), 1, _normalized=True)

    @staticmethod
    def root_of_unity(order: int, exponent: int) -> "CycNum":
        """zeta_order^exponent, stored at the smallest sufficient order."""
        return CycNum.from_tally(order, [(exponent, 1)])

    @staticmethod
    def from_tally(order: int, terms, exponents=()) -> "CycNum":
        """sum c zeta_order^e over the integer terms (e, c), any e and
        repeats summed.

        The value is stored at order / gcd(order, every e of terms and
        every one of exponents): the lcm of the orders of the terms, which
        is where adding or multiplying them one at a time ends up.  A term
        of count 0, or whose counts cancel, still counts; a product passes
        its factor exponents, since the terms of a product can share a
        larger gcd.
        """
        terms = list(terms)
        g = gcd(order, *(e for e, _ in terms), *exponents)
        if g > 1:
            order //= g
            terms = [(e // g, c) for e, c in terms]
        return CycNum(order, tuple(_reduce_exponents(order, terms)), 1)

    # -- canonical form helpers --------------------------------------------

    def _lift_num(self, order: int) -> list[int]:
        """Integer numerator vector of self lifted into Q(zeta_order)."""
        if order == self.order:
            return list(self.num)
        step = order // self.order
        return _reduce_exponents(
            order, ((e * step, c) for e, c in enumerate(self.num) if c))

    def _common(self, other: "CycNum") -> tuple:
        """(L, a, b): both numerators over Q(zeta_L), L the lcm of orders."""
        if self.order == other.order:
            return self.order, self.num, other.num
        # a rational lifts to its first coordinate
        if other.order == 1:
            pad = (0,) * (len(self.num) - 1)
            return self.order, self.num, other.num + pad
        if self.order == 1:
            pad = (0,) * (len(other.num) - 1)
            return other.order, self.num + pad, other.num
        L = self.order * other.order // gcd(self.order, other.order)
        return L, self._lift_num(L), other._lift_num(L)

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational number")
        return Fraction(self.num[0], self.den)

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(value):
        if isinstance(value, CycNum):
            return value
        if isinstance(value, (int, Fraction)):
            return CycNum(1, (value.numerator,), value.denominator,
                          _normalized=True)
        return NotImplemented

    def __add__(self, other):
        other = CycNum._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        L, a, b = self._common(other)
        da, db = self.den, other.den
        g = gcd(da, db)
        ma, mb = db // g, da // g
        nums = tuple(x * ma + y * mb for x, y in zip(a, b))
        return CycNum(L, nums, da * ma)

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.order, tuple(-x for x in self.num), self.den,
                      _normalized=True)

    def __sub__(self, other):
        other = CycNum._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = CycNum._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return CycNum.zero()
        # a rational factor scales the coordinates
        if other.order == 1 or self.order == 1:
            x, r = (self, other) if other.order == 1 else (other, self)
            c = r.num[0]
            return CycNum(x.order, tuple(v * c for v in x.num), x.den * r.den)
        L, a, b = self._common(other)
        nums = _reduce_exponents(L, enumerate(_pmul(a, b)))
        return CycNum(L, tuple(nums), self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        L = self.order
        terms = [(e, c) for e, c in enumerate(self.num) if c]
        if len(terms) == 1:
            # (c / den) zeta^e has inverse (den / c) zeta^-e
            (e, c), = terms
            sign = 1 if c > 0 else -1
            vec = _reduce_exponents(L, [(-e, sign * self.den)])
            return CycNum(L, tuple(vec), abs(c))
        # x^-1 = prod over a != 1 of sigma_a(x), over the norm N(x)
        others = CycNum.one()
        for a in range(2, L):
            if gcd(a, L) == 1:
                others = others * self.galois(a)
        norm = self * others
        if not norm.is_rational():
            raise InternalConsistencyError(f"irrational norm of {self!r}")
        sign = 1 if norm.num[0] > 0 else -1
        return others * CycNum(1, (sign * norm.den,), abs(norm.num[0]))

    def __truediv__(self, other):
        other = CycNum._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = CycNum._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = CycNum.one()
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base if exponent > 1 else base
            exponent >>= 1
        return result

    def galois(self, a: int) -> "CycNum":
        """The automorphism sigma_a: zeta -> zeta^a, a prime to the order."""
        L = self.order
        if gcd(a, L) != 1:
            raise ValueError(f"{a} is not prime to the order {L}")
        nums = _reduce_exponents(
            L, ((e * a, c) for e, c in enumerate(self.num) if c))
        return CycNum(L, tuple(nums), self.den)

    def conjugate(self) -> "CycNum":
        """Complex conjugation: zeta^e -> zeta^(-e)."""
        return self.galois(-1)

    # -- comparisons and export ----------------------------------------------

    def __eq__(self, other):
        other = CycNum._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        L, a, b = self._common(other)
        return self.den == other.den and a == b

    __hash__ = None  # mutable-free but equality crosses orders; not hashable

    def to_complex(self) -> complex:
        acc = 0j
        L = self.order
        for e, c in enumerate(self.num):
            if c:
                acc += c * cmath.exp(2j * cmath.pi * e / L)
        return acc / self.den

    def to_json_obj(self):
        den = self.den
        return {
            "order": self.order,
            "coeffs": [[e, str(c) if den == 1 else str(Fraction(c, den))]
                       for e, c in enumerate(self.num) if c],
        }

    @staticmethod
    def from_json_obj(obj) -> "CycNum":
        """sum c zeta^e over the pairs [e, "c"], any e and repeats summed."""
        order = int(obj["order"])
        if order < 1:
            raise ValueError(f"order must be positive, got {order}")
        nums, den = _clear_denominators([Fraction(c) for _, c in obj["coeffs"]])
        pairs = zip((int(e) for e, _ in obj["coeffs"]), nums)
        return CycNum(order, tuple(_reduce_exponents(order, pairs)), den)

    def __repr__(self) -> str:
        if self.is_zero():
            return "CycNum(0)"
        terms = []
        for e, c in enumerate(self.num):
            if c:
                coeff = Fraction(c, self.den)
                terms.append(f"{coeff}*z{self.order}^{e}" if e else f"{coeff}")
        return "CycNum(" + " + ".join(terms) + ")"


def matrix_product(a, b) -> list[list[CycNum]]:
    """The exact product of two CycNum matrices, as rows.

    Each entry is lifted once to Q(zeta_L), L the lcm of all orders, over
    one denominator per factor, and its coordinates are packed as the
    base-2^w digits of one int (Kronecker substitution).  An entry of a b
    is then a sum of n int products whose 2 phi(L) - 1 digits are its
    coordinates before one reduction mod Phi_L.  No digit exceeds
    n phi(L) max|a| max|b| in size; w covers that and a sign bit.
    """
    cols = list(zip(*b))
    L = lcm(*(x.order for m in (a, cols) for row in m for x in row))
    nums_a, den_a, top_a = _lift(a, L)
    nums_b, den_b, top_b = _lift(cols, L)
    w = (len(b) * _phi(L) * top_a * top_b).bit_length() + 1
    packed_b = [[_pack(v, w) for v in col] for col in nums_b]
    out = []
    for nums in nums_a:
        row = [_pack(v, w) for v in nums]
        sums = [sum(map(mul, row, col)) for col in packed_b]
        out.append([CycNum(L, tuple(_reduce_exponents(L, enumerate(v))),
                           den_a * den_b)
                    for v in _unpack(sums, w, 2 * _phi(L) - 1)])
    return out


def _lift(rows, order: int) -> tuple[list, int, int]:
    """(nums, den, top): each entry's integer coordinates in Q(zeta_order)
    times den, the lcm of the denominators, and the largest |coordinate|."""
    den = lcm(*(x.den for row in rows for x in row))
    nums = [[[c * (den // x.den) for c in x._lift_num(order)] for x in row]
            for row in rows]
    return nums, den, max((abs(c) for row in nums for v in row for c in v),
                          default=0)


def _residues(rows, bound: int) -> tuple[list[list[int]], int]:
    """(res, q): the CycNum entries of rows over one denominator at
    zeta_L = 2^w mod q = Phi_L(2^w), L the lcm of their orders.  Let y be a
    sum of bound products of two entries, T their largest l1 norm.  If y
    maps to 0, q divides Res(Phi_L, y) = +-N(y) (Cohen, A Course in
    Computational Algebraic Number Theory, 4.3); |N(y)| <= (bound T^2)^phi
    and 2^w - 1 > bound T^2 make |N(y)| < (2^w - 1)^phi <= q, so y = 0."""
    L = lcm(*(x.order for row in rows for x in row))
    nums = _lift(rows, L)[0]
    top = max(sum(map(abs, v)) for row in nums for v in row)
    w = (bound * top * top + 1).bit_length()
    q = _pack(cyclotomic_polynomial(L), w)
    return [[_pack(v, w) % q for v in row] for row in nums], q


def _pack(vec, w: int) -> int:
    """sum vec[e] 2^(w e): the coordinates as the digits of one int."""
    return sum(c << (w * e) for e, c in enumerate(vec) if c)


def _unpack(values, w: int, digits: int) -> list[list[int]]:
    """The first digits coordinates of each _pack int of values, each below
    2^(w-1) in size: half a digit added to each lets a mask read it off."""
    half, mask = 1 << (w - 1), (1 << w) - 1
    bias = _pack([half] * digits, w)
    return [[((v >> s) & mask) - half for s in range(0, digits * w, w)]
            for v in map(bias.__add__, values)]


def solve(a, b=None) -> tuple:
    """(det a, x) with a x = b, by Gaussian elimination over an exact field.

    The entries of a are Fractions or CycNums (b may hold ints); only
    ``not``, ``1 / x``, ``*`` and ``-`` are used.  b and x are lists of
    rows.  Without b only det a is computed, by the same row operations.
    x is None when det a = 0.
    """
    n = len(a)
    m = [list(row) + list(rhs) for row, rhs in zip(a, b or [()] * n)]
    det, inverses = 1, []
    for col in range(n):
        p = next((r for r in range(col, n) if m[r][col]), None)
        if p is None:
            return 0, None
        if p != col:
            m[col], m[p] = m[p], m[col]
            det = -det
        det = det * m[col][col]
        inverses.append(1 / m[col][col])
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] * inverses[col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    x = [None] * n
    for i in reversed(range(n)):
        acc = m[i][n:]
        for j in range(i + 1, n):
            if m[i][j]:
                acc = [u - m[i][j] * v for u, v in zip(acc, x[j])]
        x[i] = [u * inverses[i] for u in acc]
    return det, x


def epsilon_power(a, lacing: int, kappa: int) -> CycNum:
    """eps^a for eps = exp(pi i / (lacing * kappa)), a any exact rational."""
    f = Fraction(a)
    return CycNum.root_of_unity(2 * lacing * kappa * f.denominator,
                                f.numerator)


def sqrt_of_int(n: int) -> CycNum:
    """The positive square root of a positive integer, as an exact CycNum.

    Uses quadratic Gauss sums: sqrt(p) lies in Q(zeta_p) for p = 1 mod 4,
    in Q(zeta_{4p}) for p = 3 mod 4, and sqrt(2) = zeta_8 + zeta_8^{-1}.
    """
    if n <= 0:
        raise ValueError("square root of a non-positive integer")
    square, rest = 1, n
    for p in _prime_factors(n):
        while rest % (p * p) == 0:
            rest //= p * p
            square *= p
    result = CycNum.from_rational(square)
    for p in _prime_factors(rest):
        if p == 2:
            root = CycNum.root_of_unity(8, 1) + CycNum.root_of_unity(8, 7)
        else:
            gauss = CycNum.from_tally(p, [(t * t, 1) for t in range(p)])
            if p % 4 == 1:
                root = gauss
            else:
                root = CycNum.root_of_unity(4, 3) * gauss  # -i * (i sqrt p)
        result = result * root
    if not abs(result.to_complex() - n ** 0.5) < 1e-6:
        raise InternalConsistencyError("wrong branch of the square root")
    return result


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# --------------------------------------------------------------------------
# rational functions in v = q^(1/2)

def _dense(terms) -> tuple[int, list]:
    """(low, coefficients from v^low up) of the sum of c v^e over the
    terms (e, c)."""
    terms = list(terms)
    low = min((e for e, _ in terms), default=0)
    out = [0] * (max((e for e, _ in terms), default=low) - low + 1)
    for e, c in terms:
        out[e - low] += c
    return low, out


def _printed(low: int, coeffs, lead: int) -> list[list]:
    """[[e, str(c / lead)]] for each nonzero coefficient c of v^e."""
    return [[e, str(Fraction(c, lead))]
            for e, c in enumerate(coeffs, low) if c]


def _poly_text(terms) -> str:
    return " + ".join(f"{c}*v^{e}" if e else c for e, c in terms) or "0"


class PoleAtEpsilonError(ArithmeticError):
    """A rational function was evaluated at a zero of its denominator."""


class QRatFn:
    """v^low num(v) / den(v), a rational function of v over Q.

    num and den are tuples of integer coefficients from v^0 up.  Their
    constant terms are nonzero, they are coprime over Q, all their
    coefficients together have gcd 1, and den[-1] > 0.  This form is
    unique, so equal values have equal (low, num, den); zero is
    (0, (), (1,)).  JSON and repr print the coefficients over den[-1].
    """

    __slots__ = ("low", "num", "den")

    def __init__(self, num, den=(1,), low: int = 0, _reduced: bool = False):
        """Reduce v^low num(v) / den(v), for ascending sequences of int
        coefficients; _reduced takes them as they are.  Any other
        coefficient (a Fraction, a float) raises TypeError from math.gcd,
        which every path below reaches."""
        if not _reduced:
            num, den = _strip(list(num)), _strip(list(den))
            if not den:
                raise ZeroDivisionError("zero denominator")
            if not num:
                gcd(*den)       # the type check of the other paths
                low, den = 0, [1]
            else:
                # the powers of v dividing num or den go into low
                i = next(i for i, c in enumerate(num) if c)
                j = next(j for j, c in enumerate(den) if c)
                low += i - j
                num, den = num[i:], den[j:]
                # a one-term denominator has no factor to cancel
                if len(den) > 1:
                    g = _poly_gcd(num, den)
                    if len(g) > 1:
                        num, den = _pdivexact(num, g), _pdivexact(den, g)
            g = gcd(*num, *den) if den[-1] > 0 else -gcd(*num, *den)
            num = tuple(x // g for x in num)
            den = tuple(x // g for x in den)
        self.low = low
        self.num = num
        self.den = den

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_rational(value) -> "QRatFn":
        return QRatFn.monomial(0, value)

    @staticmethod
    def zero() -> "QRatFn":
        return QRatFn((), (1,), 0, _reduced=True)

    @staticmethod
    def one() -> "QRatFn":
        return QRatFn((1,), (1,), 0, _reduced=True)

    @staticmethod
    def monomial(exponent: int, value=1) -> "QRatFn":
        f = Fraction(value)
        return QRatFn((f.numerator,), (f.denominator,), exponent)

    # -- predicates ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_polynomial(self) -> bool:
        return len(self.den) == 1

    # -- arithmetic --------------------------------------------------------------

    @staticmethod
    def _coerce(value):
        if isinstance(value, QRatFn):
            return value
        if isinstance(value, (int, Fraction)):
            return QRatFn.from_rational(value)
        return NotImplemented

    def __add__(self, other):
        other = QRatFn._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return other
        low = min(self.low, other.low)
        a = (0,) * (self.low - low) + self.num
        b = (0,) * (other.low - low) + other.num
        return QRatFn(_padd(_pmul(a, other.den), _pmul(b, self.den)),
                      _pmul(self.den, other.den), low)

    __radd__ = __add__

    def __neg__(self):
        return QRatFn(tuple(-c for c in self.num), self.den, self.low,
                      _reduced=True)

    def __sub__(self, other):
        other = QRatFn._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = QRatFn._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return QRatFn(_pmul(self.num, other.num), _pmul(self.den, other.den),
                      self.low + other.low)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = QRatFn._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by the zero rational function")
        return QRatFn(_pmul(self.num, other.den), _pmul(self.den, other.num),
                      self.low - other.low)

    def __rtruediv__(self, other):
        other = QRatFn._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __eq__(self, other):
        other = QRatFn._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.low == other.low and self.num == other.num
                and self.den == other.den)

    __hash__ = None

    def bar(self) -> "QRatFn":
        """The involution v -> 1/v with rational coefficients untouched.
        Reversing num and den keeps them coprime with gcd 1, so the reduced
        form needs only den[-1] > 0 restored."""
        if not self.num:
            return self
        sign = 1 if self.den[0] > 0 else -1
        return QRatFn(tuple(sign * x for x in reversed(self.num)),
                      tuple(sign * x for x in reversed(self.den)),
                      len(self.den) - len(self.num) - self.low, _reduced=True)

    def eval_at_epsilon(self, lacing: int, kappa: int) -> CycNum:
        """Value at v = eps^(1/2) = zeta_M, M = 4 lacing kappa: num and den
        are one tally each, of their nonzero terms only, since every term
        tallied counts in the order stored.  Raises PoleAtEpsilonError on a
        pole."""
        order = 4 * lacing * kappa
        den = CycNum.from_tally(order, compress(enumerate(self.den), self.den))
        if den.is_zero():
            raise PoleAtEpsilonError(
                f"pole at the root of unity (lacing {lacing}, kappa {kappa}): "
                f"denominator {_poly_text(self.to_json_obj()['den'])} "
                "vanishes")
        return CycNum.from_tally(
            order, compress(enumerate(self.num, self.low), self.num)) / den

    def to_json_obj(self):
        lead = self.den[-1]
        return {"num": _printed(self.low, self.num, lead),
                "den": _printed(0, self.den, lead)}

    @staticmethod
    def from_json_obj(obj) -> "QRatFn":
        low_num, num = _dense((e, Fraction(s)) for e, s in obj["num"])
        low_den, den = _dense((e, Fraction(s)) for e, s in obj["den"])
        ints, _ = _clear_denominators(num + den)
        return QRatFn(ints[:len(num)], ints[len(num):], low_num - low_den)

    def __repr__(self) -> str:
        obj = self.to_json_obj()
        num = _poly_text(obj["num"])
        if self.is_polynomial():
            return f"QRatFn({num})"
        return f"QRatFn(({num}) / ({_poly_text(obj['den'])}))"


def q_number(n: int, d: int = 1) -> QRatFn:
    """The q-number [n] with symmetrizer d: (q^(nd) - q^(-nd)) / (q^d - q^(-d)),
    the sum of v^(2d(n-1-2j)) over 0 <= j < n."""
    if n < 0:
        return -q_number(-n, d)
    if not n:
        return QRatFn.zero()
    step = 4 * d
    return QRatFn(tuple(int(i % step == 0) for i in range(step * (n - 1) + 1)),
                  (1,), -2 * d * (n - 1), _reduced=True)
