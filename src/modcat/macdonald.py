"""Type-A Macdonald polynomials and the modular action on intertwiners.

The polynomials are built at generic q by Gram-Schmidt over the monomial
symmetric sums m_lam in dominance order, with the constant-term inner
product whose density is the paired product delta_k bar(delta_k).  Each
overlap <m_lam, P_mu> and each norm <m_lam, P_lam> pairs the unit
coefficients of m_lam; since the P_mu are orthogonal, these equal the
overlaps with the partly reduced polynomial and <P_lam, P_lam>.  The
pairing is a constant-term sum over matching weights: each term of f meets
each term of bar(g) whose weight sum is minus a weight of the density.
Its sums run over the integer numerators (QRatFn.low, QRatFn.num) of the
coefficients, one running sum per pair of denominators QRatFn.den, each
made a QRatFn once.  The density is multiplied out in integers and kept
so; the closed-form norm is one q-number quotient, built reduced.  All is
exact: rational functions of v = q^(1/2) at generic q, cyclotomic numbers
at the root of unity.  The modular matrices on the intertwiner basis come
from d_lam, one binomial product of chardata, and the special values
P_lam(x_mu) (SUData.values): each coefficient of P_lam, evaluated once,
times chardata._weight_sum over the weights that carry it.  They are
checked against every symmetry, conjugation and modular-group identity.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain

from .chardata import (_binomial_product, _rho_denominator_inverse,
                       _weight_sum, dominant_weights_below, is_dominant,
                       quantum_dim, weight_multiplicities)
from .lie import (RootSystemData, Weight, _dot, build_root_system, form,
                  lattice_index, pairing, root_alpha_coords, wadd, wneg,
                  wscale)
from .numeric import (DEFAULT_TOLERANCE, CycNum, InternalConsistencyError,
                      PoleAtEpsilonError, QRatFn, _dense, _pmul, approx_eq,
                      cyclotomic_polynomial, epsilon_power, matrix_product,
                      sqrt_of_int)
from .report import VerificationReport, mismatches
from .weyl import (enumerate_ck, make_dominant, reflect, star,
                   star_positions, weyl_orbit, weyl_order)

from .modular import build_modular_data, dagger, monomial_matrix


def dominance_leq(rs: RootSystemData, lam: Weight, mu: Weight) -> bool:
    """True when mu - lam is a non-negative integer sum of simple roots.

    Weights in different root-lattice classes are incomparable (False).
    """
    coords = root_alpha_coords(rs, wadd(mu, wneg(lam)))
    return all(c.denominator == 1 and c >= 0 for c in coords)


class WPoly:
    """Finitely supported group-ring element: weight -> QRatFn coefficient
    at generic q."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Weight, QRatFn]):
        self.terms = {w: c for w, c in terms.items() if c}

    @staticmethod
    def one(rank: int) -> "WPoly":
        return WPoly({(0,) * rank: QRatFn.one()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, WPoly):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __add__(self, other: "WPoly") -> "WPoly":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out[w] + c if w in out else c
        return WPoly(out)

    def __sub__(self, other: "WPoly") -> "WPoly":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out[w] - c if w in out else -c
        return WPoly(out)

    def __mul__(self, other: "WPoly") -> "WPoly":
        out: dict[Weight, QRatFn] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = wadd(w1, w2)
                p = c1 * c2
                out[w] = out[w] + p if w in out else p
        return WPoly(out)

    def scale(self, c) -> "WPoly":
        return WPoly({w: x * c for w, x in self.terms.items()})

    def bar(self, rs: RootSystemData) -> "WPoly":
        """Coefficient bar combined with the exponent flip w -> -w0(w)."""
        return WPoly({star(rs, w): c.bar() for w, c in self.terms.items()})

    def constant_term(self):
        zero = (0,) * (len(next(iter(self.terms))) if self.terms else 0)
        return self.terms.get(zero)

    def coefficient(self, w: Weight):
        return self.terms.get(w)

    def is_w_invariant(self, rs: RootSystemData) -> bool:
        for i in range(rs.rank):
            for w, c in self.terms.items():
                ci = self.terms.get(reflect(rs, i, w))
                if ci is None or not (ci == c):
                    return False
        return True

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self) -> str:
        inner = ", ".join(f"{w}: {c!r}" for w, c in self.sorted_terms())
        return f"WPoly({{{inner}}})"


def monomial_sum(rs: RootSystemData, lam: Weight) -> WPoly:
    """Orbit sum of e^lam over the Weyl group, coefficients 1."""
    return WPoly({w: QRatFn.one() for w, _ in weyl_orbit(rs, lam)})


def _terms(c: QRatFn) -> list[tuple[int, int]]:
    """The nonzero terms (exponent of v, coefficient) of c's numerator."""
    return [(e, x) for e, x in enumerate(c.num, c.low) if x]


def _add_product(acc: dict[int, int], a, b) -> None:
    """acc += a * b for integer Laurent polynomials: acc maps exponents of
    v to coefficients, a and b are (exponent, coefficient) items."""
    for e1, c1 in a:
        for e2, c2 in b:
            e = e1 + e2
            acc[e] = acc.get(e, 0) + c1 * c2


def _ratio(terms, den=(1,), shift: int = 0) -> QRatFn:
    """v^shift (the sum of c v^e over the terms (e, c)) / den."""
    low, coeffs = _dense(terms)
    return QRatFn(coeffs, den, low + shift)


def delta_k_product(rs: RootSystemData, k: int) -> WPoly:
    """The paired density: prod over i < k and positive alpha of
    (e^alpha - (q^2i + q^-2i) + e^-alpha), which is weight-integral."""
    return WPoly({w: _ratio(c) for w, c in _density(rs, k).items()})


def _density(rs: RootSystemData, k: int) -> dict[Weight, list]:
    """delta_k_product as weight -> the nonzero terms (exponent of v,
    integer coefficient) of its Laurent polynomial coefficient: the factors
    are multiplied out in integers and never normalised."""
    if k < 1:
        raise ValueError("the density needs k >= 1")
    zero = rs.zero
    out = {zero: {0: 1}}
    for i in range(k):
        # -(q^2i + q^-2i) = -(v^4i + v^-4i)
        middle = [(0, -2)] if i == 0 else [(4 * i, -1), (-4 * i, -1)]
        for alpha in rs.positive_roots:
            nxt: dict[Weight, dict[int, int]] = {}
            factor = {alpha: [(0, 1)], zero: middle, wneg(alpha): [(0, 1)]}
            for w, c in out.items():
                for shift, x in factor.items():
                    _add_product(nxt.setdefault(wadd(w, shift), {}),
                                 c.items(), x)
            out = nxt
    terms = {w: [(e, x) for e, x in c.items() if x] for w, c in out.items()}
    return {w: t for w, t in terms.items() if t}


def norm_formula(rs: RootSystemData, k: int, lam: Weight) -> QRatFn:
    """Closed product of q-number ratios for the squared norm of P_lam.

    Equal q-numbers of the numerator [x + i] and the denominator [x - i]
    cancel first.  Each remaining [m] is v^(-2(m-1)) prod Phi_e(v) over
    e | 4m, e not dividing 4, and [-m] = -[m]; cancelling the counts of
    each cyclotomic factor Phi_e leaves two coprime sides, which are
    multiplied out in integers into an already reduced ratio."""
    count: Counter[int] = Counter()
    shifted = wadd(lam, wscale(k, rs.rho))
    for alpha in rs.positive_roots:
        x = pairing(rs, shifted, alpha)
        for i in range(1, k):
            if x == i:
                raise ZeroDivisionError(
                    "division by the zero rational function")
            count[x + i] += 1
            count[x - i] -= 1
    if count[0] > 0:  # the numerator has the factor [0] = 0
        return QRatFn.zero()
    factors: Counter[int] = Counter()
    shift, sign = 0, 1
    for m, c in count.items():
        if m < 0 and c % 2:
            sign = -sign
        m = abs(m)
        shift -= 2 * (m - 1) * c
        for e in range(3, 4 * m + 1):
            if 4 * m % e == 0 and e != 4:
                factors[e] += c
    num, den = [sign], [1]
    for e, c in factors.items():
        for _ in range(abs(c)):
            if c > 0:
                num = _pmul(num, cyclotomic_polynomial(e))
            else:
                den = _pmul(den, cyclotomic_polynomial(e))
    return QRatFn(tuple(num), tuple(den), shift, _reduced=True)


class MacdonaldContext:
    """Per-(n, k, level) workspace with caches for polynomials and norms.

    sigma is the calibrated sign of the inner product and group_order the
    order of W.  delta is the paired density of delta_k_product as the
    pairing reads it: weight -> the nonzero integer terms (exponent of v,
    coefficient) of its Laurent polynomial coefficient.  _polys caches
    P_lam and _norms caches <m_lam, P_lam> = <P_lam, P_lam> at generic q.
    """

    def __init__(self, n: int, k: int, level: int, kappa: int,
                 rs: RootSystemData, alcove: tuple[Weight, ...], sigma: int,
                 delta: dict[Weight, list], group_order: int) -> None:
        self.n, self.k, self.level, self.kappa = n, k, level, kappa
        self.rs, self.alcove, self.sigma = rs, alcove, sigma
        self.delta, self.group_order = delta, group_order
        self._polys: dict[Weight, WPoly] = {}
        self._norms: dict[Weight, QRatFn] = {}


def build_context(n: int, k: int, level: int) -> MacdonaldContext:
    if n < 2:
        raise ValueError("need n >= 2")
    if k < 1:
        raise ValueError("need k >= 1")
    if level < 0:
        raise ValueError("need a non-negative level bound")
    rs = build_root_system("A", n - 1)
    kappa = level + k * rs.dual_coxeter
    delta = _density(rs, k)
    order = weyl_order(rs)
    # calibrate the inner-product sign so that (1,1) equals the closed form
    raw = _ratio(delta.get(rs.zero, ()), (order,))
    want = norm_formula(rs, k, rs.zero)
    if raw == want:
        sigma = 1
    elif raw == -want:
        sigma = -1
    else:
        raise InternalConsistencyError(
            "inner-product sign calibration failed: constant term "
            f"{raw!r} is not +- the closed-form norm {want!r}")
    return MacdonaldContext(
        n=n, k=k, level=level, kappa=kappa, rs=rs,
        alcove=enumerate_ck(rs, level), sigma=sigma, delta=delta,
        group_order=order)


def inner_product_k(ctx: MacdonaldContext, f: WPoly, g: WPoly) -> QRatFn:
    """Hermitian constant-term pairing with the calibrated sign.

    The constant term of f bar(g) delta is a sum over the terms a of f and
    b* of bar(g) whose weights match a delta term at -(a + b*).  The
    integer numerators of the coefficients are multiplied and summed per
    pair of their integer denominators, and each pair's sum becomes a
    QRatFn once, over its denominator times sigma |W|."""
    rs, delta = ctx.rs, ctx.delta
    scale = ctx.sigma * ctx.group_order
    # bar on g's numerators here, on its denominators once per group below
    g_bar = [(star(rs, w), [(-e, x) for e, x in _terms(c)], c.den)
             for w, c in g.terms.items()]
    # (denominator of f's term, of g's term) -> weight -w -> numerator sum
    groups: dict[tuple, dict[Weight, dict[int, int]]] = {}
    for wa, a in f.terms.items():
        num_a = _terms(a)
        for wb, num_b, den_b in g_bar:
            w = tuple(-x - y for x, y in zip(wa, wb))
            if w in delta:
                by_weight = groups.setdefault((a.den, den_b), {})
                _add_product(by_weight.setdefault(w, {}), num_a, num_b)
    total = QRatFn.zero()
    for (den_a, den_b), by_weight in groups.items():
        acc: dict[int, int] = {}
        for w, num in by_weight.items():
            _add_product(acc, num.items(), delta[w])
        # den_b(1/v) = v^(1 - len den_b) (den_b reversed)(v)
        den = _pmul(den_a, [scale * x for x in reversed(den_b)])
        total = total + _ratio(acc.items(), den, len(den_b) - 1)
    return total


def macdonald_polynomial(ctx: MacdonaldContext, lam: Weight) -> WPoly:
    """P_lam at generic q: unit leading coefficient, orthogonal to all
    dominance-lower polynomials.

    P_lam = m_lam - sum over mu < lam of <m_lam, P_mu> / <P_mu, P_mu> P_mu.
    Each overlap pairs the monomial sum m_lam, whose coefficients are 1,
    and not the partly reduced polynomial: the P_mu are orthogonal, so the
    two overlaps are equal."""
    if not is_dominant(lam):
        raise ValueError(f"need a dominant weight, got {lam}")
    cached = ctx._polys.get(lam)
    if cached is not None:
        return cached
    rs = ctx.rs
    m_lam = poly = monomial_sum(rs, lam)
    for mu in dominant_weights_below(rs, lam):
        if mu == lam:
            continue
        p_mu = macdonald_polynomial(ctx, mu)
        overlap = inner_product_k(ctx, m_lam, p_mu)
        if overlap.is_zero():
            continue
        poly = poly - p_mu.scale(overlap / macdonald_norm(ctx, mu))
    ctx._polys[lam] = poly
    return poly


def macdonald_norm(ctx: MacdonaldContext, lam: Weight) -> QRatFn:
    """<P_lam, P_lam> at generic q, computed as <m_lam, P_lam>: P_lam - m_lam
    is a sum of lower P_mu, all orthogonal to P_lam."""
    cached = ctx._norms.get(lam)
    if cached is None:
        cached = inner_product_k(ctx, monomial_sum(ctx.rs, lam),
                                 macdonald_polynomial(ctx, lam))
        ctx._norms[lam] = cached
    return cached


# -- the modular action on the intertwiner basis -------------------------------


class SUData(namedtuple("SUData", (
        "n k level kappa alcove smatrix tmatrix conj_scalar twist_u "
        "norms_eps values"))):
    """Modular matrices on the intertwiner basis indexed by the sub-alcove.

    conj_scalar is the scalar kappa_C with S^2 = kappa_C * (star permutation);
    its square is the inverse of the twist twist_u of the inducing object.
    values[l][m] = P_l(x_m), the Macdonald polynomial of the l-th alcove
    weight at the root of unity, evaluated at x_m = eps^(-2(m + k rho));
    S_lm = d_l values[m][l].
    """


@lru_cache(maxsize=None)
def d_prefactor(n: int, kappa: int) -> CycNum:
    """i^(n(n-1)/2) / sqrt(n kappa^(n-1)), exact."""
    phase = CycNum.root_of_unity(4, (n * (n - 1) // 2) % 4)
    return phase * sqrt_of_int(n * kappa ** (n - 1)).inverse()


def _d_pairs(ctx: MacdonaldContext, lam: Weight, first: int = 0):
    """Exponent pairs (-x, x - 2i) of the factors eps^-x - eps^(x-2i) of
    d_lam, x = <lam + k rho, alpha^vee>, alpha > 0, first <= i < k."""
    shifted = wadd(lam, wscale(ctx.k, ctx.rs.rho))
    for alpha in ctx.rs.positive_roots:
        x = pairing(ctx.rs, shifted, alpha)
        for i in range(first, ctx.k):
            yield -x, x - 2 * i


def d_coefficient(ctx: MacdonaldContext, lam: Weight) -> CycNum:
    """The row normalization d_lam of the S-matrix."""
    return d_prefactor(ctx.n, ctx.kappa) * _binomial_product(
        2 * ctx.kappa, _d_pairs(ctx, lam))


def _special_values(ctx: MacdonaldContext, points) -> tuple:
    """values[l][m] = P_l(eps^points[m]) over the alcove weights l.

    Each coefficient of P_l is evaluated at v = eps^(1/2) once and scales
    the weight sum over the class of weights carrying it, in sorted order
    of first weight; a pole names l and that class's first weight."""
    rs, kappa = ctx.rs, ctx.kappa
    rows = []
    for lam in ctx.alcove:
        classes: dict[tuple, tuple[QRatFn, list]] = {}
        for w, c in macdonald_polynomial(ctx, lam).sorted_terms():
            classes.setdefault((c.low, c.num, c.den), (c, []))[1].append(
                (w, 1))
        terms = []
        for c, weights in classes.values():
            try:
                x = c.eval_at_epsilon(1, kappa)
            except PoleAtEpsilonError as exc:
                raise PoleAtEpsilonError(f"{lam}: coefficient at weight "
                                         f"{weights[0][0]}: {exc}") from None
            if x:
                terms.append((x, weights))
        rows.append(tuple(sum((x * _weight_sum(rs, kappa, weights, p)
                               for x, weights in terms), CycNum.zero())
                          for p in points))
    return tuple(rows)


def build_su_data(ctx: MacdonaldContext) -> SUData:
    """The modular matrices on the intertwiner basis; PoleAtEpsilonError if
    some P_lam of the sub-alcove has a pole at the root of unity."""
    rs, k, kappa = ctx.rs, ctx.k, ctx.kappa
    n = ctx.n
    alcove = ctx.alcove
    size = len(alcove)
    rho = rs.rho

    points = [wscale(-2, wadd(lam, wscale(k, rho))) for lam in alcove]
    values = _special_values(ctx, points)
    dvals = [d_coefficient(ctx, lam) for lam in alcove]
    smat = tuple(tuple(d * values[b][a] for b in range(size))
                 for a, d in enumerate(dvals))

    rho_norm = form(rs, rho, rho)
    tmat_diag = []
    for lam in alcove:
        shifted = wadd(lam, wscale(k, rho))
        exp = form(rs, shifted, shifted) - Fraction(kappa, n) * rho_norm
        tmat_diag.append(epsilon_power(exp, 1, kappa))
    tmat = tuple(map(tuple, monomial_matrix(tmat_diag, range(size))))

    half = (n * (n - 1) * k * (k - 1)) // 2
    sign = (-1) ** (((k - 1) * n * (n - 1) // 2) % 2)
    conj_scalar = epsilon_power(-half, 1, kappa) * sign
    twist_u = epsilon_power(2 * half, 1, kappa)

    norms_eps = tuple(
        norm_formula(rs, k, lam).eval_at_epsilon(1, kappa) for lam in alcove)

    return SUData(n=n, k=k, level=ctx.level, kappa=kappa, alcove=alcove,
                  smatrix=smat, tmatrix=tmat, conj_scalar=conj_scalar,
                  twist_u=twist_u, norms_eps=norms_eps, values=values)


def verify_section5(ctx: MacdonaldContext,
                    tol: float = DEFAULT_TOLERANCE) -> VerificationReport:
    """All exact identities of the intertwiner modular action, plus the
    float cross-checks against the category data."""
    rep = VerificationReport(suite="section5")
    rs, k, kappa = ctx.rs, ctx.k, ctx.kappa
    alcove = ctx.alcove
    size = len(alcove)
    idx = range(size)

    pole_free = "specialization pole-free on the sub-alcove"
    try:
        su = build_su_data(ctx)
    except PoleAtEpsilonError as exc:
        rep.record(pole_free, False, str(exc))
        return rep
    rep.record(pole_free, True, None)
    s = su.smatrix
    norms = su.norms_eps
    sp = star_positions(rs, alcove)

    rep.check("S_{lm} = S_{l* m*}", mismatches(
        s, ((s[p][q] for q in sp) for p in sp), alcove))

    thm55_scalar = su.conj_scalar.inverse()
    rep.check("conj(S_{lm}) = phase * S_{l* m}", mismatches(
        ((x.conjugate() for x in row) for row in s),
        ((thm55_scalar * x for x in s[p]) for p in sp), alcove))

    s2 = matrix_product(s, s)
    rep.check("S^2 = conjugation permutation with phase", mismatches(
        s2, monomial_matrix([su.conj_scalar] * size, sp), alcove))

    # kappa_C = (S^2)_00 and the dual-basis phase conj(S_00) / S_00, read off
    # the matrices at the unit 0 = 0*, so that neither check holds by
    # construction
    zero = alcove.index(rs.zero)
    kappa_c = s2[zero][zero]
    phase = s[zero][zero].conjugate() / s[zero][zero]
    product = kappa_c * phase
    rep.record("conjugation scalars of S^2 and the dual basis map are inverse",
               product == CycNum.one(), f"{product!r} vs {CycNum.one()!r}")

    square = kappa_c * kappa_c
    inv_twist = su.twist_u.inverse()
    rep.record("conj_scalar^2 = 1 / twist_u", square == inv_twist,
               f"{square!r} vs {inv_twist!r}")

    rep.check("S^4 = Id / twist_u", mismatches(
        matrix_product(s2, s2), monomial_matrix([inv_twist] * size, idx),
        alcove))

    # T is diagonal: S T scales the columns of S by the twists
    theta = [row[i] for i, row in enumerate(su.tmatrix)]
    st = [[x * th for x, th in zip(row, theta)] for row in s]
    st3 = matrix_product(matrix_product(st, st), st)
    rep.check("(ST)^3 = S^2", mismatches(st3, s2, alcove))

    weighted = [[x * norms[i] for x in row] for i, row in enumerate(s)]
    rep.check("norm-weighted symmetry S_{lm} n_l = S_{ml} n_m",
              mismatches(weighted, zip(*weighted), alcove))

    # Macdonald's evaluation symmetry P_l(x_m) P_m(x_0) = P_m(x_l) P_l(x_0)
    # at x_m = eps^(-2(m + k rho)), from the polynomials alone: no d_l, no
    # norms
    values = su.values
    explicit = [[values[l][m] * values[m][zero] for m in idx] for l in idx]
    rep.check("explicit symmetry through polynomial special values",
              mismatches(explicit, zip(*explicit), alcove))

    # unitarity for the weighted inner product: S^dagger diag(n) S = diag(n)
    weighted_dagger = [[x * nv for x, nv in zip(row, norms)]
                       for row in dagger(s)]
    rep.check("norm-weighted unitarity S^dagger diag(n) S = diag(n)",
              mismatches(matrix_product(weighted_dagger, s),
                         monomial_matrix(norms, idx), alcove))

    # vanishing criterion for the norm at the root of unity: the closed-form
    # norm is nonzero exactly on the sub-alcove, over the whole region where
    # the shifted weight stays inside the open alcove
    def criterion_failures():
        for lam in enumerate_ck(rs, ctx.level + k - 1):
            inside = _dot(rs.comarks, lam) <= ctx.level
            try:
                value = norm_formula(rs, k, lam).eval_at_epsilon(1, kappa)
            except PoleAtEpsilonError as exc:
                yield f"pole at {lam}: {exc}"
                continue
            if value.is_zero() == inside:
                yield (f"{lam}: norm nonzero {not value.is_zero()} vs "
                       f"in sub-alcove {inside}")

    rep.check("norm at the root of unity vanishes exactly off the sub-alcove",
              criterion_failures())

    rep.check("norms at the root of unity are conjugation-invariant",
              mismatches(((x.conjugate(),) for x in norms),
                         ((x,) for x in norms), alcove))

    rplus = len(rs.positive_roots)
    parity = (-1) ** ((k * rplus) % 2)
    rep.record(
        f"calibrated pairing sign {ctx.sigma:+d} has parity of k |R+|",
        ctx.sigma == parity, f"{ctx.sigma:+d} vs {parity:+d}")

    # float cross-checks against the category data
    index = lattice_index(rs, kappa)
    dsq = index * (-1) ** rplus
    delta_inv = _rho_denominator_inverse(rs, kappa)
    d_total = (dsq * (delta_inv * delta_inv).to_complex()).real ** 0.5

    # S_{l0} = d_l, since P_0 = 1
    def normalization_failures():
        for lam, d in zip(alcove, (row[zero] for row in s)):
            lam_k = wadd(lam, wscale(k - 1, rs.rho))
            dim_val = quantum_dim(rs, kappa, lam_k).to_complex()
            phi0 = _binomial_product(2 * kappa, _d_pairs(ctx, lam, 1))
            want = dim_val / d_total * phi0.to_complex()
            if not approx_eq(d.to_complex(), want, tol):
                yield f"{lam}: {d.to_complex()} vs {want}"

    rep.check("float: row normalization matches dimension ratio route",
              normalization_failures())

    if k == 1:
        md = build_modular_data(rs, kappa)
        d_pos = md.d_squared.to_complex().real ** 0.5
        rep.check("float: k=1 matrix equals the normalized category s-matrix",
                  chain(mismatches(((md.alcove,),), ((alcove,),)), mismatches(
                      ((x.to_complex() for x in row) for row in s),
                      ((x.to_complex() / d_pos for x in row)
                       for row in md.smatrix), alcove,
                      lambda x, y: approx_eq(x, y, tol))))

    return rep


def verify_generic_macdonald(n: int, k: int, bound: int) -> VerificationReport:
    """Generic-q properties over a dominant box: triangularity, pairwise
    orthogonality, and the closed-form norms; at k = 1 the polynomials are
    the classical characters."""
    rep = VerificationReport(suite="macdonald-generic")
    ctx = build_context(n, k, bound)
    rs = ctx.rs
    grid = ctx.alcove
    poly = partial(macdonald_polynomial, ctx)
    one = QRatFn.one()

    def triangularity_failures():
        for lam in grid:
            lead = poly(lam).coefficient(lam)
            if lead is None or not (lead == one):
                yield f"leading coefficient of {lam}: {lead!r} vs {one!r}"
            for w in poly(lam).terms:
                if not dominance_leq(rs, make_dominant(rs, w)[0], lam):
                    yield f"support of {lam} leaks to {w}"

    rep.check("unit leading coefficient and triangular support",
              triangularity_failures())

    def orthogonality_failures():
        for a, lam in enumerate(grid):
            for mu in grid[a + 1:]:
                val = inner_product_k(ctx, poly(lam), poly(mu))
                if not val.is_zero():
                    yield f"({lam}, {mu}): {val!r} vs 0"

    rep.check("pairwise orthogonality", orthogonality_failures())

    def norm_failures():
        for lam in grid:
            got, want = macdonald_norm(ctx, lam), norm_formula(rs, k, lam)
            if got != want:
                yield f"{lam}: {got!r} vs {want!r}"

    rep.check("constant-term norms equal the closed product", norm_failures())

    rep.check("bar sends P_lam to P_{lam*}", (
        f"{lam}: bar P_lam differs from P_{star(rs, lam)}" for lam in grid
        if poly(lam).bar(rs) != poly(star(rs, lam))))

    rep.check("Weyl invariance", (
        f"{lam}: P_lam is not invariant under the simple reflections"
        for lam in grid if not poly(lam).is_w_invariant(rs)))

    def hermitian_failures():
        for lam in grid[:3]:
            for mu in grid[:3]:
                got = inner_product_k(ctx, poly(mu), poly(lam))
                want = inner_product_k(ctx, poly(lam), poly(mu)).bar()
                if got != want:
                    yield f"({mu}, {lam}): {got!r} vs {want!r}"

    rep.check("hermitian symmetry of the pairing", hermitian_failures())

    if k == 1:
        rep.check("k=1 polynomials are the classical characters", (
            f"{lam}: P_lam differs from the character" for lam in grid
            if poly(lam) != WPoly({
                w: QRatFn.from_rational(c)
                for w, c in weight_multiplicities(rs, lam).items()})))

    return rep
