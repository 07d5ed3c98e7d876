"""Type-A Macdonald polynomials and the modular action on intertwiners.

The polynomials are built at generic q by Gram-Schmidt over the monomial
symmetric sums in dominance order, with the constant-term inner product
whose density is the paired product delta_k bar(delta_k).  Everything is
exact: rational functions of v = q^(1/2) at generic q, cyclotomic numbers
after specialization.  The modular matrices on the intertwiner basis are
assembled from special values of the specialized polynomials and checked
against all the symmetry, conjugation and modular-group identities they
satisfy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from .chardata import (dominant_weights_below, is_dominant, quantum_dim,
                       weight_multiplicities, weyl_denominator_value)
from .lie import (RootSystemData, Weight, build_root_system, form,
                  lattice_index, root_alpha_coords, theta_pairing, wadd,
                  wneg, wscale)
from .numeric import (CycNum, PoleAtEpsilonError, QRatFn, approx_eq,
                      default_tolerance, epsilon_power, q_number,
                      sqrt_of_int)
from .report import VerificationReport
from .weyl import (enumerate_ck, make_dominant, reflect, star, weyl_orbit,
                   weyl_order)

from .modular import (CycMatrix, first_mismatch, mat_eq, mat_identity,
                      mat_mul, mat_scale)


def dominance_leq(rs: RootSystemData, lam: Weight, mu: Weight) -> bool:
    """True when mu - lam is a non-negative integer sum of simple roots.

    Weights in different root-lattice classes are incomparable (False).
    """
    coords = root_alpha_coords(rs, wadd(mu, wneg(lam)))
    return all(c.denominator == 1 and c >= 0 for c in coords)


class WPoly:
    """Finitely supported group-ring element: weight -> coefficient.

    The coefficients are either all QRatFn (generic q) or all CycNum
    (specialized); the operations are agnostic.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Weight, object]):
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
        out: dict[Weight, object] = {}
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

    def specialize(self, kappa: int) -> "WPoly":
        """Evaluate all QRatFn coefficients at v = eps^(1/2)  (type A: m = 1)."""
        out = {}
        for w, c in sorted(self.terms.items()):
            try:
                out[w] = c.eval_at_epsilon(1, kappa)
            except PoleAtEpsilonError as exc:
                err = PoleAtEpsilonError(exc.denominator, 1, kappa)
                err.args = (f"coefficient at weight {w}: {err.args[0]}",)
                raise err from None
        return WPoly(out)

    def value_at(self, rs: RootSystemData, kappa: int,
                 point: Weight) -> CycNum:
        """Value of a specialized element at eps^point."""
        acc = CycNum.zero()
        for w, c in self.terms.items():
            acc = acc + c * epsilon_power(form(rs, w, point, "primed"),
                                          rs.lacing, kappa)
        return acc

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self) -> str:
        inner = ", ".join(f"{w}: {c!r}" for w, c in self.sorted_terms())
        return f"WPoly({{{inner}}})"


def monomial_sum(rs: RootSystemData, lam: Weight) -> WPoly:
    """Orbit sum of e^lam over the Weyl group, coefficients 1."""
    return WPoly({w: QRatFn.one() for w, _ in weyl_orbit(rs, lam)})


def delta_k_product(rs: RootSystemData, k: int) -> WPoly:
    """The paired density: prod over i < k and positive alpha of
    (e^alpha - (q^2i + q^-2i) + e^-alpha), which is weight-integral."""
    if k < 1:
        raise ValueError("the density needs k >= 1")
    out = WPoly.one(rs.rank)
    zero = rs.zero
    for i in range(k):
        gap = QRatFn.monomial(4 * i) + QRatFn.monomial(-4 * i)
        for alpha in rs.positive_roots:
            factor = WPoly({alpha: QRatFn.one(), zero: -gap,
                            wneg(alpha): QRatFn.one()})
            out = out * factor
    return out


def norm_formula(rs: RootSystemData, k: int, lam: Weight) -> QRatFn:
    """Closed product of q-number ratios for the squared norm of P_lam."""
    out = QRatFn.one()
    shifted = wadd(lam, wscale(k, rs.rho))
    for alpha in rs.positive_roots:
        x = form(rs, alpha, shifted)
        assert x.denominator == 1
        x = int(x)
        for i in range(1, k):
            out = out * q_number(x + i) / q_number(x - i)
    return out


@dataclass
class MacdonaldContext:
    """Per-(n, k, level) workspace with caches for polynomials and norms."""

    n: int
    k: int
    level: int
    kappa: int
    rs: RootSystemData
    alcove: tuple[Weight, ...]
    sigma: int
    delta: WPoly
    group_order: int
    _polys: dict[Weight, WPoly] = field(default_factory=dict)
    _norms: dict[Weight, QRatFn] = field(default_factory=dict)
    _specialized: dict[Weight, WPoly] = field(default_factory=dict)


def build_context(n: int, k: int, level: int) -> MacdonaldContext:
    if n < 2:
        raise ValueError("need n >= 2")
    if k < 1:
        raise ValueError("need k >= 1")
    if level < 0:
        raise ValueError("need a non-negative level bound")
    rs = build_root_system("A", n - 1)
    kappa = level + k * rs.dual_coxeter
    delta = delta_k_product(rs, k)
    order = weyl_order(rs)
    # calibrate the inner-product sign so that (1,1) equals the closed form
    raw = delta.constant_term()
    raw = (raw if raw is not None else QRatFn.zero()) / order
    want = norm_formula(rs, k, rs.zero)
    if raw == want:
        sigma = 1
    elif raw == -want:
        sigma = -1
    else:
        raise RuntimeError(
            "inner-product sign calibration failed: constant term "
            f"{raw!r} is not +- the closed-form norm {want!r}")
    return MacdonaldContext(
        n=n, k=k, level=level, kappa=kappa, rs=rs,
        alcove=enumerate_ck(rs, level), sigma=sigma, delta=delta,
        group_order=order)


def inner_product_k(ctx: MacdonaldContext, f: WPoly, g: WPoly) -> QRatFn:
    """Hermitian constant-term pairing with the calibrated sign."""
    h = f * g.bar(ctx.rs)
    acc = QRatFn.zero()
    for w, c in h.terms.items():
        d = ctx.delta.terms.get(wneg(w))
        if d is not None:
            acc = acc + c * d
    return acc * Fraction(ctx.sigma, ctx.group_order)


def _dominance_chain(rs: RootSystemData, lam: Weight) -> list[Weight]:
    below = dominant_weights_below(rs, lam)

    def depth(mu: Weight):
        return (sum(root_alpha_coords(rs, wadd(lam, wneg(mu)))), mu)

    below.sort(key=depth)
    return below


def macdonald_polynomial(ctx: MacdonaldContext, lam: Weight) -> WPoly:
    """P_lam at generic q: unit leading coefficient, orthogonal to all
    dominance-lower polynomials."""
    if not is_dominant(lam):
        raise ValueError(f"need a dominant weight, got {lam}")
    cached = ctx._polys.get(lam)
    if cached is not None:
        return cached
    poly = monomial_sum(ctx.rs, lam)
    for mu in _dominance_chain(ctx.rs, lam):
        if mu == lam:
            continue
        p_mu = macdonald_polynomial(ctx, mu)
        overlap = inner_product_k(ctx, poly, p_mu)
        if overlap.is_zero():
            continue
        poly = poly - p_mu.scale(overlap / macdonald_norm(ctx, mu))
    ctx._polys[lam] = poly
    return poly


def macdonald_norm(ctx: MacdonaldContext, lam: Weight) -> QRatFn:
    """(P_lam, P_lam) at generic q, from the constant-term pairing."""
    cached = ctx._norms.get(lam)
    if cached is None:
        p = macdonald_polynomial(ctx, lam)
        cached = inner_product_k(ctx, p, p)
        ctx._norms[lam] = cached
    return cached


def specialize(ctx: MacdonaldContext, lam: Weight) -> WPoly:
    """P_lam with coefficients evaluated at the root of unity."""
    cached = ctx._specialized.get(lam)
    if cached is None:
        cached = macdonald_polynomial(ctx, lam).specialize(ctx.kappa)
        ctx._specialized[lam] = cached
    return cached


# -- the modular action on the intertwiner basis -------------------------------


@dataclass(frozen=True)
class SUData:
    """Modular matrices on the intertwiner basis indexed by the sub-alcove.

    conj_scalar is the scalar kappa_C with S^2 = kappa_C * (star permutation);
    its square is the inverse of the twist twist_u of the inducing object.
    """

    n: int
    k: int
    level: int
    kappa: int
    alcove: tuple[Weight, ...]
    smatrix: CycMatrix
    tmatrix: CycMatrix
    conj_scalar: CycNum
    twist_u: CycNum
    norms_eps: tuple[CycNum, ...]


def _eps(ctx: MacdonaldContext, a) -> CycNum:
    return epsilon_power(a, 1, ctx.kappa)


def d_prefactor(ctx: MacdonaldContext) -> CycNum:
    """i^(n(n-1)/2) / sqrt(n kappa^(n-1)), exact."""
    n = ctx.n
    phase = CycNum.root_of_unity(4, (n * (n - 1) // 2) % 4)
    return phase * sqrt_of_int(n * ctx.kappa ** (n - 1)).inverse()


def d_coefficient(ctx: MacdonaldContext, lam: Weight) -> CycNum:
    """The row normalization d_lam of the S-matrix."""
    shifted = wadd(lam, wscale(ctx.k, ctx.rs.rho))
    acc = d_prefactor(ctx)
    for alpha in ctx.rs.positive_roots:
        x = form(ctx.rs, alpha, shifted)
        for i in range(ctx.k):
            acc = acc * (_eps(ctx, -x) - _eps(ctx, x - 2 * i))
    return acc


def build_su_data(ctx: MacdonaldContext) -> SUData:
    rs, k, kappa = ctx.rs, ctx.k, ctx.kappa
    n = ctx.n
    alcove = ctx.alcove
    size = len(alcove)
    rho = rs.rho

    points = [wscale(-2, wadd(lam, wscale(k, rho))) for lam in alcove]
    specialized = [specialize(ctx, mu) for mu in alcove]
    dvals = [d_coefficient(ctx, lam) for lam in alcove]

    smat = tuple(
        tuple(dvals[a] * specialized[b].value_at(rs, kappa, points[a])
              for b in range(size))
        for a in range(size))

    rho_norm = form(rs, rho, rho)
    tmat_diag = []
    for lam in alcove:
        shifted = wadd(lam, wscale(k, rho))
        exp = form(rs, shifted, shifted) - Fraction(kappa, n) * rho_norm
        tmat_diag.append(_eps(ctx, exp))
    zero = CycNum.zero()
    tmat = tuple(tuple(tmat_diag[i] if i == j else zero
                       for j in range(size)) for i in range(size))

    half = (n * (n - 1) * k * (k - 1)) // 2
    sign = (-1) ** (((k - 1) * n * (n - 1) // 2) % 2)
    conj_scalar = _eps(ctx, -half) * sign
    twist_u = _eps(ctx, 2 * half)

    norms_eps = tuple(
        norm_formula(rs, k, lam).eval_at_epsilon(1, kappa) for lam in alcove)

    return SUData(n=n, k=k, level=ctx.level, kappa=kappa, alcove=alcove,
                  smatrix=smat, tmatrix=tmat, conj_scalar=conj_scalar,
                  twist_u=twist_u, norms_eps=norms_eps)


def _star_permutation(ctx: MacdonaldContext) -> tuple[tuple[int, ...], ...]:
    alcove = ctx.alcove
    return tuple(
        tuple(int(alcove[j] == star(ctx.rs, alcove[i]))
              for j in range(len(alcove)))
        for i in range(len(alcove)))


def verify_section5(ctx: MacdonaldContext,
                    tol: float | None = None) -> VerificationReport:
    """All exact identities of the intertwiner modular action, plus the
    float cross-checks against the category data."""
    if tol is None:
        tol = default_tolerance()
    t0 = time.monotonic()
    rep = VerificationReport(suite="section5")
    rs, k, kappa, n = ctx.rs, ctx.k, ctx.kappa, ctx.n
    alcove = ctx.alcove
    size = len(alcove)

    # specialization must be pole-free on the sub-alcove
    pole_witness = None
    for lam in alcove:
        try:
            specialize(ctx, lam)
        except PoleAtEpsilonError as exc:
            pole_witness = f"{lam}: {exc}"
            break
    rep.record("specialization pole-free on the sub-alcove",
               pole_witness is None, pole_witness)
    if pole_witness is not None:
        rep.duration_seconds = time.monotonic() - t0
        return rep

    su = build_su_data(ctx)
    s = su.smatrix
    star_idx = [alcove.index(star(rs, lam)) for lam in alcove]

    rep.record("S_{lm} = S_{l* m*}",
               all(s[i][j] == s[star_idx[i]][star_idx[j]]
                   for i in range(size) for j in range(size)))

    thm55_scalar = su.conj_scalar.inverse()
    rep.record("conj(S_{lm}) = phase * S_{l* m}",
               all(s[i][j].conjugate() == thm55_scalar * s[star_idx[i]][j]
                   for i in range(size) for j in range(size)))

    s2 = mat_mul(s, s)
    perm = tuple(tuple(CycNum.from_rational(x) for x in row)
                 for row in _star_permutation(ctx))
    target = mat_scale(su.conj_scalar, perm)
    rep.record("S^2 = conjugation permutation with phase",
               mat_eq(s2, target), first_mismatch(s2, target))

    rep.record("conjugation scalars of S^2 and the dual basis map are inverse",
               su.conj_scalar * thm55_scalar == CycNum.one())

    rep.record("conj_scalar^2 = 1 / twist_u",
               su.conj_scalar * su.conj_scalar == su.twist_u.inverse())

    s4 = mat_mul(s2, s2)
    rep.record("S^4 = Id / twist_u",
               mat_eq(s4, mat_scale(su.twist_u.inverse(),
                                    mat_identity(size))))

    st = mat_mul(s, su.tmatrix)
    st3 = mat_mul(mat_mul(st, st), st)
    rep.record("(ST)^3 = S^2", mat_eq(st3, s2), first_mismatch(st3, s2))

    rep.record("norm-weighted symmetry S_{lm} n_l = S_{ml} n_m",
               all(s[i][j] * su.norms_eps[i] == s[j][i] * su.norms_eps[j]
                   for i in range(size) for j in range(size)))

    # the same identity written out through the polynomial values
    points = [wscale(-2, wadd(lam, wscale(k, rs.rho))) for lam in alcove]
    dvals = [d_coefficient(ctx, lam) for lam in alcove]
    explicit_ok = True
    for i, lam in enumerate(alcove):
        for j, mu in enumerate(alcove):
            left = (specialize(ctx, lam).value_at(rs, kappa, points[j])
                    * su.norms_eps[j] * dvals[j])
            right = (specialize(ctx, mu).value_at(rs, kappa, points[i])
                     * su.norms_eps[i] * dvals[i])
            if left != right:
                explicit_ok = False
                break
        if not explicit_ok:
            break
    rep.record("explicit symmetry through polynomial special values",
               explicit_ok)

    # unitarity for the weighted inner product: S^dagger diag(n) S = diag(n)
    dagger = tuple(tuple(s[j][i].conjugate() for j in range(size))
                   for i in range(size))
    weighted = tuple(tuple(dagger[i][j] * su.norms_eps[j]
                           for j in range(size)) for i in range(size))
    sds = mat_mul(weighted, s)
    dn = tuple(tuple(su.norms_eps[i] if i == j else CycNum.zero()
                     for j in range(size)) for i in range(size))
    rep.record("norm-weighted unitarity S^dagger diag(n) S = diag(n)",
               mat_eq(sds, dn), first_mismatch(sds, dn))

    # vanishing criterion for the norm at the root of unity: the closed-form
    # norm is nonzero exactly on the sub-alcove, over the whole region where
    # the shifted weight stays inside the open alcove
    box_bound = ctx.level + k - 1
    crit_ok = True
    crit_witness = None
    for lam in enumerate_ck(rs, box_bound):
        inside = theta_pairing(rs, lam) <= ctx.level
        try:
            value = norm_formula(rs, k, lam).eval_at_epsilon(1, kappa)
            nonzero = not value.is_zero()
        except PoleAtEpsilonError as exc:
            crit_ok = False
            crit_witness = f"pole at {lam}: {exc}"
            break
        if nonzero != inside:
            crit_ok = False
            crit_witness = f"{lam}: norm nonzero {nonzero}, in sub-alcove {inside}"
            break
    rep.record("norm at the root of unity vanishes exactly off the sub-alcove",
               crit_ok, crit_witness)

    rep.record("norms at the root of unity are conjugation-invariant",
               all(x.conjugate() == x for x in su.norms_eps))

    rplus = len(rs.positive_roots)
    rep.record(
        f"calibrated pairing sign {ctx.sigma:+d} has parity of k |R+|",
        ctx.sigma == (-1) ** ((k * rplus) % 2))

    # float cross-checks against the category data
    index = lattice_index(rs, "P", f"{kappa}Qv")
    dsq = index * (-1) ** len(rs.positive_roots)
    delta_val = weyl_denominator_value(rs, kappa, wscale(-2, rs.rho))
    d_total = (dsq / (delta_val * delta_val).to_complex()).real ** 0.5

    dcheck_ok = True
    dcheck_witness = None
    for i, lam in enumerate(alcove):
        lam_k = wadd(lam, wscale(k - 1, rs.rho))
        dim_val = quantum_dim(rs, kappa, lam_k).to_complex()
        phi0 = 1 + 0j
        shifted = wadd(lam, wscale(k, rs.rho))
        for alpha in rs.positive_roots:
            x = form(rs, alpha, shifted)
            for i2 in range(1, k):
                phi0 *= (_eps(ctx, -x) - _eps(ctx, x - 2 * i2)).to_complex()
        want = dim_val / d_total * phi0
        if not approx_eq(dvals[i].to_complex(), want, tol):
            dcheck_ok = False
            dcheck_witness = f"{lam}: {dvals[i].to_complex()} vs {want}"
            break
    rep.record("float: row normalization matches dimension ratio route",
               dcheck_ok, dcheck_witness)

    if k == 1:
        from .modular import build_modular_data
        md = build_modular_data(rs, kappa)
        d_pos = md.d_squared.to_complex().real ** 0.5
        same = md.alcove == alcove
        agree = same and all(
            approx_eq(s[i][j].to_complex(),
                      md.smatrix[i][j].to_complex() / d_pos, tol)
            for i in range(size) for j in range(size))
        rep.record("float: k=1 matrix equals the normalized category s-matrix",
                   agree)

    rep.duration_seconds = time.monotonic() - t0
    return rep


def verify_generic_macdonald(n: int, k: int, bound: int) -> VerificationReport:
    """Generic-q properties over a dominant box: triangularity, pairwise
    orthogonality, and the closed-form norms; at k = 1 the polynomials are
    the classical characters."""
    t0 = time.monotonic()
    rep = VerificationReport(suite="macdonald-generic")
    ctx = build_context(n, k, bound)
    rs = ctx.rs
    grid = enumerate_ck(rs, bound)

    tri_ok = True
    tri_witness = None
    for lam in grid:
        p = macdonald_polynomial(ctx, lam)
        lead = p.coefficient(lam)
        if lead is None or not (lead == QRatFn.one()):
            tri_ok = False
            tri_witness = f"leading coefficient of {lam}: {lead!r}"
            break
        for w in p.terms:
            dom, _ = make_dominant(rs, w)
            if not dominance_leq(rs, dom, lam):
                tri_ok = False
                tri_witness = f"support of {lam} leaks to {w}"
                break
        if not tri_ok:
            break
    rep.record("unit leading coefficient and triangular support", tri_ok,
               tri_witness)

    orth_ok = True
    orth_witness = None
    for a, lam in enumerate(grid):
        for mu in grid[a + 1:]:
            val = inner_product_k(ctx, macdonald_polynomial(ctx, lam),
                                  macdonald_polynomial(ctx, mu))
            if not val.is_zero():
                orth_ok = False
                orth_witness = f"({lam}, {mu}) -> {val!r}"
                break
        if not orth_ok:
            break
    rep.record("pairwise orthogonality", orth_ok, orth_witness)

    norm_ok = True
    norm_witness = None
    for lam in grid:
        got = macdonald_norm(ctx, lam)
        want = norm_formula(rs, k, lam)
        if got != want:
            norm_ok = False
            norm_witness = f"{lam}: {got!r} vs {want!r}"
            break
    rep.record("constant-term norms equal the closed product", norm_ok,
               norm_witness)

    bar_ok = True
    for lam in grid:
        p = macdonald_polynomial(ctx, lam)
        if p.bar(rs) != macdonald_polynomial(ctx, star(rs, lam)):
            bar_ok = False
            break
    rep.record("bar sends P_lam to P_{lam*}", bar_ok)

    sym_ok = all(macdonald_polynomial(ctx, lam).is_w_invariant(rs)
                 for lam in grid)
    rep.record("Weyl invariance", sym_ok)

    herm_ok = True
    for lam in grid[:3]:
        for mu in grid[:3]:
            f = macdonald_polynomial(ctx, lam)
            g = macdonald_polynomial(ctx, mu)
            if inner_product_k(ctx, g, f) != inner_product_k(ctx, f, g).bar():
                herm_ok = False
                break
    rep.record("hermitian symmetry of the pairing", herm_ok)

    if k == 1:
        char_ok = True
        char_witness = None
        for lam in grid:
            got = macdonald_polynomial(ctx, lam)
            table = weight_multiplicities(rs, lam)
            want = WPoly({w: QRatFn.from_rational(c)
                          for w, c in table.mults.items()})
            if got != want:
                char_ok = False
                char_witness = f"{lam}"
                break
        rep.record("k=1 polynomials are the classical characters", char_ok,
                   char_witness)

    rep.duration_seconds = time.monotonic() - t0
    return rep
