"""Weight multiplicities, character values at root-of-unity points, and
quantum dimensions.

Evaluation points are always weights mu standing for the point eps^mu, so
everything stays inside one cyclotomic field: a group-ring element
f = sum a_lam e^lam takes the value sum a_lam eps^((lam, mu)') there, each
exponent an integer over the Gram denominator D.  A character value and
an alternating sum both fold their weight to the dominant chamber and sum
powers of eps over a weight diagram or a signed Weyl orbit in one loop,
_weight_sum; macdonald's special values P_lam(x_mu) sum there each class
of weights that share a coefficient of P_lam.  Products of binomials
prod (zeta^a - zeta^b) (the Weyl denominator, macdonald's d_lam) share one
kernel; quantum dimensions are delta(-2(lam + rho)) / delta(-2 rho), with
no orbit.  Each such sum or product of powers of eps is made into a CycNum
once, by CycNum.from_tally.  dominant_weights_below lists weights in depth
order, as Freudenthal's recursion and Gram-Schmidt need.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from itertools import chain
from operator import mul
from types import MappingProxyType

from .lie import (RootSystemData, Weight, _check_rank, _dot, _form_num,
                  _gram_vector, root_alpha_coords, wadd, wscale, wsub)
from .numeric import CycNum, InternalConsistencyError
from .weyl import make_dominant, weyl_orbit


@lru_cache(maxsize=None)
def weyl_dimension(rs: RootSystemData, lam: Weight) -> int:
    """Classical dimension of the irreducible with highest weight lam:
    prod (lam + rho, alpha)' / prod (rho, alpha)' over positive alpha."""
    _check_rank(rs, lam)
    shifted = _gram_vector(rs, wadd(lam, rs.rho))
    rho = _gram_vector(rs, rs.rho)
    num = den = 1
    for alpha in rs.positive_roots:
        num *= _dot(alpha, shifted)
        den *= _dot(alpha, rho)
    dim, rem = divmod(num, den)
    if rem:
        raise InternalConsistencyError(
            f"Weyl dimension of {lam} is not an integer: {num}/{den}")
    return dim


def is_dominant(lam: Weight) -> bool:
    return all(c >= 0 for c in lam)


def dominant_weights_below(rs: RootSystemData, lam: Weight) -> list[Weight]:
    """Dominant mu with lam - mu a non-negative integer root sum, ordered by
    depth (the sum of the root coordinates of lam - mu), then by mu, so that
    each mu + j alpha (j > 0) comes before mu.

    These are exactly the dominant weights of the irreducible V_lam.
    """
    bounds = [c // 1 for c in root_alpha_coords(rs, lam)]
    out = []

    def rec(i: int, partial: Weight, depth: int):
        if i == rs.rank:
            if is_dominant(partial):
                out.append((depth, partial))
            return
        cur = partial
        for c in range(bounds[i] + 1):
            rec(i + 1, cur, depth + c)
            cur = tuple(cur[k] - rs.cartan[k][i] for k in range(rs.rank))

    rec(0, lam, 0)
    return [mu for _, mu in sorted(out)]


@lru_cache(maxsize=None)
def weight_multiplicities(rs: RootSystemData,
                          lam: Weight) -> Mapping[Weight, int]:
    """Exact weight diagram of V_lam by the Freudenthal recursion: each
    weight of V_lam mapped to its multiplicity, read-only since every
    caller shares the cached mapping."""
    if not is_dominant(lam):
        raise ValueError(f"highest weight {lam} is not dominant")
    doms = dominant_weights_below(rs, lam)
    dom_set = set(doms)
    dom_mult: dict[Weight, int] = {lam: 1}
    # D times the primed forms, so that D cancels in the Freudenthal ratio
    norms = [_form_num(rs, alpha, alpha) for alpha in rs.positive_roots]
    shifted_norm = _form_num(rs, wadd(lam, rs.rho), wadd(lam, rs.rho))
    for mu in doms:
        if mu == lam:
            continue
        acc = 0
        v = _gram_vector(rs, mu)
        for alpha, norm in zip(rs.positive_roots, norms):
            j = 1
            while True:
                nu = wadd(mu, wscale(j, alpha))
                rep, _ = make_dominant(rs, nu)
                if rep not in dom_set:
                    break
                mult_nu = dom_mult.get(rep)
                if mult_nu is None:
                    raise InternalConsistencyError(
                        f"depth ordering broke at {rep} below {lam}")
                acc += (_dot(alpha, v) + j * norm) * mult_nu
                j += 1
        gap = shifted_norm - _form_num(rs, wadd(mu, rs.rho), wadd(mu, rs.rho))
        value, rem = divmod(2 * acc, gap)
        if rem or value <= 0:
            raise InternalConsistencyError(
                f"Freudenthal multiplicity of {mu} in {lam}: {2 * acc}/{gap}")
        dom_mult[mu] = value
    full: dict[Weight, int] = {}
    for mu, mult in dom_mult.items():
        for nu, _ in weyl_orbit(rs, mu):
            full[nu] = mult
    dimension = sum(full.values())
    if dimension != weyl_dimension(rs, lam):
        raise InternalConsistencyError(
            f"weight diagram of {lam} has dimension {dimension}, "
            f"not {weyl_dimension(rs, lam)}")
    return MappingProxyType(full)


def _eps_order(rs: RootSystemData, kappa: int) -> int:
    """N = 2 m kappa D, so that eps^((lam, mu)') = zeta_N^(D (lam, mu)')."""
    return 2 * rs.lacing * kappa * rs.denominator


def _binomial_product(order: int, pairs) -> CycNum:
    """prod (zeta^a - zeta^b) over integer pairs (a, b), zeta = zeta_order,
    multiplied out as a sparse map of counts over Z / order and reduced
    once; each exponent is a sum of factor exponents, whose gcd from_tally
    reads."""
    pairs = [(a % order, b % order) for a, b in pairs]
    prod = {0: 1}
    for a, b in pairs:
        if a == b:
            return CycNum.zero()
        nxt: dict[int, int] = {}
        for e, c in prod.items():
            up, down = (e + a) % order, (e + b) % order
            nxt[up] = nxt.get(up, 0) + c
            nxt[down] = nxt.get(down, 0) - c
        prod = nxt
    return CycNum.from_tally(order, prod.items(), exponents=chain(*pairs))


def weyl_denominator_value(rs: RootSystemData, kappa: int,
                           point: Weight) -> CycNum:
    """prod over positive alpha of (eps^((alpha, point)'/2) - eps^(-...))."""
    _check_rank(rs, point)
    v = _gram_vector(rs, point)
    exps = [_dot(alpha, v) for alpha in rs.positive_roots]
    return _binomial_product(2 * _eps_order(rs, kappa), [(e, -e) for e in exps])


def _weight_sum(rs: RootSystemData, kappa: int, terms, point: Weight) -> CycNum:
    """sum c eps^((w, point)') over the terms (w, int c), tallied here, not
    by from_tally, since this loop carries every Weyl orbit and every
    coefficient class of the section-5 special values."""
    order = _eps_order(rs, kappa)
    v = _gram_vector(rs, point)
    tally: dict[int, int] = {}
    for w, c in terms:
        e = sum(map(mul, w, v)) % order  # _dot, inlined in the hot loop
        tally[e] = tally.get(e, 0) + c
    return CycNum.from_tally(order, tally.items())


def alternating_sum(rs: RootSystemData, kappa: int, xi: Weight,
                    point: Weight) -> CycNum:
    """The Weyl numerator sum_w sign(w) eps^((w xi, point)') (Kac-Peterson).

    xi folds to its dominant point with parity p; the sum is zero when that
    point lies on a wall, and p times the sum over its signed orbit
    otherwise.
    """
    _check_rank(rs, xi, point)
    dom, parity = make_dominant(rs, xi)
    if not all(dom):
        return CycNum.zero()
    return parity * _weight_sum(rs, kappa, weyl_orbit(rs, dom), point)


def char_value(rs: RootSystemData, kappa: int, lam: Weight,
               point: Weight) -> CycNum:
    """Character of any lam in P at the point eps^point.

    lam + rho folds to its dominant point dom with parity p.  By the Weyl
    character formula ch_lam = p ch_(dom - rho), and ch_lam = 0 when dom
    lies on a wall; so the value is p times the weight-diagram sum of
    dom - rho, at every point, singular or not.
    """
    _check_rank(rs, lam, point)
    dom, parity = make_dominant(rs, wadd(lam, rs.rho))
    if not all(dom):
        return CycNum.zero()
    mults = weight_multiplicities(rs, wsub(dom, rs.rho))
    return parity * _weight_sum(rs, kappa, mults.items(), point)


def quantum_dim(rs: RootSystemData, kappa: int, lam: Weight) -> CycNum:
    """dim_eps of V_lam, the character at the point 2 rho.

    By the Weyl denominator identity this is the q-Weyl product
    prod [(lam + rho, alpha)] / [(rho, alpha)]: the denominator at
    -2 (lam + rho) over the denominator at -2 rho (the signs (-1)^|R+| of
    the two cancel), O(|R+|) and no orbit.
    """
    _check_rank(rs, lam)
    if not is_dominant(lam):
        raise ValueError(f"quantum dimension needs a dominant weight, got {lam}")
    return (weyl_denominator_value(rs, kappa, wscale(-2, wadd(lam, rs.rho)))
            * _rho_denominator_inverse(rs, kappa))


@lru_cache(maxsize=None)
def _rho_denominator_inverse(rs: RootSystemData, kappa: int) -> CycNum:
    """1 / delta(-2 rho), the Weyl denominator at the s-matrix points."""
    return weyl_denominator_value(rs, kappa, wscale(-2, rs.rho)).inverse()


def vanishing_criterion(rs: RootSystemData, kappa: int, lam: Weight) -> bool:
    """True when dim_eps V_lam = 0: some (lam+rho, alpha) lies in kappa Z."""
    _check_rank(rs, lam)
    if not is_dominant(lam):
        raise ValueError(f"criterion needs a dominant weight, got {lam}")
    # (lam + rho, alpha) = (gram (lam + rho)) . alpha / (D m)
    v = _gram_vector(rs, wadd(lam, rs.rho))
    step = rs.denominator * rs.lacing * kappa
    return any(_dot(alpha, v) % step == 0 for alpha in rs.positive_roots)
