"""Weight multiplicities, character values at root-of-unity points, and
quantum dimensions.

Evaluation points are always weights mu standing for the point eps^mu, so
everything stays inside one cyclotomic field: a group-ring element
f = sum a_lam e^lam takes the value sum a_lam eps^((lam, mu)') there.
Alternating sums run over the signed Weyl orbit of weyl.weyl_orbit, and
quantum dimensions come from the q-Weyl product, which needs no orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .lie import (RootSystemData, Weight, form, inverse_cartan,
                  root_alpha_coords, wadd, wneg, wscale)
from .numeric import CycNum, InternalConsistencyError, epsilon_power
from .weyl import make_dominant, weyl_orbit


@dataclass(frozen=True)
class CharacterTable:
    """Full weight diagram of one irreducible: weight -> multiplicity."""

    highest: Weight
    mults: dict[Weight, int]

    @property
    def dimension(self) -> int:
        return sum(self.mults.values())


def weyl_dimension(rs: RootSystemData, lam: Weight) -> int:
    """Classical dimension of the irreducible with highest weight lam."""
    num = Fraction(1)
    shifted = wadd(lam, rs.rho)
    for alpha in rs.positive_roots:
        num *= form(rs, shifted, alpha) / form(rs, rs.rho, alpha)
    if num.denominator != 1:
        raise InternalConsistencyError(
            f"Weyl dimension of {lam} is not an integer: {num}")
    return int(num)


def is_dominant(lam: Weight) -> bool:
    return all(c >= 0 for c in lam)


def dominant_weights_below(rs: RootSystemData, lam: Weight) -> list[Weight]:
    """Dominant mu with lam - mu a non-negative integer root sum.

    These are exactly the dominant weights of the irreducible V_lam.
    """
    inv = inverse_cartan(rs)
    bounds = [sum(inv[i][j] * lam[j] for j in range(rs.rank))
              for i in range(rs.rank)]
    out = []

    def rec(i: int, partial: Weight):
        if i == rs.rank:
            if is_dominant(partial):
                out.append(partial)
            return
        top = int(bounds[i])
        cur = partial
        for c in range(top + 1):
            rec(i + 1, cur)
            cur = tuple(cur[k] - rs.cartan[k][i] for k in range(rs.rank))

    rec(0, lam)
    return out


@lru_cache(maxsize=None)
def weight_multiplicities(rs: RootSystemData, lam: Weight) -> CharacterTable:
    """Exact weight diagram of V_lam by the Freudenthal recursion."""
    if not is_dominant(lam):
        raise ValueError(f"highest weight {lam} is not dominant")
    doms = dominant_weights_below(rs, lam)

    # sort by depth so that every mu + j alpha is ready before mu
    def depth(mu: Weight) -> Fraction:
        return sum(root_alpha_coords(rs, wadd(lam, wneg(mu))))

    doms.sort(key=lambda mu: (depth(mu), mu))
    dom_set = set(doms)
    dom_mult: dict[Weight, int] = {lam: 1}
    shifted_norm = form(rs, wadd(lam, rs.rho), wadd(lam, rs.rho), "primed")
    for mu in doms:
        if mu == lam:
            continue
        acc = Fraction(0)
        for alpha in rs.positive_roots:
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
                acc += form(rs, nu, alpha, "primed") * mult_nu
                j += 1
        mu_norm = form(rs, wadd(mu, rs.rho), wadd(mu, rs.rho), "primed")
        value = 2 * acc / (shifted_norm - mu_norm)
        if value.denominator != 1 or value <= 0:
            raise InternalConsistencyError(
                f"Freudenthal multiplicity of {mu} in {lam} is {value}")
        dom_mult[mu] = int(value)
    full: dict[Weight, int] = {}
    for mu, mult in dom_mult.items():
        for nu, _ in weyl_orbit(rs, mu):
            full[nu] = mult
    table = CharacterTable(highest=lam, mults=full)
    if table.dimension != weyl_dimension(rs, lam):
        raise InternalConsistencyError(
            f"weight diagram of {lam} has dimension {table.dimension}, "
            f"not {weyl_dimension(rs, lam)}")
    return table


def weyl_denominator_value(rs: RootSystemData, kappa: int,
                           point: Weight) -> CycNum:
    """prod over positive alpha of (eps^((alpha, point)'/2) - eps^(-...))."""
    acc = CycNum.one()
    for alpha in rs.positive_roots:
        half = form(rs, alpha, point, "primed") / 2
        acc = acc * (epsilon_power(half, rs.lacing, kappa)
                     - epsilon_power(-half, rs.lacing, kappa))
        if acc.is_zero():
            return acc
    return acc


def alternating_sum(rs: RootSystemData, kappa: int, xi: Weight,
                    point: Weight) -> CycNum:
    """The Weyl numerator sum_w sign(w) eps^((w xi, point)') (Kac-Peterson).

    xi folds to its dominant point with parity p; the sum is zero when that
    point lies on a wall, and p times the sum over its signed orbit
    otherwise.
    """
    dom, parity = make_dominant(rs, xi)
    acc = CycNum.zero()
    if not all(dom):
        return acc
    for image, sign in weyl_orbit(rs, dom):
        term = epsilon_power(form(rs, image, point, "primed"), rs.lacing,
                             kappa)
        acc = acc + (term if sign == parity else -term)
    return acc


def char_value(rs: RootSystemData, kappa: int, lam: Weight,
               point: Weight) -> CycNum:
    """Character of lam (defined for any lam in P) at the point eps^point.

    Prefers the alternating-sum ratio; falls back to the weight sum when
    the denominator vanishes, which covers every dominant lam.
    """
    den = weyl_denominator_value(rs, kappa, point)
    if not den.is_zero():
        return alternating_sum(rs, kappa, wadd(lam, rs.rho), point) / den
    if not is_dominant(lam):
        raise ValueError(
            f"character of non-dominant {lam} at a singular point: fold to "
            "the alcove first")
    table = weight_multiplicities(rs, lam)
    acc = CycNum.zero()
    for mu, mult in sorted(table.mults.items()):
        exp = form(rs, mu, point, "primed")
        acc = acc + epsilon_power(exp, rs.lacing, kappa) * mult
    return acc


def quantum_dim(rs: RootSystemData, kappa: int, lam: Weight) -> CycNum:
    """dim_eps of V_lam, the character at the point 2 rho.

    By the Weyl denominator identity this is the q-Weyl product
    prod [(lam + rho, alpha)] / [(rho, alpha)]: the denominator at
    2 (lam + rho) over the denominator at 2 rho, O(|R+|) and no orbit.
    """
    if not is_dominant(lam):
        raise ValueError(f"quantum dimension needs a dominant weight, got {lam}")
    return (weyl_denominator_value(rs, kappa, wscale(2, wadd(lam, rs.rho)))
            / weyl_denominator_value(rs, kappa, wscale(2, rs.rho)))


def vanishing_criterion(rs: RootSystemData, kappa: int, lam: Weight) -> bool:
    """True when dim_eps V_lam = 0: some (lam+rho, alpha) lies in kappa Z."""
    if not is_dominant(lam):
        raise ValueError(f"criterion needs a dominant weight, got {lam}")
    shifted = wadd(lam, rs.rho)
    for alpha in rs.positive_roots:
        if (form(rs, shifted, alpha) / kappa).denominator == 1:
            return True
    return False
