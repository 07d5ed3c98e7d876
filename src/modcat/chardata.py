"""Weight multiplicities, character values at root-of-unity points, and
quantum dimensions.

Evaluation points are always weights mu standing for the point eps^mu, so
everything stays inside one cyclotomic field: a group-ring element
f = sum a_lam e^lam takes the value sum a_lam eps^((lam, mu)') there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .lie import (RootSystemData, Weight, form, inverse_cartan,
                  root_alpha_coords, wadd, wneg, wscale)
from .numeric import CycNum, epsilon_power
from .weyl import enumerate_weyl, make_dominant


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
    assert num.denominator == 1
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


def weyl_orbit(rs: RootSystemData, lam: Weight) -> list[Weight]:
    seen = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(rs.rank):
                if w[i] == 0:
                    continue
                r = tuple(w[k] - w[i] * rs.cartan[k][i] for k in range(rs.rank))
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return sorted(seen)


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
                assert mult_nu is not None, "depth ordering broke"
                acc += form(rs, nu, alpha, "primed") * mult_nu
                j += 1
        mu_norm = form(rs, wadd(mu, rs.rho), wadd(mu, rs.rho), "primed")
        value = 2 * acc / (shifted_norm - mu_norm)
        assert value.denominator == 1 and value > 0
        dom_mult[mu] = int(value)
    full: dict[Weight, int] = {}
    for mu, mult in dom_mult.items():
        for nu in weyl_orbit(rs, mu):
            full[nu] = mult
    table = CharacterTable(highest=lam, mults=full)
    assert table.dimension == weyl_dimension(rs, lam)
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


def alternating_sum(rs: RootSystemData, kappa: int, orbit,
                    point: Weight) -> CycNum:
    """The Weyl numerator sum_w sign(w) eps^((w xi, point)') (Kac-Peterson).

    orbit lists the pairs (sign(w), w xi) over W; the terms are added in
    its order.
    """
    acc = CycNum.zero()
    for sign, image in orbit:
        term = epsilon_power(form(rs, image, point, "primed"), rs.lacing,
                             kappa)
        acc = acc + (term if sign > 0 else -term)
    return acc


def char_value(rs: RootSystemData, kappa: int, lam: Weight,
               point: Weight) -> CycNum:
    """Character of lam (defined for any lam in P) at the point eps^point.

    Prefers the alternating-sum ratio; falls back to the weight sum when
    the denominator vanishes, which covers every dominant lam.
    """
    den = weyl_denominator_value(rs, kappa, point)
    if not den.is_zero():
        shifted = wadd(lam, rs.rho)
        orbit = [(w.sign, w.apply(shifted)) for w in enumerate_weyl(rs)]
        return alternating_sum(rs, kappa, orbit, point) / den
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
    """dim_eps of V_lam: the character evaluated at the point 2 rho."""
    if not is_dominant(lam):
        raise ValueError(f"quantum dimension needs a dominant weight, got {lam}")
    return char_value(rs, kappa, lam, wscale(2, rs.rho))


def vanishing_criterion(rs: RootSystemData, kappa: int, lam: Weight) -> bool:
    """True when dim_eps V_lam = 0: some (lam+rho, alpha) lies in kappa Z."""
    if not is_dominant(lam):
        raise ValueError(f"criterion needs a dominant weight, got {lam}")
    shifted = wadd(lam, rs.rho)
    for alpha in rs.positive_roots:
        if (form(rs, shifted, alpha) / kappa).denominator == 1:
            return True
    return False
