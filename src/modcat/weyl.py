"""Weyl group orders, signed Weyl orbits, the star involution, the
level-kappa alcove and affine folding into it.

W is never built as a group: everything goes through the simple
reflections acting on fundamental-weight coordinates.  For a strictly
dominant xi the map w -> w xi is a bijection from W onto the orbit, so the
orbit found by breadth-first search, with parities, stands for W with its
signs in every alternating sum.  The shifted affine action of W extended by
kappa * Q^vee translations is realized by the folding routine, which drives
both the wall-vanishing bookkeeping and the fusion-rule computation
downstream.  The alcove of A_(n-1) at kappa = K + n is also the sub-alcove
C_K that indexes the intertwiner basis of the Macdonald section.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import factorial, prod

from .lie import (RootSystemData, Weight, _check_rank, _dot, wadd, wneg,
                  wscale, wsub)
from .numeric import InternalConsistencyError

DEFAULT_WEYL_CAP = 10 ** 6


class AffineFoldResult(namedtuple("AffineFoldResult", "representative sign")):
    """Representative in the closed alcove plus the folding sign.

    representative + rho = w(weight + rho) for an element w of W extended
    by kappa * Q^vee translations; sign is det(w) of the linear part, and
    0 exactly when the shifted orbit meets a wall.
    """


def _reflect(rs: RootSystemData, i: int, w: Weight) -> Weight:
    """The simple reflection s_i(w) = w - w_i alpha_i, unchecked: the loops
    that repeat it check the rank of their input once."""
    c = w[i]
    if not c:
        return w
    return tuple(x - c * a for x, a in zip(w, rs.simple_roots[i]))


def weyl_order(rs: RootSystemData) -> int:
    """|W| = rank! a_1 ... a_rank |P/Q| from the marks a_i (Bourbaki, Lie
    Groups and Lie Algebras, ch. VI, 2.4)."""
    return factorial(rs.rank) * prod(rs.marks) * rs.cartan_index


@lru_cache(maxsize=None)
def weyl_orbit(rs: RootSystemData,
               lam: Weight) -> tuple[tuple[Weight, int], ...]:
    """The W-orbit of a dominant lam as (image, parity) pairs in BFS order.

    The search goes down from lam by the reflections s_i with image_i > 0,
    and parity is (-1)^depth.  For strictly dominant lam the pairs are
    exactly (w lam, sign(w)) over W, the last one being (w0 lam,
    (-1)^|R+|).  Such an orbit has |W| points and is refused beyond
    DEFAULT_WEYL_CAP before any work.
    """
    _check_rank(rs, lam)
    if min(lam) < 0:
        raise ValueError(f"the Weyl orbit needs a dominant weight, got {lam}")
    order = weyl_order(rs)
    if all(lam) and order > DEFAULT_WEYL_CAP:
        raise ValueError(
            f"Weyl group of {rs.series}{rs.rank} has {order} elements, "
            f"beyond the enumeration cap {DEFAULT_WEYL_CAP}")
    out = [(lam, 1)]
    seen = {lam}
    for w, parity in out:  # out grows as it is read: the BFS queue
        for i in range(rs.rank):
            if w[i] > 0:
                r = _reflect(rs, i, w)
                if r not in seen:
                    seen.add(r)
                    out.append((r, -parity))
    return tuple(out)


def make_dominant(rs: RootSystemData, lam: Weight) -> tuple[Weight, int]:
    """Dominant representative of the (unshifted) W-orbit and fold parity.

    Parity is the usual sign (-1)^(number of reflections used); it is only
    meaningful when the orbit is regular.
    """
    _check_rank(rs, lam)
    cur, parity = lam, 1
    while (i := next((k for k, c in enumerate(cur) if c < 0), -1)) >= 0:
        cur, parity = _reflect(rs, i, cur), -parity
    return cur, parity


@lru_cache(maxsize=None)
def _star_perm(rs: RootSystemData) -> tuple[int, ...]:
    """pi with -w0(omega_i) = omega_pi(i): W(-omega_i) is dominant there."""
    return tuple(make_dominant(rs, wneg(omega))[0].index(1)
                 for omega in rs.fundamental_weights)


def star(rs: RootSystemData, lam: Weight) -> Weight:
    """The duality involution lam -> -w0(lam), a permutation of coordinates."""
    _check_rank(rs, lam)
    return tuple(lam[p] for p in _star_perm(rs))


def star_positions(rs: RootSystemData,
                   weights: tuple[Weight, ...]) -> tuple[int, ...]:
    """p with weights[p[i]] = star(weights[i]), for star-closed weights
    such as the alcove."""
    position = {w: i for i, w in enumerate(weights)}
    try:
        return tuple(position[star(rs, w)] for w in weights)
    except KeyError as exc:
        raise ValueError(
            f"star image {exc.args[0]} is not among the weights") from None


def _check_level(rs: RootSystemData, kappa: int) -> None:
    if kappa < rs.dual_coxeter:
        raise ValueError(f"kappa = {kappa} below the dual Coxeter number "
                         f"{rs.dual_coxeter} of {rs.series}{rs.rank}")


def enumerate_alcove(rs: RootSystemData, kappa: int) -> tuple[Weight, ...]:
    """Dominant weights with <lam+rho, theta^vee> < kappa, lex-ordered: those
    with <lam, theta^vee> <= kappa - h^vee.  For A_(n-1) at kappa = K + n
    this is the sub-alcove C_K of the intertwiner basis."""
    _check_level(rs, kappa)
    comarks = rs.comarks
    out: list[Weight] = []

    def rec(prefix: list[int], left: int):
        if len(prefix) == rs.rank:
            out.append(tuple(prefix))
            return
        c = comarks[len(prefix)]
        for v in range(left // c + 1):
            rec(prefix + [v], left - v * c)

    rec([], kappa - rs.dual_coxeter)  # ascending coordinates: lex order
    return tuple(out)


def fold_to_alcove(rs: RootSystemData, kappa: int,
                   lam: Weight) -> AffineFoldResult:
    """Fold lam into the closed alcove under the shifted affine action."""
    _check_level(rs, kappa)
    _check_rank(rs, lam)
    theta, comarks = rs.highest_root, rs.comarks
    nu, parity = make_dominant(rs, wadd(lam, rs.rho))
    height = _dot(comarks, nu)
    while height > kappa:
        # reflect across the affine wall <x, theta^vee> = kappa
        excess = height - kappa
        if excess.denominator != 1:
            raise InternalConsistencyError(
                f"affine reflection step {excess} is not integral")
        nu, flips = make_dominant(rs, wsub(nu, wscale(excess, theta)))
        parity = -parity * flips
        height = _dot(comarks, nu)
    on_wall = not all(nu) or height == kappa
    return AffineFoldResult(representative=wsub(nu, rs.rho),
                            sign=0 if on_wall else parity)
