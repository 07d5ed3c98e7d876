import itertools
import random
from fractions import Fraction

import pytest

from modcat.lie import build_root_system, form, pairing, wadd, wneg
from modcat.macdonald import monomial_sum
from modcat.numeric import InternalConsistencyError
from modcat.weyl import (_reflect, enumerate_alcove, fold_to_alcove,
                         make_dominant, star, weyl_orbit, weyl_order)

ORBIT_ALGEBRAS = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
                  ("B", 4), ("C", 3), ("D", 4), ("D", 5), ("G", 2), ("F", 4),
                  ("E", 6)]
# the algebras where -w0 is not the identity
STAR_MOVES = {("A", 2), ("A", 3), ("A", 4), ("D", 5), ("E", 6)}


def brute_det(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    return sum((-1) ** j * mat[0][j]
               * brute_det([row[:j] + row[j + 1:] for row in mat[1:]])
               for j in range(n))


def reflection_matrix(rs, i):
    # column j is _reflect applied to the j-th fundamental weight
    cols = [_reflect(rs, i, tuple(int(k == j) for k in range(rs.rank)))
            for j in range(rs.rank)]
    return [[cols[j][k] for j in range(rs.rank)] for k in range(rs.rank)]


def apply(mat, w):
    return tuple(sum(a * b for a, b in zip(row, w)) for row in mat)


@pytest.mark.parametrize("series,rank", ORBIT_ALGEBRAS)
def test_enumeration_matches_order_formula(series, rank):
    # the signed orbit of rho has |W| distinct points, and make_dominant
    # walks each one back to rho with the parity the BFS assigned
    rs = build_root_system(series, rank)
    orbit = weyl_orbit(rs, rs.rho)
    assert len(orbit) == weyl_order(rs)
    assert len({image for image, _ in orbit}) == len(orbit)
    for image, parity in orbit:
        assert make_dominant(rs, image) == (rs.rho, parity)


def test_enumeration_cap():
    e8 = build_root_system("E", 8)
    with pytest.raises(ValueError, match="beyond the enumeration cap"):
        weyl_orbit(e8, e8.rho)
    # a singular orbit is smaller than W and is not refused: the roots
    assert len(weyl_orbit(e8, e8.highest_root)) == 2 * len(e8.positive_roots)


def test_weyl_orbit_refuses_a_weight_that_is_not_dominant():
    # the search only goes down from lam, so it would miss part of the orbit
    a1, a2 = build_root_system("A", 1), build_root_system("A", 2)
    for rs, lam in [(a2, (1, -1)), (a1, (-1,))]:
        with pytest.raises(ValueError, match="needs a dominant weight"):
            weyl_orbit(rs, lam)
        with pytest.raises(ValueError, match="needs a dominant weight"):
            monomial_sum(rs, lam)
    orbit = {w for w, _ in weyl_orbit(a2, make_dominant(a2, (1, -1))[0])}
    assert orbit == {(0, 1), (1, -1), (-1, 0)}
    assert {w for w, _ in weyl_orbit(a1, (1,))} == {(1,), (-1,)}


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_sign_is_determinant_and_form_invariance(series, rank):
    # compose the reflections that take each orbit point back to rho: the
    # product's determinant is the BFS parity, and the form is invariant
    # under it and under each _reflect
    rs = build_root_system(series, rank)
    rng = random.Random(5)
    for i in range(rank):
        assert brute_det(reflection_matrix(rs, i)) == -1
        for _ in range(5):
            lam = tuple(rng.randrange(-3, 4) for _ in range(rank))
            mu = tuple(rng.randrange(-3, 4) for _ in range(rank))
            assert (form(rs, _reflect(rs, i, lam), _reflect(rs, i, mu))
                    == form(rs, lam, mu))
    for image, parity in weyl_orbit(rs, rs.rho):
        mat = [[int(r == c) for c in range(rank)] for r in range(rank)]
        cur = image
        while (i := next((k for k, c in enumerate(cur) if c < 0),
                         None)) is not None:
            cur = _reflect(rs, i, cur)
            refl = reflection_matrix(rs, i)
            mat = [[sum(refl[r][k] * mat[k][c] for k in range(rank))
                    for c in range(rank)] for r in range(rank)]
        assert apply(mat, image) == rs.rho
        assert brute_det(mat) == parity
        for _ in range(5):
            lam = tuple(rng.randrange(-3, 4) for _ in range(rank))
            mu = tuple(rng.randrange(-3, 4) for _ in range(rank))
            assert (form(rs, apply(mat, lam), apply(mat, mu))
                    == form(rs, lam, mu))


def test_star_rank_one_is_identity():
    a1 = build_root_system("A", 1)
    for l in range(-3, 7):
        assert star(a1, (l,)) == (l,)


def test_star_swaps_a2_nodes():
    a2 = build_root_system("A", 2)
    assert star(a2, (1, 0)) == (0, 1)
    assert star(a2, (2, 1)) == (1, 2)
    assert star(a2, (0, 0)) == (0, 0)


@pytest.mark.parametrize("series,rank", [("A", 2), ("A", 3), ("B", 2),
                                         ("G", 2), ("D", 4)])
def test_star_involution_preserves_dominance(series, rank):
    rs = build_root_system(series, rank)
    rng = random.Random(7)
    for _ in range(40):
        lam = tuple(rng.randrange(-4, 5) for _ in range(rank))
        assert star(rs, star(rs, lam)) == lam
    for _ in range(40):
        lam = tuple(rng.randrange(0, 5) for _ in range(rank))
        assert all(c >= 0 for c in star(rs, lam))


def test_star_maps_alcove_onto_itself():
    for series, rank, kappa in [("A", 2, 6), ("B", 2, 5), ("G", 2, 6)]:
        rs = build_root_system(series, rank)
        alcove = set(enumerate_alcove(rs, kappa))
        assert {star(rs, lam) for lam in alcove} == alcove


def test_longest_element_negates_rho():
    # the BFS ends at w0 xi = -star(xi) with sign (-1)^|R+|, which checks
    # star against w0; xi = rho + omega_1 + 2 omega_r is moved by star
    # exactly where -w0 is not the identity
    for series, rank in ORBIT_ALGEBRAS:
        rs = build_root_system(series, rank)
        sign = (-1) ** len(rs.positive_roots)
        assert weyl_orbit(rs, rs.rho)[-1] == (wneg(rs.rho), sign)
        xi = wadd(rs.rho, tuple(int(k == 0) + 2 * int(k == rank - 1)
                                for k in range(rank)))
        assert (star(rs, xi) != xi) == ((series, rank) in STAR_MOVES)
        assert weyl_orbit(rs, xi)[-1] == (wneg(star(rs, xi)), sign)


def test_alcove_examples():
    a1 = build_root_system("A", 1)
    assert enumerate_alcove(a1, 3) == ((0,), (1,))
    a2 = build_root_system("A", 2)
    assert enumerate_alcove(a2, 4) == ((0, 0), (0, 1), (1, 0))
    for series, rank in [("A", 1), ("A", 2), ("B", 2), ("G", 2)]:
        rs = build_root_system(series, rank)
        assert enumerate_alcove(rs, rs.dual_coxeter) == (rs.zero,)


def test_alcove_ordering_and_membership():
    a2 = build_root_system("A", 2)
    alcove = enumerate_alcove(a2, 6)
    assert list(alcove) == sorted(alcove)
    assert alcove[0] == (0, 0)
    for lam in alcove:
        assert pairing(a2, wadd(lam, a2.rho), a2.highest_root) < 6
    # completeness against the box
    expect = {lam for lam in itertools.product(range(6), repeat=2)
              if pairing(a2, wadd(lam, a2.rho), a2.highest_root) < 6}
    assert set(alcove) == expect


def test_alcove_rejects_small_kappa():
    g2 = build_root_system("G", 2)
    with pytest.raises(ValueError):
        enumerate_alcove(g2, 3)


def sub_alcove(rs, bound):
    # C_K = {lam dominant : <lam, theta^vee> <= K}, the alcove at K + h^vee
    return enumerate_alcove(rs, bound + rs.dual_coxeter)


def test_sub_alcove_examples():
    a1 = build_root_system("A", 1)
    assert sub_alcove(a1, 2) == ((0,), (1,), (2,))
    a2 = build_root_system("A", 2)
    assert sub_alcove(a2, 1) == ((0, 0), (0, 1), (1, 0))
    a3 = build_root_system("A", 3)
    assert sub_alcove(a3, 0) == ((0, 0, 0),)


def test_sub_alcove_star_stable():
    a2 = build_root_system("A", 2)
    grid = sub_alcove(a2, 3)
    assert {star(a2, lam) for lam in grid} == set(grid)


def test_sub_alcove_rejects():
    # K = -1 puts kappa below h^vee
    a2 = build_root_system("A", 2)
    with pytest.raises(ValueError):
        sub_alcove(a2, -1)


@pytest.mark.parametrize("rank", range(1, 6))
def test_alcove_below_kappa_on_every_positive_coroot(rank):
    # type A: <lam+rho, alpha^vee> < kappa for every positive alpha, not
    # only for theta
    rs = build_root_system("A", rank)
    for bound in range(5):
        kappa = bound + rs.dual_coxeter
        for lam in enumerate_alcove(rs, kappa):
            shifted = wadd(lam, rs.rho)
            assert all(pairing(rs, shifted, alpha) < kappa
                       for alpha in rs.positive_roots), (lam, kappa)


@pytest.mark.parametrize("series,rank", [("B", 2), ("C", 3), ("D", 4),
                                         ("G", 2), ("F", 4)])
def test_alcove_equals_box_filter(series, rank):
    # each coordinate of an alcove weight is at most kappa - h^vee, as every
    # comark is at least 1
    rs = build_root_system(series, rank)
    for kappa in range(rs.dual_coxeter, rs.dual_coxeter + 4):
        box = itertools.product(range(kappa - rs.dual_coxeter + 1),
                                repeat=rank)
        want = [lam for lam in box
                if pairing(rs, wadd(lam, rs.rho), rs.highest_root) < kappa]
        assert enumerate_alcove(rs, kappa) == tuple(want)


def test_fold_examples_rank_one():
    a1 = build_root_system("A", 1)
    r = fold_to_alcove(a1, 3, (2,))
    assert r.sign == 0
    r = fold_to_alcove(a1, 3, (3,))
    assert (r.representative, r.sign) == ((1,), -1)
    r = fold_to_alcove(a1, 3, (1,))
    assert (r.representative, r.sign) == ((1,), 1)


def test_fold_identity_on_alcove():
    for series, rank, kappa in [("A", 1, 5), ("A", 2, 5), ("B", 2, 4),
                                ("G", 2, 6)]:
        rs = build_root_system(series, rank)
        for lam in enumerate_alcove(rs, kappa):
            r = fold_to_alcove(rs, kappa, lam)
            assert r.representative == lam and r.sign == 1


@pytest.mark.parametrize("series,rank,kappa", [("A", 1, 3), ("A", 1, 6),
                                               ("A", 2, 4), ("A", 2, 6)])
def test_fold_fundamental_domain(series, rank, kappa):
    # every weight in a big box folds into the closed alcove; members of the
    # closed alcove are their own representatives
    rs = build_root_system(series, rank)
    bound = 3 * kappa
    for lam in itertools.product(range(-bound, bound + 1), repeat=rank):
        r = fold_to_alcove(rs, kappa, lam)
        shifted = wadd(r.representative, rs.rho)
        assert all(c >= 0 for c in shifted)
        assert pairing(rs, shifted, rs.highest_root) <= kappa
        if all(c >= 0 for c in wadd(lam, rs.rho)) and \
                pairing(rs, wadd(lam, rs.rho), rs.highest_root) <= kappa:
            assert r.representative == lam


def test_fold_sign_composition_with_generators():
    # folding after a generator of the affine group flips the sign
    a2 = build_root_system("A", 2)
    kappa = 5
    rng = random.Random(17)
    theta = a2.highest_root
    for _ in range(50):
        lam = tuple(rng.randrange(-8, 9) for _ in range(2))
        base = fold_to_alcove(a2, kappa, lam)
        shifted = wadd(lam, a2.rho)
        for i in range(2):
            img = _reflect(a2, i, shifted)
            moved = fold_to_alcove(a2, kappa, wadd(img, wneg(a2.rho)))
            assert moved.representative == base.representative
            assert moved.sign == -base.sign
        # affine generator: s_Gamma(x) = x - (<x, theta^vee> - kappa) theta
        h = pairing(a2, shifted, theta)
        img = wadd(shifted, tuple(-(h - kappa) * t for t in theta))
        moved = fold_to_alcove(a2, kappa, wadd(img, wneg(a2.rho)))
        assert moved.representative == base.representative
        assert moved.sign == -base.sign


def test_fold_refuses_non_integral_affine_step():
    # integer comarks make every step integral for weights; a half-integral
    # input still raises instead of folding by a fractional multiple of theta
    a1 = build_root_system("A", 1)
    with pytest.raises(InternalConsistencyError, match="9/2 is not integral"):
        fold_to_alcove(a1, 3, (Fraction(13, 2),))


def test_alcove_members_regular():
    for series, rank, kappa in [("A", 2, 5), ("B", 2, 5)]:
        rs = build_root_system(series, rank)
        for lam in enumerate_alcove(rs, kappa):
            r = fold_to_alcove(rs, kappa, lam)
            assert r.sign == 1 and r.representative == lam


def test_make_dominant():
    a2 = build_root_system("A", 2)
    rng = random.Random(23)
    for _ in range(50):
        lam = tuple(rng.randrange(-6, 7) for _ in range(2))
        dom, parity = make_dominant(a2, lam)
        assert all(c >= 0 for c in dom)
        assert parity in (-1, 1)
        assert dom == make_dominant(a2, dom)[0]
        assert lam in {image for image, _ in weyl_orbit(a2, dom)}
