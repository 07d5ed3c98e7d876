import random
from fractions import Fraction
from math import factorial, gcd
from operator import mul

import pytest

from modcat.chardata import (alternating_sum, char_value,
                             dominant_weights_below, quantum_dim,
                             vanishing_criterion, weight_multiplicities,
                             weyl_denominator_value, weyl_dimension)
from modcat.fusion import fusion_coefficients
from modcat.lie import (build_root_system, form, lattice_index, pairing,
                        root_alpha_coords, wadd, wscale)
from modcat.macdonald import (build_context, d_coefficient, dominance_leq,
                              monomial_sum, norm_formula)
from modcat.modular import s_entry_extended, twist
from modcat.numeric import solve
from modcat.weyl import (fold_to_alcove, make_dominant, star, star_positions,
                         weyl_orbit, weyl_order)

ALL_TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3),
             ("D", 4), ("E", 6), ("F", 4), ("G", 2)]

# every supported type up to rank 8
SUPPORTED = [(series, rank) for series, ranks in [
    ("A", range(1, 9)), ("B", range(2, 9)), ("C", range(2, 9)),
    ("D", range(4, 9)), ("E", range(6, 9)), ("F", [4]), ("G", [2])]
    for rank in ranks]

# every supported type up to rank 12, and A-D at ranks 20 and 31
WIDE = [(series, rank) for series, ranks in [
    ("A", range(1, 13)), ("B", range(2, 13)), ("C", range(2, 13)),
    ("D", range(4, 13)), ("E", range(6, 9)), ("F", [4]), ("G", [2])]
    for rank in ranks] + [(s, r) for s in "ABCD" for r in (20, 31)]


def brute_det(mat):
    # cofactor expansion, independent of the elimination in numeric.solve
    n = len(mat)
    if n == 1:
        return mat[0][0]
    acc = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        acc += (-1) ** j * mat[0][j] * brute_det(minor)
    return acc


def test_a1_constants():
    rs = build_root_system("A", 1)
    assert len(rs.positive_roots) == 1
    assert rs.dual_coxeter == 2
    assert rs.lacing == 1
    assert rs.cartan_index == 2
    assert rs.dim_adjoint == 3


def test_g2_constants():
    rs = build_root_system("G", 2)
    assert rs.lacing == 3
    assert rs.dual_coxeter == 4
    assert len(rs.positive_roots) == 6


def test_a2_constants():
    rs = build_root_system("A", 2)
    assert rs.cartan_index == 3
    assert len(rs.positive_roots) == 3
    assert pairing(rs, rs.rho, rs.highest_root) == 2


def test_invalid_types_rejected():
    for series, rank in [("A", 0), ("B", 1), ("C", 1), ("D", 3), ("E", 5),
                         ("E", 9), ("F", 3), ("G", 3), ("H", 2)]:
        with pytest.raises(ValueError):
            build_root_system(series, rank)


def test_build_is_deterministic():
    a = build_root_system("B", 3)
    b = build_root_system("B", 3)
    assert a is b or a == b


@pytest.mark.parametrize("series,rank", ALL_TYPES)
def test_table_invariants(series, rank):
    rs = build_root_system(series, rank)
    # highest-root normalization
    assert form(rs, rs.highest_root, rs.highest_root) == 2
    # <rho, alpha_i^vee> = 1 and <rho, theta^vee> = h^vee - 1
    for alpha in rs.simple_roots:
        assert pairing(rs, rs.rho, alpha) == 1
    assert pairing(rs, rs.rho, rs.highest_root) == rs.dual_coxeter - 1
    # sum of positive roots is 2 rho
    total = rs.zero
    for alpha in rs.positive_roots:
        total = wadd(total, alpha)
    assert total == wscale(2, rs.rho)
    assert len(rs.positive_roots) == (rs.dim_adjoint - rs.rank) // 2


@pytest.mark.parametrize("series,rank", ALL_TYPES)
def test_pairing_integral_on_weights(series, rank):
    rs = build_root_system(series, rank)
    rng = random.Random(11)
    for _ in range(25):
        lam = tuple(rng.randrange(-4, 5) for _ in range(rank))
        for alpha in rs.positive_roots:
            assert type(pairing(rs, lam, alpha)) is int


@pytest.mark.parametrize("series,rank", ALL_TYPES)
def test_primed_form_denominator_divides_index(series, rank):
    # bounds the cyclotomic order needed for the exponent arithmetic
    rs = build_root_system(series, rank)
    rng = random.Random(13)
    for _ in range(25):
        lam = tuple(rng.randrange(-4, 5) for _ in range(rank))
        mu = tuple(rng.randrange(-4, 5) for _ in range(rank))
        value = form(rs, lam, mu) * rs.lacing
        assert rs.cartan_index % value.denominator == 0


def test_fundamental_weight_pairing_is_kronecker():
    for series, rank in ALL_TYPES:
        rs = build_root_system(series, rank)
        for i, w in enumerate(rs.fundamental_weights):
            for j, alpha in enumerate(rs.simple_roots):
                assert pairing(rs, w, alpha) == int(i == j)


def test_a1_form_values():
    rs = build_root_system("A", 1)
    alpha = rs.simple_roots[0]
    assert form(rs, alpha, alpha) == 2
    assert form(rs, (1,), (1,)) == Fraction(1, 2)


def test_g2_primed_long_root():
    rs = build_root_system("G", 2)
    theta = rs.highest_root
    assert form(rs, theta, theta) * rs.lacing == 6


def test_a2_shifted_theta_pairing():
    rs = build_root_system("A", 2)
    assert pairing(rs, wadd(rs.rho, (1, 0)), rs.highest_root) == 3


def test_pairing_rejects_zero_root():
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError):
        pairing(rs, (1, 0), (0, 0))


def test_form_rejects_rank_mismatch():
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError):
        form(rs, (1,), (1, 0))


A2 = build_root_system("A", 2)
RANK_CHECKED = {
    "root_alpha_coords": lambda w: root_alpha_coords(A2, w),
    "make_dominant": lambda w: make_dominant(A2, w),
    "weyl_orbit": lambda w: weyl_orbit(A2, w),
    "star": lambda w: star(A2, w),
    "star_positions": lambda w: star_positions(A2, ((0, 0), w)),
    "fold_to_alcove": lambda w: fold_to_alcove(A2, 5, w),
    "weyl_dimension": lambda w: weyl_dimension(A2, w),
    "dominant_weights_below": lambda w: dominant_weights_below(A2, w),
    "weight_multiplicities": lambda w: weight_multiplicities(A2, w),
    "weyl_denominator_value": lambda w: weyl_denominator_value(A2, 5, w),
    "alternating_sum xi": lambda w: alternating_sum(A2, 5, w, (1, 1)),
    "alternating_sum point": lambda w: alternating_sum(A2, 5, (1, 1), w),
    "char_value lam": lambda w: char_value(A2, 5, w, (1, 1)),
    "char_value point": lambda w: char_value(A2, 5, (0, 0), w),
    "quantum_dim": lambda w: quantum_dim(A2, 5, w),
    "vanishing_criterion": lambda w: vanishing_criterion(A2, 5, w),
    "fusion_coefficients lam": lambda w: fusion_coefficients(A2, 5, w, (1, 0)),
    "fusion_coefficients": lambda w: fusion_coefficients(A2, 5, (1, 0), w),
    "twist": lambda w: twist(A2, 5, w),
    "s_entry_extended lam": lambda w: s_entry_extended(A2, 5, w, (0, 0)),
    "s_entry_extended mu": lambda w: s_entry_extended(A2, 5, (0, 0), w),
    "dominance_leq lam": lambda w: dominance_leq(A2, w, (1, 1)),
    "dominance_leq mu": lambda w: dominance_leq(A2, (0, 0), w),
    "monomial_sum": lambda w: monomial_sum(A2, w),
}


@pytest.mark.parametrize("weight", [(1,), (1, 0, 0)], ids=["short", "long"])
@pytest.mark.parametrize("name", sorted(RANK_CHECKED))
def test_weight_of_the_wrong_length_is_refused(name, weight):
    # zip would truncate such a weight, or an index read past it
    with pytest.raises(ValueError, match="rank mismatch: expected 2"):
        RANK_CHECKED[name](weight)


@pytest.mark.parametrize("name,call", [
    ("norm_formula", lambda w: norm_formula(A2, 2, w)),
    ("d_coefficient", lambda w: d_coefficient(build_context(3, 2, 2), w))])
def test_long_weight_is_refused_where_pairing_read_it_cut(name, call):
    # a short one already stopped in pairing
    with pytest.raises(ValueError, match="rank mismatch: expected 2"):
        call((1, 0, 0))


def coroot_basis(rs, kappa):
    # column i is kappa (m/d_i) alpha_i, alpha_i being column i of the Cartan
    # matrix; rows are fundamental-weight coordinates
    return [[Fraction(kappa * rs.lacing, d) * x
             for x, d in zip(row, rs.symmetrizers)] for row in rs.cartan]


def test_lattice_indices():
    assert lattice_index(build_root_system("A", 1), 3) == 6
    assert lattice_index(build_root_system("A", 2), 1) == 3
    assert lattice_index(build_root_system("B", 2), 1) == 4
    assert lattice_index(build_root_system("G", 2), 1) == 3
    assert lattice_index(build_root_system("G", 2), 2) == 12


@pytest.mark.parametrize("series,rank", ALL_TYPES)
def test_index_of_scaled_coroot_lattice(series, rank):
    # |P / kappa Qv| is |det| of the kappa-scaled coroot basis
    rs = build_root_system(series, rank)
    for kappa in (1, 2, 3, 5, 12):
        assert lattice_index(rs, kappa) == abs(
            brute_det(coroot_basis(rs, kappa)))


def test_lattice_index_against_determinant_oracle():
    for series, rank in ALL_TYPES:
        rs = build_root_system(series, rank)
        cartan = [list(row) for row in rs.cartan]
        assert rs.cartan_index == abs(brute_det(cartan))
        # the basis columns are the simple coroots: <omega_j, alpha_i^vee>
        # = (omega_j, alpha_i^vee) = delta_ij in the normalized form
        columns = list(zip(*coroot_basis(rs, 1)))
        for j, omega in enumerate(rs.fundamental_weights):
            assert [form(rs, omega, c) for c in columns] == [
                int(i == j) for i in range(rank)]


def test_lattice_index_rejects_bad_spec():
    a2 = build_root_system("A", 2)
    for kappa in (0, -1, -3):
        with pytest.raises(ValueError):
            lattice_index(a2, kappa)


def random_fraction_matrix(rng, rows, cols):
    return [[Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
             for _ in range(cols)] for _ in range(rows)]


def test_solve_against_determinant_oracle():
    rng = random.Random(8)
    for trial in range(60):
        n, k = rng.randrange(1, 6), rng.randrange(0, 3)
        a = random_fraction_matrix(rng, n, n)
        if trial % 3 == 0 and n > 1:
            # singular: one row a combination of two others (or a copy)
            i, j, l = rng.sample(range(n), 3) if n > 2 else (0, 1, 1)
            c = Fraction(rng.randrange(-3, 4), 2)
            a[i] = [x + c * y for x, y in zip(a[j], a[l])]
        b = random_fraction_matrix(rng, n, k)
        det, x = solve(a, b)
        assert det == brute_det(a)
        assert solve(a)[0] == det
        if det == 0:
            assert x is None
        else:
            assert [[sum(a[i][m] * x[m][j] for m in range(n))
                     for j in range(k)] for i in range(n)] == b


def test_solve_row_swap_and_singular_input():
    # a zero pivot swaps rows and flips the sign of det
    assert solve([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]],
                 [[2], [3]]) == (-1, [[3], [2]])
    # a singular input gives det 0, not a bare StopIteration
    det, x = solve([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]],
                   [[1], [1]])
    assert det == 0 and x is None
    assert solve([[Fraction(0)]]) == (0, None)


@pytest.mark.parametrize("series,rank", SUPPORTED)
def test_cartan_inverse_and_simple_root_coordinates(series, rank):
    # root_alpha_coords reads A^-1 w off the Gram matrix; check it against
    # the inverse Cartan matrix and against sum_i c_i alpha_i = w
    rs = build_root_system(series, rank)
    cartan = [[Fraction(x) for x in row] for row in rs.cartan]
    ident = [[int(i == j) for j in range(rank)] for i in range(rank)]
    det, inv = solve(cartan, ident)
    assert abs(det) == rs.cartan_index
    assert [[sum(map(mul, row, col)) for col in zip(*inv)]
            for row in cartan] == ident
    rng = random.Random(rank)
    for w in list(rs.positive_roots[:8]) + [
            tuple(rng.randrange(-5, 6) for _ in range(rank))
            for _ in range(5)]:
        coords = root_alpha_coords(rs, w)
        assert coords == tuple(sum(inv[i][j] * w[j] for j in range(rank))
                               for i in range(rank))
        # sum_i c_i alpha_i = w, alpha_i the i-th column of the Cartan matrix
        assert tuple(sum(c * rs.cartan[k][i] for i, c in enumerate(coords))
                     for k in range(rank)) == w


def fraction_inverse(mat):
    # Gauss-Jordan over Fractions, the test's own route to A^-1
    n = len(mat)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j))
                                         for j in range(n)]
           for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def reference_gram(rs):
    """(omega_i, omega_j)' = d_i (A^-1)_ij as Fractions."""
    d = rs.symmetrizers
    for i in range(rs.rank):
        for j in range(rs.rank):
            assert d[i] * rs.cartan[i][j] == d[j] * rs.cartan[j][i]
    inv = fraction_inverse(rs.cartan)
    return [[d[i] * inv[i][j] for j in range(rs.rank)]
            for i in range(rs.rank)]


@pytest.mark.parametrize("series,rank", SUPPORTED)
def test_integer_gram_over_least_denominator(series, rank):
    rs = build_root_system(series, rank)
    ref = reference_gram(rs)
    g = rs.denominator
    for i, row in enumerate(rs.gram):
        for j, x in enumerate(row):
            assert type(x) is int
            assert Fraction(x, rs.denominator) == ref[i][j]
            g = gcd(g, x)
    assert g == 1


@pytest.mark.parametrize("series,rank", SUPPORTED)
def test_form_and_pairings_against_fraction_reference(series, rank):
    rs = build_root_system(series, rank)
    ref = reference_gram(rs)
    rng = random.Random(f"{series}{rank}")
    for _ in range(20):
        lam = tuple(rng.randrange(-5, 6) for _ in range(rank))
        mu = tuple(rng.randrange(-5, 6) for _ in range(rank))
        primed = sum(lam[i] * ref[i][j] * mu[j]
                     for i in range(rank) for j in range(rank))
        assert form(rs, lam, mu) == primed / rs.lacing
    for i in range(rank):
        for j, alpha in enumerate(rs.simple_roots):
            assert pairing(rs, alpha, rs.simple_roots[i]) == rs.cartan[i][j]
    # <omega_i, theta^vee> = 2 (omega_i, theta)' / (theta, theta)'
    theta = rs.highest_root
    ref_theta = [sum(map(mul, row, theta)) for row in ref]
    theta2 = sum(map(mul, theta, ref_theta))
    assert rs.comarks == tuple(2 * x / theta2 for x in ref_theta)
    assert all(type(c) is int and c > 0 for c in rs.comarks)


@pytest.mark.parametrize("series,rank", SUPPORTED)
def test_root_order_coordinates_and_integer_pairing(series, rank):
    rs = build_root_system(series, rank)
    coords = [root_alpha_coords(rs, alpha) for alpha in rs.positive_roots]
    for c in coords:
        assert all(x.denominator == 1 and x >= 0 for x in c)
    keys = [(sum(c), alpha) for c, alpha in zip(coords, rs.positive_roots)]
    assert keys == sorted(keys)
    rng = random.Random(rank)
    lam = tuple(rng.randrange(-5, 6) for _ in range(rank))
    for alpha in rs.positive_roots:
        assert type(pairing(rs, lam, alpha)) is int
    # 3 theta is no root: <theta, (3 theta)^vee> = 2/3
    theta = rs.highest_root
    with pytest.raises(ValueError, match="2/3 is not an integer"):
        pairing(rs, theta, wscale(3, theta))


# h^vee and |W| by series from the classical tables: the oracles for the
# values read off the comarks and the marks
def classical_dual_coxeter(series, n):
    if series == "E":
        return {6: 12, 7: 18, 8: 30}[n]
    return {"A": n + 1, "B": 2 * n - 1, "C": n + 1, "D": 2 * n - 2,
            "F": 9, "G": 4}[series]


def classical_weyl_order(series, n):
    if series == "A":
        return factorial(n + 1)
    if series in ("B", "C"):
        return 2 ** n * factorial(n)
    if series == "D":
        return 2 ** (n - 1) * factorial(n)
    if series == "E":
        return {6: 51840, 7: 2903040, 8: 696729600}[n]
    if series == "F":
        return 1152
    return 12  # G2


@pytest.mark.parametrize("series,rank", WIDE)
def test_marks_comarks_and_the_orders_they_give(series, rank):
    rs = build_root_system(series, rank)
    theta = rs.highest_root
    # theta = sum a_i alpha_i, read two ways
    assert rs.marks == root_alpha_coords(rs, theta)
    assert tuple(map(sum, zip(*(wscale(a, alpha) for a, alpha
                                in zip(rs.marks, rs.simple_roots))))) == theta
    assert rs.comarks == tuple(pairing(rs, omega, theta)
                               for omega in rs.fundamental_weights)
    assert all(type(c) is int and c > 0 for c in rs.marks + rs.comarks)
    assert rs.dual_coxeter == pairing(rs, rs.rho, theta) + 1
    assert rs.dual_coxeter == classical_dual_coxeter(series, rank)
    assert weyl_order(rs) == classical_weyl_order(series, rank)
