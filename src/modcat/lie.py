"""Root-system and weight-lattice arithmetic for the simple Lie types A-G.

Weights are integer coordinate vectors in the fundamental-weight basis.
Roots live in the same basis: the j-th simple root is the j-th column of
the Cartan matrix.  The invariant form gives the highest root squared
length 2; the primed form, lacing times it, gives short roots squared
length 2 and is an integer Gram matrix over its least common denominator
D.  So a form value is an integer dot product over D: an exact Fraction
from form and root_alpha_coords, the integer numerator on the hot paths,
and the coroot pairing <lam, alpha^vee> is an integer.

The Cartan matrix A is inverted once, by numeric.solve, which also gives
|det A| = |P/Q|; the Gram matrix is D d_i (A^-1)_ij, so simple-root
coordinates are read off it.  In weight coordinates the simple coroots are
(m/d_i) alpha_i, m being the lacing, so the lattice index
|P / kappa Q^vee| = kappa^rank |P/Q| prod m/d_i in closed form.  The search
for the positive roots keeps their simple-root coordinates; those of the
highest root theta are the marks a_i, so |W| = rank! prod a_i |P/Q|.  As
rho = sum omega_i, h^vee = 1 + sum of the comarks <omega_i, theta^vee>,
which are (gram theta)_i / (D m).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from operator import mul

from .numeric import InternalConsistencyError, solve

Weight = tuple[int, ...]

_RANK_RANGES = {"A": (1, 512), "B": (2, 512), "C": (2, 512), "D": (4, 512),
                "E": (6, 8), "F": (4, 4), "G": (2, 2)}
_VALID_TYPES = ", ".join(f"{s}{lo}" + (f"-{s}{hi}" if hi > lo else "")
                         for s, (lo, hi) in _RANK_RANGES.items())


def wadd(a: Weight, b: Weight) -> Weight:
    return tuple(x + y for x, y in zip(a, b))


def wsub(a: Weight, b: Weight) -> Weight:
    return tuple(x - y for x, y in zip(a, b))


def wneg(a: Weight) -> Weight:
    return tuple(-x for x in a)


def wscale(c: int, a: Weight) -> Weight:
    return tuple(c * x for x in a)


class RootSystemData(namedtuple("RootSystemData", (
        "series rank cartan simple_roots fundamental_weights positive_roots "
        "rho highest_root marks comarks dual_coxeter lacing symmetrizers "
        "cartan_index dim_adjoint gram denominator"))):
    """Immutable tables for one simple Lie type.

    marks are the a_i with theta = sum a_i alpha_i; comarks are
    <omega_i, theta^vee>, so that <lam, theta^vee> = comarks . lam;
    lacing is m: 1, 2 or 3; symmetrizers are d_i = (alpha_i, alpha_i)'/2;
    cartan_index is N = |P/Q|; gram is the integer matrix
    D (omega_i, omega_j)', where denominator is D, the least that makes it
    integral; positive_roots are sorted by (height, weight).
    """

    @property
    def zero(self) -> Weight:
        return (0,) * self.rank

    def __hash__(self) -> int:
        # build_root_system is cached, so (series, rank) fixes every other
        # field; hashing them all would rehash the Gram matrix per lookup
        return hash((self.series, self.rank))

    def __repr__(self) -> str:
        return f"RootSystemData({self.series}{self.rank})"


def _cartan_matrix(series: str, rank: int) -> list[list[int]]:
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def chain(upto: int) -> None:
        for i in range(upto):
            a[i][i + 1] = a[i + 1][i] = -1

    if series == "A":
        chain(rank - 1)
    elif series == "B":    # last node short
        chain(rank - 2)
        a[rank - 2][rank - 1], a[rank - 1][rank - 2] = -1, -2
    elif series == "C":    # last node long
        chain(rank - 2)
        a[rank - 2][rank - 1], a[rank - 1][rank - 2] = -2, -1
    elif series == "D":
        chain(rank - 2)
        a[rank - 3][rank - 1] = a[rank - 1][rank - 3] = -1
    elif series == "E":
        chain(rank - 2)
        a[rank - 4][rank - 1] = a[rank - 1][rank - 4] = -1
    elif series == "F":
        chain(3)
        a[2][1] = -2
    elif series == "G":
        a[0][1], a[1][0] = -3, -1
    return a


def _symmetrizers(cartan: list[list[int]]) -> list[int]:
    # Minimal positive integers d with d_i a_ij = d_j a_ji, gcd 1.  Every
    # Dynkin diagram is connected, so the search from node 0 sets each d_j.
    rank = len(cartan)
    d: list[Fraction | None] = [None] * rank
    d[0] = Fraction(1)
    queue = [0]
    while queue:
        i = queue.pop()
        for j in range(rank):
            if i != j and cartan[i][j] != 0 and d[j] is None:
                d[j] = d[i] * cartan[i][j] / cartan[j][i]
                queue.append(j)
    denom = lcm(*(x.denominator for x in d))
    ints = [int(x * denom) for x in d]
    g = gcd(*ints)
    return [x // g for x in ints]


def _positive_roots(cartan: list[list[int]]) -> list[tuple[Weight, Weight]]:
    """The positive roots with their simple-root coordinates, sorted by
    (height, weight).  A positive root w with c = <w, alpha_i^vee> < 0 has
    the higher positive root s_i(w) = w - c alpha_i, and every positive root
    but a simple one is such an image, so these steps from the simple roots
    find them all; each step raises the coordinate a_i by -c."""
    rank = len(cartan)
    roots = {tuple(cartan[i][j] for i in range(rank)):
             tuple(int(i == j) for i in range(rank)) for j in range(rank)}
    frontier = list(roots.items())
    while frontier:
        nxt = []
        for w, a in frontier:
            for i, c in enumerate(w):
                if c < 0:
                    r = tuple(x - c * row[i] for x, row in zip(w, cartan))
                    if r not in roots:
                        roots[r] = b = a[:i] + (a[i] - c,) + a[i + 1:]
                        nxt.append((r, b))
        frontier = nxt
    return sorted(roots.items(), key=lambda wa: (sum(wa[1]), wa[0]))


@lru_cache(maxsize=None)
def build_root_system(series: str, rank: int) -> RootSystemData:
    """Construct the full data table for one simple type, e.g. ("A", 2)."""
    series = series.upper()
    if series not in _RANK_RANGES:
        raise ValueError(
            f"unknown series {series!r}; valid types are {_VALID_TYPES}")
    lo, hi = _RANK_RANGES[series]
    if not lo <= rank <= hi:
        raise ValueError(f"invalid rank {rank} for series {series}; "
                         f"valid types are {_VALID_TYPES}")

    cartan = _cartan_matrix(series, rank)
    d = _symmetrizers(cartan)
    m = max(d)
    identity = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    det, inv_cartan = solve([[Fraction(x) for x in row] for row in cartan],
                            identity)
    if inv_cartan is None:
        raise InternalConsistencyError(f"singular Cartan matrix {cartan}")
    # (omega_i, omega_j)' = d_i * (A^{-1})_{ij}, over its least denominator
    exact = [[d[i] * x for x in row] for i, row in enumerate(inv_cartan)]
    denominator = lcm(*(x.denominator for row in exact for x in row))
    gram = tuple(tuple(int(x * denominator) for x in row) for row in exact)

    positive = _positive_roots(cartan)
    # highest root: the unique root of greatest height, last in that order
    theta, marks = positive[-1]
    # <omega_i, theta^vee> = (omega_i, theta)' / m = (gram theta)_i / (D m)
    comarks = tuple(_dot(row, theta) // (denominator * m) for row in gram)

    rs = RootSystemData(
        series=series,
        rank=rank,
        cartan=tuple(tuple(row) for row in cartan),
        simple_roots=tuple(zip(*cartan)),
        fundamental_weights=tuple(identity),
        positive_roots=tuple(w for w, _ in positive),
        rho=(1,) * rank,
        highest_root=theta,
        marks=marks,
        comarks=comarks,
        dual_coxeter=1 + sum(comarks),
        lacing=m,
        symmetrizers=tuple(d),
        cartan_index=int(abs(det)),
        dim_adjoint=rank + 2 * len(positive),
        gram=gram,
        denominator=denominator,
    )
    _check_tables(rs)
    return rs


def _check_tables(rs: RootSystemData) -> None:
    theta2 = form(rs, rs.highest_root, rs.highest_root)
    if theta2 != 2:
        raise InternalConsistencyError(
            f"highest root normalization broke: {theta2}")
    if any(rs.lacing % d for d in rs.symmetrizers):
        raise InternalConsistencyError(
            f"symmetrizers {rs.symmetrizers} do not divide the lacing "
            f"{rs.lacing}")
    paired = tuple(pairing(rs, omega, rs.highest_root)
                   for omega in rs.fundamental_weights)
    if rs.comarks != paired:
        raise InternalConsistencyError(
            f"comarks {rs.comarks}, but <omega_i, theta^vee> = {paired}")
    two_rho = tuple(map(sum, zip(*rs.positive_roots)))
    if two_rho != wscale(2, rs.rho):
        raise InternalConsistencyError(
            f"positive roots sum to {two_rho}, not 2 rho")


def _check_rank(rs: RootSystemData, *weights: Weight) -> None:
    """Refuse any weight whose length is not the rank, as zip truncates."""
    for w in weights:
        if len(w) != rs.rank:
            raise ValueError(f"rank mismatch: expected {rs.rank} "
                             f"coordinates, got {w}")


def _gram_vector(rs: RootSystemData, mu: Weight) -> tuple[int, ...]:
    """The vector v = gram mu, so that D (lam, mu)' = lam . v for every lam."""
    return tuple(sum(map(mul, row, mu)) for row in rs.gram)


def _dot(a, b) -> int:
    return sum(map(mul, a, b))


def _form_num(rs: RootSystemData, lam: Weight, mu: Weight) -> int:
    """D (lam, mu)', the primed form as an integer over rs.denominator."""
    return _dot(lam, _gram_vector(rs, mu))


def form(rs: RootSystemData, lam: Weight, mu: Weight) -> Fraction:
    """Invariant bilinear form (lam, mu), normalized by (theta, theta) = 2."""
    _check_rank(rs, lam, mu)
    return Fraction(_form_num(rs, lam, mu), rs.denominator * rs.lacing)


def pairing(rs: RootSystemData, lam: Weight, alpha: Weight) -> int:
    """<lam, alpha^vee> = 2 (lam, alpha) / (alpha, alpha), an integer for a
    weight lam and a root alpha."""
    _check_rank(rs, lam, alpha)
    num, alpha2 = 2 * _form_num(rs, lam, alpha), _form_num(rs, alpha, alpha)
    if alpha2 == 0:
        raise ValueError("pairing against the zero vector")
    q, r = divmod(num, alpha2)
    if r:
        raise ValueError(
            f"<{lam}, {alpha}^vee> = {Fraction(num, alpha2)} is not an integer")
    return q


def root_alpha_coords(rs: RootSystemData, w: Weight) -> tuple[Fraction, ...]:
    """Coordinates of w in the simple-root basis (exact, possibly
    fractional), (A^-1 w)_i = (gram w)_i / (D d_i)."""
    _check_rank(rs, w)
    return tuple(Fraction(x, rs.denominator * d)
                 for x, d in zip(_gram_vector(rs, w), rs.symmetrizers))


def lattice_index(rs: RootSystemData, kappa: int) -> int:
    """|P / kappa Q^vee| = kappa^rank |P/Q| prod m/d_i, as the simple coroots
    are (m/d_i) alpha_i in weight coordinates."""
    if kappa < 1:
        raise ValueError(f"lattice multiplier must be positive, got {kappa}")
    return kappa ** rs.rank * rs.cartan_index * prod(
        rs.lacing // d for d in rs.symmetrizers)
