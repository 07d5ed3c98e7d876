"""Fusion rules of the level-kappa category.

N_{lam mu}^nu comes from one Kac-Walton fold (Kac, Infinite dimensional
Lie algebras, Ex. 13.35; Walton, Nucl. Phys. B 340 (1990)): each weight nu
of V_mu adds its multiplicity, times the sign of the fold, at the alcove
representative of lam + nu under the shifted affine Weyl group, which
contains W.  At kappa = h^vee + <lam + mu, theta^vee> + 1 no lam + nu + rho
reaches the affine wall, as dom(lam + nu + rho) <= lam + mu + rho, so the
fold is the classical decomposition of V_lam x V_mu.  The table holds the
folded coefficients as integer fusion matrices N_i over alcove positions.

The folded coefficients are checked against the diagonalization of the
fusion ring by the s-matrix (Verlinde), N_i s = s diag(s_{ip} / s_{0p}),
decided exactly on the residues of s modulo one integer; the Grothendieck
suite checks the same identity, as its form for f = s diag(dims)^-1 only
scales column p by dims_p != 0.  Associativity is an integer identity on
packed rows; the unit, dual and symmetry checks use the star permutation.

build_fusion_table folds each unordered pair once and mirrors it, so on a
built table the N_ij^k = N_ji^k part of the index symmetries checks the
mirroring, not the fold.  Commutativity is still checked independently:
the diagonalization check fixes N_ij^k as sum_p s_jp s_ip / s_0p (s^-1)_pk,
which is symmetric in i and j.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import chain
from operator import mul

from .chardata import weight_multiplicities, weyl_dimension
from .lie import RootSystemData, Weight, _dot, wadd
from .modular import ModularData, det_s_is_nonzero
from .numeric import CycNum, _pack, _residues, _unpack, matrix_product
from .report import VerificationReport, mismatches
from .weyl import (_check_level, enumerate_alcove, fold_to_alcove,
                   star_positions)


class FusionConsistencyError(RuntimeError):
    """Folding produced an impossible coefficient; data is inconsistent."""


class FusionTable(namedtuple("FusionTable", "rs kappa alcove matrices")):
    """N_{ij}^k = matrices[i][j][k] over alcove positions: matrices[i] is
    the fusion matrix N_i of alcove[i], with rows j and columns k."""

    @cached_property
    def positions(self) -> dict[Weight, int]:
        return {w: i for i, w in enumerate(self.alcove)}

    def n(self, lam: Weight, mu: Weight, nu: Weight) -> int:
        pos = self.positions
        return self.matrices[pos[lam]][pos[mu]][pos[nu]]

    def product(self, lam: Weight, mu: Weight) -> dict[Weight, int]:
        pos = self.positions
        row = self.matrices[pos[lam]][pos[mu]]
        return {nu: c for nu, c in zip(self.alcove, row) if c}


def fusion_coefficients(rs: RootSystemData, kappa: int, lam: Weight,
                        mu: Weight) -> dict[Weight, int]:
    """N_{lam mu}^nu by the Kac-Walton fold of lam + each weight of V_mu,
    for lam and mu in the alcove."""
    if weyl_dimension(rs, mu) > weyl_dimension(rs, lam):
        lam, mu = mu, lam
    _check_level(rs, kappa)
    bound = kappa - rs.dual_coxeter
    for w in (lam, mu):
        if min(w) < 0 or _dot(rs.comarks, w) > bound:
            raise ValueError(f"weight {w} is outside the alcove at kappa "
                             f"{kappa}: need it dominant with <lam, "
                             f"theta^vee> <= {bound}")
    out: dict[Weight, int] = {}
    for nu, mult in weight_multiplicities(rs, mu).items():
        folded = fold_to_alcove(rs, kappa, wadd(lam, nu))
        if folded.sign:
            key = folded.representative
            out[key] = out.get(key, 0) + folded.sign * mult
    out = {nu: c for nu, c in out.items() if c}
    bad = [(nu, c) for nu, c in out.items() if c < 0]
    if bad:
        raise FusionConsistencyError(
            f"negative folded coefficient for {lam} x {mu}: {bad}")
    return out


def build_fusion_table(rs: RootSystemData, kappa: int) -> FusionTable:
    """The folded fusion matrices over enumerate_alcove(rs, kappa), whose
    first weight is the unit."""
    alcove = enumerate_alcove(rs, kappa)
    n = len(alcove)
    pos = {w: i for i, w in enumerate(alcove)}
    mats = [[[0] * n for _ in range(n)] for _ in range(n)]
    for a, lam in enumerate(alcove):
        for b in range(a, n):
            for nu, c in fusion_coefficients(rs, kappa, lam,
                                             alcove[b]).items():
                mats[a][b][pos[nu]] = mats[b][a][pos[nu]] = c
    return FusionTable(rs=rs, kappa=kappa, alcove=alcove,
                       matrices=tuple(tuple(map(tuple, m)) for m in mats))


def _diagonalization_failures(table: FusionTable, m, name: str):
    """Witnesses against N_i m = m diag(m_{ip} / m_{0p}), decided on residues
    as N_i (m diag m_0) = m diag m_i; m_{0p}, of the unit, must not vanish."""
    alcove, mats = table.alcove, table.matrices
    for w, x in zip(alcove, m[0]):
        if x.is_zero():
            raise FusionConsistencyError(
                f"vanishing quantum dimension inside the alcove at {w}")
    # entry (j, p) of the difference adds 1 + sum_k |N_ijk| products
    res, q = _residues(m, 1 + max(sum(map(abs, r)) for r in chain(*mats)))
    for i, (n_i, r_i) in enumerate(zip(mats, res)):
        for j, (row, r_j) in enumerate(zip(n_i, res)):
            terms = [(c, res[k]) for k, c in enumerate(row) if c]
            for p, (x, y, z) in enumerate(zip(r_j, r_i, res[0])):
                if (sum(c * t[p] for c, t in terms) * z - x * y) % q:
                    left = matrix_product(
                        [[CycNum.from_rational(c) for c in row]], m)[0][p]
                    right = m[j][p] * (m[i][p] * m[0][p].inverse())
                    yield (f"N_{alcove[i]} {name} entry ({j},{p}) at "
                           f"{alcove[j]}, {alcove[p]}: {left!r} vs {right!r}")


def _associativity_failures(table: FusionTable):
    """Witnesses against N_j N_i = sum_s N_{ij}^s N_s, which is the identity
    sum_s N_{ij}^s N_{sk}^t = sum_s N_{jk}^s N_{is}^t in matrix form, on the
    rows of each N_s packed into one int (digits up to n max|N|^2, signed)."""
    mats, alcove = table.matrices, table.alcove
    top = max(abs(c) for m in mats for row in m for c in row)
    w = (len(mats) * top * top).bit_length() + 1
    packed = [[_pack(row, w) for row in m] for m in mats]
    rows_at = list(zip(*packed))   # rows_at[j][s] = row j of N_s, packed
    for i, n_i in enumerate(mats):
        for j, n_j in enumerate(mats):
            left = [sum(map(mul, row, packed[i])) for row in n_j]
            right = [sum(map(mul, n_i[j], rows)) for rows in rows_at]
            if left != right:
                for x in mismatches(*(_unpack(v, w, len(mats))
                                      for v in (left, right)), alcove):
                    yield f"N_{alcove[j]} N_{alcove[i]} {x}"


def _check_same_category(md: ModularData, table: FusionTable) -> None:
    if (md.rs, md.kappa) != (table.rs, table.kappa):
        raise ValueError(f"modular data of {md.rs!r} at kappa {md.kappa}, "
                         f"fusion table of {table.rs!r} at kappa {table.kappa}")


def verify_fusion(md: ModularData, table: FusionTable) -> VerificationReport:
    """Folding vs s-matrix diagonalization, plus the ring axioms."""
    _check_same_category(md, table)
    rep = VerificationReport(suite="fusion")
    alcove, mats = table.alcove, table.matrices
    idx = range(len(alcove))
    sp = star_positions(md.rs, alcove)

    def each(sides):
        # the mismatches of every pair sides(i) = (left, right), naming N_i
        return (f"N_{alcove[i]} {w}" for i in idx
                for w in mismatches(*sides(i), alcove))

    rep.check("folded coefficients = s-matrix diagonalization",
              _diagonalization_failures(table, md.smatrix, "s"))

    # alcove[0] is the unit object, the zero weight
    rep.check("N_{l m}^0 = delta_{l m*}", each(lambda i: (
        ((row[0],) for row in mats[i]), ((int(j == sp[i]),) for j in idx))))

    rep.check("unit row: N_{l 0}^n = delta_{l n}", each(lambda i: (
        mats[i][:1], ([int(k == i) for k in idx],))))

    rep.check("index symmetries of N", chain(
        each(lambda i: (mats[i], (mats[j][i] for j in idx))),
        each(lambda i: (mats[i], ((mats[i][sp[k]][sp[j]] for k in idx)
                                  for j in idx))),
        each(lambda i: (mats[i], ((mats[sp[i]][sp[j]][sp[k]] for k in idx)
                                  for j in idx)))))

    rep.check("associativity", _associativity_failures(table))

    # dims as a one-column matrix: N_i dims = dims_i dims, as dims_0 = 1
    rep.check("quantum dimension homomorphism", _diagonalization_failures(
        table, [(d,) for d in md.dims], "dims"))

    return rep


def verify_grothendieck(md: ModularData,
                        table: FusionTable) -> VerificationReport:
    """The character map diagonalizes the fusion ring pointwise."""
    _check_same_category(md, table)
    rep = VerificationReport(suite="grothendieck")

    # f_{V_lam}(mu) = ch V_lam (eps^{-2(mu+rho)}) = s_{lam mu} / dim_mu, so
    # f_{0 mu} = 1 and N_lam f = f diag(f_{lam mu}) is the ring homomorphism
    # f_lam f_mu = sum_nu N_{lam mu}^nu f_nu at every point
    if not all(md.dims):
        raise FusionConsistencyError("vanishing quantum dimension in dims")
    rep.check("pointwise ring homomorphism",
              _diagonalization_failures(table, md.smatrix, "s"))

    # F = s diag(dims)^-1 with nonzero dims: det F != 0 exactly when det s != 0
    rep.record("character evaluation matrix non-singular",
               det_s_is_nonzero(md), "singular evaluation matrix")

    return rep
