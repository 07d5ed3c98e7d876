"""Modular data of the semisimple quotient category at level kappa.

The unnormalized matrices are stored exactly: s by the alternating-sum
formula over the signed Weyl orbit, t as the diagonal of twists, c as the
charge conjugation permutation.  The quantities that would need square
roots (the total dimension D and the sixth root zeta of p+/p-) never
appear as exact objects; every exact identity is phrased against D^2, p+
and p-, and zeta is constructed directly from its closed form.

The checks multiply matrices only by numeric.matrix_product, once over
one field: s s, (st)^2, (st)^3, and s s^dagger, which is formed once per
ModularData (unitarity_witness) and shared with the Grothendieck suite.
t enters as its diagonal (s t scales columns), and multiples such as
D^2 Id are compared entrywise without being formed.  det s != 0 follows
from s s^dagger = D^2 Id, as |det s|^2 = (D^2)^n; numeric.solve
eliminates only when that identity fails.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import chain

from .chardata import (_eps_order, _rho_denominator_inverse, alternating_sum,
                       quantum_dim)
from .lie import (RootSystemData, Weight, _check_rank, _form_num, form,
                  lattice_index, wadd, wscale)
from .numeric import (DEFAULT_TOLERANCE, CycNum, approx_eq, epsilon_power,
                      matrix_product, solve)
from .report import VerificationReport, mismatches
from .weyl import enumerate_alcove, star_positions


class ModularData(namedtuple("ModularData", (
        "rs kappa alcove smatrix tmatrix cmatrix dims p_plus p_minus "
        "d_squared zeta central_charge"))):
    """The s-matrix, the diagonal t-matrix and the permutation matrix c over
    the alcove weights, with the quantum dimensions, p+ and p-,
    D^2 = p+ p-, zeta and the central charge of the level-kappa category."""

    @property
    def size(self) -> int:
        return len(self.alcove)

    def index_of(self, lam: Weight) -> int:
        return self.alcove.index(lam)

    @cached_property
    def unitarity_witness(self) -> str | None:
        """The first witness against s s^dagger = D^2 Id, None if it holds."""
        s, n = self.smatrix, self.size
        return next(mismatches(
            matrix_product(s, dagger(s)),
            monomial_matrix([self.d_squared] * n, range(n)), self.alcove),
            None)


def twist(rs: RootSystemData, kappa: int, lam: Weight) -> CycNum:
    """theta_lam = eps^((lam, lam + 2 rho)')."""
    _check_rank(rs, lam)
    exp = _form_num(rs, lam, wadd(lam, wscale(2, rs.rho)))
    return CycNum.root_of_unity(_eps_order(rs, kappa), exp)


def s_entry_extended(rs: RootSystemData, kappa: int, lam: Weight,
                     mu: Weight) -> CycNum:
    """The s-matrix formula extended to arbitrary weight pairs."""
    _check_rank(rs, lam, mu)
    return (alternating_sum(rs, kappa, wadd(lam, rs.rho),
                            wscale(-2, wadd(mu, rs.rho)))
            * _rho_denominator_inverse(rs, kappa))


def build_modular_data(rs: RootSystemData, kappa: int) -> ModularData:
    """All modular data for (rs, kappa); kappa at least the dual Coxeter number."""
    alcove = enumerate_alcove(rs, kappa)

    # s is symmetric: fill the upper triangle once
    n = len(alcove)
    smat: list[list[CycNum]] = [[None] * n for _ in range(n)]
    for a, lam in enumerate(alcove):
        for b, mu in enumerate(alcove[a:], a):
            smat[a][b] = smat[b][a] = s_entry_extended(rs, kappa, lam, mu)

    tdiag = [twist(rs, kappa, lam) for lam in alcove]
    tmat = tuple(map(tuple, monomial_matrix(tdiag, range(n))))
    cmat = tuple(tuple(int(j == p) for j in range(n))
                 for p in star_positions(rs, alcove))

    dims = tuple(quantum_dim(rs, kappa, lam) for lam in alcove)
    squares = [d * d for d in dims]
    p_plus = sum((t * sq for t, sq in zip(tdiag, squares)), CycNum.zero())
    p_minus = sum((t.conjugate() * sq for t, sq in zip(tdiag, squares)),
                  CycNum.zero())

    hvee = rs.dual_coxeter
    zeta = epsilon_power(
        Fraction(kappa - hvee, hvee) * form(rs, rs.rho, rs.rho) * rs.lacing,
        rs.lacing, kappa)
    central = Fraction((kappa - hvee) * rs.dim_adjoint, kappa)

    return ModularData(
        rs=rs, kappa=kappa, alcove=alcove,
        smatrix=tuple(tuple(row) for row in smat),
        tmatrix=tmat, cmatrix=cmat, dims=dims,
        p_plus=p_plus, p_minus=p_minus, d_squared=p_plus * p_minus,
        zeta=zeta, central_charge=central,
    )


# -- exact matrix helpers ----------------------------------------------------

def dagger(a) -> list[list[CycNum]]:
    """The conjugate transpose."""
    return [[x.conjugate() for x in col] for col in zip(*a)]


def monomial_matrix(entries, perm):
    """Lazy rows of the matrix with entries[i] at (i, perm[i]), 0 elsewhere."""
    zero = CycNum.zero()
    return ((x if j == p else zero for j in range(len(perm)))
            for x, p in zip(entries, perm))


def det_s_is_nonzero(md: ModularData) -> bool:
    """det s != 0.  If s s^dagger = D^2 Id and D^2 != 0, then
    |det s|^2 = (D^2)^n != 0; elimination decides only when that fails."""
    return ((md.unitarity_witness is None and not md.d_squared.is_zero())
            or bool(solve(md.smatrix)[0]))


# -- the verification suite -----------------------------------------------------

def verify_modular_relations(
        md: ModularData, tol: float = DEFAULT_TOLERANCE) -> VerificationReport:
    """Exact checks of the defining relations of the modular data."""
    rep = VerificationReport(suite="modular")
    rs, kappa = md.rs, md.kappa
    labels = md.alcove
    s = md.smatrix
    t = md.tmatrix
    theta = [row[i] for i, row in enumerate(t)]

    s2 = matrix_product(s, s)
    rep.check("s^2 = D^2 c", mismatches(
        s2, ((md.d_squared * x for x in row) for row in md.cmatrix), labels))

    index = lattice_index(rs, kappa)
    den_inv = _rho_denominator_inverse(rs, kappa)
    closed = den_inv * den_inv * (index * (-1) ** len(rs.positive_roots))
    rep.record("D^2 closed form |P/kQv| (-1)^|R+| delta^-2",
               md.d_squared == closed,
               f"{md.d_squared!r} vs {closed!r}")

    squares = sum((d * d for d in md.dims), start=CycNum.zero())
    rep.record("D^2 = sum of squared quantum dimensions",
               md.d_squared == squares, f"{md.d_squared!r} vs {squares!r}")

    # t is diagonal: s t scales the columns of s by the twists
    st = [[x * th for x, th in zip(row, theta)] for row in s]
    st3 = matrix_product(matrix_product(st, st), st)
    rep.check("(st)^3 = p+ s^2", mismatches(
        st3, ((md.p_plus * x for x in row) for row in s2), labels))

    rep.check("s^2 t = t s^2", mismatches(
        ((x * th for x, th in zip(row, theta)) for row in s2),
        ((th * x for x in row) for th, row in zip(theta, s2)), labels))

    rep.record("s s^dagger = D^2 Id", md.unitarity_witness is None,
               md.unitarity_witness)

    rep.record("det s != 0", det_s_is_nonzero(md), "singular s-matrix")

    zeta6_pm = md.zeta ** 6 * md.p_minus
    rep.record("zeta^6 p- = p+", zeta6_pm == md.p_plus,
               f"{zeta6_pm!r} vs {md.p_plus!r}")

    rep.record("conj(p+) = p-", md.p_plus.conjugate() == md.p_minus,
               f"{md.p_plus.conjugate()!r} vs {md.p_minus!r}")

    # symmetry bundle on the stored matrix, with lazy rows
    sp = star_positions(rs, md.alcove)
    rep.check("s symmetric", mismatches(s, zip(*s), labels))
    rep.check("conj(s_{lm}) = s_{l m*}", mismatches(
        ((x.conjugate() for x in row) for row in s),
        ((row[q] for q in sp) for row in s), labels))
    rep.check("s_{lm} = s_{l* m*}", mismatches(
        s, ((s[p][q] for q in sp) for p in sp), labels))

    rep.check("s_{l 0} = quantum dimensions", mismatches(
        ((row[0],) for row in s), ((d,) for d in md.dims), labels))

    zero = CycNum.zero()
    t_inverse = ((x.inverse() if i == j else zero for j, x in enumerate(row))
                 for i, row in enumerate(t))
    rep.check("twists unitary and star-invariant, theta_0 = 1", chain(
        mismatches(dagger(t), t_inverse, labels),
        mismatches(t, ((t[p][q] for q in sp) for p in sp), labels),
        mismatches((t[0][:1],), ((CycNum.one(),),), labels)))

    # float-mode checks: zeta against the central charge, D against sqrt
    zf = md.zeta.to_complex()
    want = cmath.exp(2j * cmath.pi * float(md.central_charge) / 24)
    rep.record("float: zeta = exp(2 pi i c / 24)", approx_eq(zf, want, tol),
               f"{zf} vs {want}")
    dfloat = md.d_squared.to_complex()
    rep.record("float: D^2 real positive",
               abs(dfloat.imag) <= tol and dfloat.real > 0, f"D^2 = {dfloat}")
    dzeta3 = dfloat.real ** 0.5 * zf ** 3
    rep.record("float: D zeta^3 = p+",
               approx_eq(dzeta3, md.p_plus.to_complex(), tol),
               f"{dzeta3} vs {md.p_plus.to_complex()}")
    sine = 1.0
    for alpha in rs.positive_roots:
        sine *= (2 * math.sin(math.pi * float(form(rs, alpha, rs.rho))
                              / kappa)) ** 2
    rep.record("float: D^2 = |P/kQv| / prod(2 sin)^2",
               approx_eq(dfloat, index / sine, tol),
               f"{dfloat} vs {index / sine}")

    return rep
