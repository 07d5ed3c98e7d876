"""Command-line front end.

Exact-mode JSON output is canonical and byte-identical across runs: every
mapping is emitted in a fixed key order, rationals as "p/q" strings, and
weights as integer arrays.  Float mode renders the same tables as
[re, im] pairs.  Exit codes: 0 success, 1 verification failure, 2 usage or
precondition error, 3 internal consistency error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction

from .fusion import (FusionConsistencyError, build_fusion_table,
                     fusion_coefficients, verify_fusion, verify_grothendieck)
from .lie import build_root_system
from .macdonald import (build_context, build_su_data, macdonald_polynomial,
                        verify_section5)
from .modular import build_modular_data, verify_modular_relations
from .numeric import (DEFAULT_TOLERANCE, InternalConsistencyError,
                      check_tolerance)
from .weyl import enumerate_alcove
from .chardata import quantum_dim

USAGE_ERROR = 2
VERIFY_ERROR = 1
INTERNAL_ERROR = 3


class UsageError(Exception):
    pass


def _parse_algebra(text: str):
    text = text.strip()
    if not re.fullmatch("[A-Za-z][0-9]+", text):
        raise UsageError(f"bad algebra name {text!r}; expected e.g. A2, B2, G2")
    return build_root_system(text[0], int(text[1:]))


def _parse_weight(text: str, rank: int):
    parts = text.replace(" ", "").split(",")
    if not all(re.fullmatch("[+-]?[0-9]+", p) for p in parts):
        raise UsageError(f"bad weight {text!r}; expected comma-separated "
                         "integers")
    coords = tuple(map(int, parts))
    if len(coords) != rank:
        raise UsageError(f"weight {text!r} has {len(coords)} coordinates, "
                         f"expected {rank}")
    return coords


def _tolerance(text: str) -> float:
    try:
        return check_tolerance(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _default_tolerance() -> float:
    """MODCAT_TOLERANCE if set, else DEFAULT_TOLERANCE: the library itself
    reads no environment variable."""
    env = os.environ.get("MODCAT_TOLERANCE")
    if not env:
        return DEFAULT_TOLERANCE
    try:
        return check_tolerance(float(env))
    except ValueError:
        raise ValueError("MODCAT_TOLERANCE must be a finite positive "
                         f"number, got {env!r}") from None


def _float(x) -> complex:
    """The float value of a CycNum, with imaginary part 0 if it is real."""
    z = x.to_complex()
    return complex(z.real, 0) if x == x.conjugate() else z


def _fmt_complex(x) -> str:
    z = _float(x)
    return f"{z.real:.12g}{z.imag:+.12g}j"


def _cyc_out(x, mode: str):
    if mode == "float":
        z = _float(x)
        return [z.real, z.imag]
    return x.to_json_obj()


def _matrix_out(mat, mode: str):
    return [[_cyc_out(x, mode) for x in row] for row in mat]


def _emit(args, out: dict | str) -> None:
    """Write a handler's output to --out or stdout: text as it is, anything
    else as indented JSON, followed by one newline."""
    text = (out if isinstance(out, str) else json.dumps(out, indent=2)) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(
                f"cannot write {args.out}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


# -- subcommand handlers -------------------------------------------------------
# Each returns its output: a JSON-ready object, or the text of a csv or
# pretty view.  main writes it.

def _cmd_lie_info(args) -> dict | str:
    rs = _parse_algebra(args.algebra)
    obj = {
        "algebra": f"{rs.series}{rs.rank}",
        "rank": rs.rank,
        "cartan_matrix": [list(row) for row in rs.cartan],
        "simple_roots": [list(w) for w in rs.simple_roots],
        "positive_roots": [list(w) for w in rs.positive_roots],
        "rho": list(rs.rho),
        "highest_root": list(rs.highest_root),
        "dual_coxeter": rs.dual_coxeter,
        "lacing": rs.lacing,
        "symmetrizers": list(rs.symmetrizers),
        "weight_to_root_index": rs.cartan_index,
        "dim_adjoint": rs.dim_adjoint,
        "gram_primed": [[str(Fraction(x, rs.denominator)) for x in row]
                        for row in rs.gram],
    }
    if args.format == "pretty":
        return "\n".join(f"{k}: {v}" for k, v in obj.items())
    return obj


def _cmd_alcove(args) -> dict | str:
    cat, mac = (args.algebra, args.kappa), (args.n, args.level)
    if None not in cat and mac == (None, None):
        rs = _parse_algebra(args.algebra)
        weights = enumerate_alcove(rs, args.kappa)
        obj = {"algebra": f"{rs.series}{rs.rank}", "kappa": args.kappa,
               "weights": [list(w) for w in weights]}
    elif None not in mac and cat == (None, None):
        if args.n < 2:
            raise UsageError("need n >= 2")
        if args.level < 0:
            raise UsageError(f"negative level bound {args.level}")
        # the sub-alcove C_K is the alcove of A_(n-1) at kappa = K + n
        rs = build_root_system("A", args.n - 1)
        weights = enumerate_alcove(rs, args.level + rs.dual_coxeter)
        obj = {"n": args.n, "K": args.level,
               "weights": [list(w) for w in weights]}
    else:
        raise UsageError("alcove needs either --algebra and --kappa, "
                         "or --n and --K")
    if args.format == "pretty":
        return "\n".join(",".join(map(str, w)) for w in weights)
    return obj


def _cmd_dims(args) -> dict | str:
    rs = _parse_algebra(args.algebra)
    weights = enumerate_alcove(rs, args.kappa)
    dims = [quantum_dim(rs, args.kappa, lam) for lam in weights]
    if args.format == "csv":
        return "\n".join(["weight,dim"] + [
            f"{'.'.join(map(str, lam))},{d.to_complex().real:.12g}"
            for lam, d in zip(weights, dims)])
    if args.format == "pretty":
        return "\n".join(f"{lam}: {_fmt_complex(d)}"
                         for lam, d in zip(weights, dims))
    return {"algebra": f"{rs.series}{rs.rank}", "kappa": args.kappa,
            "mode": args.mode,
            "dims": [{"weight": list(lam), "dim": _cyc_out(d, args.mode)}
                     for lam, d in zip(weights, dims)]}


def _cmd_modular(args) -> dict | str:
    md = build_modular_data(_parse_algebra(args.algebra), args.kappa)
    if args.format == "csv":
        lines = []
        labels = [".".join(map(str, lam)) for lam in md.alcove]
        for label, mat in (("s", md.smatrix), ("t", md.tmatrix)):
            lines += [f"# matrix {label}", ",".join([label] + labels)]
            lines += [",".join([lam, *map(_fmt_complex, row)])
                      for lam, row in zip(labels, mat)]
        return "\n".join(lines)
    if args.format == "pretty":
        lines = [f"alcove: {[list(w) for w in md.alcove]}"]
        for label, mat in (("s", md.smatrix), ("t", md.tmatrix)):
            lines.append(f"{label}:")
            lines += ["  " + "  ".join(map(_fmt_complex, row)) for row in mat]
        lines.append(f"D^2 = {_fmt_complex(md.d_squared)}, "
                     f"central charge = {md.central_charge}")
        return "\n".join(lines)
    mode = args.mode
    return {
        "algebra": f"{md.rs.series}{md.rs.rank}",
        "kappa": md.kappa,
        "mode": mode,
        "alcove": [list(w) for w in md.alcove],
        "s": _matrix_out(md.smatrix, mode),
        "t": _matrix_out(md.tmatrix, mode),
        "c": [list(row) for row in md.cmatrix],
        "dims": [_cyc_out(d, mode) for d in md.dims],
        "p_plus": _cyc_out(md.p_plus, mode),
        "p_minus": _cyc_out(md.p_minus, mode),
        "d_squared": _cyc_out(md.d_squared, mode),
        "zeta": _cyc_out(md.zeta, mode),
        "central_charge": str(md.central_charge),
    }


def _product_json(lam, mu, prod):
    return {"lambda": list(lam), "mu": list(mu),
            "result": [{"nu": list(nu), "mult": prod[nu]}
                       for nu in sorted(prod)]}


def _cmd_fusion(args) -> dict:
    rs = _parse_algebra(args.algebra)
    if (args.lhs is None) != (args.rhs is None):
        raise UsageError("--lhs and --rhs go together")
    if args.lhs is not None:
        lam = _parse_weight(args.lhs, rs.rank)
        mu = _parse_weight(args.rhs, rs.rank)
        prod = fusion_coefficients(rs, args.kappa, lam, mu)
        return {"algebra": f"{rs.series}{rs.rank}", "kappa": args.kappa,
                **_product_json(lam, mu, prod)}
    table = build_fusion_table(rs, args.kappa)
    alcove = table.alcove
    products = [_product_json(lam, mu, table.product(lam, mu))
                for lam in alcove for mu in alcove]
    return {"algebra": f"{rs.series}{rs.rank}", "kappa": args.kappa,
            "alcove": [list(w) for w in alcove], "products": products}


def _cmd_macdonald(args) -> dict:
    if args.macdonald_cmd == "poly":
        ctx = build_context(args.n, args.k, 0)
        lam = _parse_weight(args.lam, ctx.rs.rank)
        poly = macdonald_polynomial(ctx, lam)
        return {"n": args.n, "k": args.k, "lambda": list(lam),
                "terms": [{"weight": list(w), "coeff": c.to_json_obj()}
                          for w, c in poly.sorted_terms()]}
    su = build_su_data(build_context(args.n, args.k, args.level))
    return {
        "n": su.n, "k": su.k, "K": su.level, "kappa": su.kappa,
        "mode": args.mode,
        "alcove": [list(w) for w in su.alcove],
        "s": _matrix_out(su.smatrix, args.mode),
        "t": _matrix_out(su.tmatrix, args.mode),
        "conj_scalar": _cyc_out(su.conj_scalar, args.mode),
        "twist_u": _cyc_out(su.twist_u, args.mode),
        "norms": [_cyc_out(x, args.mode) for x in su.norms_eps],
    }


def _cmd_verify(args) -> tuple[dict | str, int]:
    """The reports and the exit code: VERIFY_ERROR when a suite fails."""
    tol = args.tolerance or _default_tolerance()  # --tolerance is never 0
    reports = []
    sets = {"--algebra and --kappa": (args.algebra, args.kappa),
            "--n, --k and --K": (args.n, args.k, args.level)}
    given = [any(x is not None for x in values) for values in sets.values()]
    uses = {"modular": [True, False], "fusion": [True, False],
            "section5": [False, True]}.get(args.suite, given)
    for (flags, values), used, seen in zip(sets.items(), uses, given):
        if (None in values) if used else seen:
            raise UsageError(f"suite {args.suite} "
                             f"{'needs' if used else 'does not take'} {flags}")
    if not any(uses):
        raise UsageError("suite all needs " + " or ".join(sets))

    # from here on a set of flags is given exactly when its suites run
    if args.algebra is not None:
        rs = _parse_algebra(args.algebra)
        md = build_modular_data(rs, args.kappa)
        if args.suite in ("modular", "all"):
            reports.append(verify_modular_relations(md, tol))
        if args.suite in ("fusion", "all"):
            table = build_fusion_table(rs, args.kappa)
            reports.append(verify_fusion(md, table))
            reports.append(verify_grothendieck(md, table))
    if args.n is not None:
        ctx = build_context(args.n, args.k, args.level)
        reports.append(verify_section5(ctx, tol))

    passed = all(r.passed for r in reports)
    if args.format == "pretty":
        out = "\n".join(line for r in reports for line in r.pretty_lines())
    else:
        out = {"suites": [r.to_json_obj() for r in reports], "passed": passed}
    return out, 0 if passed else VERIFY_ERROR


# -- argument wiring -----------------------------------------------------------

def _add_output(p, formats=(), mode=False):
    """--out, plus --format where the handler renders more than JSON and
    --mode where it renders cyclotomic numbers."""
    if mode:
        p.add_argument("--mode", choices=("exact", "float"), default="exact")
    if formats:
        p.add_argument("--format", choices=formats, default="json")
    p.add_argument("--out", default=None, help="output path (default stdout)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="modcat",
        description="Exact modular data of quantum-group fusion categories "
                    "and type-A Macdonald polynomials")
    sub = parser.add_subparsers(dest="command", required=True)
    tables = ("json", "csv", "pretty")

    p = sub.add_parser("lie-info", help="root-system tables")
    p.add_argument("--algebra", required=True)
    _add_output(p, formats=("json", "pretty"))
    p.set_defaults(handler=_cmd_lie_info)

    p = sub.add_parser("alcove", help="list the alcove or the sub-alcove")
    p.add_argument("--algebra")
    p.add_argument("--kappa", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--K", dest="level", type=int)
    _add_output(p, formats=("json", "pretty"))
    p.set_defaults(handler=_cmd_alcove)

    p = sub.add_parser("dims", help="quantum dimensions over the alcove")
    p.add_argument("--algebra", required=True)
    p.add_argument("--kappa", type=int, required=True)
    _add_output(p, formats=tables, mode=True)
    p.set_defaults(handler=_cmd_dims)

    p = sub.add_parser("modular", help="s/t/c matrices and scalars")
    p.add_argument("--algebra", required=True)
    p.add_argument("--kappa", type=int, required=True)
    _add_output(p, formats=tables, mode=True)
    p.set_defaults(handler=_cmd_modular)

    p = sub.add_parser("fusion", help="fusion products")
    p.add_argument("--algebra", required=True)
    p.add_argument("--kappa", type=int, required=True)
    p.add_argument("--lhs", help="left weight, comma-separated coordinates")
    p.add_argument("--rhs", help="right weight")
    _add_output(p)
    p.set_defaults(handler=_cmd_fusion)

    p = sub.add_parser("macdonald", help="Macdonald polynomials and matrices")
    msub = p.add_subparsers(dest="macdonald_cmd", required=True)
    pp = msub.add_parser("poly", help="one polynomial at generic q")
    pp.add_argument("--n", type=int, required=True)
    pp.add_argument("--k", type=int, required=True)
    pp.add_argument("--lambda", dest="lam", required=True)
    _add_output(pp)
    pp.set_defaults(handler=_cmd_macdonald)
    ps = msub.add_parser("su", help="modular matrices on intertwiners")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--k", type=int, required=True)
    ps.add_argument("--K", dest="level", type=int, required=True)
    _add_output(ps, mode=True)
    ps.set_defaults(handler=_cmd_macdonald)

    p = sub.add_parser("verify", help="run an identity-verification suite")
    p.add_argument("--suite", required=True,
                   choices=("modular", "fusion", "section5", "all"))
    p.add_argument("--algebra")
    p.add_argument("--kappa", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--K", dest="level", type=int)
    p.add_argument("--tolerance", type=_tolerance, default=None,
                   help="float-mode tolerance (default 1e-9 or "
                        "MODCAT_TOLERANCE)")
    _add_output(p, formats=("json", "pretty"))
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = args.handler(args)
        out, code = out if isinstance(out, tuple) else (out, 0)
        _emit(args, out)
        return code
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (FusionConsistencyError, InternalConsistencyError) as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
