"""Correctness gate: exact outputs against the recorded reference, by value,
and float closed forms the benchmark computes itself.

Every operation is one (ok, what) pair: a case (it ran and, through the
CLI, exited 0), a verification check the program reported, a comparison
of one top-level output field with the reference, or one float closed-form
value.  Exact values are parsed with `CycNum.from_json_obj` and
`QRatFn.from_json_obj` and compared with `==`, so a change of canonical
form (say, a smaller conductor) is not a failure while a wrong value is.
"""

import math

from modcat.lie import build_root_system, form
from modcat.numeric import CycNum, QRatFn

FLOAT_TOL = 1e-9


def exact_equal(got, want):
    """Structural equality with cyclotomic and rational-function leaves
    compared by value."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(want) == {"order", "coeffs"} == set(got):
            return CycNum.from_json_obj(got) == CycNum.from_json_obj(want)
        if set(want) == {"num", "den"} == set(got):
            return QRatFn.from_json_obj(got) == QRatFn.from_json_obj(want)
        return (set(got) == set(want)
                and all(exact_equal(got[k], want[k]) for k in want))
    if isinstance(want, list) and isinstance(got, list):
        return (len(got) == len(want)
                and all(exact_equal(g, w) for g, w in zip(got, want)))
    return type(got) is type(want) and got == want


def expected_output(case, reference):
    """The reference output of a case; a CLI point query is looked up in
    the full fusion table of its category."""
    if case["kind"] == "cli" and "--lhs" in case["argv"]:
        argv = case["argv"]
        table = reference[" ".join(argv[:argv.index("--lhs")])]["json"]
        lam = [int(c) for c in argv[argv.index("--lhs") + 1].split(",")]
        mu = [int(c) for c in argv[argv.index("--rhs") + 1].split(",")]
        for prod in table["products"]:
            if prod["lambda"] == lam and prod["mu"] == mu:
                return {"exit": 0, "json": {
                    "algebra": table["algebra"], "kappa": table["kappa"],
                    "lambda": lam, "mu": mu, "result": prod["result"]}}
        return None
    return reference.get(case["id"])


def _fields(output):
    """Top-level fields compared one by one (CLI: exit code and JSON keys)."""
    if "json" in output:
        return {"exit": output["exit"], **output["json"]}
    return output


def _report_checks(output):
    if "json" in output:
        return [c for suite in output["json"].get("suites", ())
                for c in suite["checks"]]
    return output.get("checks", [])


def _float_ops(fields):
    """q-Weyl product for every quantum dimension, and for A1 the sine
    formula for every s-matrix entry."""
    if "dims" not in fields or "s" not in fields:
        return []
    series, rank, kappa = (fields["algebra"][0], int(fields["algebra"][1:]),
                           fields["kappa"])
    rs = build_root_system(series, rank)
    ops = []
    for lam, dim in zip(fields["alcove"], fields["dims"]):
        want = 1.0
        for alpha in rs.positive_roots:
            top = form(rs, tuple(c + r for c, r in zip(lam, rs.rho)), alpha)
            want *= (math.sin(math.pi * top / kappa)
                     / math.sin(math.pi * form(rs, rs.rho, alpha) / kappa))
        got = CycNum.from_json_obj(dim).to_complex()
        ops.append((abs(got - want) <= FLOAT_TOL * max(1.0, abs(want)),
                    f"float dim {fields['algebra']} {kappa} {lam}: "
                    f"{got} vs {want}"))
    if fields["algebra"] == "A1":
        base = math.sin(math.pi / kappa)
        for (a,), row in zip(fields["alcove"], fields["s"]):
            for (b,), entry in zip(fields["alcove"], row):
                want = math.sin(math.pi * (a + 1) * (b + 1) / kappa) / base
                got = CycNum.from_json_obj(entry).to_complex()
                ops.append((abs(got - want) <= FLOAT_TOL * max(1.0, abs(want)),
                            f"float s A1 {kappa} ({a},{b}): {got} vs {want}"))
    return ops


class Gate:
    """Checks pass outputs; a byte-identical repeat of an output already
    checked reuses its verdicts, since equal bytes mean equal values."""

    def __init__(self, reference):
        self.reference = reference
        self._seen = {}

    def case_ops(self, case, output, canonical):
        """(operations, report checks attempted, report checks failed) of
        one case; `canonical` is the output as sorted-key JSON."""
        if output is None:
            return [(False, f"{case['id']}: raised")], 0, 0
        key = (case["id"], canonical)
        if key not in self._seen:
            self._seen[key] = self._check(case, output)
        return self._seen[key]

    def _check(self, case, output):
        ops = [(output.get("exit", 0) == 0, f"{case['id']}: exit code")]
        checks = _report_checks(output)
        ops += [(c["status"] != "fail", f"{case['id']}: check {c['name']}")
                for c in checks]
        want = expected_output(case, self.reference)
        got_fields = _fields(output)
        if want is None:
            ops.append((False, f"{case['id']}: no reference output"))
        else:
            want_fields = _fields(want)
            for name in sorted(set(want_fields) | set(got_fields)):
                ok = (name in want_fields and name in got_fields
                      and exact_equal(got_fields[name], want_fields[name]))
                ops.append((ok, f"{case['id']}: field {name} differs "
                                "from the reference"))
        ops += _float_ops(got_fields)
        failed = sum(c["status"] == "fail" for c in checks)
        return ops, len(checks), failed
