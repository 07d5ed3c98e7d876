"""One measured pass of a workload, run in a fresh interpreter.

Protocol: the worker imports `modcat` and its CLI, prints `ready` and
flushes; the parent times spawn-to-`ready` as set-up.  It then reads a
JSON plan from stdin ({"cases": [...], "trace": bool}); an empty stdin
ends the process at once, which is how set-up-only probes work.  It runs
every case in order, one after the other, and prints one JSON result:
wall time, peak RSS, the exact outputs of each case, and with tracing the
per-name call statistics and spans.

Run as `python3 perfbench/worker.py` from anywhere; it finds `src/` next
to its own directory.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402

import modcat  # noqa: E402
import modcat.cli  # noqa: E402
from modcat import lie, macdonald, modular  # noqa: E402


def _checks(report):
    return [{"name": c.name, "status": c.status} for c in report.checks]


def _modular_out(md, report):
    def mat(m):
        return [[x.to_json_obj() for x in row] for row in m]
    return {
        "algebra": f"{md.rs.series}{md.rs.rank}",
        "kappa": md.kappa,
        "alcove": [list(w) for w in md.alcove],
        "s": mat(md.smatrix),
        "t": mat(md.tmatrix),
        "c": [list(row) for row in md.cmatrix],
        "dims": [d.to_json_obj() for d in md.dims],
        "p_plus": md.p_plus.to_json_obj(),
        "p_minus": md.p_minus.to_json_obj(),
        "d_squared": md.d_squared.to_json_obj(),
        "zeta": md.zeta.to_json_obj(),
        "central_charge": str(md.central_charge),
        "checks": _checks(report),
    }


def _section5_out(ctx, report):
    # the generic-q polynomials and norms the suite computed (cached in ctx)
    polys, norms = [], []
    for lam in ctx.alcove:
        poly = macdonald.macdonald_polynomial(ctx, lam)
        polys.append({"lambda": list(lam),
                      "terms": [[list(w), c.to_json_obj()]
                                for w, c in poly.sorted_terms()]})
        norms.append(macdonald.macdonald_norm(ctx, lam).to_json_obj())
    return {"checks": _checks(report), "polys": polys, "norms": norms}


# Each runner does the timed work of one case and returns a function that
# renders its exact output; rendering happens after the clock stops, except
# for CLI cases, whose rendering is part of what a CLI user waits for.

def _run_cli(case):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = modcat.cli.main(list(case["argv"]))
    text = buf.getvalue()
    return len(text.encode()), lambda: {"exit": code,
                                        "json": json.loads(text)}


def _run_modular(case):
    rs = lie.build_root_system(case["series"], case["rank"])
    md = modular.build_modular_data(rs, case["kappa"])
    report = modular.verify_modular_relations(md)
    return 0, lambda: _modular_out(md, report)


def _run_generic(case):
    report = macdonald.verify_generic_macdonald(case["n"], case["k"],
                                                case["bound"])
    return 0, lambda: {"checks": _checks(report)}


def _run_section5(case):
    ctx = macdonald.build_context(case["n"], case["k"], case["K"])
    report = macdonald.verify_section5(ctx)
    return 0, lambda: _section5_out(ctx, report)


RUNNERS = {"cli": _run_cli, "modular": _run_modular,
           "generic": _run_generic, "section5": _run_section5}


def run_pass(cases, tracer=None):
    """Run the cases back to back; return the pass record."""
    renders, errors = [], []
    out_bytes = 0
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        for i, case in enumerate(cases):
            if tracer is not None:
                tracer.case = i
            try:
                nbytes, render = RUNNERS[case["kind"]](case)
            except Exception as exc:  # a raising case is a failed operation
                renders.append(None)
                errors.append(f"{case['id']}: {type(exc).__name__}: {exc}")
                continue
            out_bytes += nbytes
            renders.append(render)
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    outputs = [None if r is None else r() for r in renders]
    record = {"wall_s": wall, "peak_rss_mb": peak_kb / 1024.0,
              "outputs": outputs, "errors": errors, "output_bytes": out_bytes}
    if tracer is not None:
        record["trace"] = tracer.result()
    return record


def main():
    # set-up ends here: the interpreter is up and modcat is imported
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if sys.flags.optimize:
        sys.exit("perfbench worker: refusing to run under -O")
    raw = sys.stdin.read()
    if not raw.strip():
        return
    plan = json.loads(raw)
    tracer = None
    if plan.get("trace"):
        from tracer import Tracer  # the script's directory is on sys.path
        tracer = Tracer(modcat)
    record = run_pass(plan["cases"], tracer)
    sys.stdout.write(json.dumps(record))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
