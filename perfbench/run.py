"""The modcat benchmark: workloads over the exact pipelines.

    python3 perfbench/run.py --workload grid-small --seed 1 --seconds 55 \
        --trace 0

Load model: a closed loop with one client.  A run is a sequence of passes;
each pass is a fresh interpreter (so the program's lru caches start cold,
as for every CLI user) that runs the workload's whole seeded case list one
case after the other.  A pass starts only if it should end within
--seconds, judged by the last pass; there is at least one.  The seed fixes
the case order and the weights drawn for the CLI point queries; the same
seed gives the same cases.

--trace 0 reports the end-to-end metrics: the medians over the passes of
`wall_s` (first call into modcat to last verdict or rendered output),
`setup_s` (process spawn to `import modcat` done, also sampled by a
set-up-only probe before each pass) and `peak_rss_mb`.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics
of tracer.py and `trace.overhead_frac`.

Every pass's outputs are checked after its clock stops (check.py).  The
last line of stdout is one JSON object {correct, attempted, failed,
metrics}; the line before it is a summary with quartiles, layer shares and
provenance, which also goes to perfbench/out/.  The benchmark refuses to
run under `python -O`, which strips the program's assert invariants.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
REFERENCE_DIR = os.path.join(HERE, "reference")

QUERIES_PER_CATEGORY = 2   # seeded `fusion --lhs/--rhs` cases (grid-small)

# The acceptance category grid without its three slowest categories (A1
# kappa 7-8, A2 kappa 6: half of the grid's time), so that a run holds
# enough passes for a steady median.
GRID = ([("A", 1, k) for k in range(2, 7)]
        + [("A", 2, k) for k in range(3, 6)]
        + [("A", 3, k) for k in (4, 5)]
        + [("B", 2, k) for k in (3, 4, 5)]
        + [("G", 2, k) for k in (4, 5, 6)])
# Few categories with large cyclotomic orders: CycNum products in mat_mul.
MODULAR_LARGE = [("A", 1, 18), ("A", 2, 7), ("B", 2, 7), ("G", 2, 9)]
# Tiny alcoves, Weyl groups of order 48 to 1152: Fraction forms, Weyl
# enumeration and the |W|-term quantum dimension.
HIGHRANK = [("B", 3, 7), ("C", 3, 6), ("D", 4, 7), ("B", 4, 8),
            ("C", 4, 6), ("F", 4, 10)]
# Generic-q Macdonald suites (QRatFn, WPoly), then the section-5 grid.
GENERIC = [(3, 2, 2), (2, 3, 4), (3, 3, 2)]
SECTION5 = [(2, 1, 2), (2, 2, 2), (2, 3, 1), (3, 2, 1), (3, 2, 2)]

# BENCHMARK.json lists grid-small and macdonald-generic, which between them
# run every layer; modular-large and highrank-build isolate the large-field
# and high-rank regimes for attribution (see README.md).
WORKLOADS = ("grid-small", "modular-large", "highrank-build",
             "macdonald-generic")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def _cli(*argv):
    return {"id": " ".join(argv), "kind": "cli", "argv": list(argv)}


def _modular(series, rank, kappa):
    return {"id": f"modular {series}{rank} {kappa}", "kind": "modular",
            "series": series, "rank": rank, "kappa": kappa}


def pool(workload):
    """The workload's fixed cases, smallest first, without point queries."""
    if workload == "grid-small":
        out = []
        for series, rank, kappa in GRID:
            alg = ["--algebra", f"{series}{rank}", "--kappa", str(kappa)]
            out += [_cli("verify", "--suite", "all", *alg),
                    _cli("modular", *alg), _cli("fusion", *alg)]
        return out
    if workload == "modular-large":
        return [_modular(*c) for c in MODULAR_LARGE]
    if workload == "highrank-build":
        return [_modular(*c) for c in HIGHRANK]
    if workload == "macdonald-generic":
        return ([{"id": f"generic {n} {k} {b}", "kind": "generic",
                  "n": n, "k": k, "bound": b} for n, k, b in GENERIC]
                + [{"id": f"section5 {n} {k} {K}", "kind": "section5",
                    "n": n, "k": k, "K": K} for n, k, K in SECTION5])
    raise BenchError(f"unknown workload {workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")


def plan(workload, seed, reference, smoke=False):
    """The seeded case list of one pass.  Smoke mode keeps the smallest
    case (for grid-small, one category and one point query)."""
    rng = random.Random(seed)
    cases = pool(workload)
    if smoke:
        cases = cases[:3] if workload == "grid-small" else cases[:1]
    if workload == "grid-small":
        # every category gets the same number of point queries, so the
        # seed moves only the weights queried, not how much work there is
        for case in [c for c in cases if c["argv"][0] == "fusion"]:
            alcove = reference[case["id"]]["json"]["alcove"]
            for _ in range(1 if smoke else QUERIES_PER_CATEGORY):
                lam, mu = rng.choice(alcove), rng.choice(alcove)
                cases.append(_cli(*case["argv"],
                                  "--lhs", ",".join(map(str, lam)),
                                  "--rhs", ",".join(map(str, mu))))
    rng.shuffle(cases)
    return cases


def load_reference(workload):
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def spawn(plan_obj):
    """Start a worker; return (set-up seconds, pass record or None)."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, WORKER], stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, cwd=ROOT) as proc:
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            if ready != b"ready\n":
                raise BenchError("worker did not start (no `ready` line)")
            proc.stdin.write(json.dumps(plan_obj).encode()
                             if plan_obj else b"")
            proc.stdin.close()
            raw = proc.stdout.read()
            code = proc.wait()
        except BaseException:
            proc.kill()
            raise
    if code != 0:
        raise BenchError(f"worker exited with code {code}")
    return setup, (json.loads(raw) if plan_obj else None)


def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def measure(workload, seed, seconds, trace, smoke=False, reference=None):
    """One run: passes within a window of `seconds`; returns the result."""
    # check.py imports modcat, so it loads once src/ is on sys.path
    from check import Gate
    from tracer import LAYER_METRICS, layer_shares

    if reference is None:
        reference = load_reference(workload)
    cases = plan(workload, seed, reference, smoke)
    gate = Gate(reference)
    setups = []
    plain, traced = [], []
    attempted = failed = 0
    failures = []

    def gate_pass(record):
        nonlocal attempted, failed
        record["checks_attempted"] = record["checks_failed"] = 0
        record["canonical"] = []
        for case, output in zip(cases, record.pop("outputs")):
            canonical = json.dumps(output, sort_keys=True)
            record["canonical"].append(canonical)
            ops, n_checks, n_failed = gate.case_ops(case, output, canonical)
            record["checks_attempted"] += n_checks
            record["checks_failed"] += n_failed
            attempted += len(ops)
            bad = [what for ok, what in ops if not ok]
            failed += len(bad)
            failures.extend(bad[:3])
        for err in record["errors"]:
            failures.append(err)

    # a new round (a pass, or an untraced + traced pair) starts only if it
    # should end within the window, judged by the last round's duration
    start = last_start = time.perf_counter()
    while True:
        if not trace:
            # one set-up-only probe per pass spreads the set-up samples
            # over the whole window, as the passes are
            setups.append(spawn(None)[0])
        for traced_pass in ((False, True) if trace else (False,)):
            setup, record = spawn({"cases": cases, "trace": traced_pass})
            setups.append(setup)
            gate_pass(record)
            (traced if traced_pass else plain).append(record)
        now = time.perf_counter()
        if now + (now - last_start) - start > seconds:
            break
        last_start = now

    if trace:
        # traced exact outputs must equal the untraced ones
        for record in traced:
            for case, got, want in zip(cases, record["canonical"],
                                       plain[0]["canonical"]):
                attempted += 1
                if got != want:
                    failed += 1
                    failures.append(f"{case['id']}: traced output differs")

    walls = [r["wall_s"] for r in plain]
    summary = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "cases_per_pass": len(cases), "passes": len(plain),
        "wall_s_quartiles": _quartiles(walls),
        "setup_s_quartiles": _quartiles(setups),
        "fail_frac": failed / attempted if attempted else 1.0,
        "failures": failures[:20],
        "provenance": provenance(seed),
    }
    if trace:
        twalls = [r["wall_s"] for r in traced]
        metrics = {}
        for name, unit, _, fn in LAYER_METRICS:
            values = [fn(r["trace"], r) for r in traced]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        metrics["trace.overhead_frac"] = {
            "value": statistics.median(twalls) / statistics.median(walls) - 1,
            "unit": "ratio"}
        summary["traced_passes"] = len(traced)
        summary["layer_shares"] = layer_shares(traced[0]["trace"],
                                                   traced[0]["wall_s"])
        summary["spans_dropped"] = traced[0]["trace"]["spans_dropped"]
        spans = traced[0]["trace"]["spans"]
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in metrics.items()}
        spans = None
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "summary": summary, "spans": spans}


def provenance(seed):
    def read(path):
        try:
            with open(path, encoding="utf-8") as fh:
                return fh.read()
        except OSError:
            return None

    cpu = next((line.split(":", 1)[1].strip()
                for line in (read("/proc/cpuinfo") or "").splitlines()
                if line.startswith("model name")), None)
    commit = None
    head = read(os.path.join(ROOT, ".git", "HEAD"))
    if head and head.startswith("ref:"):
        ref = head.split(None, 1)[1].strip()
        commit = read(os.path.join(ROOT, ".git", ref))
        if commit is None:
            packed = read(os.path.join(ROOT, ".git", "packed-refs")) or ""
            commit = next((line.split()[0] for line in packed.splitlines()
                           if line.endswith(" " + ref)), None)
    elif head:
        commit = head
    lines = 0
    pkg = os.path.join(SRC, "modcat")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(),
            "cpu": cpu, "commit": commit.strip() if commit else None,
            "seed": seed, "src_modcat_lines": lines}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if sys.flags.optimize:
        print("perfbench: refusing to run under python -O; the program's "
              "assert invariants would be stripped", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "modcat", "__init__.py")):
        print(f"perfbench: no modcat package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    summary, spans = result.pop("summary"), result.pop("spans")
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({**result, "summary": summary}, fh, indent=1)
    if spans is not None:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "case", "start_s", "end_s",
                                  "parent"], "spans": spans}, fh)
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
