"""Record the reference exact outputs the benchmark's gate compares with.

    python3 perfbench/record_reference.py [workload ...]

Runs every fixed case of each workload once, untraced, and writes
perfbench/reference/<workload>.json mapping case id to output.  Point
queries need no entries of their own: the gate reads them from the full
fusion table of their category.  Record only from a commit whose outputs
are known to be right; the gate trusts this file.
"""

import json
import os
import sys

from run import REFERENCE_DIR, WORKLOADS, pool, spawn


def main(argv):
    for workload in argv or WORKLOADS:
        cases = pool(workload)
        _, record = spawn({"cases": cases, "trace": False})
        if record["errors"]:
            sys.exit(f"{workload}: {record['errors']}")
        reference = {case["id"]: output
                     for case, output in zip(cases, record["outputs"])}
        os.makedirs(REFERENCE_DIR, exist_ok=True)
        path = os.path.join(REFERENCE_DIR, f"{workload}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(reference, fh, separators=(",", ":"), sort_keys=True)
            fh.write("\n")
        print(f"{path}: {len(reference)} cases")


if __name__ == "__main__":
    main(sys.argv[1:])
