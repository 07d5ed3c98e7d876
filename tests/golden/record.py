"""Record the exact-mode outputs that tests/test_golden.py compares with.

    python3 tests/golden/record.py [outdir]

Runs each command of COMMANDS once through modcat.cli.main and writes its
stdout to <outdir>/<name>.out.  outdir defaults to this directory; point it
elsewhere to compare another interpreter's outputs with the recorded ones by
diff.  Every command is exact-mode json, csv or pretty, whose bytes carry no
durations.  Record only from a commit whose outputs are known to be right;
the test trusts these files.
"""

import contextlib
import io
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "src"))

from modcat.cli import main as cli_main  # noqa: E402

COMMANDS = {
    # the command list of acceptance criterion 8
    "modular-A1-k3": ["modular", "--algebra", "A1", "--kappa", "3"],
    "modular-A2-k5": ["modular", "--algebra", "A2", "--kappa", "5"],
    "modular-G2-k5-csv": ["modular", "--algebra", "G2", "--kappa", "5",
                          "--format", "csv"],
    "fusion-A1-k4": ["fusion", "--algebra", "A1", "--kappa", "4"],
    "fusion-B2-k4-point": ["fusion", "--algebra", "B2", "--kappa", "4",
                           "--lhs", "0,1", "--rhs", "0,1"],
    "dims-A3-k5": ["dims", "--algebra", "A3", "--kappa", "5"],
    "alcove-A2-k6": ["alcove", "--algebra", "A2", "--kappa", "6"],
    "lie-info-E6": ["lie-info", "--algebra", "E6"],
    "macdonald-poly-n2-k3-l2": ["macdonald", "poly", "--n", "2", "--k", "3",
                                "--lambda", "2"],
    "macdonald-su-n3-k2-K1": ["macdonald", "su", "--n", "3", "--k", "2",
                              "--K", "1"],
    "verify-all-A1-k3": ["verify", "--suite", "all", "--algebra", "A1",
                         "--kappa", "3", "--n", "2", "--k", "2", "--K", "2"],
    # larger cases: non-simply-laced, rank 4, and the generic-q engine
    "modular-B2-k4": ["modular", "--algebra", "B2", "--kappa", "4"],
    "modular-D4-k7": ["modular", "--algebra", "D4", "--kappa", "7"],
    "modular-F4-k10": ["modular", "--algebra", "F4", "--kappa", "10"],
    "dims-G2-k9": ["dims", "--algebra", "G2", "--kappa", "9"],
    "dims-D4-k8": ["dims", "--algebra", "D4", "--kappa", "8"],
    "fusion-A2-k5": ["fusion", "--algebra", "A2", "--kappa", "5"],
    "fusion-G2-k6": ["fusion", "--algebra", "G2", "--kappa", "6"],
    "macdonald-su-n3-k2-K2": ["macdonald", "su", "--n", "3", "--k", "2",
                              "--K", "2"],
    "verify-all-B2-k4": ["verify", "--suite", "all", "--algebra", "B2",
                         "--kappa", "4", "--n", "3", "--k", "2", "--K", "1"],
    # generic-q pairings whose coefficients carry several distinct
    # q-number denominators, and the section-5 suite on its own
    "macdonald-poly-n3-k2-l21": ["macdonald", "poly", "--n", "3", "--k", "2",
                                 "--lambda", "2,1"],
    "macdonald-poly-n3-k3-l11": ["macdonald", "poly", "--n", "3", "--k", "3",
                                 "--lambda", "1,1"],
    "macdonald-poly-n4-k2-l101": ["macdonald", "poly", "--n", "4", "--k", "2",
                                  "--lambda", "1,0,1"],
    "verify-section5-n3-k2-K2": ["verify", "--suite", "section5", "--n", "3",
                                 "--k", "2", "--K", "2"],
    # every modular, fusion and Grothendieck verdict on larger fields
    # whose entries mix several orders
    "verify-all-A1-k18": ["verify", "--suite", "all", "--algebra", "A1",
                          "--kappa", "18"],
    "verify-all-G2-k9": ["verify", "--suite", "all", "--algebra", "G2",
                         "--kappa", "9"],
    # the fusion and Grothendieck suites on a 28-object alcove
    "verify-fusion-A2-k9": ["verify", "--suite", "fusion", "--algebra", "A2",
                            "--kappa", "9"],
    # s-matrix numerators summed over a |W| = 51,840 signed orbit
    "modular-E6-k13": ["modular", "--algebra", "E6", "--kappa", "13"],
    # section-5 S entries of orders 1, 36 and 108, whose printed form
    # depends on the order in which the special values add their
    # coefficient classes
    "macdonald-su-n3-k2-K3": ["macdonald", "su", "--n", "3", "--k", "2",
                              "--K", "3"],
    # the root-system tables of every other series: h^vee, the roots and
    # the Gram matrix, with lie-info-E6 and lie-info-G2-pretty
    "lie-info-B3": ["lie-info", "--algebra", "B3"],
    "lie-info-C4": ["lie-info", "--algebra", "C4"],
    "lie-info-D5": ["lie-info", "--algebra", "D5"],
    "lie-info-E7": ["lie-info", "--algebra", "E7"],
    "lie-info-E8": ["lie-info", "--algebra", "E8"],
    "lie-info-F4": ["lie-info", "--algebra", "F4"],
    # fusion multiplicities above 1: N up to 2 on the 6-object G2 alcove
    "fusion-G2-k7": ["fusion", "--algebra", "G2", "--kappa", "7"],
    # the pretty view of each command that has one, bar verify, whose
    # pretty lines carry durations
    "lie-info-G2-pretty": ["lie-info", "--algebra", "G2", "--format",
                           "pretty"],
    "alcove-n3-K2-pretty": ["alcove", "--n", "3", "--K", "2", "--format",
                            "pretty"],
    "dims-A2-k5-pretty": ["dims", "--algebra", "A2", "--kappa", "5",
                          "--format", "pretty"],
    "modular-B2-k4-pretty": ["modular", "--algebra", "B2", "--kappa", "4",
                             "--format", "pretty"],
}


def run(argv):
    """Exit code and stdout of one in-process CLI run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(list(argv))
    return code, buf.getvalue()


def main(argv):
    outdir = argv[0] if argv else HERE
    os.makedirs(outdir, exist_ok=True)
    for name, cmd in COMMANDS.items():
        code, out = run(cmd)
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        with open(os.path.join(outdir, f"{name}.out"), "w",
                  encoding="utf-8", newline="") as fh:
            fh.write(out)
    print(f"{outdir}: {len(COMMANDS)} outputs")


if __name__ == "__main__":
    main(sys.argv[1:])
