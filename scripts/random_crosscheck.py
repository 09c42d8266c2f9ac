#!/usr/bin/env python3
"""Randomized two-path agreement sweep.

Samples valid rank tables, runs the rank-function path and the cone path
on each, and requires facet sets, invariants, canonical classes, and
Gorenstein verdicts to agree; optionally also runs the degree-bounded
normality witness.  Exits nonzero on the first disagreement.
"""

import argparse
import random
import sys
import time

from polytoric import Analysis, validate
from polytoric.sampling import random_polymatroid


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--min-n", type=int, default=2)
    parser.add_argument("--max-n", type=int, default=4)
    parser.add_argument("--max-unit-rank", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--witness",
        action="store_true",
        help="also run the normality witness up to degree n on each sample",
    )
    args = parser.parse_args()

    rng = random.Random(args.seed)
    start = time.monotonic()
    for k in range(args.samples):
        n = rng.randint(args.min_n, args.max_n)
        p = random_polymatroid(n, rng, args.max_unit_rank)
        assert validate(p).ok
        analysis = Analysis(p)
        if not analysis.agreement.ok:
            print(f"sample {k}: DISAGREEMENT {analysis.agreement.notes}")
            return 1
        if args.witness and not analysis.witness().ok:
            print(f"sample {k}: normality witness failed")
            return 1
    elapsed = time.monotonic() - start
    print(
        f"{args.samples} samples (n in {args.min_n}..{args.max_n}), "
        f"all paths agree, {elapsed:.1f}s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
