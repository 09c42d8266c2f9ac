#!/usr/bin/env python3
"""Randomized two-path agreement sweep.

Samples valid rank tables, runs the rank-function path and the cone path
on each, and requires facet sets, invariants, canonical classes, and
Gorenstein verdicts to agree; optionally also runs the degree-bounded
normality witness.  The rank path's family is also checked against the
literal definitions (is_closed_full, is_inseparable) on every subset.
Each sample is also corrupted with one planted fault; validate's report on
it must equal the all-pairs scan's and name the planted subsets.  The facet
forms, found from the generators left by the midpoint prune, must equal the
double description run on all generators.
Exits nonzero on the first disagreement.
"""

import argparse
import random
import sys
import time

from polytoric import (
    Analysis,
    InvariantViolationError,
    Polymatroid,
    ValidationReport,
    bitset,
    cone,
    is_closed_full,
    is_inseparable,
    polymatroid,
    validate,
)
from polytoric.sampling import corrupt_rank_table, random_rank_table


def definition_family(p):
    return tuple(
        mask
        for mask in bitset.nonempty_subsets(p.n)
        if is_closed_full(p, mask) and is_inseparable(p, mask)
    )


def full_scan(p):
    report = ValidationReport()
    polymatroid._pairwise_scan(p, report)
    return report.violations


def names_planted(violations, planted):
    return any(
        v.kind == planted["kind"] and set(planted["subsets"]) <= set(v.subsets)
        for v in violations
    )


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
        table = random_rank_table(n, rng, args.max_unit_rank)
        p = Polymatroid.from_rank_table(n, table)
        assert validate(p).ok
        if n >= 2:  # a fault needs a proper nonempty subset to plant
            bad, planted = corrupt_rank_table(table, n, rng)
            faulty = Polymatroid.from_rank_table(n, bad)
            violations = validate(faulty).violations
            if violations != full_scan(faulty) or not names_planted(violations, planted):
                print(f"sample {k}: validate disagrees with the all-pairs scan on {planted}")
                return 1
        analysis = Analysis(p)
        if analysis.family.masks() != definition_family(p):
            print(f"sample {k}: family differs from the definition")
            return 1
        gens = analysis.generators
        unpruned = sorted(cone._double_description(gens.n, gens.points))
        try:
            pruned = analysis.forms
        except InvariantViolationError as exc:
            print(f"sample {k}: {exc}")
            return 1
        if pruned != unpruned:
            print(f"sample {k}: facets differ from the unpruned double description")
            return 1
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
