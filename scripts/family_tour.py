#!/usr/bin/env python3
"""Tour of the named polymatroid families.

Runs the generic engine over the built-in families and prints the class
group, the canonical class, and the Gorenstein verdict for each; a graph
complement family's line also shows its predicted class group.  Nothing
is compared here: the test suite checks the closed forms against the
engine.  With --cone the cone path runs too and its agreement is printed.
"""

import argparse

from polytoric import Analysis, Polymatroid
from polytoric.families import (
    graph_complement_family,
    nested_chain_family,
    uniform_transversal,
)


def describe(name, p, cone=False):
    analysis = Analysis(p)
    fam, pres, a = analysis.family, analysis.presentation, analysis.gorenstein
    verdict = f"Gorenstein (a={a})" if a is not None else "not Gorenstein"
    print(f"{name:28s} |A|={len(fam):3d}  Cl = {str(pres.invariants):14s} {verdict}")
    print(f"{'':28s} relation {pres.relation}  canonical {analysis.canonical.coords}")
    if cone:
        print(f"{'':28s} cone path agrees: {analysis.agreement.ok}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--cone",
        action="store_true",
        help="also run the facet-enumeration path on the small instances",
    )
    args = parser.parse_args()

    print("== uniform transversal families ==")
    for n, i in [(5, 3), (6, 4), (7, 4)]:
        describe(f"all {i}-subsets of [{n}]", uniform_transversal(n, i))

    print("\n== degree-bounded families ==")
    for n, d in [(3, 2), (4, 2), (3, 4)]:
        describe(f"|v| <= {d} on [{n}]", Polymatroid.veronese((d,) * n, d), args.cone)

    print("\n== boxes ==")
    for v in [(1, 1), (2, 2), (2, 4, 6), (2, 3)]:
        describe(f"box {v}", Polymatroid.box(v), args.cone)

    print("\n== Veronese type ==")
    for s, d in [((1, 1, 1), 2), ((2, 2, 2), 4), ((1, 2, 2), 3), ((1, 2), 2)]:
        describe(f"caps {s}, degree {d}", Polymatroid.veronese(s, d), args.cone)

    print("\n== nested chains ==")
    for n, chain in [
        (3, [(0b001, 2), (0b111, 2)]),
        (4, [(0b0001, 3), (0b0011, 3), (0b1111, 3)]),
    ]:
        describe(f"chain x{[k for _, k in chain]} on [{n}]", nested_chain_family(n, chain), args.cone)

    print("\n== graph complement families ==")
    graphs = [
        ("triangle", 3, [(0, 1), (1, 2), (0, 2)]),
        ("path on 4", 4, [(0, 1), (1, 2), (2, 3)]),
        ("4-cycle", 4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    ]
    for name, n, edges in graphs:
        p, _, inv = graph_complement_family(n, edges)
        describe(f"{name} (predicted {inv})", p, args.cone)


if __name__ == "__main__":
    main()
