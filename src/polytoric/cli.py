"""Batch command-line front end.

Subcommands:
  analyze <file> [--cone] [--normality D] [--format json|text]
  facets  <file>
  verify  <file>

Shared flags: --max-n (enumeration cap, default 16) and --point-cap
(lattice-point cap, default 10^6).  Exit codes: 0 success / agreement,
1 mathematical cross-check failure, 2 input error, 3 resource cap.  A
polymatroid input whose n exceeds --max-n or the rank-table limit 20
exits 3 before its payload is read.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from . import bitset
from .crosscheck import Analysis
from .divisors import matroid_unmixed_check
from .errors import InvariantViolationError, ResourceLimitError, UsageError
from .families import closed_form_check
from .polymatroid import (
    DEFAULT_POINT_CAP,
    RANK_TABLE_LIMIT,
    Multicomplex,
    Polymatroid,
    check_enumeration_cap,
    validate,
)
from .report import AnalysisReport, family_list, group_dict, json_text, presentation_dict

EXIT_OK = 0
EXIT_CROSSCHECK = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3

DEFAULT_MAX_N = 16

KINDS = (
    "rank_table",
    "transversal",
    "veronese",
    "box",
    "matroid_bases",
    "points",
    "multicomplex",
)


# ---------------------------------------------------------------------------
# input schema
#
# Integers are checked with `type(x) is int`: JSON true and false load as
# bool, a subclass of int, and must not pass as 1 and 0.


def _subset_mask(indices, n: int, where: str) -> int:
    if not isinstance(indices, list) or not all(type(i) is int for i in indices):
        raise UsageError(f"at {where}: expected an array of integers")
    if sorted(indices) != indices or len(set(indices)) != len(indices):
        raise UsageError(f"at {where}: indices must be sorted and distinct")
    if any(not 1 <= i <= n for i in indices):
        raise UsageError(f"at {where}: indices must lie in 1..{n}")
    return bitset.mask_of([i - 1 for i in indices], n)


def _int_vector(value, n: int, where: str) -> tuple:
    if not isinstance(value, list) or len(value) != n:
        raise UsageError(f"at {where}: expected an array of {n} integers")
    if not all(type(x) is int for x in value):
        raise UsageError(f"at {where}: entries must be integers")
    return tuple(value)


def _index_arrays(data: dict, key: str, n: int) -> list:
    """data[key] as a nonempty array of index arrays, each as a subset mask."""
    items = data.get(key)
    if not isinstance(items, list) or not items:
        raise UsageError(f'at "{key}": expected a nonempty array of index arrays')
    return [_subset_mask(a, n, f"{key}[{k}]") for k, a in enumerate(items)]


def _vectors(data: dict, key: str, n: int) -> list:
    """data[key] as a nonempty array of nonnegative integer n-vectors."""
    items = data.get(key)
    if not isinstance(items, list) or not items:
        raise UsageError(f'at "{key}": expected a nonempty array of vectors')
    vecs = [_int_vector(v, n, f"{key}[{k}]") for k, v in enumerate(items)]
    if any(x < 0 for v in vecs for x in v):
        raise UsageError(f'at "{key}": coordinates must be >= 0')
    return vecs


def load_input(path: str, max_n: int):
    """Parse an input description; returns (object, echo dict).

    The object is a Polymatroid for the rank-function kinds and a
    Multicomplex for kind "multicomplex".  A table key is exactly the
    comma-joined sorted 1-based indices of its subset, e.g. "1,3", so no
    two keys name one subset.
    A rank-function kind tabulates all 2^n subsets, so n decides first:
    the bitmask limit and both enumeration caps, max_n and
    RANK_TABLE_LIMIT, are checked before any payload field is read.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"at {path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise UsageError("at top level: expected a JSON object")
    n = data.get("n")
    if type(n) is not int or n < 1:
        raise UsageError('at "n": expected a positive integer')
    kind = data.get("kind")
    if kind not in KINDS:
        raise UsageError(f'at "kind": expected one of {", ".join(KINDS)}')
    echo = {"n": n, "kind": kind}

    if kind == "multicomplex":
        vecs = _vectors(data, "facets", n)
        generalized = data.get("generalized", False)
        if not isinstance(generalized, bool):
            raise UsageError('at "generalized": expected a boolean')
        echo["facets"] = [list(v) for v in vecs]
        echo["generalized"] = generalized
        return Multicomplex(n=n, facets=tuple(vecs), generalized=generalized), echo
    bitset.check_ground_set(n)
    check_enumeration_cap(n, max_n)
    check_enumeration_cap(n, RANK_TABLE_LIMIT)
    if kind == "rank_table":
        table = data.get("table")
        if not isinstance(table, dict):
            raise UsageError('at "table": expected an object')
        parsed = {}
        for key, value in table.items():
            where = f'table["{key}"]'
            if type(value) is not int:
                raise UsageError(f"at {where}: rank must be an integer")
            if key == "":
                parsed[0] = value
                continue
            try:
                indices = [int(tok) for tok in key.split(",")]
            except ValueError as exc:
                raise UsageError(f"at {where}: bad subset key") from exc
            mask = _subset_mask(indices, n, where)
            if key != ",".join(map(str, indices)):
                raise UsageError(f"at {where}: bad subset key")
            parsed[mask] = value
        # keys are canonical, so each names its own subset
        echo["table"] = {key: rank for key, rank in table.items() if key}
        return Polymatroid.from_rank_table(n, parsed), echo
    if kind in ("transversal", "matroid_bases"):
        key, build = (
            ("sets", Polymatroid.transversal)
            if kind == "transversal"
            else ("bases", Polymatroid.from_matroid_bases)
        )
        masks = _index_arrays(data, key, n)
        echo[key] = [list(bitset.one_based(m)) for m in masks]
        return build(n, masks), echo
    if kind == "veronese":
        s = _int_vector(data.get("s"), n, '"s"')
        d = data.get("d")
        if type(d) is not int or d < 1:
            raise UsageError('at "d": expected a positive integer')
        if any(x < 1 for x in s):
            raise UsageError('at "s": caps must be >= 1')
        echo["s"], echo["d"] = list(s), d
        return Polymatroid.veronese(s, d), echo
    if kind == "box":
        v = _int_vector(data.get("v"), n, '"v"')
        if any(x < 1 for x in v):
            raise UsageError('at "v": bounds must be >= 1')
        echo["v"] = list(v)
        return Polymatroid.box(v), echo
    # kind == "points"
    vecs = _vectors(data, "points", n)
    echo["points"] = [list(v) for v in sorted(set(vecs))]
    return Polymatroid.from_points(n, vecs), echo


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(analysis: Analysis, echo: dict, args) -> int:
    warnings: list = []
    path = "rank" if analysis.rank_path else "cone"
    body = {"input": echo, "path": path, "warnings": warnings}
    unmixed = None
    if analysis.rank_path:
        # unmixed one-skeleton is necessary for a Gorenstein matroid ring,
        # so the screen runs first and the verdicts must stay consistent
        if echo["kind"] == "matroid_bases":
            unmixed = matroid_unmixed_check(analysis.source).unmixed
            if not unmixed:
                warnings.append(
                    "one-skeleton is not unmixed; the ring cannot be Gorenstein"
                )
        body["family"] = family_list(analysis.family)
    body["class_group"] = presentation_dict(analysis.presentation)
    body["canonical_class"] = list(analysis.canonical.coords)
    a = analysis.gorenstein
    body["gorenstein"] = {"is_gorenstein": a is not None, "a": a}
    if unmixed is False and a is not None:
        raise InvariantViolationError(
            "Gorenstein verdict contradicts the mixed one-skeleton screen"
        )
    if unmixed is not None:
        body["gorenstein"]["skeleton_unmixed"] = unmixed
    cone: dict = {}
    if args.cone or not analysis.rank_path:
        cone["facets"] = [list(f) for f in analysis.forms]
    crosscheck = args.cone and analysis.rank_path
    if crosscheck:
        cone["facets_match_family"] = analysis.agreement.facets_match
        cone["paths_agree"] = analysis.agreement.ok
        warnings.extend(analysis.agreement.notes)
    witness = None
    if args.normality is not None:
        witness = analysis.witness(args.normality)
        # polymatroid semigroup rings are normal (Herzog & Hibi 2002)
        if analysis.rank_path and not witness.ok:
            raise InvariantViolationError(
                f"normality witness on a polymatroid, whose ring is normal: {witness}"
            )
        cone["normality"] = {
            "max_degree": witness.max_degree,
            "violation": list(witness.violation) if witness.violation else None,
        }
    if not analysis.rank_path:
        # multicomplex: the cone path is the only path, and its answer
        # holds only for a normal semigroup
        assumes = "class group and canonical class assume the semigroup is normal"
        if witness is None:
            warnings.append(
                assumes + "; run --normality to search for a witness against it"
            )
        elif witness.ok:
            warnings.append(assumes)
        else:
            warnings.append(
                "the semigroup is not normal, so the class group and canonical "
                "class do not describe its ring"
            )
    if witness is not None and not witness.ok:
        warnings.append(str(witness))
    if cone:
        body["cone"] = cone
    report = AnalysisReport(body)
    out = report.to_json() if args.format == "json" else report.to_text()
    sys.stdout.write(out)
    return EXIT_CROSSCHECK if crosscheck and not analysis.agreement.ok else EXIT_OK


# ---------------------------------------------------------------------------
# facets


def cmd_facets(analysis: Analysis, echo: dict, args) -> int:
    for f in analysis.forms:
        print(*f)
    if analysis.rank_path and not analysis.agreement.facets_match:
        agreement = analysis.agreement
        print("facet cross-check FAILED:", file=sys.stderr)
        for k in agreement.missing_forms:
            print(f"  missing {' '.join(str(c) for c in k)}", file=sys.stderr)
        for k in agreement.unexpected_forms:
            print(f"  unexpected {' '.join(str(c) for c in k)}", file=sys.stderr)
        return EXIT_CROSSCHECK
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(analysis: Analysis, echo: dict, args) -> int:
    outcome = {"input": echo, "checks": {}, "diff": []}
    if not analysis.rank_path:
        outcome["checks"]["cone_path"] = "ran"
        outcome["checks"]["class_group"] = group_dict(analysis.presentation.invariants)
        outcome["note"] = "single-path input; nothing to cross-check"
        sys.stdout.write(json_text(outcome))
        return EXIT_OK
    agreement = analysis.agreement
    outcome["checks"]["facets_match"] = agreement.facets_match
    outcome["checks"]["invariants_match"] = agreement.invariants_match
    outcome["checks"]["canonical_match"] = agreement.canonical_match
    outcome["checks"]["gorenstein_match"] = agreement.gorenstein_match
    outcome["diff"].extend(agreement.notes)
    name, diff = closed_form_check(
        analysis.source,
        analysis.family,
        analysis.presentation.invariants,
        analysis.gorenstein,
    )
    if name is not None:
        outcome["checks"]["closed_form"] = name
        outcome["checks"]["closed_form_match"] = not diff
        outcome["diff"].extend(diff)
    outcome["class_group"] = group_dict(analysis.presentation.invariants)
    ok = agreement.ok and not diff
    outcome["ok"] = ok
    sys.stdout.write(json_text(outcome))
    return EXIT_OK if ok else EXIT_CROSSCHECK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--max-n",
        type=int,
        default=DEFAULT_MAX_N,
        help="cap on the ground-set size for subset enumeration (default %(default)s)",
    )
    shared.add_argument(
        "--point-cap",
        type=int,
        default=DEFAULT_POINT_CAP,
        help="cap on enumerated lattice points (default %(default)s)",
    )
    parser = argparse.ArgumentParser(
        prog="polytoric",
        description="divisor class groups of polymatroid and multicomplex "
        "monomial semigroup rings, computed exactly along two independent paths",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text in (
        ("analyze", cmd_analyze, "full analysis of one input file"),
        ("facets", cmd_facets, "print the normalized facet support forms"),
        ("verify", cmd_verify, "run every applicable computation path and require agreement"),
    ):
        command = sub.add_parser(name, parents=[shared], help=help_text)
        command.add_argument("file")
        command.set_defaults(func=func)
    analyze = sub.choices["analyze"]
    analyze.add_argument(
        "--cone", action="store_true", help="also run the cone path and cross-check"
    )
    analyze.add_argument(
        "--normality",
        type=int,
        default=None,
        metavar="D",
        help="run the degree-bounded normality witness up to degree D",
    )
    analyze.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag in ("max_n", "point_cap", "normality"):
            value = getattr(args, flag, None)
            if value is not None and value < 1:
                raise UsageError(f"--{flag.replace('_', '-')} must be >= 1, got {value}")
        obj, echo = load_input(args.file, args.max_n)
        if isinstance(obj, Polymatroid):
            report = validate(obj)
        else:
            report = obj.validate()
        if not report.ok:
            print("input fails validation:", file=sys.stderr)
            for v in report.violations:
                print(f"  {v}", file=sys.stderr)
            return EXIT_INPUT
        return args.func(Analysis(obj, args.point_cap), echo, args)
    except ResourceLimitError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except UsageError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InvariantViolationError as exc:
        print(f"mathematical cross-check failed: {exc}", file=sys.stderr)
        return EXIT_CROSSCHECK


if __name__ == "__main__":
    sys.exit(main())
