"""Analysis reports: deterministic text and JSON renderings.

Reports are plain data assembled from the analysis results; rendering the
same report twice is byte-identical, and the JSON form round-trips through
json.loads/json.dumps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import bitset
from .abelian import GroupInvariants
from .divisors import DivisorPresentation
from .structure import ClosedInseparableFamily


def json_text(doc: dict) -> str:
    """The JSON output format of `analyze` and `verify`: sorted keys,
    two-space indent, one trailing newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def group_dict(invariants: GroupInvariants) -> dict:
    return {
        "free_rank": invariants.free_rank,
        "torsion": invariants.torsion,
        "description": str(invariants),
    }


def presentation_dict(pres: DivisorPresentation) -> dict:
    return {
        "labels": list(pres.labels),
        "relation": list(pres.relation),
        "invariants": group_dict(pres.invariants),
    }


def family_list(family: ClosedInseparableFamily) -> list:
    return [
        {"set": list(bitset.one_based(m.mask)), "rank": m.rank, "size": m.size}
        for m in family.members
    ]


@dataclass
class AnalysisReport:
    """The analyze report body: `input`, `path` and `warnings`; `family`
    for a polymatroid; `class_group`, `canonical_class` and `gorenstein`
    for every input; and `cone` when the cone path has something to show."""

    body: dict

    def to_json(self) -> str:
        return json_text(self.body)

    def to_text(self) -> str:
        body = self.body
        echo = body["input"]
        lines = [f"input: kind={echo['kind']} n={echo['n']}"]
        if "family" in body:
            lines.append(f"family ({len(body['family'])} members):")
            for m in body["family"]:
                label = "{" + ",".join(str(i) for i in m["set"]) + "}"
                lines.append(f"  {label}  rank {m['rank']}")
        cg = body["class_group"]
        lines.append(f"class group: {cg['invariants']['description']}")
        lines.append("  relation: " + " ".join(str(r) for r in cg["relation"]))
        lines.append(
            "canonical class: " + " ".join(str(c) for c in body["canonical_class"])
        )
        g = body["gorenstein"]
        if g["is_gorenstein"]:
            lines.append(f"gorenstein: yes (a = {g['a']})")
        else:
            lines.append("gorenstein: no")
        cone = body.get("cone", {})
        if "facets" in cone:
            lines.append(f"cone facets ({len(cone['facets'])}):")
            for f in cone["facets"]:
                lines.append("  " + " ".join(str(c) for c in f))
        if "facets_match_family" in cone:
            verdict = "yes" if cone["facets_match_family"] else "NO"
            lines.append(f"cone facets match family forms: {verdict}")
        if "paths_agree" in cone:
            verdict = "yes" if cone["paths_agree"] else "NO"
            lines.append(f"cone path agrees with rank path: {verdict}")
        if "normality" in cone:
            norm = cone["normality"]
            if norm["violation"] is None:
                lines.append(
                    f"normality witness: no violation up to degree {norm['max_degree']}"
                )
            else:
                lines.append(
                    "normality witness: VIOLATION at "
                    + " ".join(str(x) for x in norm["violation"])
                )
        for w in body["warnings"]:
            lines.append(f"warning: {w}")
        return "\n".join(lines) + "\n"
