"""Agreement harness between the rank-function path and the cone path.

For a valid polymatroid the facet forms of the cone must be the coordinate
forms plus one form per closed/inseparable subset, and then the class
group presentation, the canonical class, and the Gorenstein verdict from
the two paths must coincide.  Both paths name a generator by its facet
form's coefficient tuple, so the two presentations agree when their key
sets do.  This module reports any discrepancy, for use both by the CLI
verify command and by the test suite.

`Analysis` holds the artifacts of one input and computes each at most once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import sub
from typing import Optional

from .cone import (
    ConeInput,
    NormalityWitness,
    SemigroupGenerators,
    canonical_from_cone,
    class_group_from_cone,
    cone_facets,
    normality_witness,
    semigroup_generators,
)
from .divisors import (
    DivisorClass,
    DivisorPresentation,
    canonical_class,
    class_group,
    is_gorenstein,
    relation_multiple,
    support_form_key,
)
from .polymatroid import DEFAULT_POINT_CAP, Polymatroid
from .structure import ClosedInseparableFamily, closed_inseparable_family


@dataclass
class PathAgreement:
    facets_match: bool
    missing_forms: tuple = ()
    unexpected_forms: tuple = ()
    invariants_match: bool = False
    canonical_match: bool = False
    gorenstein_match: bool = False
    notes: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.facets_match
            and self.invariants_match
            and self.canonical_match
            and self.gorenstein_match
        )


def expected_form_keys(family: ClosedInseparableFamily) -> set:
    """Facet forms forced by the family: one per member plus coordinates."""
    n = family.n
    keys = {support_form_key(m.mask, m.rank, n) for m in family.members}
    for i in range(n):
        keys.add(tuple(1 if j == i else 0 for j in range(n + 1)))
    return keys


class Analysis:
    """The artifacts of one input, each computed at most once on first use.

    For a polymatroid the answer (presentation, canonical class, Gorenstein
    verdict) comes from the rank path and `agreement` checks it against the
    cone path.  A multicomplex has the cone path only, so its answer comes
    from the facet forms.
    """

    def __init__(self, source: ConeInput, point_cap: int = DEFAULT_POINT_CAP):
        self.source = source
        self.point_cap = point_cap
        self.rank_path = isinstance(source, Polymatroid)
        self._witnesses: dict = {}

    @cached_property
    def family(self) -> ClosedInseparableFamily:
        return closed_inseparable_family(self.source)

    @cached_property
    def presentation(self) -> DivisorPresentation:
        if self.rank_path:
            return class_group(self.family)
        return class_group_from_cone(self.forms)

    @cached_property
    def canonical(self) -> DivisorClass:
        if self.rank_path:
            return canonical_class(self.family, self.presentation)
        return canonical_from_cone(self.presentation)

    @cached_property
    def gorenstein(self) -> Optional[int]:
        """The a with canonical class a * relation, or None if not Gorenstein."""
        if self.rank_path:
            return is_gorenstein(self.family)
        return relation_multiple(self.canonical)

    @cached_property
    def generators(self) -> SemigroupGenerators:
        return semigroup_generators(self.source, self.point_cap)

    @cached_property
    def forms(self) -> list:
        return cone_facets(self.generators)

    @cached_property
    def agreement(self) -> PathAgreement:
        return compare_paths(self)

    def witness(self, degree: Optional[int] = None) -> NormalityWitness:
        """Normality witness up to `degree`, by default the ground-set size."""
        degree = self.source.n if degree is None else degree
        if degree not in self._witnesses:
            self._witnesses[degree] = normality_witness(
                self.generators, self.forms, degree, self.point_cap
            )
        return self._witnesses[degree]


def compare_paths(analysis: Analysis) -> PathAgreement:
    """Compare both paths of a validated polymatroid on every artifact."""
    family, forms = analysis.family, analysis.forms
    expected = expected_form_keys(family)
    actual = set(forms)
    result = PathAgreement(facets_match=expected == actual)
    if not result.facets_match:
        result.missing_forms = tuple(sorted(expected - actual))
        result.unexpected_forms = tuple(sorted(actual - expected))
        result.notes.append(
            f"facet sets differ: {len(result.missing_forms)} missing, "
            f"{len(result.unexpected_forms)} unexpected"
        )
        return result

    comb_pres = analysis.presentation
    cone_pres = class_group_from_cone(forms)
    result.invariants_match = comb_pres.invariants == cone_pres.invariants
    if not result.invariants_match:
        result.notes.append(
            f"invariants differ: {comb_pres.invariants} vs {cone_pres.invariants}"
        )

    comb_canonical = analysis.canonical
    cone_canonical = canonical_from_cone(cone_pres)
    # the cone coordinates in the rank path's key order
    cone_coord = dict(zip(cone_pres.keys, cone_canonical.coords))
    cone_coords = tuple(cone_coord[k] for k in comb_pres.keys)
    if result.invariants_match:
        diff = DivisorClass(
            tuple(map(sub, comb_canonical.coords, cone_coords)), comb_pres
        )
        result.canonical_match = relation_multiple(diff) is not None
        if not result.canonical_match:
            result.notes.append(
                f"canonical classes differ: {comb_canonical.coords} vs {cone_coords}"
            )

    comb_g = analysis.gorenstein
    cone_g = relation_multiple(cone_canonical)
    result.gorenstein_match = comb_g == cone_g
    if not result.gorenstein_match:
        result.notes.append(f"Gorenstein verdicts differ: {comb_g} vs {cone_g}")
    return result
