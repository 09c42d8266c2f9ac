"""Divisor class group presentations, the canonical class, and Gorensteinness.

The class group is Z^r on the generators indexed by the closed and
inseparable family, modulo the single relation whose coefficients are the
ranks.  The canonical class has coordinate |A| + 1 on the generator of A.
This module owns that combinatorial side.  The cone path (cone.py) reads
its own presentation, canonical class and Gorenstein verdict off the facet
forms.  The two paths share the `DivisorPresentation` type, whose
generators are named by facet-form coefficient tuples (`support_form_key`),
whose relation is the degree coefficients and whose invariants come from
`quotient_by_relation`, and the one zero-class test, `relation_multiple`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from . import bitset
from .abelian import GroupInvariants, quotient_by_relation
from .errors import InvariantViolationError, UsageError
from .polymatroid import MatroidBases, Polymatroid
from .structure import ClosedInseparableFamily


def support_form_key(mask: int, rank: int, n: int) -> tuple:
    """Coefficient vector of the facet form of a family member:
    -x_i for i in A, plus rank(A) times the degree coordinate."""
    return tuple(-1 if mask >> i & 1 else 0 for i in range(n)) + (rank,)


def label_for_key(key: tuple) -> str:
    """Generator label derived from a support-form coefficient vector."""
    n = len(key) - 1
    body = key[:n]
    if key[n] > 0 and all(c in (0, -1) for c in body):
        return "P_{" + ",".join(str(i + 1) for i, c in enumerate(body) if c == -1) + "}"
    return "P(" + ",".join(str(c) for c in key) + ")"


@dataclass(frozen=True)
class DivisorPresentation:
    """Generators of the class group with their single relation.

    `keys` holds one support-form coefficient vector per generator, and is
    all a presentation stores: the labels, the relation (each key's degree
    coefficient) and the group invariants are read off it.
    """

    keys: tuple

    @cached_property
    def relation(self) -> tuple:
        return tuple(k[-1] for k in self.keys)

    @cached_property
    def invariants(self) -> GroupInvariants:
        return quotient_by_relation(len(self.keys), self.relation)

    @property
    def labels(self) -> tuple:
        return tuple(label_for_key(k) for k in self.keys)


@dataclass(frozen=True)
class DivisorClass:
    coords: tuple
    presentation: DivisorPresentation


def _require_members(family: ClosedInseparableFamily) -> None:
    if not family.members:
        raise InvariantViolationError(
            "empty closed/inseparable family; the full ground set is always closed"
        )


def class_group(family: ClosedInseparableFamily) -> DivisorPresentation:
    """Presentation on the family members in their canonical order."""
    _require_members(family)
    keys = tuple(
        support_form_key(m.mask, m.rank, family.n) for m in family.members
    )
    return DivisorPresentation(keys)


def canonical_class(
    family: ClosedInseparableFamily, presentation: DivisorPresentation
) -> DivisorClass:
    """The canonical divisor class: coordinate |A| + 1 on each generator."""
    coords = tuple(m.size + 1 for m in family.members)
    return DivisorClass(coords=coords, presentation=presentation)


def relation_multiple(x: DivisorClass) -> Optional[int]:
    """The integer lambda with coords = lambda * relation, if one exists.

    This is the zero-class test: x is zero in the class group exactly when
    `relation_multiple(x) is not None`, and two classes of one presentation
    are equal exactly when their difference is zero.
    """
    coords, relation = x.coords, x.presentation.relation
    pivot = next((i for i, r in enumerate(relation) if r != 0), None)
    if pivot is None:
        return 0 if all(c == 0 for c in coords) else None
    if coords[pivot] % relation[pivot] != 0:
        return None
    lam = coords[pivot] // relation[pivot]
    return lam if all(c == lam * r for c, r in zip(coords, relation)) else None


def is_gorenstein(family: ClosedInseparableFamily) -> Optional[int]:
    """The integer a with |A| + 1 = a * rho(A) across the family, if any."""
    _require_members(family)
    ratio: Optional[int] = None
    for m in family.members:
        if m.rank <= 0:
            raise InvariantViolationError(
                f"family member {bitset.set_label(m.mask)} has nonpositive rank {m.rank}"
            )
        a, rest = divmod(m.size + 1, m.rank)
        if rest or (ratio is not None and a != ratio):
            return None
        ratio = a
    return ratio


# ---------------------------------------------------------------------------
# matroid one-skeleton unmixedness (necessary condition screen)


@dataclass(frozen=True)
class UnmixedReport:
    unmixed: bool
    edges: tuple  # pairs {i,j} independent in the matroid, as masks
    maximal_independent_sets: tuple  # the parallel classes, as masks

    def sizes(self) -> tuple:
        return tuple(sorted({bitset.card(s) for s in self.maximal_independent_sets}))


def matroid_unmixed_check(p: Polymatroid) -> UnmixedReport:
    """Whether all maximal independent sets of the one-skeleton graph have
    equal size.  The skeleton's edges are the two-element subsets contained
    in some basis, i.e. those of rank two.  In a loopless matroid the other
    pairs are parallel, an equivalence relation (Oxley, Matroid Theory,
    2011, 1.1), so the skeleton is complete multipartite and its maximal
    independent sets are the parallel classes, {j : rho({i,j}) < 2} for each
    i.  Assumes a valid matroid, hence loopless; the CLI validates first."""
    if not isinstance(p.rep, MatroidBases):
        raise UsageError("unmixedness check needs a matroid-bases representation")
    n = p.n
    edges = tuple(
        (1 << i) | (1 << j)
        for i in range(n)
        for j in range(i + 1, n)
        if p.rank((1 << i) | (1 << j)) == 2
    )
    parallel = [
        sum(1 << j for j in range(n) if p.rank((1 << i) | (1 << j)) < 2)
        for i in range(n)
    ]
    classes = tuple(sorted(set(parallel)))
    return UnmixedReport(
        unmixed=len({bitset.card(c) for c in classes}) <= 1,
        edges=edges,
        maximal_independent_sets=classes,
    )
