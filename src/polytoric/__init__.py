"""Exact divisor class groups of polymatroid and multicomplex semigroup rings.

Two independent computation paths are provided: the combinatorial path
through the ground-set rank function (closed and inseparable subsets, one
relation given by their ranks) and the convex-geometry path through exact
facet enumeration of the cone over the degree-one generators.  On valid
polymatroids the two must agree, and the verify machinery checks that they
do.
"""

from .abelian import GroupInvariants, gcd_of, quotient_by_relation
from .cone import (
    NormalityWitness,
    SemigroupGenerators,
    canonical_from_cone,
    class_group_from_cone,
    cone_facets,
    minimal_primes_of_t,
    normality_witness,
    principal_class,
    semigroup_generators,
)
from .crosscheck import Analysis, PathAgreement, compare_paths, expected_form_keys
from .divisors import (
    DivisorClass,
    DivisorPresentation,
    UnmixedReport,
    canonical_class,
    class_group,
    is_gorenstein,
    matroid_unmixed_check,
    relation_multiple,
)
from .errors import (
    InvariantViolationError,
    PolytoricError,
    ResourceLimitError,
    UsageError,
)
from .families import (
    box_analysis,
    classify_transversal,
    graph_complement_family,
    nested_chain_analysis,
    nested_chain_family,
    uniform_transversal,
    uniform_transversal_analysis,
    veronese_analysis,
)
from .polymatroid import (
    Multicomplex,
    Polymatroid,
    ValidationReport,
    bases,
    lattice_points,
    validate,
)
from .structure import (
    ClosedInseparableFamily,
    FamilyMember,
    closed_inseparable_family,
    is_closed_full,
    is_inseparable,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
