"""Polymatroids represented through their ground-set rank functions.

A polymatroid on [n] is a downward-closed finite set of nonnegative
integer vectors containing every unit vector, with the exchange property
between vectors of different total degree.  Everything downstream only
needs the rank function rho(A) = max v(A) over the vectors v, so this
module represents a polymatroid by one of several rank-function encodings
and exposes exact evaluation, axiom validation, and lattice-point /
basis enumeration.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from . import bitset
from .errors import ResourceLimitError, UsageError

# Full 2^n rank tables are materialized eagerly up to this size; above it,
# ranks are memoized per subset on demand.
EAGER_TABLE_LIMIT = 20

DEFAULT_POINT_CAP = 10**6

LatticeVector = tuple  # nonnegative integer coordinates, length n


def vec_on(v: Sequence[int], mask: int) -> int:
    """v(A) = sum of the coordinates indexed by the subset mask; v(0) = 0."""
    return sum(v[i] for i in bitset.elements(mask))


def dominates(v: Sequence[int], w: Sequence[int]) -> bool:
    """Componentwise v >= w."""
    return all(a >= b for a, b in zip(v, w))


# ---------------------------------------------------------------------------
# rank-function encodings
#
# Each encoding evaluates one subset with rank_of(mask) and builds the whole
# table of 2^n ranks, indexed by mask, with table(n) in O(n 2^n) steps or
# fewer.  The two agree on every input, whether or not it satisfies the
# axioms; rank_of serves the lazy memo above EAGER_TABLE_LIMIT and is the
# test oracle of table(n).


def _modular_table(weights: Sequence[int]) -> list:
    """w(A) for every subset mask A of range(len(weights)).

    Doubling: the masks with top element k are those below 1 << k plus k,
    so v[m + (1 << k)] = v[m] + w[k].
    """
    table = [0]
    for w in weights:
        table += [x + w for x in table]
    return table


def _subset_sums(counts: list, n: int) -> list:
    """Zeta transform: out[m] = sum of counts[a] over the submasks a of m.

    One pass per element; each pass adds the half without bit i onto the
    half with it, as whole slices: strided when the blocks are short,
    block by block when they are long.
    """
    out = list(counts)
    size = len(out)
    for i in range(n):
        h = 1 << i
        step = h << 1
        if h * h <= size:
            for r in range(h):
                out[h + r :: step] = map(operator.add, out[h + r :: step], out[r::step])
        else:
            for j in range(0, size, step):
                out[j + h : j + step] = map(operator.add, out[j + h : j + step], out[j : j + h])
    return out


@dataclass(frozen=True)
class RankTable:
    """Explicit table of ranks, indexed by subset mask (length 2^n)."""

    values: tuple

    def rank_of(self, mask: int) -> int:
        return self.values[mask]

    def table(self, n: int) -> list:
        return list(self.values)


@dataclass(frozen=True)
class Transversal:
    """Family (A_1, ..., A_s) of subset masks; repeats are significant.

    rho(X) counts the family members that meet X.
    """

    sets: tuple

    def rank_of(self, mask: int) -> int:
        return sum(1 for a in self.sets if a & mask)

    def table(self, n: int) -> list:
        """rho(X) = s - #{i : A_i inside [n] - X}, from one subset-sum pass
        over the member counts."""
        full = bitset.full_mask(n)
        counts = [0] * (1 << n)
        for a in self.sets:
            counts[a & full] += 1
        s = len(self.sets)
        return [s - inside for inside in reversed(_subset_sums(counts, n))]


@dataclass(frozen=True)
class Veronese:
    """Vectors v with v_i <= s_i and |v| <= d; rho(A) = min(s(A), d)."""

    s: tuple
    d: int

    def rank_of(self, mask: int) -> int:
        return min(vec_on(self.s, mask), self.d) if mask else 0

    def table(self, n: int) -> list:
        d = self.d
        table = [min(x, d) for x in _modular_table(self.s)]
        table[0] = 0
        return table


@dataclass(frozen=True)
class Box:
    """Vectors below a fixed positive vector v; rho(A) = v(A)."""

    v: tuple

    def rank_of(self, mask: int) -> int:
        return vec_on(self.v, mask)

    def table(self, n: int) -> list:
        return _modular_table(self.v)


@dataclass(frozen=True)
class MatroidBases:
    """Bases of a matroid as equal-cardinality subset masks.

    rho(A) = max |A intersect F| over the bases F.
    """

    bases: tuple

    def rank_of(self, mask: int) -> int:
        return max(bitset.card(b & mask) for b in self.bases)

    def table(self, n: int) -> list:
        """X is independent when it lies inside a basis; then rho(X) = |X|,
        else rho(X) = max over i of rho(X - i).  Independence is a
        superset-sum pass: the subset sums over complements count the bases
        that contain X."""
        full = bitset.full_mask(n)
        counts = [0] * (1 << n)
        for b in self.bases:
            counts[full & ~b] += 1
        containing = _subset_sums(counts, n)
        table = []
        for mask in range(1 << n):
            if containing[full ^ mask]:
                table.append(mask.bit_count())
            else:
                table.append(max([table[mask ^ (1 << i)] for i in bitset.elements(mask)]))
        return table


@dataclass(frozen=True)
class PointSet:
    """Explicit list of lattice vectors; rho(A) = max v(A) over the list."""

    points: tuple

    def rank_of(self, mask: int) -> int:
        return max(vec_on(p, mask) for p in self.points)

    def table(self, n: int) -> list:
        """Elementwise max of the maximal points' modular tables: a dominated
        point never gives the larger v(A)."""
        tables = [_modular_table(p) for p in maximal_points(self.points)]
        return list(map(max, *tables)) if len(tables) > 1 else tables[0]


Representation = (RankTable, Transversal, Veronese, Box, MatroidBases, PointSet)


class Polymatroid:
    """A ground set [n] with an exactly evaluated, memoized rank function.

    Construction does not check the polymatroid axioms; run validate() to
    get a report.  The table(n) methods are exact on any input, but the
    analyses downstream (closedness through single-element extensions, the
    component recursion of closed_inseparable_family) assume a polymatroid:
    rho(empty) = 0, monotone and submodular.  The CLI validates before it
    runs them.  rank() results are cached: for n <= EAGER_TABLE_LIMIT the
    whole 2^n table is built up front by the representation's table(n)
    (downstream analyses touch most subsets anyway), above that a per-key
    memo is filled lazily from rank_of.  Cached writes are idempotent, so
    concurrent readers are safe.
    """

    def __init__(self, n: int, rep):
        bitset.check_ground_set(n)
        if not isinstance(rep, Representation):
            raise UsageError(f"unknown rank representation {type(rep).__name__}")
        self.n = n
        self.rep = rep
        self._full = bitset.full_mask(n)
        if n <= EAGER_TABLE_LIMIT:
            self._table: Optional[list] = rep.table(n)
            self._memo = None
        else:
            self._table = None
            self._memo = {}

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rank_table(cls, n: int, table) -> "Polymatroid":
        """table: mapping from subset mask to rank; rho(empty) defaults to 0."""
        bitset.check_ground_set(n)
        values = [0] * (1 << n)
        for mask in bitset.nonempty_subsets(n):
            if mask not in table:
                raise UsageError(f"rank table is missing subset {bitset.set_label(mask)}")
            values[mask] = int(table[mask])
        if table.get(0, 0) != 0:
            values[0] = int(table[0])  # kept so validate() can flag it
        return cls(n, RankTable(tuple(values)))

    @classmethod
    def transversal(cls, n: int, sets: Iterable[int]) -> "Polymatroid":
        sets = tuple(sets)
        if not sets:
            raise UsageError("a transversal family needs at least one set")
        for a in sets:
            if a == 0:
                raise UsageError("transversal family members must be nonempty")
            if a & ~bitset.full_mask(n):
                raise UsageError("transversal family member outside ground set")
        return cls(n, Transversal(sets))

    @classmethod
    def veronese(cls, s: Sequence[int], d: int) -> "Polymatroid":
        s = tuple(int(x) for x in s)
        if any(x < 1 for x in s):
            raise UsageError("coordinate caps must be >= 1")
        if d < 1:
            raise UsageError("total-degree cap must be >= 1")
        return cls(len(s), Veronese(s, int(d)))

    @classmethod
    def box(cls, v: Sequence[int]) -> "Polymatroid":
        v = tuple(int(x) for x in v)
        if any(x < 1 for x in v):
            raise UsageError("box bounds must be >= 1")
        return cls(len(v), Box(v))

    @classmethod
    def from_matroid_bases(cls, n: int, bases: Iterable[int]) -> "Polymatroid":
        bases = tuple(bases)
        if not bases:
            raise UsageError("need at least one basis")
        for b in bases:
            if b & ~bitset.full_mask(n):
                raise UsageError("basis outside ground set")
        return cls(n, MatroidBases(bases))

    @classmethod
    def from_points(cls, n: int, points: Iterable[Sequence[int]]) -> "Polymatroid":
        pts = tuple(tuple(int(x) for x in p) for p in points)
        if not pts:
            raise UsageError("need at least one lattice point")
        for p in pts:
            if len(p) != n:
                raise UsageError(f"point {p} does not have {n} coordinates")
            if any(x < 0 for x in p):
                raise UsageError(f"point {p} has a negative coordinate")
        return cls(n, PointSet(pts))

    # -- evaluation ----------------------------------------------------------

    def rank(self, mask: int) -> int:
        """rho(A) for the subset mask A; raises UsageError off the ground set."""
        if mask & ~self._full or mask < 0:
            raise UsageError(f"subset {mask:#x} not contained in [{self.n}]")
        if self._table is not None:
            return self._table[mask]
        cached = self._memo.get(mask)
        if cached is None:
            cached = self.rep.rank_of(mask)
            self._memo[mask] = cached
        return cached

    def unit_ranks(self) -> tuple:
        return tuple(self.rank(1 << i) for i in range(self.n))

    def __repr__(self):
        return f"Polymatroid(n={self.n}, rep={type(self.rep).__name__})"


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Violation:
    kind: str  # normalization | unit-rank | monotonicity | submodularity | basis-cardinality
    subsets: tuple
    detail: str

    def __str__(self):
        where = ", ".join(bitset.set_label(m) for m in self.subsets)
        return f"{self.kind} at {where}: {self.detail}"


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def level_window(table, mask: int) -> tuple:
    """Admissible range [low, high] for rho(mask), |mask| >= 2, given the
    ranks of all smaller subsets; `table` is indexed by subset mask.

    Lower bound from monotonicity over the covers, upper bound from
    submodularity over the diamonds rho(A+i) + rho(A+j) >= rho(A+i+j) + rho(A)
    that have mask as their top.  The window can be empty: the smaller
    subsets of a partial table are not always extensible.
    """
    covers = [mask ^ (1 << i) for i in bitset.elements(mask)]
    low = max([table[c] for c in covers])
    high = min(
        [table[a] + table[b] - table[a & b] for a, b in itertools.combinations(covers, 2)]
    )
    return low, high


def validate(p: Polymatroid) -> ValidationReport:
    """Check the rank-function axioms; violations are report entries, not
    exceptions.

    Normalization rho(empty) = 0 and rho({i}) >= 1 are checked directly.
    Monotonicity and submodularity are checked locally first: rho({i}) >=
    rho(empty) for each element, and rho(A) inside its level_window for
    every A with at least two elements.  That is monotonicity on every cover
    A < A+i and submodularity on every diamond, O(n^2 2^n) table reads, and
    it is equivalent to monotonicity on all nested pairs plus submodularity
    on all pairs.  So a pass means the pairwise scan would find nothing.
    Only when the local check fails does the pairwise scan over all 4^n
    subset pairs run, so that the report names every violating pair, in
    the scan's order.  For closed-form representations this doubles as a
    consistency check of the evaluator.
    """
    report = ValidationReport()
    n = p.n
    rank = p.rank
    if rank(0) != 0:
        report.violations.append(
            Violation("normalization", (0,), f"rho(empty) = {rank(0)}, expected 0")
        )
    for i in range(n):
        m = 1 << i
        if rank(m) < 1:
            report.violations.append(
                Violation("unit-rank", (m,), f"rho({{{i + 1}}}) = {rank(m)} < 1")
            )
    locally_valid = _locally_valid(_all_ranks(p), n)
    if not locally_valid:
        _pairwise_scan(p, report)
    if isinstance(p.rep, MatroidBases):
        _check_matroid_bases(p, report, locally_valid)
    return report


def _all_ranks(p: Polymatroid) -> list:
    """rho of every subset, indexed by mask: the eager table when there is one."""
    return p._table if p._table is not None else [p.rank(m) for m in bitset.subsets(p.n)]


def _locally_valid(ranks, n: int) -> bool:
    """Monotone on every cover and submodular on every diamond."""
    if any(ranks[1 << i] < ranks[0] for i in range(n)):
        return False
    for mask in range(3, 1 << n):
        if mask & (mask - 1):
            low, high = level_window(ranks, mask)
            if not low <= ranks[mask] <= high:
                return False
    return True


def _pairwise_scan(p: Polymatroid, report: ValidationReport) -> None:
    """Monotonicity on all nested pairs, submodularity on all pairs."""
    n = p.n
    rank = p.rank
    for b in bitset.subsets(n):
        rb = rank(b)
        for a in bitset.submasks(b):
            if a != b and rank(a) > rb:
                report.violations.append(
                    Violation("monotonicity", (a, b), f"{rank(a)} > {rb}")
                )
    for a in bitset.subsets(n):
        ra = rank(a)
        for b in range(a + 1, 1 << n):
            if ra + rank(b) < rank(a | b) + rank(a & b):
                report.violations.append(
                    Violation(
                        "submodularity",
                        (a, b),
                        f"{ra} + {rank(b)} < {rank(a | b)} + {rank(a & b)}",
                    )
                )


def _check_matroid_bases(p: Polymatroid, report: ValidationReport, locally_valid: bool) -> None:
    """Equal basis sizes always; basis exchange only when the local check
    failed.  For an equal-size family F, rho(A) = max |A & B| over F never
    grows by more than one per element, so if it is also submodular it is a
    matroid rank function; its independent sets are the subsets of members
    of F, its bases are exactly F, and exchange cannot fail."""
    sizes = {bitset.card(b) for b in p.rep.bases}
    if len(sizes) > 1:
        report.violations.append(
            Violation(
                "basis-cardinality",
                tuple(sorted(p.rep.bases)[:2]),
                f"bases of unequal sizes {sorted(sizes)}",
            )
        )
        return
    if not locally_valid:
        _basis_exchange_scan(p, report)


def _basis_exchange_scan(p: Polymatroid, report: ValidationReport) -> None:
    # Exchange property is only a warning: rank analysis stays meaningful for
    # any equal-cardinality family, but the matroid-specific screens assume it.
    # The first failure in set order is reported, element by element of
    # b1 - b2 ascending; each pair's candidates b2 - b1 are listed once.
    bases = set(p.rep.bases)
    for b1 in bases:
        for b2 in bases:
            out = b1 & ~b2
            if not out:
                continue
            ins = [1 << j for j in bitset.elements(b2 & ~b1)]
            while out:
                bit = out & -out
                rest = b1 ^ bit
                for j in ins:
                    if rest | j in bases:
                        break
                else:
                    report.warnings.append(
                        f"basis exchange fails from {bitset.set_label(b1)} to "
                        f"{bitset.set_label(b2)} at element {bit.bit_length()}"
                    )
                    return
                out ^= bit


# ---------------------------------------------------------------------------
# lattice points and bases


def lattice_points(p: Polymatroid, point_cap: int = DEFAULT_POINT_CAP) -> list:
    """All v in Z_+^n with v(A) <= rho(A) for every subset A, in lex order.

    Depth-first over coordinates.  A node at coordinate k carries the list
    vsum[sub] = v(sub) for every subset sub of the assigned prefix {0..k-1}
    (index = mask, sub < 2^k).  The subsets that the new coordinate enters
    are sub + {k}, so v_k may take exactly the values 0..cap with
    cap = min over sub of rho(sub + {k}) - vsum[sub], computed once per
    node; sub = empty gives the unit bound rho({k}).  The child's list is
    vsum followed by vsum shifted by v_k.
    """
    n = p.n
    ranks = _all_ranks(p)
    out: list = []
    v = [0] * n
    last = n - 1

    def extend(k: int, vsum: list) -> None:
        bit = 1 << k
        cap = min(map(operator.sub, ranks[bit : bit << 1], vsum))
        for val in range(cap + 1):
            v[k] = val
            if k < last:
                extend(k + 1, vsum + [s + val for s in vsum])
                continue
            if len(out) >= point_cap:
                raise ResourceLimitError(
                    f"lattice point count exceeds cap of {point_cap}"
                )
            out.append(tuple(v))
        v[k] = 0

    extend(0, [0])
    return out


def maximal_points(points: Sequence[LatticeVector]) -> list:
    """The vectors with no strictly larger vector in the list."""
    ordered = sorted(points, key=sum, reverse=True)
    kept: list = []
    for v in ordered:
        if not any(dominates(w, v) for w in kept):
            kept.append(v)
    return sorted(kept)


def bases(p: Polymatroid, point_cap: int = DEFAULT_POINT_CAP) -> list:
    """The maximal lattice vectors of the polymatroid, in lex order."""
    return maximal_points(lattice_points(p, point_cap))


# ---------------------------------------------------------------------------
# multicomplexes (inputs for the convex-cone path)


@dataclass(frozen=True)
class Multicomplex:
    """A finite generator list for the cone path.

    In the default mode, `facets` is the antichain of maximal vectors and
    the vector set is its downward closure.  With generalized=True the list
    is taken verbatim as the degree-one generator set; it must then contain
    the zero vector and every unit vector.
    """

    n: int
    facets: tuple
    generalized: bool = False

    def __post_init__(self):
        bitset.check_ground_set(self.n)
        for f in self.facets:
            if len(f) != self.n:
                raise UsageError(f"facet {f} does not have {self.n} coordinates")
            if any(x < 0 for x in f):
                raise UsageError(f"facet {f} has a negative coordinate")
        if not self.facets:
            raise UsageError("need at least one facet/generator")

    def validate(self) -> ValidationReport:
        report = ValidationReport()
        if self.generalized:
            pts = set(self.facets)
            zero = (0,) * self.n
            if zero not in pts:
                report.violations.append(
                    Violation("generator-set", (0,), "zero vector missing")
                )
            for i in range(self.n):
                e = tuple(1 if j == i else 0 for j in range(self.n))
                if e not in pts:
                    report.violations.append(
                        Violation("generator-set", (1 << i,), f"unit vector e_{i + 1} missing")
                    )
            return report
        for a, b in itertools.combinations(self.facets, 2):
            if dominates(a, b) or dominates(b, a):
                report.violations.append(
                    Violation("antichain", (0,), f"facets {a} and {b} are comparable")
                )
        for i in range(self.n):
            if not any(f[i] >= 1 for f in self.facets):
                report.violations.append(
                    Violation("unit-rank", (1 << i,), f"e_{i + 1} lies below no facet")
                )
        return report

    def points(self, point_cap: int = DEFAULT_POINT_CAP) -> list:
        """The vector set: downward closure of the facets, or the raw list."""
        if self.generalized:
            return sorted(set(self.facets))
        seen = set()
        for f in self.facets:
            for w in itertools.product(*(range(x + 1) for x in f)):
                seen.add(w)
                if len(seen) > point_cap:
                    raise ResourceLimitError(
                        f"multicomplex point count exceeds cap of {point_cap}"
                    )
        return sorted(seen)
