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
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from . import bitset
from .errors import ResourceLimitError, UsageError

# Every Polymatroid holds its full table of 2^n ranks; larger ground sets
# are refused before anything of that size is allocated.
RANK_TABLE_LIMIT = 20

DEFAULT_POINT_CAP = 10**6


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
# axioms; rank_of is the test oracle of table(n).


def _modular_table(weights: Sequence[int]) -> list:
    """w(A) for every subset mask A of range(len(weights)).

    Doubling: the masks with top element k are those below 1 << k plus k,
    so v[m + (1 << k)] = v[m] + w[k].
    """
    table = [0]
    for w in weights:
        table += [x + w for x in table]
    return table


def _halves(size: int, k: int) -> list:
    """Slice pairs (without bit k, with bit k) that match the indices of
    range(size) that differ only in bit k, and cover it: strided when the
    blocks of 2^k are short, block by block when they are long, so there
    are at most sqrt(size) pairs."""
    h = 1 << k
    step = h << 1
    if h * h <= size:
        return [(slice(r, size, step), slice(r + h, size, step)) for r in range(h)]
    return [(slice(j, j + h), slice(j + h, j + step)) for j in range(0, size, step)]


def _subset_sums(counts: list, n: int) -> list:
    """Zeta transform: out[m] = sum of counts[a] over the submasks a of m.

    One pass per element; each pass adds the half without bit i onto the
    half with it, as whole slices (_halves).
    """
    out = list(counts)
    for i in range(n):
        for lo, hi in _halves(len(out), i):
            out[hi] = map(operator.add, out[hi], out[lo])
    return out


@dataclass(frozen=True)
class RankTable:
    """Explicit table of ranks, indexed by subset mask (length 2^n)."""

    values: tuple

    def rank_of(self, mask: int) -> int:
        return self.values[mask]

    def table(self, n: int) -> tuple:
        return self.values


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


def check_enumeration_cap(n: int, max_n: int) -> None:
    """Raise ResourceLimitError when subsets of [n] are too many to enumerate."""
    if n > max_n:
        raise ResourceLimitError(
            f"ground-set size {n} exceeds the enumeration cap {max_n}"
        )


def check_int(x, what: str) -> int:
    """x itself; UsageError unless it is an int (a bool is refused too, as
    the CLI refuses JSON true and false)."""
    if type(x) is not int:
        raise UsageError(f"{what} must be an integer, got {x!r}")
    return x


class Polymatroid:
    """A ground set [n] with its rank function, tabulated on all subsets.

    Construction does not check the polymatroid axioms; run validate() to
    get a report.  The table(n) methods are exact on any input, but the
    analyses downstream (closedness through single-element extensions, the
    component recursion of closed_inseparable_family) assume a polymatroid:
    rho(empty) = 0, monotone and submodular.  The CLI validates before it
    runs them.

    `ranks` is the representation's table(n) as a tuple indexed by subset
    mask, built once in the constructor: every analysis reads most of the
    2^n subsets.  Ground sets above RANK_TABLE_LIMIT raise
    ResourceLimitError before the table is built.  Nothing is written after
    construction, so concurrent readers are safe.
    """

    def __init__(self, n: int, rep):
        bitset.check_ground_set(n)
        check_enumeration_cap(n, RANK_TABLE_LIMIT)
        if not isinstance(rep, Representation):
            raise UsageError(f"unknown rank representation {type(rep).__name__}")
        self.n = n
        self.rep = rep
        self.ranks = tuple(rep.table(n))

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rank_table(cls, n: int, table) -> "Polymatroid":
        """table: mapping from subset mask to rank; rho(empty) defaults to 0."""
        bitset.check_ground_set(n)
        check_enumeration_cap(n, RANK_TABLE_LIMIT)
        values = [0] * (1 << n)
        for mask in range(1 << n):
            if mask not in table:
                if mask:
                    raise UsageError(f"rank table is missing subset {bitset.set_label(mask)}")
                continue
            value = table[mask]  # a nonzero rho(empty) is kept so validate() can flag it
            if type(value) is not int:
                raise UsageError(
                    f"rank of {bitset.set_label(mask)} must be an integer, got {value!r}"
                )
            values[mask] = value
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
        s = tuple(check_int(x, "coordinate cap") for x in s)
        if any(x < 1 for x in s):
            raise UsageError("coordinate caps must be >= 1")
        if check_int(d, "total-degree cap") < 1:
            raise UsageError("total-degree cap must be >= 1")
        return cls(len(s), Veronese(s, d))

    @classmethod
    def box(cls, v: Sequence[int]) -> "Polymatroid":
        v = tuple(check_int(x, "box bound") for x in v)
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
        pts = tuple(tuple(check_int(x, "point coordinate") for x in p) for p in points)
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
        if not 0 <= mask < len(self.ranks):
            raise UsageError(f"subset {mask:#x} not contained in [{self.n}]")
        return self.ranks[mask]

    def unit_ranks(self) -> tuple:
        return tuple(self.rank(1 << i) for i in range(self.n))

    def __repr__(self):
        return f"Polymatroid(n={self.n}, rep={type(self.rep).__name__})"


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Violation:
    # normalization | unit-rank | monotonicity | submodularity |
    # basis-cardinality | antichain | generator-set
    kind: str
    subsets: tuple
    detail: str

    def __str__(self):
        if not self.subsets:
            return f"{self.kind}: {self.detail}"
        where = ", ".join(bitset.set_label(m) for m in self.subsets)
        return f"{self.kind} at {where}: {self.detail}"


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(p: Polymatroid) -> ValidationReport:
    """Check the rank-function axioms; violations are report entries, not
    exceptions.

    Normalization rho(empty) = 0 and rho({i}) >= 1 are checked directly.
    Monotonicity and submodularity are checked locally first, on every
    cover S < S+i and every diamond delta(S; i, j) = rho(S+i) + rho(S+j) -
    rho(S+i+j) - rho(S) >= 0, in O(n^2 2^n) slice comparisons
    (_local_faults).  That is equivalent to monotonicity on all nested pairs
    plus submodularity on all pairs, so a pass means no pair violates.

    When the local check fails, the report still names every violating
    pair, in the order of the all-pairs scan, but only the pairs that a
    failing cover or diamond can explain are tested.  For a < b nested with
    rho(a) > rho(b), the chain from a to b that adds b - a in ascending
    order has a failing cover.  For any pair a, b with X = a & b, P = a - b
    and Q = b - a, the defect rho(a) + rho(b) - rho(a | b) - rho(a & b)
    telescopes into the sum of delta(X + P_<i + Q_<j; i, j) over i in P and
    j in Q, so a violating pair has a failing diamond in its grid.  Each
    failing cover or diamond fixes a pattern for its pairs (_pair_patterns),
    and the work is the number of faults times at most 2 * 3^(n-2)
    candidates each, not the 4^n of the full scan.  When the candidates outnumber the
    3^n + 2^n (2^n - 1) / 2 pairs of the full scan, as on tables with many
    faults, the full scan (_pairwise_scan) runs instead.  For closed-form
    representations this doubles as a consistency check of the evaluator.
    """
    report = ValidationReport()
    n = p.n
    ranks = p.ranks
    if ranks[0] != 0:
        report.violations.append(
            Violation("normalization", (0,), f"rho(empty) = {ranks[0]}, expected 0")
        )
    for i in range(n):
        m = 1 << i
        if ranks[m] < 1:
            report.violations.append(
                Violation("unit-rank", (m,), f"rho({{{i + 1}}}) = {ranks[m]} < 1")
            )
    faults = _local_faults(ranks, n)
    first = next(faults, None)
    if first is not None and not _localized_scan(
        ranks, n, itertools.chain((first,), faults), report
    ):
        _pairwise_scan(p, report)
    if isinstance(p.rep, MatroidBases):
        _check_matroid_bases(p, report)
    return report


def _marginal(ranks, i: int) -> list:
    """g[c] = rho(S + i) - rho(S), where S is the c-th subset without i in
    ascending order (c is S with bit i squeezed out), as whole-slice
    differences: strided or block by block, as in _halves."""
    size = len(ranks)
    h = 1 << i
    step = h << 1
    g = [0] * (size >> 1)
    if h * h <= size:
        for r in range(h):
            g[r::h] = map(operator.sub, ranks[r + h :: step], ranks[r::step])
    else:
        for j in range(0, size, step):
            g[j >> 1 : (j >> 1) + h] = map(
                operator.sub, ranks[j + h : j + step], ranks[j : j + h]
            )
    return g


def _local_faults(ranks, n: int):
    """The failing covers and diamonds of a rank list, lazily.

    With the marginals g_i(S) = rho(S + i) - rho(S), the cover S < S + i
    fails when g_i(S) < 0, and the diamond on S, i, j fails when
    g_i(S + j) > g_i(S), because the difference is delta(S; i, j).  Each
    diamond is compared once, from its smaller element i, over the halves
    of g_i.  Yields (S, i, None) for a cover and (S, i, j) for a diamond;
    on a valid table it yields nothing.
    """
    for i in range(n):
        g = _marginal(ranks, i)
        if min(g) < 0:
            for c, x in enumerate(g):
                if x < 0:
                    yield _unsqueeze(c, i), i, None
        positions = range(len(g))
        for k in range(i, n - 1):  # bit k of c is element k + 1 > i
            for lo, hi in _halves(len(g), k):
                if any(map(operator.gt, g[hi], g[lo])):
                    for c, x, y in zip(positions[lo], g[lo], g[hi]):
                        if y > x:
                            yield _unsqueeze(c, i), i, k + 1


def _unsqueeze(c: int, i: int) -> int:
    """The subset whose index among the subsets without i is c."""
    return (c >> i << i + 1) | (c & ((1 << i) - 1))


def _pair_patterns(s: int, i: int, j, n: int):
    """The pairs a, b whose chain or grid runs through a failing cover or
    diamond, as (kind, base, options): each pair is base plus one addend
    from every options tuple, encoded a | b << n.

    Cover S < S + i (j is None): a = S - Y with Y below i, b = S + i + Z
    with Z outside S + i and above i.  Diamond on S, i, j, once with i in
    P = a - b and j in Q = b - a and once the other way round: an element
    of S goes to X = a & b, or to P below the P element, or to Q below the
    Q element; an element outside S + i + j stays out, or goes to P above
    the P element, or to Q above the Q element.
    """
    if j is None:
        kind, orientations = "monotonicity", ((None, i),)
    else:
        kind, orientations = "submodularity", ((i, j), (j, i))
    for p, q in orientations:
        base = 1 << q + n
        if p is not None:
            base |= 1 << p
        options = []
        for e in range(n):
            if e == p or e == q:
                continue
            bit = 1 << e
            inside = bool(s & bit)
            opts = [bit | bit << n] if inside else [0]
            if p is not None and (e < p) == inside:
                opts.append(bit)
            if (e < q) == inside:
                opts.append(bit << n)
            if len(opts) == 1:
                base += opts[0]
            else:
                options.append(opts)
        yield kind, base, options


def _localized_scan(ranks, n: int, faults, report: ValidationReport) -> bool:
    """Every violating pair explained by the faults, in the all-pairs scan's
    order: monotonicity by (b, descending a), then submodularity by (a, b).
    Returns False, having reported nothing, when the candidates would
    outnumber the pairs of the full scan."""
    full = bitset.full_mask(n)
    bound = 3**n + full * (full + 1) // 2
    kept = []
    total = 0
    for fault in faults:
        patterns = list(_pair_patterns(*fault, n))
        total += sum(math.prod(map(len, options)) for _, _, options in patterns)
        if total > bound:
            return False
        kept += patterns
    nested, crossing = set(), set()
    for kind, base, options in kept:
        for pairs in _expand(base, options):
            if kind == "monotonicity":
                nested.update(
                    (x >> n, -(x & full)) for x in pairs if ranks[x & full] > ranks[x >> n]
                )
                continue
            for x in pairs:
                a, b = x & full, x >> n
                if ranks[a] + ranks[b] < ranks[a | b] + ranks[a & b]:
                    crossing.add((a, b) if a < b else (b, a))
    for b, neg_a in sorted(nested):
        report.violations.append(_monotonicity(ranks, -neg_a, b))
    for a, b in sorted(crossing):
        report.violations.append(_submodularity(ranks, a, b))
    return True


def _expand(base: int, options: list, chunk: int = 1 << 12):
    """base plus one addend from every options tuple, in lists of at most
    chunk sums, so a pattern of 3^(n-2) pairs never sits in memory whole."""
    head = [base]
    k = 0
    while k < len(options) and len(head) * len(options[k]) <= chunk:
        head = [x + o for x in head for o in options[k]]
        k += 1
    for rest in itertools.product(*options[k:]):
        offset = sum(rest)
        yield [x + offset for x in head]


def _monotonicity(ranks, a: int, b: int) -> Violation:
    return Violation("monotonicity", (a, b), f"{ranks[a]} > {ranks[b]}")


def _submodularity(ranks, a: int, b: int) -> Violation:
    return Violation(
        "submodularity",
        (a, b),
        f"{ranks[a]} + {ranks[b]} < {ranks[a | b]} + {ranks[a & b]}",
    )


def _pairwise_scan(p: Polymatroid, report: ValidationReport) -> None:
    """Monotonicity on all nested pairs, submodularity on all pairs: the
    fallback of validate on tables with many faults, and its test oracle."""
    ranks = p.ranks
    size = len(ranks)
    for b in range(size):
        rb = ranks[b]
        for a in bitset.submasks(b):
            if a != b and ranks[a] > rb:
                report.violations.append(_monotonicity(ranks, a, b))
    for a in range(size):
        ra = ranks[a]
        for b in range(a + 1, size):
            if ra + ranks[b] < ranks[a | b] + ranks[a & b]:
                report.violations.append(_submodularity(ranks, a, b))


def _check_matroid_bases(p: Polymatroid, report: ValidationReport) -> None:
    """Equal basis sizes.  For an equal-size family F, rho(A) = max |A & B|
    over F never grows by more than one per element, so if it is also
    submodular it is a matroid rank function; its independent sets are the
    subsets of members of F, its bases are exactly F, and exchange cannot
    fail.  A family that fails exchange therefore already fails the
    submodularity check."""
    sizes = {bitset.card(b) for b in p.rep.bases}
    if len(sizes) > 1:
        first = min(p.rep.bases)
        other = min(b for b in p.rep.bases if bitset.card(b) != bitset.card(first))
        report.violations.append(
            Violation(
                "basis-cardinality",
                (first, other),
                f"bases of unequal sizes {sorted(sizes)}",
            )
        )


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
    ranks = p.ranks
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


def maximal_points(points: Sequence[tuple]) -> list:
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
            if any(check_int(x, "facet coordinate") < 0 for x in f):
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
                    Violation("generator-set", (), "zero vector missing")
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
                    Violation("antichain", (), f"facets {a} and {b} are comparable")
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
