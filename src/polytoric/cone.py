"""Convex-cone path: facets of the cone over the degree-one generators.

Every vector v of a multicomplex or polymatroid gives a generator
(v, 1) in Z^(n+1).  The facets of the nonnegative span of these points are
found by the double description method over exact integers, run on the
points that are not midpoints of two others, and each facet is returned
as its normalized support form: the tuple of coprime integer coefficients
of the linear form that vanishes on the facet and is nonnegative on the
cone, the last one on the degree coordinate.  The rank path names the same
forms by their coefficient tuples (divisors.support_form_key), so the two
paths compare forms as plain tuples.  Forms with a positive degree
coefficient correspond to the height-one primes over the degree element;
the rest must be the n coordinate forms.
The class group, canonical class, and a bounded-degree normality witness
all come out of this data, independently of the rank-function path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, groupby, islice, repeat
from operator import add, itemgetter, mul, sub
from typing import Optional, Sequence, Union

from .divisors import DivisorClass, DivisorPresentation
from .errors import InvariantViolationError, ResourceLimitError, UsageError
from .polymatroid import (
    DEFAULT_POINT_CAP,
    Multicomplex,
    Polymatroid,
    lattice_points,
)


@dataclass(frozen=True)
class SemigroupGenerators:
    """The points (v, 1) in Z^(n+1), one per vector of the input; they must
    include the zero vector and every unit vector."""

    n: int
    points: tuple

    def __post_init__(self):
        n = self.n
        present = set(self.points)
        if (0,) * n + (1,) not in present:
            raise UsageError("generator set must contain the zero vector")
        for i in range(n):
            if tuple(1 if j in (i, n) else 0 for j in range(n + 1)) not in present:
                raise UsageError(f"generator set must contain the unit vector e_{i + 1}")

    def vectors(self) -> tuple:
        """The degree-one part: the v with (v, 1) a generator."""
        return tuple(p[:-1] for p in self.points)


ConeInput = Union[Multicomplex, Polymatroid]


def semigroup_generators(
    source: ConeInput, point_cap: int = DEFAULT_POINT_CAP
) -> SemigroupGenerators:
    """Degree-one generator points of the affine semigroup of the input."""
    if isinstance(source, Polymatroid):
        vecs = lattice_points(source, point_cap)
        n = source.n
    elif isinstance(source, Multicomplex):
        vecs = source.points(point_cap)
        n = source.n
    else:
        raise UsageError(f"cannot build semigroup generators from {type(source).__name__}")
    return SemigroupGenerators(n=n, points=tuple(tuple(v) + (1,) for v in vecs))


def _normalize_ray(ray: Sequence[int]) -> tuple:
    g = math.gcd(*ray)
    if g == 0:
        raise InvariantViolationError("zero ray produced during facet enumeration")
    return tuple(c // g for c in ray)


def _place_values(radices: Sequence[int]) -> list:
    """Place values of a mixed-radix number, least significant digit first:
    digit i is worth radices[0] * ... * radices[i - 1]."""
    weights = []
    weight = 1
    for radix in radices:
        weights.append(weight)
        weight *= radix
    return weights


def _drop_midpoints(points: Sequence[tuple]) -> list:
    """The points, without each p that is the midpoint of p + d and p - d,
    both in the set, for some d in {e_i} or {e_i - e_j}.

    A midpoint is never a vertex of the convex hull, so dropping every such
    point at once leaves the hull, and the cone over it, unchanged.  The
    test reads the point set only.  Points are packed into ints with radix
    max_i + 1 on coordinate i; a lookup is made only when every coordinate
    that d moves lies strictly between 0 and its max, so p + d and p - d
    never borrow from another coordinate.
    """
    n = len(points[0]) - 1
    tops = [max(column) for column in islice(zip(*points), n)]
    weights = _place_values([top + 1 for top in tops])
    packed = [sum(map(mul, p, weights)) for p in points]
    present = set(packed)
    kept = []
    for p, key in zip(points, packed):
        inner = [w for x, top, w in zip(p, tops, weights) if 0 < x < top]
        if any(key + w in present and key - w in present for w in inner):
            continue
        if any(
            key + a - b in present and key - a + b in present
            for a, b in combinations(inner, 2)
        ):
            continue
        kept.append(p)
    return kept


def _double_description(n: int, points: Sequence[tuple]) -> list:
    """The extreme rays of {c : <c, p> >= 0 for all points p}, where the
    points, each of length n + 1, include the simplex (0, 1), (e_i, 1).

    Double description (Fukuda & Prodon 1996), constraints in lex order.
    The run is seeded with the simplex points, whose polar cone is
    simplicial with known rays, and the remaining points are added one at
    a time.  All arithmetic is exact; adjacency of rays is decided by the
    standard zero-set inclusion test, valid here because every
    intermediate cone is pointed.

    Each ray carries its zero set: the bitmask of processed points it
    vanishes on.  A new ray r = v_ip * r_im + |v_im| * r_ip, built from a
    ray positive and a ray negative on the new constraint, gets the zero
    set meet | {new constraint} without evaluating it on any point.  That
    is exact for every such pair, adjacent or not: on a processed point p
    both <r_im, p> and <r_ip, p> are >= 0, so <r, p> is 0 exactly when
    both are.
    """
    dim = n + 1
    seed = [tuple(0 if j != n else 1 for j in range(dim))]
    seed += [
        tuple(1 if j in (i, n) else 0 for j in range(dim)) for i in range(n)
    ]
    rest = sorted(set(points) - set(seed))

    # Polar cone of the seed simplex: e_1, ..., e_n and (-1, ..., -1, 1).
    rays = [tuple(1 if j == i else 0 for j in range(dim)) for i in range(n)]
    rays.append(tuple(-1 if j != n else 1 for j in range(dim)))

    zero_sets = [
        sum(1 << k for k, p in enumerate(seed) if sum(map(mul, r, p)) == 0)
        for r in rays
    ]

    for idx, constraint in enumerate(rest, start=len(seed)):
        values = [sum(map(mul, r, constraint)) for r in rays]
        plus = [i for i, v in enumerate(values) if v > 0]
        zero = [i for i, v in enumerate(values) if v == 0]
        minus = [i for i, v in enumerate(values) if v < 0]
        new_rays, new_zero_sets = [], []
        for ip in plus:
            for im in minus:
                meet = zero_sets[ip] & zero_sets[im]
                if meet.bit_count() < dim - 2:
                    continue
                adjacent = True
                for k, z in enumerate(zero_sets):
                    if k != ip and k != im and meet & ~z == 0:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                combo = tuple(
                    values[ip] * rays[im][j] - values[im] * rays[ip][j]
                    for j in range(dim)
                )
                new_rays.append(_normalize_ray(combo))
                new_zero_sets.append(meet | (1 << idx))
        # No ray repeats: each new ray lies in the relative interior of the
        # 2-face of its adjacent pair, and distinct faces have disjoint
        # relative interiors that hold no extreme ray.
        rays = [rays[i] for i in plus + zero] + new_rays
        zero_sets = (
            [zero_sets[i] for i in plus]
            + [zero_sets[i] | (1 << idx) for i in zero]
            + new_zero_sets
        )

    return rays


def cone_facets(gens: SemigroupGenerators) -> list:
    """All facet support forms of the cone spanned by the generators, as
    coefficient tuples in lex order.

    The support forms are exactly the extreme rays of the polar cone
    {c : <c, p> >= 0 for all generators p}, found by `_double_description`.
    Only the vertices of the polytope spanned by the generators matter, so
    the double description runs on the generators left by
    `_drop_midpoints`, plus the seed simplex.

    The closing soundness check keeps every generator, the dropped ones
    included, so a fault in the prune cannot pass unnoticed: each form is
    evaluated column by column, one pass over a coordinate of all
    generators per nonzero coefficient, and a form negative on some
    generator raises InvariantViolationError naming the first one.
    """
    points = gens.points
    rays = _double_description(gens.n, _drop_midpoints(points))
    columns = list(zip(*points))
    for ray in rays:
        values = repeat(0, len(points))
        for c, column in zip(ray, columns):
            # most coefficients are +-1: add or subtract the column as is
            if c == 1:
                values = map(add, values, column)
            elif c == -1:
                values = map(sub, values, column)
            elif c:
                values = map(add, values, map(c.__mul__, column))
        if min(values) < 0:
            p = next(p for p in points if sum(map(mul, ray, p)) < 0)
            raise InvariantViolationError(
                f"support form {ray} is negative on generator {p}"
            )
    return sorted(rays)


def minimal_primes_of_t(forms: Sequence[tuple]) -> list:
    """The forms whose facets carry the primes containing the degree element
    (positive degree coefficient).  The remaining forms must be exactly the
    n coordinate forms; anything else violates the facet classification."""
    if not forms:
        raise UsageError("need a complete list of support forms")
    dim = len(forms[0])
    n = dim - 1
    t_forms = [f for f in forms if f[-1] > 0]
    others = {f for f in forms if f[-1] <= 0}
    expected = {
        tuple(1 if j == i else 0 for j in range(dim)) for i in range(n)
    }
    if others != expected:
        raise InvariantViolationError(
            "degree-zero facet forms are not exactly the coordinate forms: "
            f"got {sorted(others)}"
        )
    return t_forms


def class_group_from_cone(forms: Sequence[tuple]) -> DivisorPresentation:
    """Presentation on the degree-carrying facets; relation = degree
    coefficients (the valuations of the degree element)."""
    return DivisorPresentation(tuple(minimal_primes_of_t(forms)))


def canonical_from_cone(presentation: DivisorPresentation) -> DivisorClass:
    """Canonical class coordinates 1 - c_1 - ... - c_n on each generator of
    a presentation on facet-form keys, as class_group_from_cone returns.

    The ring is Gorenstein exactly when some u in Z^(n+1) has f(u) = 1 on
    every facet form f (Bruns & Gubeladze 2009, ch. 6).  The coordinate
    forms force u = (1, ..., 1, a), and on a degree-carrying form with
    coefficients (c_1, ..., c_n, c_deg), f(u) = 1 reads
    a * c_deg = 1 - c_1 - ... - c_n.  So `relation_multiple` of this class
    is that interior-point test on the cone's own forms, and returns a.
    """
    coords = tuple(1 - sum(k[:-1]) for k in presentation.keys)
    return DivisorClass(coords=coords, presentation=presentation)


def principal_class(u: Sequence[int], presentation: DivisorPresentation) -> DivisorClass:
    """Class of the principal divisor of the monomial u, expressed on the
    degree-carrying generators by eliminating each coordinate generator
    [Q_i] = -sum_j c_{i,j} [P_j].  The coordinate terms cancel exactly, so
    the class is u[-1] times the relation, zero in any one-relation
    presentation.  Checks of this class therefore test only that identity
    until the cone path presents its group by its own Smith normal form."""
    n = len(presentation.keys[0]) - 1
    if len(u) != n + 1:
        raise UsageError(f"exponent vector has length {len(u)}, expected {n + 1}")
    coords = tuple(u[-1] * r for r in presentation.relation)
    return DivisorClass(coords=coords, presentation=presentation)


# ---------------------------------------------------------------------------
# bounded-degree normality witness


@dataclass(frozen=True)
class NormalityWitness:
    max_degree: int
    violation: Optional[tuple]  # offending point (w, k), or None

    @property
    def ok(self) -> bool:
        return self.violation is None

    def __str__(self):
        if self.ok:
            return f"no violation up to degree {self.max_degree}"
        return f"degree-{self.violation[-1]} cone point {self.violation} is not a sum of generators"


def normality_witness(
    gens: SemigroupGenerators,
    forms: Sequence[tuple],
    degree_bound: int,
    point_cap: int = DEFAULT_POINT_CAP,
) -> NormalityWitness:
    """Check that every cone lattice point of degree k <= degree_bound is a
    sum of k degree-one generators; reports the first failure.

    `forms` are the facet forms of the cone over `gens`, each of length
    n + 1.  A pass up to degree max(1, n - 1) certifies normality.  The
    generators contain 0 and every e_i, so their hull P is full-dimensional
    and normality is the integer decomposition property of P; and
    cP + P = (c + 1)P on lattice points for every c >= n - 1 (Bruns,
    Gubeladze & Trung, J. reine angew. Math. 485, 1997).  A pass at a
    lower bound is a witness up to that degree only.

    The cone points (w, k) of degree k are walked in lex order of w over
    the box 0 <= w_i <= coord_max[i] * k.  With the coordinates before i
    fixed, form f can still reach a nonnegative value only if
    partial_f + c_f[i] * w_i + room_f >= 0, where room_f is the most the
    coordinates after i can add to it.  That is linear in w_i, so the
    values of w_i that keep every form reachable are one interval, found
    in closed form: a positive c_f raises its lower end, a negative one
    lowers its upper end, and a zero one empties it when
    partial_f + room_f < 0.  At the last coordinate every value of the
    interval is a cone point, whose packed int is the packed prefix plus
    w_(n-1) times its weight.

    The walk stops at the first failure, so at degree k every cone point of
    degree k - 1 is a sum of generators, and (w, k) is one exactly when
    w - v lies in C_(k-1), the points walked at degree k - 1 (C_0 = {0}),
    for some generator v.  Points are packed into ints with an offset of
    coord_max[i] and radix coord_max[i] * (degree_bound + 1) + 1 on
    coordinate i, so packing w - v never borrows.  The last v that worked
    is tried first, then a search of the generators by coordinate, pruned
    to w_i - coord_max[i] * (k - 1) <= v_i <= w_i.

    point_cap bounds the cone points walked over all degrees; C_(k-1) and
    C_k hold walked points only.
    """
    n = gens.n
    if degree_bound < 1:
        raise UsageError(f"degree bound must be >= 1, got {degree_bound}")
    if not forms:
        raise UsageError("need a complete list of support forms")
    for c in forms:
        if len(c) != n + 1:
            raise UsageError(f"support form has length {len(c)}, expected {n + 1}")
    vectors = sorted(set(gens.vectors()), reverse=True)
    coord_max = [max(v[i] for v in vectors) for i in range(n)]
    weights = _place_values([c * (degree_bound + 1) + 1 for c in coord_max])

    def pack(v: Sequence[int]) -> int:
        return sum(a * b for a, b in zip(v, weights))

    def branch(vs: list, pos: int):
        """The generators vs, which agree before pos, as (v_pos, branch)
        pairs, largest v_pos first; past the last coordinate, v packed."""
        if pos == n:
            return pack(vs[0])
        return [(x, branch(list(g), pos + 1)) for x, g in groupby(vs, itemgetter(pos))]

    tree = branch(vectors, 0)
    columns = [[c[i] for c in forms] for i in range(n)]
    last = n - 1

    count = 0  # cone points walked, over all degrees
    over_cap = f"cone point enumeration exceeds cap of {point_cap}"
    hit = pack(vectors[0])  # the last generator that worked

    def first_hole(k: int, below: set, here: Optional[set]) -> Optional[tuple]:
        """The first w, in lex order, with (w, k) in the cone and no w - v
        in `below`, or None; adds each point walked to `here` if a set."""
        bounds = [c * k for c in coord_max]
        # headroom[pos][f]: max of sum(c_f[i] * w_i, i > pos) over the box
        headroom = [None] * n
        acc = [0] * len(forms)
        for pos in range(last, -1, -1):
            headroom[pos] = acc
            acc = [r + max(c, 0) * bounds[pos] for r, c in zip(acc, columns[pos])]
        w = [0] * n

        def decompose(node, pos: int, q: int) -> Optional[int]:
            """A packed generator v in the branch with q - v in `below`, or
            None; only v_i in [w_i - coord_max[i] * (k - 1), w_i] can work."""
            if pos == n:
                return node if q - node in below else None
            for x, child in node:
                if x <= w[pos]:
                    if x < w[pos] - coord_max[pos] * (k - 1):
                        return None
                    v = decompose(child, pos + 1, q)
                    if v is not None:
                        return v
            return None

        def walk(pos: int, partial: list, base: int) -> Optional[tuple]:
            nonlocal count, hit
            lo, hi = 0, bounds[pos]
            col = columns[pos]
            for p, r, c in zip(partial, headroom[pos], col):
                if c > 0:
                    lo = max(lo, -((p + r) // c))
                elif c < 0:
                    hi = min(hi, (p + r) // -c)
                elif p + r < 0:
                    return None
            step = weights[pos]
            if pos == last:
                leaves = range(base + lo * step, base + hi * step + 1, step)
                for q in leaves:
                    count += 1
                    if count > point_cap:
                        raise ResourceLimitError(over_cap)
                    if q - hit not in below:
                        w[pos] = (q - base) // step
                        hit = decompose(tree, 0, q)
                        if hit is None:
                            return tuple(w)
                if here is not None:
                    here.update(leaves)
                return None
            for val in range(lo, hi + 1):
                w[pos] = val
                hole = walk(
                    pos + 1,
                    [p + c * val for p, c in zip(partial, col)],
                    base + val * step,
                )
                if hole is not None:
                    return hole
            return None

        return walk(0, [c[n] * k for c in forms], pack(coord_max))

    below = {pack(coord_max)}  # C_0, the origin
    for k in range(1, degree_bound + 1):
        here = set() if k < degree_bound else None
        hole = first_hole(k, below, here)
        if hole is not None:
            return NormalityWitness(max_degree=degree_bound, violation=hole + (k,))
        below = here
    return NormalityWitness(max_degree=degree_bound, violation=None)
