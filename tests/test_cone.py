import ast
import itertools
import math
import operator
import random
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import given, settings

from polytoric import (
    Analysis,
    InvariantViolationError,
    Multicomplex,
    NormalityWitness,
    Polymatroid,
    ResourceLimitError,
    SemigroupGenerators,
    UsageError,
    canonical_from_cone,
    class_group_from_cone,
    cone_facets,
    minimal_primes_of_t,
    normality_witness,
    principal_class,
    relation_multiple,
    semigroup_generators,
)
from polytoric import cone
from polytoric.abelian import GroupInvariants
from polytoric.polymatroid import dominates
from polytoric.sampling import random_rank_table

from tests.strategies import rank_tables


def exact_rank(rows):
    """Row rank over Q, by fraction-free Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def smith_diagonal(rows):
    """Elementary divisors of an integer matrix (test-local, small inputs)."""
    m = [list(r) for r in rows]
    diag = []
    while m and any(any(x for x in row) for row in m):
        # move a smallest nonzero entry to the corner
        best = min(
            ((i, j) for i, row in enumerate(m) for j, x in enumerate(row) if x),
            key=lambda ij: abs(m[ij[0]][ij[1]]),
        )
        i, j = best
        m[0], m[i] = m[i], m[0]
        for row in m:
            row[0], row[j] = row[j], row[0]
        if m[0][0] < 0:
            m[0] = [-x for x in m[0]]
        reduced = False
        for r in range(1, len(m)):
            q = m[r][0] // m[0][0]
            if q:
                m[r] = [a - q * b for a, b in zip(m[r], m[0])]
            if m[r][0]:
                reduced = True
        for c in range(1, len(m[0])):
            q = m[0][c] // m[0][0]
            if q:
                for row in m:
                    row[c] -= q * row[0]
            if m[0][c]:
                reduced = True
        if reduced:
            continue
        diag.append(m[0][0])
        m = [row[1:] for row in m[1:]]
    return diag


def forms_of(p):
    return cone_facets(semigroup_generators(p))


def test_generators_of_unit_square():
    m = Multicomplex(n=2, facets=((1, 1),))
    gens = semigroup_generators(m)
    assert set(gens.points) == {(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)}


@pytest.mark.parametrize(
    "points, message",
    [
        (((1, 0, 1), (0, 1, 1)), "generator set must contain the zero vector"),
        (((0, 0, 1), (1, 0, 1), (2, 0, 1)), "generator set must contain the unit vector e_2"),
    ],
    ids=["no-zero", "no-e2"],
)
def test_generators_need_zero_and_unit_vectors(points, message):
    with pytest.raises(UsageError, match=f"^{message}$"):
        SemigroupGenerators(n=2, points=points)


def test_generators_of_simplex():
    gens = semigroup_generators(Polymatroid.veronese((1, 1), 1))
    assert set(gens.points) == {(0, 0, 1), (1, 0, 1), (0, 1, 1)}


def test_generator_count_veronese():
    gens = semigroup_generators(Polymatroid.veronese((1, 1, 1), 2))
    assert len(gens.points) == 7


def test_simplex_facets():
    forms = forms_of(Polymatroid.veronese((1, 1), 1))
    assert set(forms) == {(1, 0, 0), (0, 1, 0), (-1, -1, 1)}


def test_unit_box_facets():
    forms = forms_of(Polymatroid.box((1, 1)))
    assert set(forms) == {(1, 0, 0), (0, 1, 0), (-1, 0, 1), (0, -1, 1)}


def test_veronese_facets():
    forms = forms_of(Polymatroid.veronese((1, 1, 1), 2))
    expected = {tuple(1 if j == i else 0 for j in range(4)) for i in range(3)}
    expected |= {
        tuple((-1 if j == i else 0) for j in range(3)) + (1,) for i in range(3)
    }
    expected.add((-1, -1, -1, 2))
    assert set(forms) == expected


def test_forms_sorted_and_deterministic():
    p = Polymatroid.box((2, 1))
    forms_a = forms_of(p)
    forms_b = forms_of(p)
    assert forms_a == forms_b
    assert forms_a == sorted(forms_a)


def test_facet_dump_lines():
    lines = [" ".join(map(str, f)) for f in forms_of(Polymatroid.box((1, 1)))]
    assert lines == ["-1 0 1", "0 -1 1", "0 1 0", "1 0 0"]


@settings(max_examples=25, deadline=None)
@given(rank_tables(max_n=4))
def test_facet_soundness(table_n):
    """Every reported form is primitive, nonnegative on the generators, and
    tight on a full facet worth of them (rank n among the tight set)."""
    table, n = table_n
    p = Polymatroid.from_rank_table(n, table)
    gens = semigroup_generators(p)
    for f in forms_of(p):
        values = [sum(map(operator.mul, f, g)) for g in gens.points]
        assert all(v >= 0 for v in values)
        assert math.gcd(*f) == 1
        tight = [g for g, v in zip(gens.points, values) if v == 0]
        assert exact_rank(tight) == n


def det(rows):
    """Determinant by cofactor expansion (test-local, tiny matrices)."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * x * det([row[:j] + row[j + 1 :] for row in rows[1:]])
        for j, x in enumerate(rows[0])
        if x
    )


def brute_force_facets(points):
    """Primitive normals of the hyperplanes spanned by n of the generators,
    oriented nonnegative, kept when no generator is negative on them."""
    dim = len(points[0])
    found = set()
    for rows in itertools.combinations([list(p) for p in points], dim - 1):
        normal = [
            (-1) ** j * det([row[:j] + row[j + 1 :] for row in rows])
            for j in range(dim)
        ]
        g = math.gcd(*normal)
        if g == 0:
            continue  # the rows span less than a hyperplane
        normal = [c // g for c in normal]
        values = [sum(c * x for c, x in zip(normal, p)) for p in points]
        if min(values) >= 0:
            found.add(tuple(normal))
        elif max(values) <= 0:
            found.add(tuple(-c for c in normal))
    return found


def small_cone_inputs(rng):
    for _ in range(25):
        n = rng.randint(1, 3)
        yield Polymatroid.from_rank_table(n, random_rank_table(n, rng, rng.randint(1, 2)))
    for _ in range(10):
        n = rng.randint(1, 3)
        units = {tuple(1 if j == i else 0 for j in range(n)) for i in range(n)}
        tops = units | {tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(3)}
        facets = [f for f in tops if not any(g != f and dominates(g, f) for g in tops)]
        yield Multicomplex(n=n, facets=tuple(sorted(facets)))
    for _ in range(15):
        n = rng.randint(1, 3)
        pts = {(0,) * n} | {tuple(1 if j == i else 0 for j in range(n)) for i in range(n)}
        pts |= {tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 4))}
        yield Multicomplex(n=n, facets=tuple(sorted(pts)), generalized=True)


def test_facets_match_brute_force_oracle():
    shapes = set()
    for x in small_cone_inputs(random.Random(4242)):
        gens = semigroup_generators(x)
        assert set(cone_facets(gens)) == brute_force_facets(gens.points), x
        shapes.add((type(x).__name__, getattr(x, "generalized", False)))
    assert len(shapes) == 3


def seed_simplex(n):
    return {(0,) * n + (1,)} | {
        tuple(1 if j in (i, n) else 0 for j in range(n + 1)) for i in range(n)
    }


def interior_cone_inputs(rng):
    """Boxes, Veronese caps and generalized point sets, n <= 4, each with a
    point that is a midpoint of two others and not in the seed simplex."""
    for _ in range(6):
        n = rng.randint(1, 3)
        v = [rng.randint(1, 2) for _ in range(n)]
        v[rng.randrange(n)] = 3
        yield Polymatroid.box(v)
    for s, d in [((2, 2), 3), ((1, 2, 3), 4), ((2, 2, 2), 3), ((1, 1, 2, 2), 2)]:
        yield Polymatroid.veronese(s, d)
    for _ in range(8):
        n = rng.randint(2, 4)
        units = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        i, j = rng.sample(range(n), 2)
        step = [0] * n
        step[i] += 1
        if rng.random() < 0.5:
            step[j] -= 1
        mid = [rng.randint(1, 2) for _ in range(n)]
        pts = {(0,) * n, *units, tuple(mid)}
        pts |= {tuple(m + sign * x for m, x in zip(mid, step)) for sign in (1, -1)}
        pts |= {tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(2)}
        yield Multicomplex(n=n, facets=tuple(sorted(pts)), generalized=True)


def dropped_points(gens):
    """The generators that the prune drops, outside the seed simplex."""
    kept = set(cone._drop_midpoints(gens.points))
    return set(gens.points) - kept - seed_simplex(gens.n)


def test_facets_match_brute_force_oracle_on_inputs_with_midpoints():
    for x in interior_cone_inputs(random.Random(2718)):
        gens = semigroup_generators(x)
        assert dropped_points(gens), x
        assert set(cone_facets(gens)) == brute_force_facets(gens.points), x


def midpoint_cone_inputs(rng):
    for _ in range(12):
        n = rng.randint(4, 5)
        yield Polymatroid.from_rank_table(n, random_rank_table(n, rng, 2))
    yield from small_cone_inputs(rng)
    yield from interior_cone_inputs(rng)


def test_pruned_facets_match_the_unpruned_double_description():
    drops = 0
    for x in midpoint_cone_inputs(random.Random(1996)):
        gens = semigroup_generators(x)
        rays = cone._double_description(gens.n, gens.points)
        assert len(set(rays)) == len(rays), x
        assert cone_facets(gens) == sorted(rays), x
        drops += len(dropped_points(gens))
    assert drops >= 100


def test_every_dropped_point_is_a_midpoint():
    dropped = 0
    for x in midpoint_cone_inputs(random.Random(1996)):
        gens = semigroup_generators(x)
        n = gens.n
        present = set(gens.points)
        units = [tuple(1 if j == i else 0 for j in range(n + 1)) for i in range(n)]
        moves = units + [
            tuple(a - b for a, b in zip(u, w)) for u, w in itertools.permutations(units, 2)
        ]
        kept = cone._drop_midpoints(gens.points)
        assert set(kept) <= present and len(set(kept)) == len(kept)
        for p in present - set(kept):
            assert any(
                tuple(a + b for a, b in zip(p, d)) in present
                and tuple(a - b for a, b in zip(p, d)) in present
                for d in moves
            ), (x, p)
            dropped += 1
    assert dropped >= 100


def test_a_vertex_dropped_by_the_prune_is_caught(monkeypatch):
    # the full check still sees the generators that the prune dropped
    seen = []
    drop_midpoints = cone._drop_midpoints

    def drop_a_vertex(points):
        kept = [p for p in drop_midpoints(points) if p != (2, 2, 1)]
        seen.extend(kept)
        return kept

    monkeypatch.setattr(cone, "_drop_midpoints", drop_a_vertex)
    gens = semigroup_generators(Polymatroid.box((2, 2)))
    with pytest.raises(InvariantViolationError, match="is negative on generator") as err:
        cone_facets(gens)
    named = ast.literal_eval(str(err.value).rsplit("generator ", 1)[1])
    assert named in gens.points
    assert named not in set(seen) | seed_simplex(2)


def test_negative_support_form_raises(monkeypatch):
    # negating each new ray breaks the polar cone; the final check must see it
    monkeypatch.setattr(cone, "_normalize_ray", lambda ray: tuple(-c for c in ray))
    with pytest.raises(InvariantViolationError, match="is negative on generator"):
        forms_of(Polymatroid.box((1, 1)))


def test_lattice_fullness():
    for p in [
        Polymatroid.box((2, 1)),
        Polymatroid.veronese((1, 1, 1), 2),
        Polymatroid.veronese((2, 2, 2), 2),
    ]:
        gens = semigroup_generators(p)
        assert smith_diagonal(list(gens.points)) == [1] * (p.n + 1)


def test_exactly_n_degree_zero_forms():
    for p in [Polymatroid.box((2, 3)), Polymatroid.veronese((1, 2), 2)]:
        forms = forms_of(p)
        degree_zero = [f for f in forms if f[-1] <= 0]
        assert len(degree_zero) == p.n
        assert set(degree_zero) == {
            tuple(1 if j == i else 0 for j in range(p.n + 1)) for i in range(p.n)
        }


def test_minimal_primes_selection():
    forms = forms_of(Polymatroid.veronese((1, 1), 1))
    t_forms = minimal_primes_of_t(forms)
    assert t_forms == [(-1, -1, 1)]


def test_minimal_primes_rejects_rogue_degree_zero_form():
    rogue = [
        (1, 0, 0),
        (1, -1, 0),  # degree-zero but not a coordinate form
        (-1, -1, 1),
    ]
    with pytest.raises(InvariantViolationError):
        minimal_primes_of_t(rogue)


def test_class_group_from_cone_degree_bounded():
    for n, d in [(2, 3), (3, 2), (4, 5)]:
        forms = forms_of(Polymatroid.veronese((d,) * n, d))
        assert class_group_from_cone(forms).invariants == GroupInvariants(0, d)


def test_class_group_from_cone_unit_square():
    forms = cone_facets(semigroup_generators(Multicomplex(n=2, facets=((1, 1),))))
    pres = class_group_from_cone(forms)
    assert pres.relation == (1, 1)
    assert pres.invariants == GroupInvariants(1, 1)


def test_canonical_from_cone_polynomial_ring():
    forms = forms_of(Polymatroid.veronese((1, 1), 1))
    pres = class_group_from_cone(forms)
    canon = canonical_from_cone(pres)
    assert canon.coords == (3,)
    assert relation_multiple(canon) == 3  # relation (1): Gorenstein, a = 3


def test_canonical_from_cone_matches_size_formula():
    p = Polymatroid.veronese((1, 1, 1), 2)
    forms = forms_of(p)
    pres = class_group_from_cone(forms)
    canon = canonical_from_cone(pres)
    for key, w in zip(pres.keys, canon.coords):
        members = sum(1 for c in key[:-1] if c == -1)
        assert w == members + 1


@settings(max_examples=20, deadline=None)
@given(rank_tables(max_n=3))
def test_principal_classes_vanish(table_n):
    table, n = table_n
    p = Polymatroid.from_rank_table(n, table)
    forms = forms_of(p)
    pres = class_group_from_cone(forms)
    for u in itertools.product((-1, 0, 1), repeat=n + 1):
        cls = principal_class(u, pres)
        assert relation_multiple(cls) is not None


@settings(max_examples=20, deadline=None)
@given(rank_tables(max_n=3))
def test_paths_agree_on_random_tables(table_n):
    table, n = table_n
    p = Polymatroid.from_rank_table(n, table)
    assert Analysis(p).agreement.ok


# -- normality witness ---------------------------------------------------------


def test_witness_passes_on_polymatroids():
    for p in [
        Polymatroid.box((2, 2)),
        Polymatroid.veronese((1, 2), 3),
        Polymatroid.veronese((2, 2, 2), 2),
    ]:
        assert Analysis(p).witness().ok
        assert Analysis(p).witness(1).ok


def test_witness_default_degree_is_cached_once():
    a = Analysis(Polymatroid.box((1, 2)))
    assert a.witness() is a.witness(a.source.n)


def test_witness_catches_hole_in_pair_of_spikes():
    m = Multicomplex(n=2, facets=((2, 0), (0, 2)))
    w = Analysis(m).witness(2)
    assert not w.ok
    assert w.violation == (1, 1, 1)


def test_witness_catches_generalized_hole():
    m = Multicomplex(
        n=2, facets=((0, 0), (1, 0), (0, 1), (2, 2)), generalized=True
    )
    w = Analysis(m).witness(1)
    assert not w.ok
    assert w.violation == (1, 1, 1)


def test_witness_hole_invisible_at_degree_one():
    # every degree-1 cone point is a generator here, but (1,1,1) at degree 2
    # is not a sum of two generators (found by brute search over small sets)
    m = Multicomplex(
        n=3,
        facets=((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 2)),
        generalized=True,
    )
    assert Analysis(m).witness(1).ok
    w = Analysis(m).witness(3)
    assert not w.ok
    assert w.violation == (1, 1, 1, 2)


def test_witness_rejects_bad_bound():
    with pytest.raises(UsageError):
        Analysis(Polymatroid.box((1, 1))).witness(0)


def test_witness_rejects_forms_of_the_wrong_length():
    gens = semigroup_generators(Polymatroid.box((1, 1)))
    forms = cone_facets(gens)
    with pytest.raises(UsageError, match="need a complete list of support forms"):
        normality_witness(gens, [], 2)
    for bad in ((1, 0), (1, 0, 0, 0)):
        with pytest.raises(UsageError, match=f"has length {len(bad)}, expected 3"):
            normality_witness(gens, forms + [bad], 2)


def witness_by_recursion(gens, forms, degree_bound):
    """The normality witness by a (w, k) memo recursion over the generators,
    on the box points of each degree that no facet form is negative on."""
    n = gens.n
    vectors = sorted(set(gens.vectors()), key=lambda v: (-sum(v), v))
    vector_set = set(vectors)
    coord_max = [max(v[i] for v in vectors) for i in range(n)]
    memo = {}

    def decomposable(w, k):
        if k == 0:
            return all(x == 0 for x in w)
        if k == 1:
            return w in vector_set
        cached = memo.get((w, k))
        if cached is not None:
            return cached
        result = False
        for v in vectors:
            if all(a >= b for a, b in zip(w, v)):
                if decomposable(tuple(a - b for a, b in zip(w, v)), k - 1):
                    result = True
                    break
        memo[(w, k)] = result
        return result

    for k in range(1, degree_bound + 1):
        for w in itertools.product(*(range(c * k + 1) for c in coord_max)):
            point = w + (k,)
            if all(sum(map(operator.mul, f, point)) >= 0 for f in forms) and not decomposable(w, k):
                return NormalityWitness(max_degree=degree_bound, violation=point)
    return NormalityWitness(max_degree=degree_bound, violation=None)


def test_witness_matches_recursion_oracle():
    holes = [
        Multicomplex(n=2, facets=((2, 0), (0, 2))),
        Multicomplex(n=2, facets=((0, 0), (1, 0), (0, 1), (2, 2)), generalized=True),
        Multicomplex(
            n=3,
            facets=((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 2)),
            generalized=True,
        ),
    ]
    violations = 0
    for x in holes + list(small_cone_inputs(random.Random(777))):
        gens = semigroup_generators(x)
        forms = cone_facets(gens)
        for degree in range(1, 5):
            expected = witness_by_recursion(gens, forms, degree)
            assert normality_witness(gens, forms, degree) == expected, (x, degree)
            violations += not expected.ok
    assert violations >= 10


def witness_by_scan(gens, forms, degree_bound, point_cap):
    """The normality witness as a lex depth-first generator over cone points
    that prunes a prefix when some form cannot reach 0 with the most
    optimistic choice of the remaining coordinates, testing each point's
    packed int against the sumset S_k.  Kept as the oracle of the interval
    walk in `normality_witness`: same points, same order, same cap, which
    counts the points scanned.  The sumset is the independent test of
    decomposability; it is not counted."""
    n = gens.n
    if degree_bound is None:
        degree_bound = n
    if degree_bound < 1:
        raise UsageError(f"degree bound must be >= 1, got {degree_bound}")
    vectors = set(gens.vectors())
    coord_max = [max(v[i] for v in vectors) for i in range(n)]
    weights = []
    weight = 1
    for c in coord_max:
        weights.append(weight)
        weight *= c * degree_bound + 1

    def pack(w: Sequence[int]) -> int:
        return sum(a * b for a, b in zip(w, weights))

    packed = {pack(v) for v in vectors}

    counter = [0]
    over_cap = f"cone point enumeration exceeds cap of {point_cap}"

    def scan(k: int):
        """Lex depth-first over cone points of degree k.  A prefix is pruned
        when some form cannot reach 0 even with the most optimistic choice
        of the remaining coordinates."""
        bounds = [c * k for c in coord_max]
        # headroom[pos][f]: max of sum(c_i * w_i, i >= pos) over the box
        headroom = [[0] * len(forms) for _ in range(n + 1)]
        for pos in range(n - 1, -1, -1):
            for fi, c in enumerate(forms):
                gain = c[pos] * bounds[pos] if c[pos] > 0 else 0
                headroom[pos][fi] = headroom[pos + 1][fi] + gain
        w = [0] * n

        def extend(pos: int, partial: list):
            if pos == n:
                counter[0] += 1
                if counter[0] > point_cap:
                    raise ResourceLimitError(over_cap)
                if all(v >= 0 for v in partial):
                    yield tuple(w)
                return
            room = headroom[pos + 1]
            for val in range(bounds[pos] + 1):
                w[pos] = val
                nxt = [p + c[pos] * val for p, c in zip(partial, forms)]
                if all(v + r >= 0 for v, r in zip(nxt, room)):
                    yield from extend(pos + 1, nxt)
            w[pos] = 0

        start = [c[n] * k for c in forms]
        yield from extend(0, start)

    sums = {0}  # S_k
    for k in range(1, degree_bound + 1):
        sums = {s + v for s in sums for v in packed}
        for point in scan(k):
            if pack(point) not in sums:
                return NormalityWitness(
                    max_degree=degree_bound, violation=point + (k,)
                )
    return NormalityWitness(max_degree=degree_bound, violation=None)


def test_witness_matches_scan_oracle():
    fixed = [
        Multicomplex(n=2, facets=((2, 0), (0, 2))),
        Multicomplex(n=2, facets=((0, 0), (1, 0), (0, 1), (2, 2)), generalized=True),
        Multicomplex(
            n=3,
            facets=((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 2)),
            generalized=True,
        ),
        # the form (-1, -1, -2, 2) has a coefficient 2, so the interval ends
        # divide negative numerators by it
        Multicomplex(n=3, facets=((2, 0, 0), (0, 2, 0), (0, 0, 1))),
        Multicomplex(n=2, facets=((4, 0), (0, 2))),
        # normal, with the form (-1, 2, 1): the lower end of w_2 rounds up
        # from half-integers, e.g. w_2 >= 1 at w_1 = k + 1
        Multicomplex(
            n=2, facets=((0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (3, 1)), generalized=True
        ),
    ]
    inputs = fixed + list(small_cone_inputs(random.Random(777)))
    inputs += list(small_cone_inputs(random.Random(31337)))
    outcomes = {"ok": 0, "violation": 0, "refused": 0}
    for x in inputs:
        gens = semigroup_generators(x)
        forms = cone_facets(gens)
        for degree in range(1, 5):
            for cap in (None, 3, 6, 7, 20, 40, 100, 300):
                kwargs = {} if cap is None else {"point_cap": cap}
                try:
                    expected = witness_by_scan(
                        gens, forms, degree, cap or cone.DEFAULT_POINT_CAP
                    )
                except ResourceLimitError as exc:
                    with pytest.raises(ResourceLimitError) as got:
                        normality_witness(gens, forms, degree, **kwargs)
                    assert str(got.value) == str(exc), (x, degree, cap)
                    outcomes["refused"] += 1
                    continue
                got = normality_witness(gens, forms, degree, **kwargs)
                assert got == expected, (x, degree, cap)
                outcomes["ok" if expected.ok else "violation"] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_witness_counts_walked_points_against_the_cap():
    # box (3, 3): 16 cone points of degree 1 and 49 of degree 2 are walked;
    # the walk of degree 2 passes a cap of 40 and, at its last point, of 64
    gens = semigroup_generators(Polymatroid.box((3, 3)))
    forms = cone_facets(gens)
    assert normality_witness(gens, forms, 1, point_cap=40).ok
    for cap in (40, 64):
        with pytest.raises(ResourceLimitError, match=f"exceeds cap of {cap}$"):
            normality_witness(gens, forms, 2, point_cap=cap)
    assert normality_witness(gens, forms, 2, point_cap=16 + 49).ok


def test_witness_reaches_a_hole_within_the_cap():
    # 7 generators; the walk reaches the hole (1, 1) at its 5th point, so a
    # cap of 5 answers and a cap of 4 refuses
    m = Multicomplex(n=2, facets=((4, 0), (0, 2)))
    gens = semigroup_generators(m)
    forms = cone_facets(gens)
    assert normality_witness(gens, forms, 1, point_cap=5).violation == (1, 1, 1)
    with pytest.raises(ResourceLimitError, match="exceeds cap of 4$"):
        normality_witness(gens, forms, 1, point_cap=4)


def unit_box_presentation():
    return class_group_from_cone(cone_facets(semigroup_generators(Polymatroid.box((1, 1)))))


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: semigroup_generators("box"),
            "cannot build semigroup generators from str",
            id="source",
        ),
        pytest.param(
            lambda: minimal_primes_of_t([]),
            "need a complete list of support forms",
            id="no-forms",
        ),
        pytest.param(
            lambda: principal_class((1,), unit_box_presentation()),
            "exponent vector has length 1, expected 3",
            id="exponent-length",
        ),
    ],
)
def test_refusals(call, message):
    with pytest.raises(UsageError) as info:
        call()
    assert type(info.value) is UsageError
    assert str(info.value) == message


def test_clean_witness_names_its_degree():
    assert str(NormalityWitness(3, None)) == "no violation up to degree 3"
