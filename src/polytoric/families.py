"""Constructors and closed-form analyzers for the named polymatroid families.

Each analyzer predicts the closed/inseparable family, the class group
invariants, or the Gorenstein verdict without running the generic engine,
so it can serve as an oracle against it (and vice versa).  Predictions are
compared as sets of (subset, rank) pairs; the generic engine is always the
authority when the two disagree.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from . import bitset
from .abelian import GroupInvariants, gcd_of
from .errors import UsageError
from .polymatroid import Box, Polymatroid, Transversal, Veronese, check_int
from .structure import ClosedInseparableFamily, FamilyMember


def _family(n: int, pairs) -> ClosedInseparableFamily:
    members = tuple(
        FamilyMember(mask=mask, rank=rank, size=bitset.card(mask))
        for mask, rank in sorted(pairs)
    )
    return ClosedInseparableFamily(n=n, members=members)


def _closed_form(n: int, pairs) -> tuple:
    """The predicted family of the (subset, rank) pairs, its invariants
    Z^(m-1) (+) Z/gcd(ranks) on m members, and the integer a with
    |A| + 1 = a * rho(A) on every member, or None if there is none."""
    family = _family(n, pairs)
    ranks = [m.rank for m in family.members]
    invariants = GroupInvariants(free_rank=len(ranks) - 1, torsion=gcd_of(ranks))
    ratios = {divmod(m.size + 1, m.rank) for m in family.members}
    a: Optional[int] = None
    if len(ratios) == 1 and min(ratios)[1] == 0:
        a = min(ratios)[0]
    return family, invariants, a


# ---------------------------------------------------------------------------
# transversal families


def _check_cover(n: int, sets: Sequence[int]) -> None:
    """Refuse a family that is not a nonempty list of nonempty subsets of
    [n] covering [n]; the closed forms assume a covering family."""
    bitset.check_ground_set(n)
    if not sets:
        raise UsageError("a transversal family needs at least one set")
    full = bitset.full_mask(n)
    union = 0
    for a in sets:
        if a == 0:
            raise UsageError("family members must be nonempty")
        if a & ~full:
            raise UsageError("family member outside the ground set")
        union |= a
    if union != full:
        raise UsageError("family members must cover the ground set")


def uniform_transversal_analysis(n: int, i: int):
    """Family of all i-element subsets of [n], for 1 < i < n.

    Predicted members: every X with 1 <= |X| <= n - i, with rank
    C(n, i) - C(n - |X|, i), plus the full set with rank C(n, i).  The
    resulting class group is free.
    """
    if not 1 < i < n:
        raise UsageError(f"need 1 < i < n, got i={i}, n={n}")
    bitset.check_ground_set(n)
    full = bitset.full_mask(n)
    total = math.comb(n, i)
    pairs = [(full, total)]
    for mask in bitset.nonempty_subsets(n):
        size = bitset.card(mask)
        if size <= n - i:
            pairs.append((mask, total - math.comb(n - size, i)))
    family = _family(n, pairs)
    r = sum(math.comb(n, k) for k in range(1, n - i + 1)) + 1
    return family, GroupInvariants(free_rank=r - 1, torsion=1)


def uniform_transversal(n: int, i: int) -> Polymatroid:
    """The actual family of all i-subsets, for feeding the generic engine."""
    if not 1 < i < n:
        raise UsageError(f"need 1 < i < n, got i={i}, n={n}")
    sets = [
        mask for mask in bitset.nonempty_subsets(n) if bitset.card(mask) == i
    ]
    return Polymatroid.transversal(n, sorted(sets))


def nested_chain_analysis(n: int, sets: Sequence[int]) -> Optional[tuple]:
    """Closed form for a covering family (A_1, ..., A_s) of subset masks of
    [n], repeats significant, whose distinct members split into chains
    B_1 < ... < B_r = E, one chain per part E of a partition of [n], with
    B_i repeated k_i times.  Any other covering family returns None.  One
    part with one distinct member, one part with two, and two parts with
    one each are its three smallest regimes.

    On a part E the rank of a nonempty A within E is k_i + ... + k_r for
    the least i with A meeting B_i, so the closure of A is E - B_(i-1)
    (B_0 empty): E, with rank k_1 + ... + k_r, and E - B_i for each i < r,
    with rank k_(i+1) + ... + k_r.  Each is inseparable: of two nonempty
    parts of E - B_i, the one meeting B_(i+1) has the whole rank and the
    other has rank at least k_r > 0.  Each member lies in one part, so the
    rank of a set meeting two parts is the sum of its traces, and it is
    separable; adding an element of another part raises the rank by at
    least that part's k_r.  So the family is the union over the parts of
    the families on each part (Cunningham, "Decomposition of submodular
    functions", Combinatorica 3, 1983).  With m members the group is
    Z^(m-1) (+) Z/gcd(ranks), and a is as in `_closed_form`.

    Returns (predicted family, invariants, gorenstein a or None), or None.
    """
    _check_cover(n, sets)
    chains: dict = {}  # part -> its distinct members, largest first
    for a in sorted(set(sets), key=bitset.card, reverse=True):
        part = next((e for e in chains if a & e), None)
        if part is None:
            chains[a] = [a]
        elif a & ~chains[part][-1]:
            return None  # a meets two parts or is not nested in its part
        else:
            chains[part].append(a)
    pairs = []
    for part, chain in chains.items():
        rank = 0
        for b, c in zip(chain, chain[1:] + [0]):
            rank += sets.count(b)
            pairs.append((part & ~c, rank))
    return _closed_form(n, pairs)


def nested_chain_family(n: int, chain: Sequence) -> Polymatroid:
    """The transversal polymatroid of a chain, each A_i repeated k_i times."""
    masks = [mask for mask, _ in chain]
    for a, b in zip(masks, masks[1:]):
        if a & ~b:
            raise UsageError("chain sets must be nested")
    sets: list = []
    for mask, k in chain:
        sets.extend([mask] * k)
    _check_cover(n, sets)
    return Polymatroid.transversal(n, sets)


def classify_transversal(n: int, sets: Sequence[int]) -> str:
    """Tag a covering family (A_1, ..., A_s) of subset masks of [n].

    "nested-chains" when `nested_chain_analysis` predicts its family;
    "torsion-free-witness" when a member not covered by the union of the
    others forces a torsion-free group; "generic" otherwise.
    """
    if nested_chain_analysis(n, sets) is not None:
        return "nested-chains"
    for i, a in enumerate(sets):
        others = 0
        for j, b in enumerate(sets):
            if j != i:
                others |= b
        if a & ~others:
            return "torsion-free-witness"
    return "generic"


# ---------------------------------------------------------------------------
# graph complement families


def graph_complement_family(n: int, edges: Sequence) -> tuple:
    """Family ([n] - e) over the edges e of a connected non-star graph.

    Returns the transversal Polymatroid, the predicted closed/inseparable
    family, and the predicted invariants.  For n > 3 the group is free of rank
    n - l + m where l counts leaves and m counts edges with a disjoint
    partner edge; for n = 3 the only admissible graph is the triangle and
    the group is free of rank 2.
    """
    if n < 3:
        raise UsageError("need at least three vertices")
    edge_masks = []
    seen = set()
    for e in edges:
        i, j = sorted(e)
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise UsageError(f"bad edge {e}")
        if (i, j) in seen:
            raise UsageError(f"repeated edge {e}")
        seen.add((i, j))
        edge_masks.append((1 << i) | (1 << j))
    if not _connected(n, edge_masks):
        raise UsageError("graph must be connected")
    common = bitset.full_mask(n)
    for e in edge_masks:
        common &= e
    if common:
        raise UsageError("star graphs are excluded (all edges share a vertex)")

    s = len(edge_masks)
    full = bitset.full_mask(n)
    family = Polymatroid.transversal(n, [full & ~e for e in edge_masks])
    degree = [sum(1 for e in edge_masks if e >> i & 1) for i in range(n)]
    non_cover = [
        e for e in edge_masks if any(e & f == 0 for f in edge_masks)
    ]
    pairs = [
        ((1 << i), s - degree[i]) for i in range(n) if degree[i] >= 2
    ]
    pairs += [(e, s - 1) for e in non_cover]
    if n > 3:
        pairs.append((full, s))
    predicted = _family(n, pairs)
    leaves = sum(1 for d in degree if d == 1)
    rank = n - leaves + len(non_cover) if n > 3 else 2
    return family, predicted, GroupInvariants(free_rank=rank, torsion=1)


def _connected(n: int, edge_masks: Sequence[int]) -> bool:
    reached = 1
    frontier = [0]
    adjacency = [0] * n
    for e in edge_masks:
        i, j = list(bitset.elements(e))
        adjacency[i] |= 1 << j
        adjacency[j] |= 1 << i
    while frontier:
        v = frontier.pop()
        new = adjacency[v] & ~reached
        reached |= new
        frontier.extend(bitset.elements(new))
    return reached == bitset.full_mask(n)


# ---------------------------------------------------------------------------
# Veronese-type and box families


def veronese_analysis(s: Sequence[int], d: int) -> tuple:
    """Closed-form family and Gorenstein verdict for Veronese type,
    rho(A) = min(s(A), d), for any caps s_i >= 1 in any order and d >= 1.
    Boxes (d >= s([n])) and the degree-bounded simplex (every s_i >= d) are
    its two extreme regimes.

    Members: {i} exactly when s_i < d, since then adding any j raises the
    rank, and otherwise {i} already has the rank d of [n].  [n], with rank
    min(s([n]), d), exactly when n = 1 or d < s([n]): when d < s([n]) two
    nonempty parts of [n] have ranks summing above d (either part reaching
    d, or else s([n]) > d), and when d >= s([n]) the singletons split it.
    No A with 1 < |A| < n: if s(A) < d its rank is the sum of its
    singletons' ranks, and otherwise it has the rank d of [n] and is not
    closed.  With r members the group is Z^(r-1) (+) Z/gcd(ranks), and the
    ring is Gorenstein with the integer a, if any, such that |A| + 1 =
    a * rho(A) on every member: 2 = a * s_i on each singleton and
    n + 1 = a * d on [n] when n >= 2.

    Returns (predicted family, invariants, gorenstein a or None).
    """
    if not s:
        raise UsageError("need at least one coordinate cap")
    if any(check_int(x, "coordinate cap") < 1 for x in s):
        raise UsageError("coordinate caps must be >= 1")
    if check_int(d, "degree bound") < 1:
        raise UsageError("degree bound must be >= 1")
    n, total = len(s), sum(s)
    pairs = {(1 << i, x) for i, x in enumerate(s) if x < d}
    if n == 1 or d < total:
        pairs.add((bitset.full_mask(n), min(total, d)))
    return _closed_form(n, pairs)


def box_analysis(v: Sequence[int]) -> tuple:
    """Box below a positive vector v: Veronese type with d = v_1 + ... + v_n,
    so the family is the singletons with ranks v_i (the full set when
    n = 1); Gorenstein exactly when all v_i are equal and at most 2.

    Returns (predicted family, invariants, gorenstein a or None).
    """
    v = tuple(check_int(x, "box bound") for x in v)
    if any(x < 1 for x in v):
        raise UsageError("box bounds must be >= 1")
    bitset.check_ground_set(len(v))
    return veronese_analysis(v, sum(v))


# ---------------------------------------------------------------------------
# the closed form of a representation, checked against the engine


def closed_form_check(
    p: Polymatroid,
    family: ClosedInseparableFamily,
    invariants: GroupInvariants,
    a: Optional[int],
) -> tuple:
    """Compare the engine's family, invariants and Gorenstein a for p with
    the closed form of p's representation.

    Returns (name, diff list) with an empty diff on agreement, or
    (None, []) when no closed form applies.  A box, Veronese or
    nested-chains closed form predicts all three; a torsion-free-witness
    tag predicts only that the torsion is 1.
    """
    rep = p.rep
    diff: list = []
    if isinstance(rep, Transversal):
        name, prediction = "transversal:nested-chains", nested_chain_analysis(p.n, rep.sets)
        if prediction is None:
            tag = classify_transversal(p.n, rep.sets)
            if tag == "generic":
                return None, []
            if invariants.torsion != 1:
                diff.append(f"classification promises a free group, computed {invariants}")
            return f"transversal:{tag}", diff
    elif isinstance(rep, Box):
        name, prediction = "box", box_analysis(rep.v)
    elif isinstance(rep, Veronese):
        name, prediction = "veronese", veronese_analysis(rep.s, rep.d)
    else:
        return None, []
    closed_family, closed_invariants, closed_a = prediction
    if closed_family.as_pairs() != family.as_pairs():
        diff.append("closed-form family differs from computed family")
    if closed_invariants != invariants:
        diff.append(f"closed-form invariants {closed_invariants} != computed {invariants}")
    if closed_a != a:
        diff.append(f"closed-form gorenstein {closed_a} != computed {a}")
    return name, diff
