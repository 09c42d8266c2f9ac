"""Seeded inputs and answer oracles owned by the benchmark.

Nothing here imports polytoric: every input is generated from the seed by
this module's own code, and every expected answer is computed from the
input by definitions written out below (brute-force closed/inseparable
family, closed forms for the named families).  A change to the program can
therefore neither shift a workload nor move its oracle.

Subsets are int bitmasks, bit i standing for element i + 1, as in the CLI
input schema.  A rank function is a list `rho` of length 2^n.
"""

from __future__ import annotations

import json
import math
from functools import reduce
from itertools import combinations


def popcount(mask: int) -> int:
    return bin(mask).count("1")


def one_based(mask: int) -> list:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def mask_of(indices) -> int:
    return sum(1 << (i - 1) for i in indices)


def gcd_all(values) -> int:
    return reduce(math.gcd, values, 0)


def label(mask: int) -> str:
    return "{" + ",".join(str(i) for i in one_based(mask)) + "}"


# ---------------------------------------------------------------------------
# rank functions


def modular_sums(n: int, weights) -> list:
    """w(A) for every subset mask A."""
    out = [0] * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        out[m] = out[m ^ low] + weights[low.bit_length() - 1]
    return out


def rho_of(spec: dict) -> list:
    """The rank function of a CLI input description, evaluated by definition."""
    n, kind = spec["n"], spec["kind"]
    size = 1 << n
    if kind == "rank_table":
        rho = [0] * size
        for key, r in spec["table"].items():
            rho[mask_of(int(t) for t in key.split(","))] = r
        return rho
    if kind == "box":
        return modular_sums(n, spec["v"])
    if kind == "veronese":
        d = spec["d"]
        return [min(x, d) for x in modular_sums(n, spec["s"])]
    if kind == "transversal":
        sets = [mask_of(s) for s in spec["sets"]]
        return [sum(1 for a in sets if a & m) for m in range(size)]
    if kind == "matroid_bases":
        bases = [mask_of(b) for b in spec["bases"]]
        return [max(popcount(b & m) for b in bases) for m in range(size)]
    raise ValueError(f"no rank function for kind {kind}")


def is_polymatroid(n: int, rho: list) -> bool:
    """Full pairwise check of normalization, unit ranks, monotonicity and
    submodularity (used only on the small sampled tables)."""
    size = 1 << n
    if rho[0] != 0 or any(rho[1 << i] < 1 for i in range(n)):
        return False
    for a in range(size):
        for b in range(size):
            if a & b == a and rho[a] > rho[b]:
                return False
            if rho[a] + rho[b] < rho[a | b] + rho[a & b]:
                return False
    return True


def atom_table(n: int, rng, max_atoms: int = 4, max_weight: int = 2) -> list:
    """Sum of truncated weighted modular functions min(cap, w(A & S)).

    Each summand is a polymatroid rank function, so the sum is one; the
    supports are completed to cover [n] so every unit rank is positive.
    """
    full = (1 << n) - 1
    atoms = []
    cover = 0
    for _ in range(rng.randint(2, max_atoms)):
        support = rng.randrange(1, 1 << n)
        weights = [rng.randint(1, max_weight) if support >> i & 1 else 0 for i in range(n)]
        atoms.append((weights, rng.randint(1, sum(weights))))
        cover |= support
    missing = full & ~cover
    if missing:
        atoms.append(([missing >> i & 1 for i in range(n)], popcount(missing)))
    rho = [0] * (1 << n)
    for weights, cap in atoms:
        for m, w in enumerate(modular_sums(n, weights)):
            rho[m] += min(cap, w)
    return rho


def sized_atom_table(n: int, rng, lo: int, hi: int, max_members: int) -> list:
    """An atom table (at most three 0/1-weighted atoms) whose polymatroid
    has between lo and hi lattice points and at most max_members
    closed/inseparable subsets (facets), so that cone-path work per input
    stays in a fixed band across seeds."""
    while True:
        rho = atom_table(n, rng, max_atoms=3, max_weight=1)
        if lo <= len(lattice_points(n, rho)) <= hi and len(brute_family(n, rho)) <= max_members:
            return rho


def window_table(n: int, rng, lo: int, hi: int, max_unit: int = 2) -> list:
    """A small random rank table drawn level by level inside the window
    [max over covers, min over co-cover pairs] that local monotonicity and
    submodularity leave, preferring the window's endpoints; restarts on an
    empty window and keeps only tables that pass the full pairwise check
    and have between lo and hi lattice points."""
    by_size = sorted(range(1, 1 << n), key=popcount)
    while True:
        rho = [0] * (1 << n)
        for i in range(n):
            rho[1 << i] = rng.randint(1, max_unit)
        stuck = False
        for m in by_size:
            els = [1 << i for i in range(n) if m >> i & 1]
            if len(els) < 2:
                continue
            low = max(rho[m ^ e] for e in els)
            high = min(
                rho[m ^ a] + rho[m ^ b] - rho[m ^ a ^ b] for a, b in combinations(els, 2)
            )
            if low > high:
                stuck = True
                break
            rho[m] = rng.choice((low, high)) if rng.random() < 0.75 else rng.randint(low, high)
        if not stuck and is_polymatroid(n, rho) and lo <= len(lattice_points(n, rho)) <= hi:
            return rho


def violations_at(n: int, rho: list, m: int) -> int:
    """How many violation reports a full pairwise check makes on pairs
    (a, b), a < b, that involve subset m as a, b, a | b or a & b: one per
    failed monotonicity (a inside b) and one per failed submodularity test.
    On a table that was valid before rho(m) changed, that is every report."""
    size = 1 << n
    full = size - 1

    def submodular_fails(a, b):
        return rho[a] + rho[b] < rho[a | b] + rho[a & b]

    count = 0
    for z in range(size):
        if z == m:
            continue
        a, b = min(m, z), max(m, z)
        count += (a & b == a and rho[a] > rho[b]) + submodular_fails(a, b)
    pairs = set()
    for a in _submasks(m):  # a | b = m
        for s in _submasks(a):
            b = (m ^ a) | s
            if a < b and a != m and b != m:
                pairs.add((a, b))
    outside = full & ~m
    for x in _submasks(outside):  # a & b = m
        for y in _submasks(outside & ~x):
            a, b = m | x, m | y
            if a < b and a != m and b != m:
                pairs.add((a, b))
    return count + sum(submodular_fails(a, b) for a, b in pairs)


def _submasks(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def corrupt(n: int, rho: list, rng, kind: str, lo: int, hi: int) -> tuple:
    """Break one axiom of a valid table; returns (bad table, planted subsets).

    'monotonicity' lifts rho(A) one above its smallest single-element
    extension; 'submodularity' lifts rho(A | B) one above
    rho(A) + rho(B) - rho(A & B) for an incomparable pair A, B.  Draws are
    repeated until the fault gives between lo and hi violation reports, so
    the failure-path work per input stays in a fixed band across seeds.
    """
    full = (1 << n) - 1
    while True:
        bad = list(rho)
        if kind == "monotonicity":
            a = rng.randrange(1, full)
            bad[a] = min(rho[a | 1 << j] for j in range(n) if not a >> j & 1) + 1
            planted, changed = (a,), a
        else:
            a, b = rng.randrange(1, full + 1), rng.randrange(1, full + 1)
            if not (a & ~b and b & ~a):
                continue
            bad[a | b] = rho[a] + rho[b] - rho[a & b] + 1
            planted, changed = (min(a, b), max(a, b)), a | b
        if lo <= violations_at(n, bad, changed) <= hi:
            return bad, planted


# ---------------------------------------------------------------------------
# CLI input descriptions


def table_spec(n: int, rho: list) -> dict:
    return {
        "n": n,
        "kind": "rank_table",
        "table": {",".join(map(str, one_based(m))): rho[m] for m in range(1, 1 << n)},
    }


def uniform_transversal(n: int, i: int) -> dict:
    sets = [list(c) for c in combinations(range(1, n + 1), i)]
    return {"n": n, "kind": "transversal", "sets": sets}


def nested_chain(n: int, chain) -> dict:
    """chain: [(prefix length, multiplicity)], strictly increasing, ending at n."""
    sets = []
    for length, k in chain:
        sets += [list(range(1, length + 1))] * k
    return {"n": n, "kind": "transversal", "sets": sets}


def box(v) -> dict:
    return {"n": len(v), "kind": "box", "v": list(v)}


def veronese(s, d: int) -> dict:
    return {"n": len(s), "kind": "veronese", "s": list(s), "d": d}


def uniform_matroid(r: int, n: int) -> dict:
    bases = [list(c) for c in combinations(range(1, n + 1), r)]
    return {"n": n, "kind": "matroid_bases", "bases": bases}


def lattice_points(n: int, rho: list) -> list:
    """All v >= 0 with v(A) <= rho(A) for every A, by brute force."""
    caps = [rho[1 << i] for i in range(n)]
    out = []

    def extend(prefix):
        k = len(prefix)
        if k == n:
            out.append(tuple(prefix))
            return
        for val in range(caps[k] + 1):
            v = prefix + [val]
            bit = 1 << k
            if all(
                sum(v[i] for i in range(k + 1) if (sub | bit) >> i & 1) <= rho[sub | bit]
                for sub in range(1 << k)
            ):
                extend(v)

    extend([])
    return out


def write_spec(path: str, spec: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)


# ---------------------------------------------------------------------------
# expected answers


def inseparable(a: int, rho: list) -> bool:
    """No bipartition A = A1 | A2 into nonempty parts has
    rho(A1) + rho(A2) = rho(A)."""
    low = a & -a
    rest = a ^ low
    sub = rest
    while True:
        if sub != rest and rho[sub | low] + rho[a ^ sub ^ low] == rho[a]:
            return False
        if sub == 0:
            return True
        sub = (sub - 1) & rest


def brute_family(n: int, rho: list) -> list:
    """[(mask, rank)] of the nonempty closed and inseparable subsets.

    Closed: every single-element extension has larger rank (equivalent to
    the definition for monotone rho).  Inseparable: no bipartition
    A = A1 | A2 into nonempty parts has rho(A1) + rho(A2) = rho(A).
    """
    out = []
    for a in range(1, 1 << n):
        r = rho[a]
        if any(rho[a | 1 << j] <= r for j in range(n) if not a >> j & 1):
            continue
        if inseparable(a, rho):
            out.append((a, r))
    return out


def closed_form_family(spec: dict, meta: dict):
    """[(mask, rank)] predicted in closed form for a named family, or None.

    meta names the family and its parameters where the input kind alone
    does not (uniform transversal, nested chain, uniform matroid).
    """
    n, kind = spec["n"], spec["kind"]
    full = (1 << n) - 1
    if kind == "box":
        return [(1 << i, x) for i, x in enumerate(spec["v"])]
    if kind == "veronese":
        s, d = spec["s"], spec["d"]
        if max(s) < d < sum(s):
            return [(1 << i, x) for i, x in enumerate(s)] + [(full, d)]
        return None
    name = meta.get("family")
    if name == "uniform-transversal":
        i = meta["i"]
        total = math.comb(n, i)
        pairs = [(m, total - math.comb(n - popcount(m), i))
                 for m in range(1, full) if popcount(m) <= n - i]
        pairs.append((full, total))
        if len(pairs) != sum(math.comb(n, k) for k in range(1, n - i + 1)) + 1:
            raise AssertionError("uniform transversal closed form miscounted")
        return pairs
    if name == "nested-chain":
        chain = meta["chain"]
        suffix = [sum(k for _, k in chain[j:]) for j in range(len(chain))]
        pairs = [(full, suffix[0])]
        for j in range(len(chain) - 1):
            pairs.append((full & ~((1 << chain[j][0]) - 1), suffix[j + 1]))
        return pairs
    if name == "uniform-matroid":
        return [(1 << i, 1) for i in range(n)] + [(full, meta["r"])]
    return None


def gorenstein_a(members):
    """The integer a with |A| + 1 = a * rho(A) on every member, or None."""
    quotients = {divmod(popcount(m) + 1, r) for m, r in members}
    if len(quotients) == 1:
        a, rem = quotients.pop()
        if rem == 0:
            return a
    return None


def group_of(members) -> tuple:
    """(free rank, torsion) of Z^r modulo the single relation of ranks."""
    return len(members) - 1, gcd_all(r for _, r in members)


def facet_lines(n: int, members) -> list:
    """Normalized facet forms predicted by the family, sorted as printed."""
    forms = [tuple(1 if j == i else 0 for j in range(n + 1)) for i in range(n)]
    forms += [tuple(-(m >> j & 1) for j in range(n)) + (r,) for m, r in members]
    return [list(f) for f in sorted(forms)]


class Expected:
    """The answer for one rank-function input: exact family when n is small
    enough for brute force (or a closed form applies), else structural
    checks against the input's own rank function."""

    BRUTE_MAX_N = 12

    def __init__(self, spec: dict, meta: dict):
        self.n = spec["n"]
        self.rho = rho_of(spec)
        members = closed_form_family(spec, meta)
        self.closed_form = members is not None
        if members is None and self.n <= self.BRUTE_MAX_N:
            members = brute_family(self.n, self.rho)
        self.members = sorted(members) if members is not None else None

    def check_members(self, got) -> list:
        """got: [(mask, rank, size)] in the program's order."""
        problems = []
        n, rho = self.n, self.rho
        full = (1 << n) - 1
        if self.members is not None:
            if sorted((m, r) for m, r, _ in got) != self.members:
                problems.append(
                    f"family differs from the expected {len(self.members)} members "
                    f"(got {len(got)})"
                )
        if any(m == full for m, _, _ in got) != inseparable(full, rho):
            problems.append("full ground set in the family exactly when it is inseparable: no")
        for m, r, size in got:
            if r != rho[m] or size != popcount(m):
                problems.append(f"member {label(m)} has rank {r} size {size}")
                break
            if any(rho[m | 1 << j] <= r for j in range(n) if not m >> j & 1):
                problems.append(f"member {label(m)} is not closed")
                break
        return problems

    def check_group(self, got_pairs, free_rank, torsion) -> list:
        want = group_of(got_pairs)
        if (free_rank, torsion) != want:
            return [f"class group Z^{free_rank} + Z/{torsion}, expected {want}"]
        return []


def check_analyze(exp: Expected, out: dict, cone: bool, normality) -> list:
    """Oracle for `analyze --format json` on a rank-function input."""
    fam = [(mask_of(m["set"]), m["rank"], m["size"]) for m in out["family"]]
    pairs = [(m, r) for m, r, _ in fam]
    problems = exp.check_members(fam)
    cg = out["class_group"]
    problems += exp.check_group(pairs, cg["invariants"]["free_rank"], cg["invariants"]["torsion"])
    if cg["relation"] != [r for _, r, _ in fam]:
        problems.append("relation is not the member ranks")
    if out["canonical_class"] != [s + 1 for _, _, s in fam]:
        problems.append("canonical class is not |A| + 1")
    a = gorenstein_a(pairs)
    if out["gorenstein"]["a"] != a or out["gorenstein"]["is_gorenstein"] != (a is not None):
        problems.append(f"gorenstein verdict {out['gorenstein']}, expected a={a}")
    section = out.get("cone", {})
    if cone:
        if section.get("facets") != facet_lines(exp.n, pairs):
            problems.append("cone facets differ from the family's forms")
        if section.get("facets_match_family") is not True or section.get("paths_agree") is not True:
            problems.append("cone path does not agree with the rank path")
    if normality is not None:
        if section.get("normality") != {"max_degree": normality, "violation": None}:
            problems.append(f"normality section {section.get('normality')}")
    return problems


def check_verify(exp: Expected, out: dict) -> list:
    problems = []
    if out.get("ok") is not True:
        problems.append(f"verify not ok: {out.get('diff')}")
    if exp.members is not None:
        free_rank, torsion = group_of(exp.members)
        cg = out.get("class_group", {})
        if (cg.get("free_rank"), cg.get("torsion")) != (free_rank, torsion):
            problems.append(f"class group {cg}, expected Z^{free_rank} + Z/{torsion}")
    if exp.closed_form and out["checks"].get("closed_form_match") is False:
        problems.append("closed-form check failed")
    return problems


def check_facets(exp: Expected, text: str) -> list:
    want = "".join(" ".join(map(str, f)) + "\n" for f in facet_lines(exp.n, exp.members))
    return [] if text == want else ["facet lines differ from the family's forms"]
