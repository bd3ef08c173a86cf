"""Shared helpers for the test suite."""

import random
from functools import reduce
from operator import and_

from thicklat.bitsets import mask_of
from thicklat.closure import ThickLattice, thick_closure
from thicklat.errors import TooLarge
from thicklat.lattice import LatticeReport, LawWitness
from thicklat.presentation import Presentation, TensorTable, Triangle, make_expr
from thicklat.space import check_support_datum
from thicklat.tensor import enumerate_ideals

BRUTE_FORCE_LIMIT = 20
DEFAULT_FAMILY_LIMIT = 1 << 16


def object_in(thick, expr):
    """Membership of a formal sum: every component must lie in the subset.

    The zero object (empty expression) belongs to every subset.
    """
    return mask_of(expr) & ~thick == 0


def mask_by_loop(indices):
    """Oracle mask build: OR in one bit per index."""
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def members_by_loop(mask):
    """Oracle mask walk: the indices of the set bits, lowest first."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def preimage(morphism, target_mask):
    """Oracle pullback: the source points whose target lies in the mask."""
    m = 0
    for x, t in enumerate(morphism.mapping):
        if (target_mask >> t) & 1:
            m |= 1 << x
    return m


def key_by_members(mask):
    """Oracle canonical order: cardinality, then the tuple of members."""
    return (mask.bit_count(), tuple(i for i in range(mask.bit_length()) if mask >> i & 1))


def brute_force_thick(pres):
    """Oracle enumeration: sweep every subset, keep the closure fixed points."""
    n = pres.size
    if n > BRUTE_FORCE_LIMIT:
        raise TooLarge(
            f"{n} indecomposables exceed the brute-force guard of {BRUTE_FORCE_LIMIT}")
    found = [s for s in range(1 << n) if thick_closure(pres, s) == s]
    return ThickLattice(pres, tuple(sorted(found, key=key_by_members)))


def closed_sets(space, limit=DEFAULT_FAMILY_LIMIT):
    """Materialize the closed family of a ``FinSpace``: the generators, the
    empty set and the whole space, closed under union and intersection."""
    start = {0, space.full_mask, *space.generators}
    members = []
    queue = list(start)
    seen = set(start)
    while queue:
        w = queue.pop()
        for v in members:
            for u in (w | v, w & v):
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
                    if len(seen) > limit:
                        raise TooLarge(f"closed family exceeds {limit} sets")
        members.append(w)
    return frozenset(seen)


def closure_by_avoiding_union(space, mask):
    """Oracle ``FinSpace`` closure: point x joins the closure of ``mask``
    when some point of ``mask`` lies outside the union of the generators
    that avoid x."""
    out = 0
    for x in range(len(space.points)):
        avoiding = 0
        for g in space.generators:
            if not g >> x & 1:
                avoiding |= g
        if mask & ~avoiding:
            out |= 1 << x
    return out


def tt_violations(space):
    """Oracle tensor-support check of a support space over a presentation
    with a tensor table: its base-axiom report, whether the unit is
    supported on every point, and the pairs x <= y of indecomposables where
    the support of x*y is not the intersection of theirs."""
    pres = space.lattice.presentation
    table = pres.tensor
    unit_full = space.sigma_of(members_by_loop(table.unit)) == space.space.full_mask
    products = tuple(
        (x, y) for x in range(pres.size) for y in range(x, pres.size)
        if space.sigma_of(members_by_loop(table.table[x][y]))
        != space.sigma[x] & space.sigma[y])
    return check_support_datum(space, pres), unit_full, products


def primes_by_sweep(pres):
    """Oracle spectrum: every proper ideal, canonical order, that misses no
    factor of a pair x <= y whose product x*y it holds."""
    products = pres.tensor.table
    n = pres.size

    def is_prime(q):
        for x in range(n):
            for y in range(x, n):
                if products[x][y] & ~q == 0 and not (q >> x & 1 or q >> y & 1):
                    return False
        return True

    return tuple(q for q in enumerate_ideals(pres).elements
                 if q != pres.full_mask and is_prime(q))


def random_presentation(seed, max_indecs=12, max_triangles=10, min_indecs=1):
    """Deterministic random presentation for oracle-equivalence sweeps."""
    rng = random.Random(seed)
    n = rng.randint(min_indecs, max_indecs)
    names = tuple(f"g{i}" for i in range(n))
    triangles = []
    for _ in range(rng.randint(0, max_triangles)):
        vertices = tuple(
            make_expr(rng.choices(range(n), k=rng.randint(0, 3))) for _ in range(3)
        )
        triangles.append(Triangle(*vertices))
    return Presentation(names, tuple(triangles))


def disjoint_union(*presentations, seed=0):
    """The presentations side by side, with no triangle between them and no
    tensor table. The names are shuffled by ``seed``, so that the parts'
    elements interleave in index order; part k's name x becomes "k.x"."""
    slots = [(k, i) for k, pres in enumerate(presentations) for i in range(pres.size)]
    random.Random(seed).shuffle(slots)
    index = {slot: new for new, slot in enumerate(slots)}
    names = tuple(f"{k}.{presentations[k].names[i]}" for k, i in slots)
    triangles = tuple(
        Triangle(*(make_expr(index[k, i] for i in expr) for expr in (t.a, t.b, t.c)))
        for k, pres in enumerate(presentations) for t in pres.triangles)
    return Presentation(names, triangles)


def random_tensor_presentation(seed, max_blocks=4, max_triangles=6):
    """Deterministic random presentation with a tensor table.

    Blocks are mutually orthogonal (cross-block products vanish). A
    one-object block is an idempotent e with e*e = e. A two-object block
    (a, b) has a*a = a and a*b = b*a = b, so absorption drags b into any
    ideal holding a; b*b is b or zero. The unit sums every block's first
    object. Triangles pick their components from all blocks at once.
    """
    rng = random.Random(seed)
    blocks = []
    n = 0
    for _ in range(rng.randint(1, max_blocks)):
        width = rng.randint(1, 2)
        blocks.append(tuple(range(n, n + width)))
        n += width
    table = block_table(rng, n, blocks)
    triangles = []
    for _ in range(rng.randint(0, max_triangles)):
        vertices = tuple(
            make_expr(rng.choices(range(n), k=rng.randint(0, 2))) for _ in range(3)
        )
        triangles.append(Triangle(*vertices))
    return Presentation(tuple(f"g{i}" for i in range(n)), tuple(triangles), table)


def block_table(rng, n, blocks):
    """``random_tensor_presentation``'s table on ``n`` elements grouped into
    ``blocks`` of one or two: e*e = e; a*a = a, a*b = b*a = b and b*b is b
    or zero as ``rng`` draws; the unit sums every block's first object."""
    table = [[0] * n for _ in range(n)]
    for block in blocks:
        a = block[0]
        table[a][a] = 1 << a
        if len(block) == 2:
            b = block[1]
            table[a][b] = table[b][a] = 1 << b
            table[b][b] = 1 << b if rng.random() < 0.5 else 0
    unit = mask_by_loop(block[0] for block in blocks)
    return TensorTable(unit, tuple(map(tuple, table)))


def wide_presentation(seed):
    """Deterministic presentation of 18-28 indecomposables that its
    triangles join into one block, with a few hundred thick subsets and a
    ``block_table`` tensor. A chain of triangles runs through every element
    in a shuffled order; about twelve random triangles per element past 15
    follow, each vertex one or two components."""
    rng = random.Random(seed)
    n = 18 + seed % 11
    order = rng.sample(range(n), n)
    triangles = [Triangle((order[k],), (order[k + 1],), (order[(k + 2) % n],))
                 for k in range(0, n - 1, 2)]
    for _ in range(rng.randint(12 * n - 180, 12 * n - 170)):
        vertices = (make_expr(rng.sample(range(n), rng.choice((1, 1, 1, 2))))
                    for _ in range(3))
        triangles.append(Triangle(*vertices))
    blocks, start = [], 0
    while start < n:
        width = min(n - start, rng.randint(1, 2))
        blocks.append(tuple(range(start, start + width)))
        start += width
    names = tuple(f"g{i}" for i in range(n))
    return Presentation(names, tuple(triangles), block_table(rng, n, blocks))


def fixpoint_closure(pres, ideal=False):
    """Oracle closure read straight off ``triangle_masks``: wherever two
    vertices of a triangle are in, put the third in, and with ``ideal`` put
    in every component of g*x for each member x, until nothing changes."""
    # each triangle's vertices together, and each pair of them
    unions = [(ma | mb | mc, ma | mb, mb | mc, mc | ma) for ma, mb, mc in pres.triangle_masks]
    absorbed = [mask_by_loop(c for row in pres.tensor.table for c in members_by_loop(row[x]))
                for x in range(pres.size)] if ideal else []

    def close(members):
        cur = members
        changed = True
        while changed:
            changed = False
            for whole, ab, bc, ca in unions:
                out = ~cur
                if whole & out and not (ab & out and bc & out and ca & out):
                    cur |= whole
                    changed = True
            for x, m in enumerate(absorbed):
                if cur >> x & 1 and m & ~cur:
                    cur |= m
                    changed = True
        return cur

    return close


def next_closure(n, close):
    """Ganter's NextClosure (1984): every fixed point of ``close`` on
    subsets of range(n), in lectic order, each found from the one before."""
    current = close(0)
    while True:
        yield current
        for i in reversed(range(n)):
            bit = 1 << i
            if current & bit:
                current ^= bit
                continue
            found = close(current | bit)
            if not found & ~current & (bit - 1):
                current = found
                break
        else:
            return


def bell_numbers(count):
    """B(0)..B(count) by the Bell-triangle recurrence, independent of the engine."""
    values = [1, 1]
    row = [1]
    while len(values) <= count:
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
        values.append(row[-1])
    return values[: count + 1]


def triangle_rule_closed(pres, subset):
    """Direct reading of the closedness condition, bypassing the engine."""
    for ma, mb, mc in pres.triangle_masks:
        ina = ma & ~subset == 0
        inb = mb & ~subset == 0
        inc = mc & ~subset == 0
        if (ina and inb and not inc) or (inb and inc and not ina) or (inc and ina and not inb):
            return False
    return True


def absorption_closed(pres, subset):
    """Direct reading of tensor absorption: x in the subset puts every
    component of g*x in it, for every g."""
    table = pres.tensor.table
    for x in range(pres.size):
        if subset >> x & 1:
            for g in range(pres.size):
                for c in members_by_loop(table[g][x]):
                    if not subset >> c & 1:
                        return False
    return True


def ideal_rule_closed(pres, subset):
    return triangle_rule_closed(pres, subset) and absorption_closed(pres, subset)


def closed_by_sweep(pres, is_closed=triangle_rule_closed):
    """Oracle enumeration: every subset passing ``is_closed``, canonical order
    (n <= ~12)."""
    found = (s for s in range(1 << pres.size) if is_closed(pres, s))
    return tuple(sorted(found, key=key_by_members))


def closure_by_sweep(pres, subset, is_closed=triangle_rule_closed):
    """Oracle closure: intersect every directly-closed superset (n <= ~12)."""
    n = pres.size
    result = (1 << n) - 1
    for candidate in range(1 << n):
        if subset & ~candidate == 0 and is_closed(pres, candidate):
            result &= candidate
    return result


def assert_stopped_closure(members, stopped, full, stop):
    """The contract of a closure run with ``stop``: a set between ``members``
    and the full closure that meets ``stop`` exactly when the closure does,
    and is the closure whenever it misses ``stop``."""
    assert members & ~stopped == 0
    assert stopped & ~full == 0
    assert bool(stopped & stop) == bool(full & stop)
    if not stopped & stop:
        assert stopped == full


def fcbo_by_handoff(n, close):
    """Reference FCbO with In-Close's early stop, the order and pruning
    ``closure.iter_closed`` must match: each node collects its children and
    hands them a frozen copy of its failure records only once its loop over
    candidates is done."""
    stack = [(close(0, 0, 0), 0, (0,) * n)]
    while stack:
        parent, start, inherited = stack.pop()
        yield parent
        failed = list(inherited)
        children = []
        for j in range(start, n):
            bit = 1 << j
            if parent & bit:
                continue
            below = ~parent & (bit - 1)
            if failed[j] & below:
                continue
            child = close(parent | bit, parent, below)
            if child & below:
                failed[j] = child
            else:
                children.append((child, j + 1))
        records = tuple(failed)
        stack.extend((child, nxt, records) for child, nxt in children)


def covers_by_definition(elems):
    """Oracle Hasse edges: position pairs e < f with no element strictly between."""
    return sorted(
        (i, j) for i, e in enumerate(elems) for j, f in enumerate(elems)
        if e != f and e & ~f == 0 and not any(
            m != e and m != f and e & ~m == 0 and m & ~f == 0 for m in elems))


def covers_by_closures(lattice):
    """Reference Hasse edges from thick closures, the loop ``covering_pairs``
    ran before it read the family's inclusion order: per element, the
    minimal sets among the closures of it plus one more indecomposable,
    which must all be elements (a thick family of any size)."""
    elems = lattice.elements
    pres = lattice.presentation
    edges = []
    for lo, e in enumerate(elems):
        found = {lattice.position[thick_closure(pres, e | 1 << i, e)]
                 for i in range(pres.size) if not e >> i & 1}
        covers = []
        for p in sorted(found):
            if not any(elems[q] & ~elems[p] == 0 for q in covers):
                covers.append(p)
        edges += [(lo, hi) for hi in covers]
    return edges


def report_by_sweep(lattice):
    """Oracle lattice report: the full canonical-order (x, y, z) sweep of
    both laws, with each join by definition, the intersection of every
    element holding both operands, and height, atoms and covers by pairwise
    comparison (n <= ~200)."""
    elems = lattice.elements
    memo = {}

    def jn(a, b):
        u = a | b
        if u not in memo:
            memo[u] = reduce(and_, [e for e in elems if u & ~e == 0])
        return memo[u]

    def distributive_witness():
        for x in elems:
            for y in elems:
                for z in elems:
                    lhs, rhs = x & jn(y, z), jn(x & y, x & z)
                    if lhs != rhs:
                        return LawWitness(x, y, z, lhs, rhs)
        return None

    def modular_witness():
        for x in elems:
            for y in elems:
                for z in elems:
                    if x & ~z == 0:
                        lhs, rhs = jn(x, y & z), jn(x, y) & z
                        if lhs != rhs:
                            return LawWitness(x, y, z, lhs, rhs)
        return None

    dw, mw = distributive_witness(), modular_witness()
    heights = []
    for i, e in enumerate(elems):
        heights.append(max((heights[j] + 1 for j in range(i) if elems[j] & ~e == 0),
                           default=0))
    atoms = tuple(e for i, e in enumerate(elems[1:], 1)
                  if not any(elems[m] & ~e == 0 for m in range(1, i)))
    return LatticeReport(
        size=len(elems),
        height=max(heights),
        atoms=atoms,
        is_distributive=dw is None,
        distributive_witness=dw,
        is_modular=mw is None,
        modular_witness=mw,
        covers=tuple(covers_by_definition(elems)),
    )
