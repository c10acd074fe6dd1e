"""Core graph value type and exact small-graph algorithms.

Graphs are finite, simple, undirected, with dense 0-based vertex ids and
value semantics: two Graph objects compare equal exactly when they have the
same order and the same edge set.  Everything here is pure and deterministic;
the expensive operations (canonical labeling, longest-cycle search) are exact
and budgeted rather than heuristic, because every graph in scope is small.
"""

from __future__ import annotations

import sys
from collections import deque

from .budget import ResourceLimitError, WorkCounter

Edge = tuple[int, int]


def norm_edge(u: int, v: int) -> Edge:
    """Normalize an endpoint pair to (min, max); rejects self-loops."""
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable simple undirected graph on vertices 0..order-1."""

    def __init__(self, order: int, edges=()):
        if order < 0:
            raise ValueError("order must be nonnegative")
        normalized = set()
        for u, v in edges:
            if u > v:
                u, v = v, u
            elif u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u < 0 or v >= order:
                raise ValueError(f"edge ({u},{v}) out of range for order {order}")
            normalized.add((u, v))
        self._order = order
        self._edges = tuple(sorted(normalized))
        # in lexicographic edge order every adjacency list fills up sorted:
        # first the lower neighbours, then the higher ones
        adj: list[list[int]] = [[] for _ in range(order)]
        for u, v in self._edges:
            adj[u].append(v)
            adj[v].append(u)
        self._adj = tuple(map(tuple, adj))
        self._hash = hash((order, self._edges))
        self._code: bytes | None = None  # set by canonical_code
        self._code_nodes = 0  # the labeling's cost, set with _code
        self._automorphisms: list[list[int]] = []  # set with _code
        self._canonical_order: list[int] = []  # set with _code
        self._parent_code: bytes | None = None  # set by enumeration

    @property
    def order(self) -> int:
        return self._order

    @property
    def size(self) -> int:
        return len(self._edges)

    def edges(self) -> tuple[Edge, ...]:
        """All edges as normalized (u, v) pairs in lexicographic order."""
        return self._edges

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        a, b = norm_edge(u, v)
        return b in self._adj[a]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._order == other._order and self._edges == other._edges

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(order={self._order}, edges={list(self._edges)})"


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, list[int]]:
    """Induced subgraph on a vertex subset, compacted to dense ids.

    Returns (subgraph, old_ids) where old_ids[i] is the original id of
    the subgraph's vertex i.  Ids are compacted preserving numeric order.
    """
    old_ids = sorted(vertices)
    idx = {old: new for new, old in enumerate(old_ids)}
    keep = set(old_ids)
    edges = [(idx[u], idx[v]) for u, v in g.edges() if u in keep and v in keep]
    return Graph(len(old_ids), edges), old_ids


def components(g: Graph) -> list[frozenset[int]]:
    """Connected components as vertex-id sets, ordered by minimum id."""
    seen = [False] * g.order
    out: list[frozenset[int]] = []
    for start in range(g.order):
        if seen[start]:
            continue
        comp = {start}
        seen[start] = True
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in g.neighbors(u):
                if not seen[w]:
                    seen[w] = True
                    comp.add(w)
                    queue.append(w)
        out.append(frozenset(comp))
    return out


def component_of(g: Graph) -> list[frozenset[int]]:
    """Entry v is the component holding v, one shared set per component."""
    out: list[frozenset[int]] = [frozenset()] * g.order
    for comp in components(g):
        for v in comp:
            out[v] = comp
    return out


def is_connected(g: Graph) -> bool:
    return len(components(g)) == 1


# ---------------------------------------------------------------------------
# Canonical labeling and isomorphism
# ---------------------------------------------------------------------------


def _refined_colors(g: Graph) -> list[int]:
    """Label-independent vertex colors by iterated neighborhood refinement.

    Colors start from degrees and are refined with sorted neighbor-color
    multisets until stable.  Color ids are ranks of sorted signatures, so
    isomorphic graphs assign corresponding vertices identical colors.
    """
    n = g.order
    if n == 0:
        return []
    adj = g._adj
    sig = [len(nbrs) for nbrs in adj]
    rank = {s: i for i, s in enumerate(sorted(set(sig)))}
    colors = [rank[s] for s in sig]
    # a signature leads with the vertex's colour, so each round refines the
    # last; a round that adds no class keeps every colour id, and no round
    # after it changes anything
    while len(rank) < n:
        sigs = [
            (colors[v], tuple(sorted(map(colors.__getitem__, nbrs))))
            for v, nbrs in enumerate(adj)
        ]
        classes = len(rank)
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        if len(rank) == classes:
            break
        colors = [rank[s] for s in sigs]
    return colors


def _canonical_rows(
    g: Graph, counter: WorkCounter
) -> tuple[list[int], list[list[int]], list[int]]:
    """Lexicographically greatest adjacency rows over color-respecting orders,
    with the automorphisms the search found on the way and the vertex order
    that gives the rows.

    Positions are blocked by refined color class (classes in color order);
    within a class every vertex choice is branched over, with prefix pruning
    against the best row vector found so far.  The maximum is the same for
    isomorphic graphs and reconstructs the graph, so it is a canonical form.

    Row i holds one bit per earlier position j, bit i-1-j set when the
    vertices at positions i and j are adjacent.  Every vertex keeps its
    adjacency to the placed prefix as one integer, updated at its
    neighbours when a vertex is placed and undone on backtrack, so a
    candidate's row is a shift.  A flag records whether the current prefix
    equals the best one; it turns true again whenever the best changes
    inside the subtree.

    A leaf whose rows equal the best gives an automorphism gamma, mapping
    the best leaf's order onto the current one (McKay 1981).  gamma fixes
    the prefix the two orders share and maps the finished sibling subtree
    that holds the best leaf onto the current subtree, so the search jumps
    back to the node where they part.  At a node, a candidate in the same
    orbit as an already tried one, under the automorphisms found so far
    that fix the placed prefix pointwise, is skipped.  So is a candidate v
    that is a twin of an already tried u, N(u) - v = N(v) - u, one test on
    neighbourhood bit masks: the transposition (u v) is an automorphism
    that fixes the prefix pointwise, so it maps u's finished subtree onto
    v's.  The three prunings only drop subtrees whose row vectors a
    finished subtree already holds, and a dropped subtree never comes
    before the one holding its image, so the maximum, the first leaf that
    reaches it and with them the code and the order are those of the
    unpruned search.  Each node spends one unit of `counter`; a singleton
    cell's node places its one vertex with no sort and no orbits.

    Returns the rows, the automorphisms found, each as a list mapping
    vertex v to gamma[v], and the best leaf's order, whose entry p is the
    vertex at position p.  The automorphisms are a subset of the
    automorphism group, not necessarily generators of all of it.  They
    include the transposition (u v) of each twin v skipped, at its first
    skip only, so twins add at most one automorphism per vertex.
    """
    n = g.order
    colors = _refined_colors(g)
    cells: dict[int, set[int]] = {}
    for v in range(n):
        cells.setdefault(colors[v], set()).add(v)
    pos_class: list[int] = []
    for c in sorted(cells):
        pos_class.extend([c] * len(cells[c]))
    adj = g._adj

    # link[w] has bit n-1-j set when the vertex at position j is adjacent to w
    link = [0] * n
    best: list[int] = []
    best_perm: list[int] = []
    improved = 0  # number of times best has changed
    autos: list[list[int]] = []
    rows: list[int] = []
    placed: list[int] = []
    masks: list[int] | None = None  # neighbourhood bit masks, built at the first tie
    swapped = [False] * n  # whether autos holds a twin transposition moving v

    def search(i: int, eq: bool) -> int:
        """Explore below the placed prefix of length i; returns the depth
        whose node resumes its loop, n when no subtree is abandoned."""
        nonlocal best, best_perm, improved, masks
        counter.spend()
        if i == n:
            if not eq:
                best, best_perm = rows.copy(), placed.copy()
                improved += 1
                return n
            gamma = [0] * n
            for p in range(n):
                gamma[best_perm[p]] = placed[p]
            autos.append(gamma)
            # gamma fixes the common prefix and maps the finished sibling
            # subtree that holds the best leaf onto the current one
            d = 0
            while placed[d] == best_perm[d]:
                d += 1
            return d
        cell = cells[pos_class[i]]
        shift = n - i
        bit = 1 << (shift - 1)
        if len(cell) == 1:
            # the only candidate, and no later position draws on its cell
            (v,) = cell
            row = link[v] >> shift
            if eq and row < best[i]:
                return n
            rows.append(row)
            placed.append(v)
            for w in adj[v]:
                link[w] |= bit
            resume = search(i + 1, eq and row == best[i])
            for w in adj[v]:
                link[w] ^= bit
            placed.pop()
            rows.pop()
            return resume if resume < i else n
        scored = sorted(((link[v] >> shift, v) for v in cell), reverse=True)
        # only the top row is ever explored: a lower one either breaks the
        # loop below or follows a leaf that set best[i] to the top row, so
        # dropping the rest keeps a level's memory to one group
        top = scored[0][0]
        k = 1
        while k < len(scored) and scored[k][0] == top:
            k += 1
        del scored[k:]
        tried: list[int] = []
        orbit: dict[int, int] = {}
        seen_autos = 0
        for row, v in scored:
            if eq and row < best[i]:
                break  # candidates come in falling row order
            if tried:
                if masks is None:
                    masks = [sum(1 << w for w in nbrs) for nbrs in adj]
                mv = masks[v]
                twin = next(
                    (u for u in tried if not (masks[u] ^ mv) & ~(1 << u | 1 << v)), None
                )
                if twin is not None:
                    if not swapped[v]:
                        swapped[v] = True
                        gamma = list(range(n))
                        gamma[twin], gamma[v] = v, twin
                        autos.append(gamma)
                    continue
                if len(autos) > seen_autos:
                    seen_autos = len(autos)
                    fixing = [a for a in autos if all(a[u] == u for u in placed)]
                    orbit = _orbits(cell, fixing)
                if orbit and orbit[v] in {orbit[u] for u in tried}:
                    continue
            rows.append(row)
            placed.append(v)
            cell.remove(v)
            for w in adj[v]:
                link[w] |= bit
            before = improved
            resume = search(i + 1, eq and row == best[i])
            for w in adj[v]:
                link[w] ^= bit
            cell.add(v)
            placed.pop()
            rows.pop()
            if resume < i:
                return resume
            tried.append(v)
            if improved != before:
                eq = True
        return n

    # search recurses once per position, so a large order needs a deeper
    # stack than the default limit leaves below the callers' frames
    limit = sys.getrecursionlimit()
    if n > limit // 2:
        sys.setrecursionlimit(limit + n)
    try:
        search(0, False)
    except SystemError as exc:
        # running out of memory deep in this recursion can surface as
        # "SystemError: error return without exception set"
        raise MemoryError from exc
    finally:
        sys.setrecursionlimit(limit)
    assert improved
    return best, autos, best_perm


def _orbits(cell: set[int], gens: list[list[int]]) -> dict[int, int]:
    """Orbit representative of each vertex of `cell` under the group the
    permutations `gens` generate; each of them maps `cell` onto itself."""
    parent = {v: v for v in cell}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for gamma in gens:
        for v in cell:
            a, b = find(v), find(gamma[v])
            if a != b:
                parent[a] = b
    return {v: find(v) for v in cell}


def canonical_code(g: Graph, *, counter: WorkCounter | None = None) -> bytes:
    """Canonical byte code: equal codes exactly for isomorphic graphs.

    The code is the order as 4 big-endian bytes, then the strict lower
    triangle of the `_canonical_rows` adjacency matrix, row by row, packed
    MSB-first and zero-padded to a whole byte.  Deterministic across runs
    and platforms.  Raises ResourceLimitError if the labeling search
    exhausts `counter`.

    The code is stored on `g` once a search completes, with the nodes the
    search spent as `g._code_nodes`; an exhausted search stores nothing.
    Later calls on the same object return the stored code without
    searching, and spend its recorded cost from `counter` when one is
    passed, so a budget runs out at the same call whether or not `g` was
    labeled before.  The automorphisms that search
    found are stored beside it as `g._automorphisms`, and the vertex order
    that gives the code's rows as `g._canonical_order` (entry p is the
    vertex at position p; isomorphic graphs' orders differ by an
    isomorphism).  `enumerate_connected_graphs` uses both.  Neither the
    stored code nor the search pruning changes the bytes, whose format the
    tests pin.
    """
    if g._code is not None:
        if counter is not None:
            counter.spend(g._code_nodes)
        return g._code
    n = g.order
    if counter is None:
        counter = WorkCounter(2_000_000)
    before = counter.remaining
    rows, autos, order = _canonical_rows(g, counter)
    # row i holds i bits, its first one highest
    acc = 0
    for i, row in enumerate(rows):
        acc = (acc << i) | row
    nbits = n * (n - 1) // 2
    pad = -nbits % 8
    g._code = n.to_bytes(4, "big") + (acc << pad).to_bytes((nbits + pad) // 8, "big")
    g._code_nodes = before - counter.remaining
    g._automorphisms = autos
    g._canonical_order = order
    return g._code


def is_isomorphic(g1: Graph, g2: Graph, *, counter: WorkCounter | None = None) -> bool:
    """Exact isomorphism test; agrees with canonical_code equality."""
    if g1.order != g2.order or g1.size != g2.size:
        return False
    if sorted(g1.degree(v) for v in range(g1.order)) != sorted(
        g2.degree(v) for v in range(g2.order)
    ):
        return False
    return canonical_code(g1, counter=counter) == canonical_code(g2, counter=counter)


# ---------------------------------------------------------------------------
# Simple paths and cycle statistics
# ---------------------------------------------------------------------------


def simple_paths(
    g: Graph, start: int, counter: WorkCounter, blocked=(), max_order: int | None = None
):
    """Every simple path from `start` whose other vertices avoid `blocked`
    and that has at most `max_order` vertices, `[start]` first.

    Depth-first: each path comes before its extensions, and the extensions
    of a path in increasing order of their new vertex.  Each path yielded
    spends one unit of `counter`.  The list yielded is the live path, which
    changes when the generator resumes, so callers copy a path they keep.
    `blocked` is read once, when the iteration starts.
    """
    if max_order is None:
        max_order = g.order
    adj = g._adj
    spend = counter.spend
    seen = [False] * g.order  # blocked or on the path
    for v in blocked:
        seen[v] = True
    seen[start] = True
    path = [start]
    spend()
    yield path
    stack = [iter(adj[start])] if max_order > 1 else []
    while stack:
        for x in stack[-1]:
            if seen[x]:
                continue
            spend()
            path.append(x)
            yield path
            if len(path) < max_order:
                seen[x] = True
                stack.append(iter(adj[x]))
                break
            path.pop()
        else:
            stack.pop()
            seen[path.pop()] = False


def longest_cycle(g: Graph, counter: WorkCounter | None = None) -> list[int] | None:
    """A longest cycle as a vertex sequence, or None for acyclic graphs.

    Each cycle is found from its minimum vertex a, as a path through the
    vertices above a of degree >= 2 in a's component (a's available
    vertices) whose end is adjacent to a.  An anchor stops at a cycle
    through all of them, since no cycle through a is longer, and is skipped
    when that length cannot beat the best cycle found.
    """
    if counter is None:
        counter = WorkCounter()
    comp_of = component_of(g)
    best: list[int] = []
    for a in range(g.order):
        if g.degree(a) < 2:
            continue
        avail = {v for v in comp_of[a] if v > a and g.degree(v) >= 2}
        if 1 + len(avail) <= len(best):
            continue
        blocked = [v for v in comp_of[a] if v not in avail]
        for path in simple_paths(g, a, counter, blocked):
            if len(path) >= 3 and len(path) > len(best) and g.has_edge(path[-1], a):
                best = path.copy()
                if len(best) == 1 + len(avail):
                    break
    return best or None


def circumference(g: Graph, counter: WorkCounter | None = None) -> int:
    """Length of the longest cycle; 0 when the graph is a forest."""
    cyc = longest_cycle(g, counter)
    return 0 if cyc is None else len(cyc)


def girth(g: Graph) -> int:
    """Length of the shortest cycle; 0 (sentinel) when acyclic.

    For each edge (u, v), a BFS in the graph minus that edge measures the
    shortest alternative u-v path, closing the shortest cycle through it.
    """
    best = 0
    for u, v in g.edges():
        dist = _bfs_dist_avoiding_edge(g, u, v)
        if dist is not None:
            cyc = dist + 1
            if best == 0 or cyc < best:
                best = cyc
                if best == 3:
                    return 3
    return best


def _bfs_dist_avoiding_edge(g: Graph, u: int, v: int) -> int | None:
    dist = {u: 0}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for w in g.neighbors(x):
            if x == u and w == v:
                continue
            if w not in dist:
                dist[w] = dist[x] + 1
                if w == v:
                    return dist[w]
                queue.append(w)
    return dist.get(v)


def is_cycle_graph(g: Graph) -> bool:
    """True iff g is connected, has order >= 3, and is 2-regular."""
    return (
        g.order >= 3
        and all(g.degree(v) == 2 for v in range(g.order))
        and is_connected(g)
    )


def unique_cycle(g: Graph) -> list[int] | None:
    """The cycle of a connected unicyclic graph, None otherwise.

    The sequence starts at the cycle's minimum vertex id and proceeds toward
    that vertex's smaller cycle neighbor.
    """
    if g.order == 0 or g.size != g.order or not is_connected(g):
        return None
    # peel leaves; what survives is exactly the unique cycle
    deg = [g.degree(v) for v in range(g.order)]
    queue = deque(v for v in range(g.order) if deg[v] == 1)
    removed = [False] * g.order
    while queue:
        v = queue.popleft()
        removed[v] = True
        for w in g.neighbors(v):
            if not removed[w]:
                deg[w] -= 1
                if deg[w] == 1:
                    queue.append(w)
    cycle_vertices = [v for v in range(g.order) if not removed[v]]
    start = min(cycle_vertices)
    on_cycle = set(cycle_vertices)
    first = min(w for w in g.neighbors(start) if w in on_cycle)
    seq = [start, first]
    while True:
        cur, prev = seq[-1], seq[-2]
        nxt = next(w for w in g.neighbors(cur) if w in on_cycle and w != prev)
        if nxt == start:
            return seq
        seq.append(nxt)
