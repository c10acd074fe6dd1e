"""The iterated path-line operator.

Vertex i of the derived graph is edge i of the input, `g.edges()[i]`.  Two
edges that share a vertex become adjacent in the derived graph exactly when
some simple path on n vertices contains both.  Because the shared vertex
forces the two edges (u,v) and (v,w) to sit consecutively on any such
path, the test reduces to one split search: two vertex-disjoint
extensions, one leaving u and one leaving w, whose orders sum to n - 3.
That search is exact and far cheaper than whole-path enumeration, which
the acceptance criteria and the tests keep as the reference.  Whether the
second extension exists depends only on its start and the vertex set it
must avoid, so one operator step remembers that answer across all of its
pairs of edges; most of the answers are no, and each would otherwise be
searched again.

The module holds the operator alone; the classifier (`hline.classify`)
iterates it.
"""

from __future__ import annotations

from .budget import WorkCounter
from .graph import Graph, norm_edge, simple_paths


def _two_disjoint_extensions(
    g: Graph, u: int, v: int, w: int, n: int, counter: WorkCounter,
    memo: dict[int, bool],
) -> bool:
    """Do edges (u,v) and (v,w) lie on a common simple path on n vertices?

    Such a path runs through u, v, w in a row, so it exists iff two
    vertex-disjoint paths, one from u and one from w, avoid {u, v, w} past
    their starts and have n - 3 further vertices together.  One pass over
    the paths from u with at most n - 3 further vertices: a path with a
    further vertices fixes the split, and is tried with every path from w
    with b = n - 3 - a further vertices that avoids it.  The w side asks
    whether a path from w of more than b = n - |X| vertices avoids
    X = {u, v, w} + the u path, so its answer depends on w and X alone, at
    one n in one graph.  `memo` maps the key (X as a bitmask, times the
    order, plus w) to that answer, so no w side is searched twice; one
    operator step shares it over all its pairs.
    """
    order = g.order
    base = (u, v, w)
    total = n - 3
    # masks[i] is the bitmask of base and the first i vertices of the live
    # path; each path yielded is a prefix of the one before plus one vertex
    masks = [1 << u | 1 << v | 1 << w]
    for left in simple_paths(g, u, counter, base, total + 1):
        size = len(left)
        del masks[size:]
        masks.append(masks[size - 1] | 1 << left[-1])
        key = masks[size] * order + w
        found = memo.get(key)
        if found is None:
            b = total + 1 - size
            found = memo[key] = any(
                len(right) > b
                for right in simple_paths(g, w, counter, (*base, *left), b + 1)
            )
        if found:
            return True
    return False


def hl_step(g: Graph, n: int, counter: WorkCounter | None = None) -> Graph:
    """One application of the operator: vertex i of the derived graph is
    the edge g.edges()[i], and two vertices are joined when their edges are
    path-adjacent.  Edges lying on no n-vertex path become isolated
    vertices; they disappear at the next step.  All pairs share one memo
    of split-search answers (see `_two_disjoint_extensions`).
    """
    if n < 4:
        raise ValueError(f"path order parameter must be >= 4, got {n}")
    if counter is None:
        counter = WorkCounter()
    edges = g.edges()
    index = {e: i for i, e in enumerate(edges)}
    derived: list[tuple[int, int]] = []
    memo: dict[int, bool] = {}
    for v in range(g.order):
        nbrs = g.neighbors(v)
        for ai in range(len(nbrs)):
            for bi in range(ai + 1, len(nbrs)):
                u, w = nbrs[ai], nbrs[bi]
                if _two_disjoint_extensions(g, u, v, w, n, counter, memo):
                    derived.append((index[norm_edge(u, v)], index[norm_edge(v, w)]))
    return Graph(len(edges), derived)

