"""Constructors for the named graph families used throughout the suite.

Every constructor produces a fixed vertex layout so that goldens, cache keys,
and provenance tables are byte-stable across runs:

* cycle:   0-1-...-(m-1)-0
* path:    0-1-...-(m-1)
* tailed cycle (r, m): cycle 0..m-1, tail m..m+r-1 attached by edge (0, m)
* chorded cycle (m):   cycle 0..m-1 plus the chord (0, 2)
* spider cl(x, y, z):   center 0, three legs laid out consecutively
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .graph import Graph


def make_cycle(m: int) -> Graph:
    if m < 3:
        raise ValueError(f"cycle needs m >= 3, got {m}")
    return Graph(m, [(i, (i + 1) % m) for i in range(m)])


def make_path(m: int) -> Graph:
    if m < 1:
        raise ValueError(f"path needs m >= 1, got {m}")
    return Graph(m, [(i, i + 1) for i in range(m - 1)])


def make_tailed_cycle(r: int, m: int) -> Graph:
    """Unicyclic graph of order m+r: an m-cycle with a pendant path of order r.

    The path hangs off cycle vertex 0; the bounds m >= 3 and r >= 1 are
    forced by the construction (a cycle must exist, a path must be nonempty).
    """
    if m < 3:
        raise ValueError(f"tailed cycle needs m >= 3, got m={m}")
    if r < 1:
        raise ValueError(f"tailed cycle needs r >= 1, got r={r}")
    edges = [(i, (i + 1) % m) for i in range(m)]
    edges.append((0, m))
    edges.extend((m + i, m + i + 1) for i in range(r - 1))
    return Graph(m + r, edges)


def make_chorded_cycle(m: int) -> Graph:
    """Order m, size m+1: an m-cycle chorded between vertices at distance 2."""
    if m < 4:
        raise ValueError(f"chorded cycle needs m >= 4, got {m}")
    edges = [(i, (i + 1) % m) for i in range(m)]
    edges.append((0, 2))
    return Graph(m, edges)


def make_spider(x: int, y: int, z: int) -> Graph:
    """Three vertex-disjoint paths of orders x, y, z joined to one center."""
    if min(x, y, z) < 1:
        raise ValueError(f"spider needs leg orders >= 1, got ({x},{y},{z})")
    edges = []
    start = 1
    for leg in (x, y, z):
        edges.append((0, start))
        edges.extend((start + i, start + i + 1) for i in range(leg - 1))
        start += leg
    return Graph(x + y + z + 1, edges)


def tailed_cycles_of_total_order(n: int) -> list[Graph]:
    """All tailed cycles with r + m = n (m >= 3, r >= 1).

    Distinct r give distinct cycle lengths n - r, so the members are
    pairwise non-isomorphic.
    """
    if n < 4:
        raise ValueError(f"family needs n >= 4, got {n}")
    return [make_tailed_cycle(r, n - r) for r in range(1, n - 2)]


# ---------------------------------------------------------------------------
# Textual family specs ("C6", "P4", "G(r=2,m=4)", "F7", "CL(3,3,2)")
# ---------------------------------------------------------------------------

# kind -> (spec pattern, constructor, rendering format)
_FAMILIES = {
    "cycle": (re.compile(r"^C(\d+)$"), make_cycle, "C{}"),
    "path": (re.compile(r"^P(\d+)$"), make_path, "P{}"),
    "tailed_cycle": (
        re.compile(r"^G\(r=(\d+),m=(\d+)\)$"), make_tailed_cycle, "G(r={},m={})"
    ),
    "chorded_cycle": (re.compile(r"^F(\d+)$"), make_chorded_cycle, "F{}"),
    "spider": (re.compile(r"^CL\((\d+),(\d+),(\d+)\)$"), make_spider, "CL({},{},{})"),
}


@dataclass(frozen=True)
class FamilySpec:
    kind: str
    params: tuple[int, ...]

    def _family(self):
        if self.kind not in _FAMILIES:
            raise ValueError(f"unknown family kind {self.kind!r}")
        return _FAMILIES[self.kind]

    def build(self) -> Graph:
        return self._family()[1](*self.params)

    def render(self) -> str:
        return self._family()[2].format(*self.params)


def parse_family_spec(text: str) -> FamilySpec:
    """Parse a family spec string; raises ValueError on no match."""
    compact = text.replace(" ", "")
    for kind, (pat, _, _) in _FAMILIES.items():
        m = pat.match(compact)
        if m:
            return FamilySpec(kind, tuple(int(x) for x in m.groups()))
    raise ValueError(f"not a family spec: {text!r}")
