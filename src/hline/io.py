"""Graph interchange formats and report serialization.

Two textual graph forms are supported:

* edge list, the human-writable form: ``"4; 0-1, 1-2, 2-3"`` — vertex count,
  a semicolon, then comma-separated ``u-v`` pairs.  Whitespace-insensitive.
  Vertex ids may be sparse; they are compacted to dense 0-based ids
  preserving numeric order.  A trailing empty edge section ("3;") is
  accepted so edgeless graphs round-trip.
* graph6, the de-facto ASCII encoding used by small-graph corpora in the
  wild; only single-line graphs on at most 62 vertices are in scope.

Classification reports serialize to JSON with the certificate witness
embedded in full, so third parties can re-verify certificates without this
tool; the schema ships in ``schema/report.schema.json``.
"""

from __future__ import annotations

import re

from .classify import Classification
from .graph import Graph, canonical_code, components, norm_edge

TOOL_VERSION = "0.1.0"


class GraphParseError(ValueError):
    def __init__(self, message: str, column: int | None = None):
        loc = f" (line 1, column {column})" if column is not None else ""
        super().__init__(f"{message}{loc}")
        self.column = column


# ---------------------------------------------------------------------------
# Edge-list format
# ---------------------------------------------------------------------------

_EDGE_RE = re.compile(r"(\d+)\s*-\s*(\d+)")


def parse_edge_list(text: str) -> Graph:
    head, sep, tail = text.partition(";")
    if not sep:
        raise GraphParseError("missing ';' after vertex count")
    try:
        count = int(head.strip())
    except ValueError:
        raise GraphParseError("vertex count is not an integer", column=1) from None
    if count < 0:
        raise GraphParseError("vertex count must be nonnegative", column=1)
    raw_edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    offset = len(head) + 1
    pos = 0
    tail_stripped = tail.strip()
    if tail_stripped:
        for part in tail.split(","):
            col = offset + pos + 1
            pos += len(part) + 1
            m = _EDGE_RE.fullmatch(part.strip())
            if not m:
                raise GraphParseError(f"bad edge token {part.strip()!r}", column=col)
            u, v = int(m.group(1)), int(m.group(2))
            if u == v:
                raise GraphParseError(f"self-loop at vertex {u}", column=col)
            e = norm_edge(u, v)
            if e in seen:
                raise GraphParseError(f"duplicate edge {u}-{v}", column=col)
            seen.add(e)
            raw_edges.append(e)
    ids = sorted({v for e in raw_edges for v in e})
    if len(ids) > count:
        raise GraphParseError(
            f"{len(ids)} distinct vertices exceed declared count {count}"
        )
    if ids and ids[-1] >= count:
        # sparse ids: compact to dense 0-based ids preserving numeric order
        compact = {old: new for new, old in enumerate(ids)}
        raw_edges = [(compact[u], compact[v]) for u, v in raw_edges]
    return Graph(count, raw_edges)


def render_edge_list(g: Graph) -> str:
    body = ", ".join(f"{u}-{v}" for u, v in g.edges())
    return f"{g.order}; {body}" if body else f"{g.order};"


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------


def parse_graph6(line: str) -> Graph:
    text = line.strip()
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<"):]
    if not text:
        raise GraphParseError("empty graph6 line")
    first = ord(text[0])
    if first == 126:
        raise GraphParseError("graphs over 62 vertices are out of scope")
    if not 63 <= first <= 126:
        raise GraphParseError(f"bad graph6 size byte {text[0]!r}", column=1)
    n = first - 63
    need_bits = n * (n - 1) // 2
    need_chars = (need_bits + 5) // 6
    body = text[1:]
    if len(body) != need_chars:
        raise GraphParseError(
            f"graph6 body has {len(body)} chars, expected {need_chars} for n={n}"
        )
    bits: list[int] = []
    for i, ch in enumerate(body):
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise GraphParseError(f"bad graph6 byte {ch!r}", column=i + 2)
        bits.extend((val >> k) & 1 for k in range(5, -1, -1))
    if any(bits[need_bits:]):
        raise GraphParseError("nonzero padding bits in graph6 body")
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return Graph(n, edges)


def to_graph6(g: Graph) -> str:
    if g.order > 62:
        raise ValueError("graphs over 62 vertices are out of scope")
    n = g.order
    bits: list[int] = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(n + 63)]
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = (val << 1) | b
        chars.append(chr(val + 63))
    return "".join(chars)


def parse_graph(text: str) -> Graph:
    """Parse either textual graph form; edge lists are recognized by ';'."""
    if ";" in text:
        return parse_edge_list(text)
    return parse_graph6(text)


# ---------------------------------------------------------------------------
# Classification report JSON
# ---------------------------------------------------------------------------


def classification_report(c: Classification, input_graph: Graph) -> dict:
    """The full JSON report for one classification, schema-conformant."""
    limit_code = None
    if c.limit is not None:
        limit_code = canonical_code(c.limit).hex()
    return {
        "tool_version": TOOL_VERSION,
        "n": c.n,
        "input_code": canonical_code(input_graph).hex(),
        "outcome": c.outcome.value,
        "N": c.steps_to_outcome,
        "certificate": c.certificate.to_json() if c.certificate else None,
        "trace": [
            {
                "k": k,
                "order": h.order,
                "size": h.size,
                "components": len(components(h)),
            }
            for k, h in enumerate(c.trace.steps)
        ],
        "stop_reason": c.trace.stop_reason.value,
        "unknown_reason": c.unknown_reason,
        "limit_code": limit_code,
        "budget_flags": list(c.budget_flags),
    }
