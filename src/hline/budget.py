"""Work budgets for the exact-search primitives.

Every exponential search in the package (cycle search, path extension
search, subgraph search, canonical labeling) counts the nodes it expands
against a shared counter and aborts with ResourceLimitError when the
allowance runs out.  Callers that can tolerate partial answers catch the
error and flag the result as budget-limited.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEARCH_NODES = 10_000_000
DEFAULT_MAX_ITER = 30
DEFAULT_MAX_ORDER = 512
DEFAULT_CANON_CAP = 24


class ResourceLimitError(RuntimeError):
    """Raised when an exact search exceeds its configured work budget."""


@dataclass(frozen=True)
class Budget:
    """Caps for one classification run (iteration, order, and search work)."""

    max_iter: int = DEFAULT_MAX_ITER
    max_order: int = DEFAULT_MAX_ORDER
    search_nodes: int = DEFAULT_SEARCH_NODES

    def counter(self) -> "WorkCounter":
        return WorkCounter(self.search_nodes)

    def fingerprint(self) -> list[int]:
        """Stable identity of the budget, used to key cache records."""
        return [self.max_iter, self.max_order, self.search_nodes]


class WorkCounter:
    """Mutable countdown of search nodes shared across one run's searches."""

    __slots__ = ("remaining",)

    def __init__(self, nodes: int = DEFAULT_SEARCH_NODES):
        self.remaining = int(nodes)

    def spend(self, amount: int = 1) -> None:
        self.remaining -= amount
        if self.remaining < 0:
            raise ResourceLimitError("search work budget exhausted")
