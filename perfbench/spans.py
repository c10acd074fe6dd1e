"""Spans and work counts recorded around the public functions of each layer.

`install` replaces each traced function with a wrapper everywhere a caller
looks it up: every `hline` module attribute bound to it, `classify._CHECKS`
(so the identity test on `check_long_tail` still holds) and, for methods,
the class.  Nothing under `src/` changes.

A span records its name, start, end and parent span.  Self time is a span's
duration minus the time its child spans cover.  Nodes are the drop in
`WorkCounter.remaining` across a call; when the caller passes no counter,
the wrapper passes one with the cap the callee would have used itself, so
budgets, and therefore outputs, are unchanged.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

CALLS, NODES, HITS, EXHAUSTED, YIELDS = range(5)


class Tracer:
    """Spans of one pass, kept in flat arrays until the pass ends."""

    def __init__(self):
        self.names: list[str] = []
        self.stats: list[list[int]] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.open = -1

    def register(self, name: str) -> int:
        self.names.append(name)
        self.stats.append([0, 0, 0, 0, 0])
        return len(self.names) - 1

    def begin(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.open)
        self.end.append(0.0)
        self.start.append(perf_counter())
        self.open = i
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.open = self.parent[i]

    def summary(self) -> dict:
        """Per name: calls, self_s, nodes, hits, exhausted, yields, and the
        number of direct child spans by child name."""
        n = len(self.name)
        self_s = [0.0] * len(self.names)
        covered = [0.0] * n
        children: dict[int, Counter] = defaultdict(Counter)
        # a child always has a larger index than its parent
        for i in range(n - 1, -1, -1):
            dur = self.end[i] - self.start[i]
            nid = self.name[i]
            self_s[nid] += dur - covered[i]
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur
                children[self.name[p]][self.names[nid]] += 1
        out = {}
        for nid, name in enumerate(self.names):
            st = self.stats[nid]
            out[name] = {
                "calls": st[CALLS],
                "self_s": self_s[nid],
                "nodes": st[NODES],
                "hits": st[HITS],
                "exhausted": st[EXHAUSTED],
                "yields": st[YIELDS],
                "children": dict(children.get(nid, {})),
            }
        return out


def _wrap_call(tracer, name, fn, counter_index, default_counter, limit_error):
    """Wrapper for a plain function or method.

    counter_index: position of the `counter` parameter, None when it is
    keyword-only; default_counter: factory for the counter the callee makes
    when given none, or None to leave the counter alone and count no nodes.
    """
    nid = tracer.register(name)
    st = tracer.stats[nid]

    def traced(*args, **kwargs):
        counter = None
        if default_counter is not None:
            positional = counter_index is not None and len(args) > counter_index
            counter = args[counter_index] if positional else kwargs.get("counter")
            if counter is None:
                counter = default_counter()
                if positional:
                    args = args[:counter_index] + (counter,) + args[counter_index + 1:]
                else:
                    kwargs["counter"] = counter
            before = counter.remaining
        st[CALLS] += 1
        i = tracer.begin(nid)
        try:
            result = fn(*args, **kwargs)
        except limit_error:
            st[EXHAUSTED] += 1
            raise
        finally:
            tracer.finish(i)
            if counter is not None:
                st[NODES] += before - counter.remaining
        if result is not None:
            st[HITS] += 1
        return result

    return traced


def _wrap_generator(tracer, name, fn):
    """Wrapper for a generator function: one span per resume."""
    nid = tracer.register(name)
    st = tracer.stats[nid]

    def traced(*args, **kwargs):
        st[CALLS] += 1
        it = fn(*args, **kwargs)
        while True:
            i = tracer.begin(nid)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.finish(i)
            st[YIELDS] += 1
            yield item

    return traced


def _rebind(original, wrapped) -> None:
    """Point every `hline` module attribute bound to `original` at `wrapped`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "hline" or mod_name.startswith("hline.")):
            continue
        for key in [k for k, v in vars(mod).items() if v is original]:
            setattr(mod, key, wrapped)


def install(hline) -> Tracer:
    """Wrap the public functions of each layer; returns the tracer."""
    from hline import budget, cache, graph, io, minimality, operator

    # the package attribute `hline.classify` is the function, not the module
    classify_mod = sys.modules["hline.classify"]

    tracer = Tracer()
    limit = budget.ResourceLimitError

    def search_counter():
        return budget.WorkCounter()

    def canon_counter():
        # canonical_code makes this counter itself when given none
        return budget.WorkCounter(2_000_000)

    functions = [
        # (span name, module, attribute, counter index, default counter)
        ("graph.canonical_code", graph, "canonical_code", None, canon_counter),
        ("graph.is_isomorphic", graph, "is_isomorphic", None, None),
        ("operator.hl_step", operator, "hl_step", 2, search_counter),
        ("classify.check_long_cycle", classify_mod, "check_long_cycle", 2, search_counter),
        ("classify.check_long_tail", classify_mod, "check_long_tail", 2, search_counter),
        ("classify.check_spider", classify_mod, "check_spider", 2, search_counter),
        ("classify.check_twin_tail", classify_mod, "check_twin_tail", 2, search_counter),
        ("classify.classify", classify_mod, "classify", None, None),
        ("minimality.minimality_decision", minimality, "minimality_decision", None, None),
        ("io.parse_graph", io, "parse_graph", None, None),
        ("io.classification_report", io, "classification_report", None, None),
    ]
    for name, mod, attr, index, factory in functions:
        original = getattr(mod, attr)
        _rebind(original, _wrap_call(tracer, name, original, index, factory, limit))
    for name, attr in (
        ("minimality.enumerate_connected_graphs", "enumerate_connected_graphs"),
        ("minimality.proper_subgraphs", "proper_subgraphs"),
    ):
        original = getattr(minimality, attr)
        _rebind(original, _wrap_generator(tracer, name, original))
    methods = [
        ("minimality.classifier.summary", minimality.Classifier, "summary"),
        ("cache.load", cache.ClassificationCache, "__init__"),
        ("cache.get", cache.ClassificationCache, "get"),
        ("cache.put", cache.ClassificationCache, "put"),
    ]
    for name, cls, attr in methods:
        setattr(cls, attr, _wrap_call(tracer, name, getattr(cls, attr), None, None, limit))
    classify_mod._CHECKS = tuple(
        (check, getattr(classify_mod, f"check_{check}")) for check, _ in classify_mod._CHECKS
    )
    return tracer
