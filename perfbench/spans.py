"""In-memory span recording around the pipeline's layer functions.

A span is (operation id, name, parent span, start ns, end ns). Spans of one
document or sentence share the operation id; the parent is the span that
was open when the call began, so self times follow from the tree. Spans are
kept in lists while the traced pass runs and written out once at the end.

The layer functions are wrapped where they are looked up at call time:
``ordonnance.pipeline`` imports them with ``from ... import``, so the names
bound in that module are the ones replaced; ``druglink`` calls the kernels
and ``predict`` calls ``featurize`` through their modules, so those module
attributes are replaced. Everything is restored when the context exits.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

from ordonnance import classify, kernels, pipeline

# (module, attribute, span name); the layer is the part before the dot.
WRAPPED = (
    (pipeline, "make_sentence", "textnorm.make_sentence"),
    (pipeline, "sentence_from_text", "textnorm.sentence_from_text"),
    (pipeline, "normalize_text", "textnorm.normalize_text"),
    (pipeline, "predict", "classify.predict"),
    (classify, "featurize", "classify.featurize"),
    (pipeline, "detect_drug", "druglink.detect"),
    (pipeline, "split_combined_line", "druglink.split"),
    (pipeline, "mention_token_window", "druglink.window"),
    (pipeline, "starts_with_equivalence_marker", "druglink.equivalence"),
    (pipeline, "extract_posology", "posology.extract"),
    (pipeline, "link", "linking.link"),
    (kernels, "similarity", "kernels.similarity"),
    (kernels, "levenshtein_leq1", "kernels.levenshtein"),
)

# Calls whose arguments and result are kept for the per-layer counts; the
# kernels are only counted, as they run about a thousand times per document.
KEEP = {
    "textnorm.make_sentence",
    "textnorm.sentence_from_text",
    "classify.predict",
    "druglink.detect",
    "posology.extract",
    "linking.link",
    "ocr.parse",
    "serialize.dump",
}

# Spans that belong to no measured layer: the benchmark's own operation span
# and the pipeline's orchestration around the layer calls.
ORCHESTRATION = ("op", "pipeline")


def layer_of(name: str) -> str:
    layer = name.split(".", 1)[0]
    return "pipeline" if layer in ORCHESTRATION else layer


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.kept: list[tuple[int, tuple, object]] = []  # (span, args, result)
        self._stack = [-1]
        self.op = -1

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ops.append(self.op)
        self.starts.append(0)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts[idx] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            self.ends[idx] = time.perf_counter_ns()
            self._stack.pop()
        if name in KEEP:
            self.kept.append((idx, args, result))
        return result

    def _wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every function in WRAPPED for the duration of the block."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in WRAPPED]
        try:
            for (module, attr, name), (_, _, fn) in zip(WRAPPED, saved):
                setattr(module, attr, self._wrapper(name, fn))
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def self_times(self) -> list[int]:
        """Each span's duration minus the durations of its direct children."""
        out = [end - start for start, end in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[i] - self.starts[i]
        return out

    def layer_totals(self, ops: set[int] | None = None) -> dict[str, dict[str, int]]:
        """Per span name: number of calls and summed self time (ns)."""
        totals: dict[str, dict[str, int]] = defaultdict(lambda: {"calls": 0, "self_ns": 0})
        for i, self_ns in enumerate(self.self_times()):
            if ops is None or self.ops[i] in ops:
                entry = totals[self.names[i]]
                entry["calls"] += 1
                entry["self_ns"] += self_ns
        return dict(totals)

    def misnested(self) -> list[int]:
        """Spans not inside their parent's interval, or not of their parent's operation.

        When none are, each operation's self times add up exactly to its root
        span, so the per-layer self times account for the traced wall time.
        """
        bad = []
        for i, parent in enumerate(self.parents):
            if self.ends[i] < self.starts[i]:
                bad.append(i)
            elif parent >= 0 and not (
                self.starts[parent] <= self.starts[i]
                and self.ends[i] <= self.ends[parent]
                and self.ops[i] == self.ops[parent]
            ):
                bad.append(i)
        return bad

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\top\tparent\tname\tstart_ns\tend_ns\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i}\t{self.ops[i]}\t{self.parents[i]}\t{name}\t{self.starts[i]}\t{self.ends[i]}\n"
                )
