"""Spans around the calls the benchmark makes into each layer.

The traced run installs it around each traced session. It wraps the names
``prooftidy.agent`` imports, ``StrategyIndex.top_k`` and the three ports;
timed runs leave the program untouched. Spans are kept in memory, one
column per field (name, start, end, parent, session) so that they add no
objects for the garbage collector to scan, and are written out when the
run ends.
"""

from __future__ import annotations

from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import prooftidy.agent as agent
from prooftidy.retrieval import StrategyIndex

#: (owner, attribute, span name). The layer is the span name's first part.
PROGRAM_CALLS = (
    (agent, "segment", "tokenizer.segment"),
    (agent, "proof_length", "tokenizer.proof_length"),
    (agent, "statement_preserved", "tokenizer.statement_check"),
    (agent, "retrieve", "retrieval.retrieve"),
    (StrategyIndex, "top_k", "retrieval.top_k"),
    (agent, "render", "prompts.render"),
    (agent, "extract_json_payload", "prompts.parse"),
    (agent, "extract_fenced_block", "prompts.parse"),
)
SESSION = "agent.session"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.sessions = array("l")
        self.session_id = -1
        self.counts: Counter = Counter()   # per-run totals of layer counters
        self._stack: list[int] = []
        self._seen_texts: set[str] = set()
        self._seen_sources: set[tuple[str, str]] = set()

    def wrap(self, name: str, fn, on_call=None):
        names, starts, ends, stack = self.names, self.starts, self.ends, self._stack

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            idx = len(names)
            names.append(name)
            starts.append(0.0)
            ends.append(0.0)
            self.parents.append(stack[-1] if stack else -1)
            self.sessions.append(self.session_id)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                starts[idx] = start
                ends[idx] = end
            if name == "tokenizer.segment":
                self.counts["tokenizer.segment.spans"] += len(result)
            elif name == "retrieval.retrieve":
                self.counts["retrieval.kept"] += len(result)
                self.counts["retrieval.empty_queries"] += not result
            return result

        return traced

    @contextmanager
    def session(self, llm, compiler, embedder):
        """Trace one session: wrap the program's names and the three ports,
        and put everything back when the session ends."""
        self.session_id += 1
        self._seen_texts.clear()
        self._seen_sources.clear()
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in PROGRAM_CALLS]
        ports = ((llm, "complete", "llm.complete", None),
                 (compiler, "check", "compiler.check", self._check_seen),
                 (embedder, "embed", "embeddings.embed", self._embed_seen))
        try:
            for owner, attr, name in PROGRAM_CALLS:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
            for port, attr, name, on_call in ports:
                setattr(port, attr, self.wrap(name, getattr(port, attr), on_call))
            yield
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)
            for port, attr, _, _ in ports:
                vars(port).pop(attr, None)

    def _embed_seen(self, texts):
        for text in texts:
            self.counts["embeddings.repeat_texts"] += text in self._seen_texts
            self._seen_texts.add(text)

    def _check_seen(self, req):
        key = (req.toolchain_version, req.source)
        self.counts["compiler.repeat_checks"] += key in self._seen_sources
        self._seen_sources.add(key)

    def self_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """(self seconds by layer, total seconds by span name).

        A span's self time is its duration minus its direct children's.
        Every span lies under a session span, and ``agent`` holds the
        session spans' own remainder, so the layers' self times add up to
        the traced session time by construction.
        """
        spans = list(zip(self.names, self.starts, self.ends, self.parents))
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        by_layer: dict[str, float] = defaultdict(float)
        by_name: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(spans):
            by_layer[name.split(".")[0]] += end - start - child[i]
            by_name[name] += end - start
        return dict(by_layer), dict(by_name)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tsession\n")
            for name, start, end, parent, session in zip(
                    self.names, self.starts, self.ends, self.parents, self.sessions):
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{session}\n")
