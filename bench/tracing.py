"""In-process traced pass: spans around each layer's public functions.

The program itself carries no instrumentation.  This module replaces, for the
duration of one pass, the module attributes through which callers reach each
layer (``synth.attempt``, ``semantics.zero_pad``, ``cli.trace_guesser`` ...)
with wrappers that record a span: its kind, the span that was open when it
started, and its start and end times.  Spans live in flat arrays and are
reduced to per-layer numbers when the pass ends.

A layer's self time is the summed duration of its spans minus the time their
direct child spans cover.  The tracer's own bookkeeping that runs outside the
wrapped call (the repeat-attempt lookup, the prefix entry count) is a span of
the ``trace`` layer, so the self times of all layers add up to the wall time of
the root span.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
import time
import traceback
from array import array
from collections import Counter
from typing import Callable

from guessability import adversary, cli, lang, oracle, semantics, synth

# Counts that must repeat exactly across passes of one workload, whatever the seed.
COUNT_METRICS = (
    "oracle.prefix_builds", "oracle.prefix_entries_validated", "oracle.zero_pad_calls",
    "oracle.queries", "lang.parse_calls", "lang.substitute_calls", "semantics.attempts",
    "semantics.attempts_failed", "semantics.seq_host_calls", "semantics.seq_host_entries",
    "semantics.repeat_attempt_ratio", "synth.mu_calls", "synth.attempts_per_mu",
    "synth.guesser_calls", "adversary.steps", "adversary.phases",
)

MODULES = {"adversary": adversary, "cli": cli, "lang": lang, "oracle": oracle,
           "semantics": semantics, "synth": synth}
LAYERS = ("cli", "oracle", "lang", "semantics", "synth", "adversary", "trace")


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self):
        self.kind_names: list[str] = []
        self._kind_ids: dict[str, int] = {}
        self.kinds = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.counts: Counter[str] = Counter()
        # closed sentence -> shortest prefix length on which an attempt decided it
        self._decided: dict = {}
        self.unbound: list[str] = []

    def kind(self, name: str) -> int:
        if name not in self._kind_ids:
            self._kind_ids[name] = len(self.kind_names)
            self.kind_names.append(name)
        return self._kind_ids[name]

    def _open(self, kind: int) -> int:
        sid = len(self.kinds)
        self.kinds.append(kind)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        kind = self.kind(name)
        observe_kind = self.kind("trace.observe")

        def traced(*args, **kwargs):
            sid = self._open(kind)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if observe is not None:
                oid = self._open(observe_kind)
                observe(args, result)
                self._close(oid)
            return result

        return traced

    # -- observers: run after the wrapped call, outside its span -------------

    def _observe_prefix(self, args, _result) -> None:
        self.counts["oracle.prefix_entries_validated"] += len(args[0].entries)

    def _observe_attempt(self, args, outcome) -> None:
        formula, prefix = args[0], args[1]
        if outcome.failed:
            self.counts["semantics.attempts_failed"] += 1
        first = self._decided.get(formula)
        if first is None:
            if outcome.succeeded:
                self._decided[formula] = len(prefix)
        elif first < len(prefix):
            self.counts["semantics.repeats"] += 1

    def _patches(self) -> list[tuple[str, Callable[[Callable], Callable]]]:
        """(binding the callers use, make replacement from original)."""
        counts = self.counts

        def count_queries(query):
            def counted_query(source, index):
                counts["oracle.queries"] += 1
                return query(source, index)

            return counted_query

        def count_seq_hosts(seq_function):
            def counted_seq_function(sig, name):
                host = seq_function(sig, name)

                def counted_host(values):
                    counts["semantics.seq_host_calls"] += 1
                    counts["semantics.seq_host_entries"] += len(values)
                    return host(values)

                return counted_host

            return counted_seq_function

        def span(name: str, observe: Callable | None = None):
            return lambda fn: self.wrap(name, fn, observe)

        return [
            ("cli.main", span("cli.main")),
            ("cli.trace_guesser", span("cli.trace_guesser")),
            ("oracle.FinitePrefix.__init__", span("oracle.prefix", self._observe_prefix)),
            ("oracle.from_spec", span("oracle.from_spec")),
            ("oracle.zero_pad", span("oracle.zero_pad")),
            ("semantics.zero_pad", span("oracle.zero_pad")),
            ("oracle.SequenceOracle.query", count_queries),
            ("lang.parse", span("lang.parse")),
            ("lang.load_signature", span("lang.load_signature")),
            ("synth.substitute", span("lang.substitute")),
            ("lang.Signature.seq_function", count_seq_hosts),
            ("synth.attempt", span("semantics.attempt", self._observe_attempt)),
            ("synth.mu_from_sigma2", span("synth.mu")),
            ("synth.Guesser.__call__", span("synth.guesser")),
            ("adversary.diagonalize", span("adversary.diagonalize")),
            ("adversary._Run.seek", span("adversary.seek")),
        ]

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding that exists; one the program no longer has is listed in unbound."""
        saved = []
        try:
            for binding, make in self._patches():
                module, *path, attr = binding.split(".")
                owner = MODULES[module]
                for part in path:
                    owner = vars(owner).get(part)
                if owner is None or attr not in vars(owner):
                    self.unbound.append(binding)
                    continue
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, make(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- reduction -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        n = len(self.kinds)
        names = self.kind_names
        durations = [self.ends[i] - self.starts[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                covered[parent] += durations[i]
        self_s = dict.fromkeys(LAYERS, 0.0)
        by_name: dict[str, list[float]] = {name: [] for name in names}
        for i in range(n):
            name = names[self.kinds[i]]
            self_s[name.split(".", 1)[0]] += durations[i] - covered[i]
            by_name[name].append(durations[i])

        def spans(name: str) -> list[float]:
            return by_name.get(name, [])

        def median(values: list[float], scale: float) -> float:
            return statistics.median(values) * scale if values else 0.0

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        seek = self.kind("adversary.seek")
        guesser = self.kind("synth.guesser")
        steps: list[float] = []
        last_end: dict[int, float] = {}
        for i in range(n):
            parent = self.parents[i]
            if self.kinds[i] == guesser and parent >= 0 and self.kinds[parent] == seek:
                steps.append(self.ends[i] - last_end.get(parent, self.starts[parent]))
                last_end[parent] = self.ends[i]

        c = self.counts
        attempts = len(spans("semantics.attempt"))
        out = {
            "cli.main_s": sum(spans("cli.main")),
            "oracle.prefix_builds": len(spans("oracle.prefix")),
            "oracle.prefix_entries_validated": c["oracle.prefix_entries_validated"],
            "oracle.prefix_s": sum(spans("oracle.prefix")),
            "oracle.zero_pad_calls": len(spans("oracle.zero_pad")),
            "oracle.zero_pad_s": sum(spans("oracle.zero_pad")),
            "oracle.queries": c["oracle.queries"],
            "lang.parse_calls": len(spans("lang.parse")),
            "lang.parse_s": sum(spans("lang.parse")),
            "lang.substitute_calls": len(spans("lang.substitute")),
            "lang.substitute_s": sum(spans("lang.substitute")),
            "semantics.attempts": attempts,
            "semantics.attempts_failed": c["semantics.attempts_failed"],
            "semantics.attempt_s": sum(spans("semantics.attempt")),
            "semantics.attempt_us_p50": median(spans("semantics.attempt"), 1e6),
            "semantics.seq_host_calls": c["semantics.seq_host_calls"],
            "semantics.seq_host_entries": c["semantics.seq_host_entries"],
            "semantics.repeat_attempt_ratio": ratio(c["semantics.repeats"], attempts),
            "synth.mu_calls": len(spans("synth.mu")),
            "synth.mu_s": sum(spans("synth.mu")),
            "synth.mu_ms_p50": median(spans("synth.mu"), 1e3),
            "synth.attempts_per_mu": ratio(attempts, len(spans("synth.mu"))),
            "synth.guesser_calls": len(spans("synth.guesser")),
            "synth.guesser_s": sum(spans("synth.guesser")),
            "adversary.steps": len(steps),
            "adversary.phases": len(spans("adversary.seek")),
            "adversary.step_us_p50": median(steps, 1e6),
        }
        for layer, seconds in self_s.items():
            out[f"{layer}.self_s"] = seconds
        return out


def traced_pass(argv: list[str]) -> dict:
    """Run ``cli.main(argv)`` once under a fresh tracer.

    Returns the exit code, captured output, wall time, per-layer metrics, the
    span-accounting gap (sum of self times minus wall time) and the bindings
    that could not be wrapped.  A crash is reported as exit code None with the
    traceback as output.
    """
    tracer = Tracer()
    out = io.StringIO()
    with tracer.installed(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            code = None
            traceback.print_exc(file=out)
        wall = time.perf_counter() - start
    metrics = tracer.metrics()
    self_total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    return {"code": code, "stdout": out.getvalue(), "wall_s": wall, "metrics": metrics,
            "accounting_gap_s": self_total - wall, "unbound": tracer.unbound}


def growth(full: float, half: float) -> float:
    """log2 of the full-size count over the half-size count; 0 when the layer did no work."""
    return math.log2((full + 1) / (half + 1))
