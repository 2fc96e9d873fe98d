"""Outside-in tracing: spans around calls into blockqkd's public functions.

Nothing inside the package is edited. `Tracer.install` replaces each hooked
function, in its defining module and in every loaded ``blockqkd`` namespace
that imported it by name, with a wrapper that records a span (name, start,
end, parent, session id). Randomness calls are hot leaves (hundreds of
thousands per session), so they are aggregated into their parent span
instead of recorded one by one. `Tracer.remove` puts the originals back.

A layer's self time is the duration of its spans minus the part covered by
their child spans and aggregated leaves. A hook whose target no longer
exists is reported in `absent`; it never stops the run.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass

PACKAGE = "blockqkd"
LAYERS = ("randomness", "quantum", "protocol", "attacks", "infotheory", "postprocess", "cli")

# (defining module, attribute, span name). The span's layer is the name's
# first component. protocol.empirical_rates is the plug-in rate estimate and
# is charged to infotheory, the layer whose quantities it computes.
SPAN_HOOKS = (
    ("quantum", "measure_rows", "quantum.measure_rows"),
    ("quantum", "measure", "quantum.measure"),
    ("quantum", "apply_unitary", "quantum.apply_unitary"),
    ("quantum", "project", "quantum.project"),
    ("protocol", "run_session", "protocol.run_session"),
    ("protocol", "alice_prepare_block", "protocol.prepare"),
    ("protocol", "transmit", "protocol.transmit"),
    ("protocol", "bob_measure_block", "protocol.bob_measure"),
    ("protocol", "sift", "protocol.sift"),
    ("protocol", "estimate_qber", "protocol.estimate_qber"),
    ("protocol", "empirical_rates", "infotheory.empirical_rates"),
    ("infotheory", "empirical_joint", "infotheory.empirical_joint"),
    ("infotheory", "mutual_information", "infotheory.mutual_information"),
    ("infotheory", "ck_rate", "infotheory.ck_rate"),
    ("attacks", "intercept_resend", "attacks.intercept_resend"),
    ("attacks", "unitary_block_attack", "attacks.unitary_block_attack"),
    ("attacks", "delayed_measurement", "attacks.delayed_measurement"),
    ("attacks", "verify_reduction", "attacks.verify_reduction"),
    ("attacks", "reduction_corpus", "attacks.reduction_corpus"),
    ("attacks", "load_unitary", "attacks.load_unitary"),
    ("postprocess", "pipeline", "postprocess.pipeline"),
    ("postprocess", "cascade", "postprocess.cascade"),
    ("postprocess", "toeplitz_pa", "postprocess.toeplitz_pa"),
    ("cli", "main", "cli.main"),
    ("cli", "load_experiment", "cli.load_experiment"),
    ("cli", "cmd_run", "cli.cmd_run"),
    ("cli", "cmd_verify", "cli.cmd_verify"),
)

# BitSource methods, aggregated per parent span.
LEAF_HOOKS = ("draw_bits", "bernoulli", "randbelow")

# Counts read at a span's boundary: span name -> (counter, f(args, result)).
COUNTERS = {
    "quantum.measure_rows": ("quantum.measure_rows.qubits", lambda args, result: len(args[0])),
    "attacks.intercept_resend": (
        "attacks.qubits_attacked", lambda args, result: int(result[2].attacked.sum())
    ),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    session: int
    covered: float = 0.0  # time covered by child spans and leaves

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed; one instance per traced round."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.session = 0
        self.leaf_s = 0.0
        self.leaf_calls = 0
        self.randbelow_accepted = 0
        self.randbelow_attempts = 0
        self.counters = {counter: 0 for counter, _ in COUNTERS.values()}
        self.absent: list[str] = []
        self.patched: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        package = PACKAGE
        namespaces = {
            name: module
            for name, module in sys.modules.items()
            if module is not None and (name == package or name.startswith(package + "."))
        }
        for module_name, attr, span_name in SPAN_HOOKS:
            module = namespaces.get(f"{package}.{module_name}")
            original = getattr(module, attr, None) if module is not None else None
            if not callable(original):
                self.absent.append(f"{span_name}: {package}.{module_name}.{attr} not found")
                continue
            wrapper = self._span_wrapper(span_name, original)
            for ns_name, namespace in namespaces.items():
                if getattr(namespace, attr, None) is original:
                    self._patch(namespace, attr, wrapper)
                    self.patched.append(f"{ns_name}.{attr}")
        randomness = namespaces.get(f"{package}.randomness")
        source_cls = getattr(randomness, "BitSource", None)
        for attr in LEAF_HOOKS:
            original = getattr(source_cls, attr, None)
            if not callable(original):
                self.absent.append(f"randomness.{attr}: BitSource.{attr} not found")
                continue
            self._patch(source_cls, attr, self._leaf_wrapper(attr, original))
            self.patched.append(f"{package}.randomness.BitSource.{attr}")

    def remove(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        spans, stack = self.spans, self.stack
        new_session = name == "protocol.run_session"
        counter, count = COUNTERS.get(name, (None, None))
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if new_session:
                self.session += 1
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.session)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if stack:
                    spans[stack[-1]].covered += span.end - span.start
            if count is not None:
                try:
                    self.counters[counter] += count(args, result)
                except (TypeError, AttributeError, IndexError) as exc:
                    self._lost(f"{counter}: {exc}")
            return result

        return wrapper

    def _leaf_wrapper(self, attr: str, fn):
        clock = time.perf_counter

        # randbelow: accepted draws over attempts. Each attempt charges the
        # ledger ceil(log2 n) bits, so attempts = ledger delta / width.
        accept = attr == "randbelow"

        def leaf(*args, **kwargs):
            before = self._ledger_count(args) if accept else None
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._charge_leaf(clock() - start)
                if before is not None:
                    n = args[3]
                    if n > 1:
                        self.randbelow_accepted += 1
                        self.randbelow_attempts += (self._ledger_count(args) - before) // (n - 1).bit_length()

        return leaf

    def _ledger_count(self, args) -> int | None:
        try:
            source, party, stage, _ = args
            return source.ledger.counts.get((party, stage), 0)
        except (ValueError, AttributeError) as exc:
            self._lost(f"randomness.randbelow_accept_ratio: {exc}")
            return None

    def _lost(self, note: str) -> None:
        if note not in self.absent:
            self.absent.append(note)

    def _charge_leaf(self, elapsed: float) -> None:
        self.leaf_s += elapsed
        self.leaf_calls += 1
        if self.stack:
            self.spans[self.stack[-1]].covered += elapsed

    # -- aggregation ------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Inclusive seconds and call counts per span name, self seconds per
        layer, and the counters gathered at the hooks."""
        out: dict[str, float] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        layer_self["randomness"] = self.leaf_s
        for span in self.spans:
            out[span.name + ".s"] = out.get(span.name + ".s", 0.0) + span.duration
            out[span.name + ".calls"] = out.get(span.name + ".calls", 0) + 1
            layer = span.name.split(".", 1)[0]
            layer_self[layer] += span.duration - span.covered
        total = sum(layer_self.values())
        for layer, seconds in layer_self.items():
            out[f"{layer}.self_s"] = seconds
            out[f"{layer}.self_share"] = seconds / total if total else 0.0
        out["randomness.s"] = self.leaf_s
        out["randomness.calls"] = self.leaf_calls
        out["randomness.randbelow_accept_ratio"] = (
            self.randbelow_accepted / self.randbelow_attempts if self.randbelow_attempts else 0.0
        )
        out.update(self.counters)
        calls = out.get("quantum.measure_rows.calls", 0)
        out["quantum.qubits_per_measure_rows_call"] = out["quantum.measure_rows.qubits"] / calls if calls else 0.0
        out["cli.unitary_loads"] = sum(
            1 for span in self.spans
            if span.name == "attacks.load_unitary" and self._has_ancestor(span, "cli.cmd_run")
        )
        out["cli.write_s"] = sum(
            span.duration - span.covered for span in self.spans if span.name == "cli.cmd_run"
        )
        return out

    def _has_ancestor(self, span: Span, name: str) -> bool:
        while span.parent >= 0:
            span = self.spans[span.parent]
            if span.name == name:
                return True
        return False

    def write_jsonl(self, path) -> None:
        """One JSON object per span; times relative to the first span."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": span.name,
                    "start": round(span.start - origin, 9),
                    "end": round(span.end - origin, 9),
                    "parent": span.parent,
                    "session": span.session,
                    "self": round(span.duration - span.covered, 9),
                }
                fh.write(json.dumps(record) + "\n")
