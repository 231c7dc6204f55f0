"""In-memory spans around the public calls each workload makes.

Spans are recorded from the benchmark's side only: :meth:`Recorder.wrap`
replaces a bound method on an object the benchmark owns (the decoder its
own factory returned, the problem it built) with a timing wrapper.  Each
span is ``(name, start, end, parent, key)``: ``parent`` is the index of
the enclosing span (``-1`` at top level) and ``key`` the shard or batch
the work belonged to.  Counters are accumulated at the same boundaries
so ratios are measured where the work happens.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

__all__ = ["Recorder", "instrument_bpsf", "stage_metrics", "verify_decodes"]


class Recorder:
    """Span and counter store; spans stay in memory until :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.decodes: list[tuple] = []   # (syndromes, errors, converged)
        self.key = 0
        self.enabled = True
        self._stack: list[int] = []

    def wrap(self, obj, attr: str, name: str, after=None) -> None:
        """Replace ``obj.attr`` with a span-recording wrapper.

        While :attr:`enabled` is false the wrapper calls straight through.

        ``after(args, result)`` runs once the span is closed, so counter
        bookkeeping is not charged to the wrapped layer.
        """
        inner = getattr(obj, attr)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return inner(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = inner(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.key)
            if after is not None:
                after(args, result)
            return result

        setattr(obj, attr, wrapper)

    def record(self, name: str, start: float, end: float) -> None:
        """Add a top-level span timed by the caller (async call sites)."""
        if self.enabled:
            self.spans.append((name, start, end, -1, self.key))

    def totals(self, scale=None) -> dict[str, float]:
        """Summed duration per span name (``scale(start, end)`` if given)."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += scale(start, end) if scale else end - start
        return dict(out)

    def self_time(self, name: str, scale=None) -> float:
        """Duration of ``name`` spans minus the time their children cover."""
        measure = scale or (lambda a, b: b - a)
        total = 0.0
        for name_, start, end, _, _ in self.spans:
            if name_ == name:
                total += measure(start, end)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0 and self.spans[parent][0] == name:
                total -= measure(start, end)
        return total

    def top_level(self, scale=None) -> float:
        measure = scale or (lambda a, b: b - a)
        return sum(
            measure(start, end)
            for _, start, end, parent, _ in self.spans if parent < 0
        )

    def dump(self, path) -> None:
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, "key": k}
            for n, s, e, p, k in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"spans": rows, "counts": dict(self.counts)}, fh)


def instrument_bpsf(rec: Recorder, decoder, *, keep_decodes: bool) -> None:
    """Wrap a :class:`~repro.decoders.bpsf.BPSFDecoder`'s stage calls.

    Records ``bpsf.decode_many`` (the whole batch), ``bp_initial``,
    ``bpsf.trial_gen``, ``bpsf.trial_synd`` and ``bp_trial`` spans, and
    counts rows, row-iterations, converged rows, shots sent to trials
    and shots rescued.  With ``keep_decodes`` every (syndromes, result)
    pair is kept for :func:`verify_decodes`.
    """
    counts = rec.counts

    def bp_after(prefix):
        def after(args, result):
            counts[f"{prefix}.rows"] += len(result.converged)
            counts[f"{prefix}.row_iters"] += int(result.iterations.sum())
            counts[f"{prefix}.converged"] += int(result.converged.sum())
            if keep_decodes:
                rec.decodes.append((args[0], result.errors, result.converged))
        return after

    def top_after(args, result):
        counts["bpsf.shots"] += len(result.converged)
        counts["bpsf.post_shots"] += result.n_post
        if keep_decodes:
            rec.decodes.append((args[0], result.errors, result.converged))

    def gen_after(args, trials):
        counts["bpsf.sent_to_trials"] += bool(trials)

    rec.wrap(decoder.bp_initial, "decode_many", "bp_initial",
             bp_after("bp_initial"))
    rec.wrap(decoder.bp_trial, "decode_many", "bp_trial",
             bp_after("bp_trial"))
    rec.wrap(decoder, "generate_trials", "bpsf.trial_gen", gen_after)
    rec.wrap(decoder, "trial_syndromes", "bpsf.trial_synd")
    rec.wrap(decoder, "decode_many", "bpsf.decode_many", top_after)


def stage_metrics(tot: dict, counts) -> dict:
    """Per-stage BP and BP-SF metrics from span totals and counters."""
    out = {}
    for layer in ("bp_initial", "bp_trial"):
        seconds = tot.get(layer, 0.0)
        iters = counts[f"{layer}.row_iters"]
        out[f"{layer}.s"] = seconds
        out[f"{layer}.row_iters"] = iters
        out[f"{layer}.us_per_row_iter"] = (
            seconds / iters * 1e6 if iters else 0.0
        )
    out["bp_initial.rows"] = counts["bp_initial.rows"]
    out["bp_initial.converged_frac"] = (
        counts["bp_initial.converged"] / max(counts["bp_initial.rows"], 1)
    )
    out["bp_trial.useful_frac"] = (
        counts["bp_trial.converged"] / max(counts["bp_trial.rows"], 1)
    )
    out["bpsf.trial_gen_s"] = tot.get("bpsf.trial_gen", 0.0)
    out["bpsf.trial_synd_s"] = tot.get("bpsf.trial_synd", 0.0)
    out["bpsf.trial_rows"] = counts["bp_trial.rows"]
    out["bpsf.post_shots"] = counts["bpsf.post_shots"]
    out["bpsf.rescue_frac"] = (
        counts["bpsf.post_shots"] / max(counts["bpsf.sent_to_trials"], 1)
    )
    return out


def verify_decodes(problem, decodes) -> int:
    """Count converged decodes whose error does not reproduce its syndrome."""
    bad = 0
    for syndromes, errors, converged in decodes:
        syndromes = syndromes.reshape(len(converged), -1)
        rows = converged.nonzero()[0]
        if len(rows):
            # Through the class, so a wrapped instance method is bypassed.
            got = type(problem).syndromes(problem, errors[rows])
            bad += int((got != syndromes[rows]).any(axis=1).sum())
    return bad
