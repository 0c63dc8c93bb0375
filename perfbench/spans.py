"""Spans around compmt's public functions, recorded from outside the package.

``install(tracer)`` replaces module and class attributes of compmt with
wrappers that record one span per call: name, start, end, parent span and a
short note about the call (a result size, a flag, or "raised").  Nothing
under ``src/`` changes; callers that look a function up through the patched
attribute go through the wrapper.

Only the process that installed the wrappers keeps its spans.  Pool workers
of a parallel build are forked with the wrappers in place, but their spans
stay in the worker and are lost with it; the metrics below therefore cover
parent-process work only.

``layer_metrics`` turns the spans into the per-layer metrics that
``BENCHMARK.json`` lists and ``README.md`` defines.
"""

from __future__ import annotations

import functools
import json
import statistics
from time import perf_counter

NAME, START, END, PARENT, NOTE = range(5)
RAISED = "raised"


class Tracer:
    """In-memory span store for one process, single-threaded."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, note=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[NOTE] = RAISED
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, result)
            return result

        return traced

    def patch(self, owner, attr, name, note=None):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), note))

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "note"],
                       "spans": self.spans}, fh)


def install(tracer):
    """Wrap every layer boundary the per-layer metrics are read from."""
    from compmt import audit, build, metrics, naturalize
    from compmt.grammar import Constraints, Pcfg

    tracer.patch(Pcfg, "sample_with_rng", "grammar.sample",
                 note=lambda a, r: len(a) > 2 and a[2] is not None)
    tracer.patch(Constraints, "satisfied_by", "grammar.constraint_check",
                 note=lambda a, r: bool(r))
    # analyze() is imported by name into each caller; one wrapper per caller
    # splits its calls by calling module.
    for module, caller in ((build, "build"), (naturalize, "naturalize"),
                           (audit, "audit")):
        tracer.patch(module, "analyze", f"bank.analyze.{caller}")
    tracer.patch(build, "naturalize", "naturalize",
                 note=lambda a, r: bool(r[2]))
    tracer.patch(build, "reject_duplicates", "naturalize.reject_duplicates",
                 note=lambda a, r: bool(r))
    tracer.patch(build, "transduce", "transduce")
    for attr in ("build_splits", "_build_pattern", "primitive_exposures",
                 "concatenate_for_length", "write_corpus", "read_corpus"):
        tracer.patch(build, attr, f"build.{attr}")
    tracer.patch(audit, "parse", "earley.parse", note=lambda a, r: len(r))
    tracer.patch(audit, "audit_gap", "audit.audit_gap",
                 note=lambda a, r: len(r))
    tracer.patch(audit.GapAuditor, "consume", "audit.consume")
    for attr in ("read_hypotheses", "score_records", "corpus_bleu",
                 "partial_match"):
        tracer.patch(metrics, attr, f"metrics.{attr}")


def layer_metrics(spans, parse_limit, records_built, corpus_bytes):
    """Per-layer metrics from one traced workload run.

    ``records_built`` counts the records this process drew (it excludes
    pool-built gen records); ``corpus_bytes`` is the size of the corpus the
    run wrote or read.  Every metric is present; a layer that did no work
    reads 0.
    """
    by_name = {}
    for span in spans:
        by_name.setdefault(span[NAME], []).append(span)

    def group(name):
        return by_name.get(name, [])

    def calls(name):
        return len(group(name))

    def seconds(name):
        return sum(s[END] - s[START] for s in group(name))

    def noted(name, value):
        return sum(1 for s in group(name) if s[NOTE] == value)

    def ratio(num, den):
        return num / den if den else 0.0

    analyze_callers = ("build", "naturalize", "audit")
    checks = calls("grammar.constraint_check")
    unconstrained = sum(1 for s in group("grammar.sample") if not s[NOTE])
    out = {
        "grammar.sample.calls": calls("grammar.sample"),
        "grammar.sample.s": seconds("grammar.sample"),
        "grammar.constraint_checks": checks,
        "grammar.constraint_accept_ratio": ratio(
            noted("grammar.constraint_check", True), checks),
    }
    for caller in analyze_callers:
        out[f"bank.analyze.calls.{caller}"] = calls(f"bank.analyze.{caller}")
    out["bank.analyze.s"] = sum(seconds(f"bank.analyze.{c}")
                                for c in analyze_callers)

    out.update({
        "naturalize.calls": calls("naturalize"),
        "naturalize.s": seconds("naturalize"),
        "naturalize.repaired": noted("naturalize", True),
        "naturalize.unrepairable": noted("naturalize", RAISED),
        "naturalize.reject_duplicates.calls":
            calls("naturalize.reject_duplicates"),
        "naturalize.reject_duplicates.rejected":
            noted("naturalize.reject_duplicates", True),
        "naturalize.reject_duplicates.s":
            seconds("naturalize.reject_duplicates"),
        "transduce.calls": calls("transduce"),
        "transduce.s": seconds("transduce"),
    })

    build_s = seconds("build.build_splits")
    if group("build._build_pattern"):
        gen_s = seconds("build._build_pattern")
    elif group("build.build_splits") and group("build.primitive_exposures"):
        # Parallel build: the pattern workers' spans are not visible, so the
        # gen stage is the parent's wait from the start of build_splits to
        # its first exposure draw.
        gen_s = (group("build.primitive_exposures")[0][START]
                 - group("build.build_splits")[0][START])
    else:
        gen_s = 0.0
    exposures_s = seconds("build.primitive_exposures")
    concat_s = seconds("build.concatenate_for_length")
    out.update({
        "build.build_splits.s": build_s,
        "build.gen_stage.s": gen_s,
        "build.exposures.s": exposures_s,
        "build.concat.s": concat_s,
        "build.pool.s": (build_s - gen_s - exposures_s - concat_s
                         if build_s else 0.0),
        "build.draw_yield": ratio(records_built, unconstrained + checks),
        "build.write_corpus.s": seconds("build.write_corpus"),
        "build.read_corpus.s": seconds("build.read_corpus"),
        "build.corpus_bytes": corpus_bytes,
    })

    parses = group("earley.parse")
    out.update({
        "earley.parse.calls": len(parses),
        "earley.parse.s": seconds("earley.parse"),
        "earley.parses_per_call": ratio(sum(s[NOTE] for s in parses),
                                        len(parses)),
        "earley.truncated": sum(1 for s in parses if s[NOTE] == parse_limit),
        "earley.unparsed": sum(1 for s in parses if s[NOTE] == 0),
    })

    audit_s = seconds("audit.audit_gap")
    record_ms = sorted((s[END] - s[START]) * 1e3
                       for s in group("audit.consume"))
    out.update({
        "audit.audit_gap.s": audit_s,
        "audit.self_s": (audit_s - out["earley.parse.s"]
                         - seconds("bank.analyze.audit")
                         if audit_s else 0.0),
        "audit.record_ms.p50": _quantile(record_ms, 0.50),
        "audit.record_ms.p99": _quantile(record_ms, 0.99),
        "audit.violations": sum(s[NOTE] for s in group("audit.audit_gap")),
    })

    out.update({
        "metrics.read_hypotheses.s": seconds("metrics.read_hypotheses"),
        "metrics.score_records.s": seconds("metrics.score_records"),
        "metrics.corpus_bleu.calls": calls("metrics.corpus_bleu"),
        "metrics.corpus_bleu.s": seconds("metrics.corpus_bleu"),
        "metrics.partial_match.calls": calls("metrics.partial_match"),
        "metrics.partial_match.s": seconds("metrics.partial_match"),
    })
    return out


def _quantile(sorted_values, q):
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=100,
                                method="inclusive")[round(q * 100) - 1]
