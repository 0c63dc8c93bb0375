"""Evaluation metrics: Exact Match, corpus BLEU, and Partial Match.

All three consume whitespace-tokenized text.  References come out of the
corpus builder pre-tokenized at morpheme level; model output that arrives
detokenized must be segmented by the caller.

Partial Match scores only the constituent a generalization pattern is
about: the constituent's reference translation must appear contiguously in
the hypothesis, and the case particle following it must realize the
expected grammatical role.  Role extraction is purely particle-based,
which is exact on in-grammar output and a documented approximation for
arbitrary free-form text.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from collections import Counter
from dataclasses import asdict, dataclass

from .utf8 import undecodable

ROLE_PARTICLES = {
    "ga": "subject",
    "o": "direct_object",
    "ni": "indirect_object",
    "no": "genitive_modifier",
    "niyotte": "agent_by",
}


class ScoringError(ValueError):
    """Hypothesis/reference misalignment or an empty scoring request."""


# --------------------------------------------------------------------------
# Exact Match
# --------------------------------------------------------------------------


def exact_match(hyp_tokens, ref_tokens) -> bool:
    return list(hyp_tokens) == list(ref_tokens)


# --------------------------------------------------------------------------
# Corpus BLEU
# --------------------------------------------------------------------------


MAX_N = 4


def _ngrams(tokens, n, start, stop):
    """The n-grams of ``tokens`` that start at ``start`` up to ``stop``."""
    return [tuple(tokens[i:i + n]) for i in range(start, stop)]


def _counts(hyp, ref):
    """One sentence's BLEU statistics: clipped n-gram matches for n = 1..4,
    hypothesis n-gram totals for n = 1..4, hypothesis and reference length.
    Corpus BLEU is a function of their element-wise sum.  ``hyp`` and
    ``ref`` are lists.

    An n-gram that lies inside the shared prefix or the shared suffix of
    ``hyp`` and ``ref`` occurs on both sides, and min(a + h, a + r) is
    a + min(h, r).  So those n-grams all match, and only the n-grams that
    touch the differing middle are clipped against each other."""
    h, r = len(hyp), len(ref)
    total = [max(h - n + 1, 0) for n in range(1, MAX_N + 1)]
    if hyp == ref:  # every n-gram matches itself
        return total + total + [h, r]
    shorter = min(h, r)
    prefix = 0
    while prefix < shorter and hyp[prefix] == ref[prefix]:
        prefix += 1
    suffix = 0  # stops short of the prefix, so the two never overlap
    while suffix < shorter - prefix and hyp[-1 - suffix] == ref[-1 - suffix]:
        suffix += 1
    matched = []
    for n in range(1, MAX_N + 1):
        # the n-grams that start before ``first`` lie inside the prefix
        first = max(prefix - n + 1, 0)
        remaining = Counter(_ngrams(ref, n, first,
                                    min(r - suffix, r - n + 1)))
        hits = first + max(suffix - n + 1, 0)
        for gram in _ngrams(hyp, n, first, min(h - suffix, h - n + 1)):
            if remaining[gram]:
                remaining[gram] -= 1
                hits += 1
        matched.append(hits)
    return matched + total + [h, r]


def _sum(rows):
    return [sum(column) for column in zip(*rows)]


def _bleu(counts) -> float:
    """4-gram BLEU in [0, 100] from summed ``_counts``.

    Geometric mean of modified n-gram precisions times the brevity
    penalty.  A zero n-gram count falls back to a floor of
    1/(2^k * denominator), halving for each zero order in turn.
    """
    matched, total = counts[:MAX_N], counts[MAX_N:2 * MAX_N]
    hyp_len, ref_len = counts[2 * MAX_N:]
    if hyp_len == 0:
        return 0.0
    log_precision = 0.0
    floor = 1.0
    for n in range(MAX_N):
        if total[n] == 0:
            return 0.0
        if matched[n] > 0:
            p = matched[n] / total[n]
        else:
            floor /= 2.0
            p = floor / total[n]
        log_precision += math.log(p) / MAX_N
    brevity = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(log_precision)


def corpus_bleu(hyps, refs) -> float:
    """4-gram corpus BLEU in [0, 100] over aligned token sequences."""
    hyps, refs = list(hyps), list(refs)
    if not hyps:
        raise ScoringError("cannot compute BLEU over an empty corpus")
    if len(hyps) != len(refs):
        raise ScoringError(
            f"hypothesis/reference count mismatch: {len(hyps)} vs {len(refs)}")
    return _bleu(_sum(_counts(list(hyp), list(ref))
                      for hyp, ref in zip(hyps, refs)))


# --------------------------------------------------------------------------
# Partial Match
# --------------------------------------------------------------------------


def _occurrences(tokens, needle):
    """Each start at which the list ``needle`` occurs in the list
    ``tokens``, in order."""
    n = len(needle)
    stop = max(len(tokens) - n + 1, 0)
    start = 0
    while True:
        try:
            start = tokens.index(needle[0], start, stop)
        except ValueError:
            return
        if tokens[start:start + n] == needle:
            yield start
        start += 1


def partial_match(hyp_tokens, annotation) -> bool:
    """True iff the annotated constituent's reference translation occurs
    contiguously in the hypothesis with the expected grammatical role."""
    hyp = list(hyp_tokens)
    needle = [str(t) for t in annotation["target_constituent_ref_tokens"]]
    if not needle:
        raise ScoringError("annotation has an empty constituent")
    expected = annotation.get("expected_role")
    for start in _occurrences(hyp, needle):
        if expected is None:
            return True
        after = start + len(needle)
        if after < len(hyp) and \
                ROLE_PARTICLES.get(hyp[after]) == expected:
            return True
    return False


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------


# A report row's totals: records, exact matches, annotated records, partial
# matches, then the summed ``_counts`` of its sentences.
_ZERO = (0,) * (4 + 2 * MAX_N + 2)


def _row(totals):
    count, exact, annotated, partial = totals[:4]
    return {
        "count": count,
        "exact_pct": 100.0 * exact / count if count else 0.0,
        "bleu": _bleu(totals[4:]),
        "partial_pct": 100.0 * partial / annotated if annotated else None,
    }


@dataclass
class EvalReport:
    overall: dict
    per_group: dict
    per_pattern: list
    scored: int
    skipped: int = 0  # records with no hypothesis
    unmatched: int = 0  # hypothesis ids with no record

    def to_dict(self):
        return asdict(self)

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def table(self):
        def line(label, row):
            partial = row["partial_pct"]
            partial = "---" if partial is None else f"{partial:6.2f}"
            return (f"{label:51s} {row['count']:6d} {row['exact_pct']:6.2f} "
                    f"{row['bleu']:6.2f} {partial:>7s}")

        lines = [f"{'pattern':28s} {'group':22s} {'n':>6s} "
                 f"{'exact':>6s} {'bleu':>6s} {'partial':>7s}"]
        lines.extend(line(f"{row['pattern_id']:28s} {row['group']:22s}", row)
                     for row in self.per_pattern)
        lines.extend(line(f"[{group}]", row)
                     for group, row in self.per_group.items())
        lines.append(line("[overall]", self.overall))
        return "\n".join(lines)


def score_records(hyp_by_id, records, patterns) -> EvalReport:
    """Score a {record id: hypothesis tokens} mapping against reference
    records, per pattern, per pattern group and overall.  Every row is
    formatted from the sum of its sentences' integer counts.  Groups come
    in the order in which ``patterns`` first names them."""
    group_of = {p.id: p.group for p in patterns}
    totals = {}  # pattern id -> summed row totals
    skipped = 0
    for record in records:
        hyp = hyp_by_id.get(record.id)
        if hyp is None:
            skipped += 1
            continue
        hyp, ref = list(hyp), record.target.split()
        annotated = bool(record.annotation)
        sentence = [1, hyp == ref, annotated,
                    annotated and partial_match(hyp, record.annotation),
                    *_counts(hyp, ref)]
        pid = record.pattern_id
        totals[pid] = list(map(operator.add, totals.get(pid, _ZERO),
                               sentence))
    order = [p.id for p in patterns if p.id in totals]
    order.extend(sorted(set(totals) - set(group_of)))
    per_pattern = [{"pattern_id": pid, "group": group_of.get(pid, ""),
                    **_row(totals[pid])} for pid in order]
    per_group = {}
    for group in dict.fromkeys(p.group for p in patterns):
        members = [totals[pid] for pid in order if group_of.get(pid) == group]
        if members:
            per_group[group] = _row(_sum(members))
    overall = _row(_sum([_ZERO, *totals.values()]))
    unmatched = len(set(hyp_by_id) - {r.id for r in records})
    return EvalReport(overall, per_group, per_pattern,
                      scored=overall["count"], skipped=skipped,
                      unmatched=unmatched)


# --------------------------------------------------------------------------
# File plumbing
# --------------------------------------------------------------------------


def read_hypotheses(path, records=None):
    """Hypotheses as {record id: token list}.

    Two formats: JSONL objects ``{"id": ..., "hypothesis": ...}``, or plain
    text with one sentence per line aligned to ``records``, a sequence, in
    order (the record-id manifest).  The first non-blank line tells them
    apart.  Tokens are interned, so equal tokens are one string: a system's
    output repeats a few thousand token types many times over.
    """
    with open(path, encoding="utf-8", newline="\n") as fh:
        # Only a newline ends a line: universal newlines would also break
        # at a bare "\r", and str.splitlines at U+2028, form feeds and the
        # like, which JSON strings and plain text may hold.  A CRLF line
        # keeps its "\r", which split() and json.loads drop.
        try:
            lines = [line.rstrip("\n") for line in fh]
        except UnicodeDecodeError:
            raise ScoringError(undecodable(path)) from None
    first = next((line for line in lines if line.strip()), "")
    if first.lstrip().startswith("{"):
        out = {}
        for i, line in enumerate(lines, 1):
            if not line.strip():
                continue
            where = f"{path}:{i}: bad hypothesis record"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ScoringError(f"{where}: {exc}") from exc
            if not isinstance(obj, dict) or \
                    not isinstance(obj.get("id"), str) or \
                    "hypothesis" not in obj:
                raise ScoringError(f"{where}: expected an object with a "
                                   "string \"id\" and a \"hypothesis\"")
            hyp = obj["hypothesis"]
            if isinstance(hyp, str):
                hyp = hyp.split()
            elif not (isinstance(hyp, list)
                      and all(isinstance(t, str) for t in hyp)):
                raise ScoringError(f"{where}: \"hypothesis\" must be a "
                                   "string or a list of strings")
            if obj["id"] in out:
                raise ScoringError(f"{where}: repeated id {obj['id']!r}")
            out[obj["id"]] = list(map(sys.intern, hyp))
        return out
    if records is None:
        raise ScoringError(
            f"{path}: plain-text hypotheses need reference records for "
            "line alignment")
    if len(lines) != len(records):
        raise ScoringError(
            f"{path}: {len(lines)} hypothesis lines for {len(records)} "
            "reference records; first unmatched line is "
            f"{min(len(lines), len(records)) + 1}")
    return {r.id: list(map(sys.intern, line.split()))
            for r, line in zip(records, lines)}


def score_file(hyp_path, records, patterns) -> EvalReport:
    """Score a hypothesis file; ScoringError if none of its ids is a record
    id (a file for another split would otherwise score as all zeros)."""
    records = list(records)
    hyp_by_id = read_hypotheses(hyp_path, records)
    report = score_records(hyp_by_id, records, patterns)
    if not report.scored:
        raise ScoringError(f"{hyp_path}: none of its {len(hyp_by_id)} "
                           "hypothesis ids is a reference record id")
    return report
