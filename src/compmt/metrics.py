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
from collections import Counter
from dataclasses import dataclass

ROLE_PARTICLES = {
    "ga": "subject",
    "o": "direct_object",
    "ni": "indirect_object",
    "no": "genitive_modifier",
    "niyotte": "agent_by",
}

GROUPS = ("Lexical", "LexicalMorphological", "Structural")


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


def _ngrams(tokens, n):
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def corpus_bleu(hyps, refs) -> float:
    """4-gram corpus BLEU in [0, 100].

    Geometric mean of modified n-gram precisions times the brevity
    penalty.  A zero n-gram count falls back to a floor of
    1/(2^k * denominator), halving for each zero order in turn.
    """
    hyps, refs = list(hyps), list(refs)
    if not hyps:
        raise ScoringError("cannot compute BLEU over an empty corpus")
    if len(hyps) != len(refs):
        raise ScoringError(
            f"hypothesis/reference count mismatch: {len(hyps)} vs {len(refs)}")
    max_n = 4
    matched = [0] * max_n
    total = [0] * max_n
    hyp_len = ref_len = 0
    for hyp, ref in zip(hyps, refs):
        hyp, ref = list(hyp), list(ref)
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            ref_counts = Counter(_ngrams(ref, n))
            for gram, count in Counter(_ngrams(hyp, n)).items():
                matched[n - 1] += min(count, ref_counts[gram])
            total[n - 1] += max(len(hyp) - n + 1, 0)
    if hyp_len == 0:
        return 0.0
    log_precision = 0.0
    floor = 1.0
    for n in range(1, max_n + 1):
        if total[n - 1] == 0:
            return 0.0
        if matched[n - 1] > 0:
            p = matched[n - 1] / total[n - 1]
        else:
            floor /= 2.0
            p = floor / total[n - 1]
        log_precision += math.log(p) / max_n
    brevity = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(log_precision)


# --------------------------------------------------------------------------
# Partial Match
# --------------------------------------------------------------------------


def _occurrences(tokens, needle):
    n = len(needle)
    return [i for i in range(len(tokens) - n + 1)
            if tokens[i:i + n] == needle]


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


@dataclass
class PatternScore:
    pattern_id: str
    group: str
    count: int = 0
    exact: int = 0
    bleu: float = 0.0
    partial_count: int = 0  # records carrying an annotation
    partial: int = 0

    @property
    def exact_pct(self):
        return 100.0 * self.exact / self.count if self.count else 0.0

    @property
    def partial_pct(self):
        if not self.partial_count:
            return None
        return 100.0 * self.partial / self.partial_count


@dataclass
class EvalReport:
    overall: dict
    per_group: dict
    per_pattern: list
    scored: int
    skipped: int = 0  # records with no hypothesis
    unmatched: int = 0  # hypothesis ids with no record

    def to_dict(self):
        return {
            "overall": self.overall,
            "per_group": self.per_group,
            "per_pattern": [
                {
                    "pattern_id": row.pattern_id,
                    "group": row.group,
                    "count": row.count,
                    "exact_pct": row.exact_pct,
                    "bleu": row.bleu,
                    "partial_pct": row.partial_pct,
                }
                for row in self.per_pattern
            ],
            "scored": self.scored,
            "skipped": self.skipped,
            "unmatched": self.unmatched,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def table(self):
        def fmt(value):
            return "---" if value is None else f"{value:6.2f}"

        lines = [f"{'pattern':28s} {'group':22s} {'n':>6s} "
                 f"{'exact':>6s} {'bleu':>6s} {'partial':>7s}"]
        for row in self.per_pattern:
            lines.append(
                f"{row.pattern_id:28s} {row.group:22s} {row.count:6d} "
                f"{row.exact_pct:6.2f} {row.bleu:6.2f} "
                f"{fmt(row.partial_pct):>7s}")
        for group in GROUPS:
            agg = self.per_group.get(group)
            if agg:
                lines.append(
                    f"{'['+group+']':51s} {agg['count']:6d} "
                    f"{agg['exact_pct']:6.2f} {agg['bleu']:6.2f} "
                    f"{fmt(agg.get('partial_pct')):>7s}")
        o = self.overall
        lines.append(
            f"{'[overall]':51s} {o['count']:6d} {o['exact_pct']:6.2f} "
            f"{o['bleu']:6.2f} {fmt(o.get('partial_pct')):>7s}")
        return "\n".join(lines)


def _aggregate(rows, pairs):
    count = sum(r.count for r in rows)
    exact = sum(r.exact for r in rows)
    pcount = sum(r.partial_count for r in rows)
    partial = sum(r.partial for r in rows)
    out = {
        "count": count,
        "exact_pct": 100.0 * exact / count if count else 0.0,
        "bleu": corpus_bleu(*zip(*pairs)) if pairs else 0.0,
        "partial_pct": 100.0 * partial / pcount if pcount else None,
    }
    return out


def score_records(hyp_by_id, records, patterns) -> EvalReport:
    """Score a {record id: hypothesis tokens} mapping against reference
    records, grouped per pattern and per pattern group."""
    group_of = {p.id: p.group for p in patterns}
    rows = {}
    pairs = {}  # pattern_id -> [(hyp, ref)] for BLEU
    skipped = 0
    for record in records:
        hyp = hyp_by_id.get(record.id)
        if hyp is None:
            skipped += 1
            continue
        pid = record.pattern_id
        row = rows.get(pid)
        if row is None:
            row = rows[pid] = PatternScore(pid, group_of.get(pid, ""))
            pairs[pid] = []
        ref = list(record.target_tokens)
        row.count += 1
        row.exact += exact_match(hyp, ref)
        pairs[pid].append((hyp, ref))
        if record.annotation:
            row.partial_count += 1
            row.partial += partial_match(hyp, record.annotation)
    ordered = [rows[p.id] for p in patterns if p.id in rows]
    ordered.extend(row for pid, row in sorted(rows.items())
                   if pid not in group_of)
    for row in ordered:
        row.bleu = corpus_bleu(*zip(*pairs[row.pattern_id]))
    per_group = {}
    for group in GROUPS:
        grows = [r for r in ordered if r.group == group]
        if grows:
            gpairs = [p for r in grows for p in pairs[r.pattern_id]]
            per_group[group] = _aggregate(grows, gpairs)
    allpairs = [p for r in ordered for p in pairs[r.pattern_id]]
    overall = _aggregate(ordered, allpairs)
    unmatched = len(set(hyp_by_id) - {r.id for r in records})
    return EvalReport(overall, per_group, ordered,
                      scored=sum(r.count for r in ordered), skipped=skipped,
                      unmatched=unmatched)


# --------------------------------------------------------------------------
# File plumbing
# --------------------------------------------------------------------------


def read_hypotheses(path, records=None):
    """Hypotheses as {record id: token list}.

    Two formats: JSONL objects ``{"id": ..., "hypothesis": ...}``, or plain
    text with one sentence per line aligned to ``records`` in order (the
    record-id manifest).  The first non-blank line tells them apart.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
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
            out[obj["id"]] = hyp
        return out
    if records is None:
        raise ScoringError(
            f"{path}: plain-text hypotheses need reference records for "
            "line alignment")
    records = list(records)
    if len(lines) != len(records):
        raise ScoringError(
            f"{path}: {len(lines)} hypothesis lines for {len(records)} "
            "reference records; first unmatched line is "
            f"{min(len(lines), len(records)) + 1}")
    return {r.id: line.split() for r, line in zip(records, lines)}


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
