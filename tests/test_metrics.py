import hashlib
import json
import math
import random
import re
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from compmt.metrics import (MAX_N, ROLE_PARTICLES, ScoringError, _counts,
                            corpus_bleu, exact_match, partial_match,
                            read_hypotheses, score_records)

GOLD = "jyosei ga panda o mituke ta".split()
PANDA_OBJ = {"target_constituent_ref_tokens": ["panda"],
             "expected_role": "direct_object"}


# --------------------------------------------------------------------------
# Partial Match
# --------------------------------------------------------------------------


def test_partial_match_reference_trio():
    """(i) drops the target word, (ii) puts it in the wrong role, (iii)
    changes only untargeted material: incorrect, incorrect, correct."""
    pred_i = "jyosei ga inu o mituke ta".split()
    pred_ii = "panda ga jyosei o mituke ta".split()
    pred_iii = "dansei ga panda o mituke ta".split()
    assert not partial_match(pred_i, PANDA_OBJ)
    assert not partial_match(pred_ii, PANDA_OBJ)
    assert partial_match(pred_iii, PANDA_OBJ)
    assert not exact_match(pred_iii, GOLD)
    assert partial_match(GOLD, PANDA_OBJ)
    # the role is read off the particle right after the constituent
    assert partial_match(GOLD, {"target_constituent_ref_tokens": ["jyosei"],
                                "expected_role": "subject"})
    assert not partial_match(GOLD, {"target_constituent_ref_tokens":
                                    ["mituke"],
                                    "expected_role": "direct_object"})
    # an absent constituent, and one in final position with no particle
    assert not partial_match(GOLD, {"target_constituent_ref_tokens": ["zou"],
                                    "expected_role": "direct_object"})
    assert not partial_match(["panda"], PANDA_OBJ)


def test_partial_match_requires_contiguity():
    ann = {"target_constituent_ref_tokens": ["hon", "no", "ue"],
           "expected_role": "subject"}
    assert partial_match("hon no ue ga kawat ta".split(), ann)
    assert not partial_match("hon ga ue no kawat ta".split(), ann)


def test_partial_match_without_expected_role_checks_presence_only():
    ann = {"target_constituent_ref_tokens": ["tewatasi", "ta"],
           "expected_role": None}
    assert partial_match("kodomo ga hako o tewatasi ta".split(), ann)
    assert not partial_match("kodomo ga hako o okut ta".split(), ann)


def test_partial_match_considers_every_occurrence():
    # first occurrence carries the wrong particle, second the right one
    ann = {"target_constituent_ref_tokens": ["panda"],
           "expected_role": "direct_object"}
    hyp = "panda ga panda o mi ta".split()
    assert partial_match(hyp, ann)


def test_partial_match_empty_constituent_rejected():
    for role in ("subject", None):
        with pytest.raises(ScoringError):
            partial_match(GOLD, {"target_constituent_ref_tokens": [],
                                 "expected_role": role})


@given(st.lists(st.sampled_from("w x y z ga o ni".split()), min_size=1,
                max_size=8),
       st.data())
def test_reference_always_partial_matches_itself(ref, data):
    """Exact output implies Partial Match for any constituent annotation
    read off the reference itself."""
    i = data.draw(st.integers(0, len(ref) - 1))
    j = data.draw(st.integers(i + 1, len(ref)))
    follower = ref[j] if j < len(ref) else None
    ann = {"target_constituent_ref_tokens": ref[i:j],
           "expected_role": ROLE_PARTICLES.get(follower)}
    assert partial_match(ref, ann)
    # presence is occurrence-based, so a prefixed hypothesis still matches
    assert partial_match(["pad", "pad"] + ref, ann)


# --------------------------------------------------------------------------
# BLEU
# --------------------------------------------------------------------------


def test_bleu_identity_is_100(small_build):
    recs, _ = small_build
    refs = [list(r.target_tokens) for r in recs["gen"][:200]]
    assert corpus_bleu(refs, refs) == pytest.approx(100.0)


def test_bleu_hand_computed_three_sentence_corpus():
    refs = ["kodomo ga hon o mi ta".split(),
            "kodomo ga hon o yon da".split(),
            "inu ga hasit ta".split()]
    hyps = [list(refs[0]),
            "kodomo ga hon o mi da".split(),
            list(refs[2])]
    # Modified n-gram counts, tallied by hand.  Sentences 1 and 3 are
    # exact; sentence 2 differs from its reference in one token.
    p1 = (6 + 5 + 4) / (6 + 6 + 4)
    p2 = (5 + 3 + 3) / (5 + 5 + 3)
    p3 = (4 + 2 + 2) / (4 + 4 + 2)
    p4 = (3 + 1 + 1) / (3 + 3 + 1)
    want = 100.0 * (p1 * p2 * p3 * p4) ** 0.25  # equal lengths: no penalty
    assert corpus_bleu(hyps, refs) == pytest.approx(want, abs=1e-6)


def test_bleu_brevity_penalty():
    # all n-gram precisions are 1; only the length ratio matters
    got = corpus_bleu(["a b c d".split()], ["a b c d e".split()])
    assert got == pytest.approx(100.0 * math.exp(1.0 - 5 / 4), abs=1e-6)
    # a longer hypothesis is not rewarded above its precision
    got = corpus_bleu(["a b c d e".split()], ["a b c d".split()])
    assert got < 100.0


def test_bleu_smoothing_floor():
    hyp, ref = "a b c d".split(), "a x c y".split()
    p1 = 2 / 4
    p2 = 0.5 / 3    # floor 1/2 over 3 bigram slots
    p3 = 0.25 / 2   # floor 1/4
    p4 = 0.125 / 1  # floor 1/8
    want = 100.0 * (p1 * p2 * p3 * p4) ** 0.25
    assert corpus_bleu([hyp], [ref]) == pytest.approx(want, abs=1e-9)


def test_bleu_is_order_insensitive():
    refs = ["kodomo ga hon o mi ta".split(),
            "inu ga hasit ta".split(),
            "neko ga sakana o tabe ta".split()]
    hyps = ["kodomo ga hon o mi da".split(),
            "inu ga ne ta".split(),
            "neko ga sakana o tabe ta".split()]
    a = corpus_bleu(hyps, refs)
    order = [2, 0, 1]
    b = corpus_bleu([hyps[i] for i in order], [refs[i] for i in order])
    assert a == pytest.approx(b)


def _reference_counts(hyp, ref):
    """``_counts`` as first written: one Counter per order and side over
    every n-gram, clipped against each other."""
    total = [max(len(hyp) - n + 1, 0) for n in range(1, MAX_N + 1)]
    matched = []
    for n in range(1, MAX_N + 1):
        ref_counts = Counter(tuple(ref[i:i + n])
                             for i in range(len(ref) - n + 1))
        hyp_counts = Counter(tuple(hyp[i:i + n])
                             for i in range(len(hyp) - n + 1))
        matched.append(sum(min(count, ref_counts[gram])
                           for gram, count in hyp_counts.items()))
    return matched + total + [len(hyp), len(ref)]


ABC = st.lists(st.sampled_from("a b c".split()), max_size=12)


@st.composite
def _edited(draw):
    """A reference and a hypothesis one or two edits away from it."""
    ref = draw(ABC)
    hyp = list(ref)
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(
            ["delete", "insert", "substitute", "transpose"]))
        if kind == "transpose" and len(hyp) >= 2:
            i = draw(st.integers(0, len(hyp) - 2))
            hyp[i], hyp[i + 1] = hyp[i + 1], hyp[i]
        elif kind in ("delete", "substitute") and hyp:
            i = draw(st.integers(0, len(hyp) - 1))
            if kind == "delete":
                del hyp[i]
            else:
                hyp[i] = draw(st.sampled_from("a b c d".split()))
        else:
            hyp.insert(draw(st.integers(0, len(hyp))),
                       draw(st.sampled_from("a b c d".split())))
    return hyp, ref


@given(ABC, ABC)
def test_counts_equal_the_full_count_on_repeating_tokens(hyp, ref):
    assert _counts(hyp, ref) == _reference_counts(hyp, ref)


@given(_edited())
def test_counts_equal_the_full_count_after_small_edits(pair):
    hyp, ref = pair
    assert _counts(hyp, ref) == _reference_counts(hyp, ref)


def test_bleu_degenerate_inputs():
    with pytest.raises(ScoringError):
        corpus_bleu([], [])
    with pytest.raises(ScoringError):
        corpus_bleu([["a"]], [["a"], ["b"]])
    assert corpus_bleu([[]], [["a", "b"]]) == 0.0


@given(st.lists(st.lists(st.sampled_from("p q r s".split()), min_size=4,
                         max_size=8), min_size=1, max_size=5))
def test_bleu_bounded_and_maximal_on_identity(refs):
    # sentences of four or more tokens, so every n-gram order is populated
    assert corpus_bleu(refs, refs) == pytest.approx(100.0)
    rng = random.Random(0)
    hyps = [[rng.choice("p q r s".split()) for _ in ref] for ref in refs]
    score = corpus_bleu(hyps, refs)
    assert 0.0 <= score <= 100.0


# --------------------------------------------------------------------------
# Reports and file plumbing
# --------------------------------------------------------------------------


def test_self_scoring_is_perfect(small_build, patterns):
    recs, _ = small_build
    gen = recs["gen"]
    hyp_by_id = {r.id: list(r.target_tokens) for r in gen}
    report = score_records(hyp_by_id, gen, patterns)
    assert report.scored == len(gen) and report.skipped == 0
    assert report.overall["exact_pct"] == pytest.approx(100.0)
    assert report.overall["bleu"] == pytest.approx(100.0)
    assert report.overall["partial_pct"] == pytest.approx(100.0)
    for group, agg in report.per_group.items():
        assert agg["exact_pct"] == pytest.approx(100.0), group
    for row in report.per_pattern:
        pid = row["pattern_id"]
        assert row["exact_pct"] == pytest.approx(100.0), pid
        if pid.endswith(("shallower", "deeper")):
            assert row["partial_pct"] is None, pid
        else:
            assert row["partial_pct"] == pytest.approx(100.0), pid


def test_report_table_marks_unevaluable_partial(small_build, patterns):
    recs, _ = small_build
    gen = recs["gen"]
    report = score_records({r.id: list(r.target_tokens) for r in gen},
                           gen, patterns)
    table = report.table()
    assert "---" in table and "[overall]" in table
    json.loads(report.to_json())


def test_a_pattern_group_gets_its_row_in_order_of_appearance(small_build,
                                                             patterns):
    recs, _ = small_build
    gen = recs["gen"]
    last = replace(patterns[-1], group="Fourth")
    report = score_records({r.id: list(r.target_tokens) for r in gen},
                           gen, [*patterns[:-1], last])
    assert list(report.per_group) == ["Lexical", "LexicalMorphological",
                                      "Structural", "Fourth"]
    row = next(row for row in report.per_pattern
               if row["pattern_id"] == last.id)
    assert report.per_group["Fourth"] == {
        k: v for k, v in row.items() if k not in ("pattern_id", "group")}
    assert report.table().splitlines()[-2].startswith("[Fourth] ")


def test_tuple_hypotheses_score_as_lists(small_build, patterns):
    """``score_records`` and ``corpus_bleu`` take any token sequences."""
    recs, _ = small_build
    gen = recs["gen"]
    _, deleted, _ = _hypothesis_sets(gen)
    as_tuples = {rid: tuple(hyp) for rid, hyp in deleted.items()}
    assert score_records(as_tuples, gen, patterns).to_json() == \
        score_records(deleted, gen, patterns).to_json()
    hyps = [deleted[r.id] for r in gen]
    refs = [list(r.target_tokens) for r in gen]
    assert corpus_bleu([tuple(h) for h in hyps],
                       [tuple(r) for r in refs]) == corpus_bleu(hyps, refs)


def test_missing_hypotheses_are_skipped(small_build, patterns):
    recs, _ = small_build
    gen = recs["gen"]
    hyp_by_id = {r.id: list(r.target_tokens) for r in gen[:10]}
    report = score_records(hyp_by_id, gen, patterns)
    assert report.scored == 10
    assert report.skipped == len(gen) - 10


def test_read_hypotheses_jsonl(tmp_path):
    path = tmp_path / "h.jsonl"
    body = ('{"id": "a", "hypothesis": "x y"}\n'
            '{"id": "b", "hypothesis": ["z"]}\n')
    for lead in ("", "\n", "  \n\n"):  # the format is read past blank lines
        path.write_text(lead + body, encoding="utf-8")
        assert read_hypotheses(str(path)) == {"a": ["x", "y"], "b": ["z"]}


def test_read_hypotheses_jsonl_keeps_unicode_line_separators(tmp_path):
    """A JSON string may hold U+2028 raw; it does not end the line."""
    path = tmp_path / "h.jsonl"
    body = "".join(json.dumps({"id": i, "hypothesis": hyp},
                              ensure_ascii=False) + "\n"
                   for i, hyp in (("a", "x y"), ("b", "z\u2028w"),
                                  ("c", "v")))
    path.write_text(body, encoding="utf-8")
    assert read_hypotheses(str(path)) == {"a": ["x", "y"], "b": ["z", "w"],
                                          "c": ["v"]}


def test_read_hypotheses_plain_text_splits_only_at_newlines(tmp_path,
                                                            small_build):
    """A form feed inside a plain-text line is whitespace, not a line
    end, and the final newline adds no line."""
    recs, _ = small_build
    gen = recs["gen"][:3]
    path = tmp_path / "h.txt"
    lines = [r.target for r in gen]
    lines[1] = lines[1].replace(" ", " \f", 1)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    got = read_hypotheses(str(path), gen)
    assert got == {r.id: list(r.target_tokens) for r in gen}


def test_read_hypotheses_plain_text_alignment(tmp_path, small_build):
    recs, _ = small_build
    gen = recs["gen"][:5]
    path = tmp_path / "h.txt"
    path.write_text("\n".join(r.target for r in gen) + "\n",
                    encoding="utf-8")
    got = read_hypotheses(str(path), gen)
    assert got == {r.id: list(r.target_tokens) for r in gen}
    jsonl = tmp_path / "h.jsonl"  # a leading blank line keeps it JSONL
    jsonl.write_text("\n" + "".join(
        json.dumps({"id": r.id, "hypothesis": r.target}) + "\n" for r in gen),
        encoding="utf-8")
    assert read_hypotheses(str(jsonl), gen) == got
    with pytest.raises(ScoringError):
        read_hypotheses(str(path), gen[:4])
    with pytest.raises(ScoringError):
        read_hypotheses(str(path))  # no records to align against


def test_read_hypotheses_share_equal_tokens(tmp_path, small_build):
    """Equal hypothesis tokens are one string, in JSONL (string and list
    hypotheses) and in plain text."""
    recs, _ = small_build
    gen = recs["gen"][:40]
    text = tmp_path / "h.txt"
    text.write_text("\n".join(r.target for r in gen) + "\n",
                    encoding="utf-8")
    jsonl = tmp_path / "h.jsonl"
    jsonl.write_text("".join(json.dumps(
        {"id": r.id, "hypothesis": r.target if i % 2 else r.target.split()})
        + "\n" for i, r in enumerate(gen)), encoding="utf-8")
    for path in (text, jsonl):
        tokens = [t for hyp in read_hypotheses(str(path), gen).values()
                  for t in hyp]
        first = {}
        assert all(first.setdefault(t, t) is t for t in tokens)
        assert len(first) < len(tokens)


def test_read_hypotheses_bad_jsonl(tmp_path):
    path = tmp_path / "h.jsonl"
    first = '{"id": "a", "hypothesis": "x"}\n'
    for bad in ('{"id": "b"}', '{"hypothesis": 5}', '{"id": "b", "x"}',
                '{"id": "b", "hypothesis": 5}',
                '{"id": "b", "hypothesis": ["x", 1]}',
                '{"id": ["b"], "hypothesis": "x"}', '[1, 2]',
                '{"id": "a", "hypothesis": "y"}'):
        path.write_text(first + bad + "\n", encoding="utf-8")
        with pytest.raises(ScoringError,
                           match=f"^{re.escape(str(path))}:2: bad hypothesis"):
            read_hypotheses(str(path))


def _hypothesis_sets(records):
    """Three seed-derived systems: the oracle, one token deleted from half
    of the records, and a tenth of the records with no hypothesis."""
    rng = random.Random("test_metrics:hypotheses")
    oracle = {r.id: list(r.target_tokens) for r in records}
    deleted = {}
    for r in records:
        hyp = list(r.target_tokens)
        if hyp and rng.random() < 0.5:
            del hyp[rng.randrange(len(hyp))]
        deleted[r.id] = hyp
    missing = {r.id: list(r.target_tokens) for r in records
               if rng.random() >= 0.1}
    return oracle, deleted, missing


REPORT_SHA256 = \
    "f9c3f709f35f8ff317d56ef1d8179256e45981073e0544bd46bc4a5a186de717"


def test_report_bytes_are_pinned(small_build, patterns):
    """The JSON and table of every report over gen and dev are pinned
    byte for byte."""
    recs, _ = small_build
    digest = hashlib.sha256()
    for split in ("gen", "dev"):
        for hyps in _hypothesis_sets(recs[split]):
            report = score_records(hyps, recs[split], patterns)
            digest.update(report.to_json().encode("utf-8"))
            digest.update(report.table().encode("utf-8"))
    assert digest.hexdigest() == REPORT_SHA256


def test_aggregate_bleu_is_corpus_bleu_over_its_records(small_build,
                                                        patterns):
    """Group and overall BLEU, summed from per-sentence counts, equal
    ``corpus_bleu`` recomputed over the union of their records."""
    recs, _ = small_build
    group_of = {p.id: p.group for p in patterns}
    for split in ("gen", "dev"):
        for hyps in _hypothesis_sets(recs[split]):
            report = score_records(hyps, recs[split], patterns)
            pairs = [(hyps[r.id], list(r.target_tokens), r.pattern_id)
                     for r in recs[split] if r.id in hyps]
            rows = [(report.overall, pairs)] + [
                (row, [p for p in pairs if group_of.get(p[2]) == group])
                for group, row in report.per_group.items()]
            for row, members in rows:
                hyp_tokens, ref_tokens, _ = zip(*members)
                assert row["bleu"] == corpus_bleu(hyp_tokens, ref_tokens)
