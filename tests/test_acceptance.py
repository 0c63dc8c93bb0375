"""End-to-end acceptance checks on the full-scale corpus.

Everything here runs against one full-size serial build (plus one parallel
build for the determinism check), so this module is by far the slowest in
the suite — several minutes in total.
"""

import filecmp
import json
import os
import time
from random import Random

import pytest

from compmt.audit import GapAuditor, segment
from compmt.bank import analyze
from compmt.build import (RunConfig, SentenceRecord, build_splits,
                          write_corpus)
from compmt.earley import parse
from compmt.grammar import CONSTRUCTS
from compmt.metrics import corpus_bleu, exact_match, partial_match
from compmt.naturalize import (check_selectional, default_case_frames,
                               naturalize)
from compmt.transduce import transduce

import test_sampling


@pytest.fixture(scope="module")
def full(bank):
    start = time.monotonic()
    records, manifest = build_splits(RunConfig(master_seed=1, scale=1.0),
                                     bank=bank)
    elapsed = time.monotonic() - start
    return records, manifest, elapsed


@pytest.fixture(scope="module")
def auditor(bank, patterns, full):
    records, _, _ = full
    start = time.monotonic()
    a = GapAuditor(patterns, bank=bank)
    for r in records["train"]:
        a.consume(r)
    a.elapsed = time.monotonic() - start
    # snapshot before the mutation test feeds it held-out sentences
    a.train_depths_seen = {c: {f[2] for f in a.facts if f[:2] == ("depth", c)}
                           for c in CONSTRUCTS}
    return a


# -- 1. counts and runtime --------------------------------------------------


def test_full_build_counts(full, patterns):
    records, manifest, _ = full
    assert manifest["counts"] == {"train": 43_800, "dev": 5_000,
                                  "test": 5_000, "gen": 76_000}
    assert {len(v) for k, v in records.items()} == \
        {43_800, 5_000, 76_000}
    assert len(manifest["per_pattern"]) == 42
    small = {p.id for p in patterns if p.gen_count == 1000}
    for pid, stats in manifest["per_pattern"].items():
        assert stats["gen_count"] == (1000 if pid in small else 2000), pid
        assert stats["exposure_count"] == 100, pid
    assert manifest["augmentations"]["exposures"] == 4200
    assert manifest["augmentations"]["concatenated"] == 400


def test_full_build_runtime(full):
    _, _, elapsed = full
    assert elapsed < 300.0, f"full serial build took {elapsed:.1f}s"


# -- 2. leakage audit and mutation sharpness --------------------------------


def test_audit_is_no_slower_than_the_build(full, auditor):
    _, _, elapsed = full
    assert auditor.elapsed < elapsed, \
        f"train audit took {auditor.elapsed:.1f}s, the build {elapsed:.1f}s"


def test_full_audit_is_clean(auditor):
    assert auditor.violations == []
    assert auditor.prerequisite_violations() == []


def test_mutation_suite_one_violation_per_pattern(auditor, full, patterns):
    records, _, _ = full
    first = {}
    for r in records["gen"]:
        first.setdefault(r.pattern_id, r)
    for p in patterns:
        rec = first[p.id]
        start = len(auditor.violations)
        auditor.consume(SentenceRecord("mut-" + p.id, "train", "",
                                       rec.source, rec.target))
        new = auditor.violations[start:]
        del auditor.violations[start:]
        assert len(new) == 1, (p.id, [str(v) for v in new])
        assert new[0].pattern_id == p.id and new[0].kind == "leak"


# -- 3. round-trip soundness ------------------------------------------------


def _bare_target(bank, lemma_token):
    for pos in ("CommonNoun", "ProperNoun"):
        if (lemma_token, pos) in bank.lexicon.by_key:
            return tuple(bank.dictionary.lookup(lemma_token, pos, "base"))
    for entry in bank.lexicon.by_pos["Verb"]:
        if entry.forms.get("inf") == lemma_token:
            cls = bank.dictionary.verb_class(entry.lemma)
            stem_key, suffixes = bank.morph.inflect(cls, "pres", "active")
            return tuple(bank.dictionary.lookup(entry.lemma, "Verb",
                                                stem_key)) + suffixes
    raise AssertionError(f"unknown bare exposure {lemma_token!r}")


def _reproduces(bank, grammar, seg, want):
    trees = parse(grammar, seg, limit=50)
    if not trees and seg[0][:1].isupper():
        trees = parse(grammar, [seg[0][0].lower() + seg[0][1:]] + seg[1:],
                      limit=50)
    for tree in trees:
        got = tuple(transduce(tree, bank.dictionary, bank.morph))
        if got == want:
            return True
    return False


def _round_trip(bank, record):
    grammar_id = record.provenance["grammar_id"]
    if grammar_id == "lexicon":
        assert len(record.source_tokens) == 1
        return record.target_tokens == _bare_target(bank,
                                                    record.source_tokens[0])
    grammar = bank.grammar_for(grammar_id)
    segs = segment(list(record.source_tokens))
    if len(segs) == 1:
        return _reproduces(bank, grammar, segs[0], record.target_tokens)
    # concatenated record: target parts are joined by "." separators
    parts, cur = [], []
    for tok in record.target_tokens:
        if tok == ".":
            parts.append(tuple(cur))
            cur = []
        else:
            cur.append(tok)
    parts.append(tuple(cur))
    if len(parts) != len(segs):
        return False
    return all(_reproduces(bank, grammar, seg, part)
               for seg, part in zip(segs, parts))


def test_round_trip_1000_per_split(bank, full):
    records, _, _ = full
    rng = Random(0)
    for split, recs in records.items():
        sample = rng.sample(recs, 1000)
        for r in sample:
            gid = r.provenance["grammar_id"]
            if r.split == "gen":
                assert gid == r.pattern_id
            assert _round_trip(bank, r), (split, r.id, r.source)


# -- 4. quoted gloss goldens ------------------------------------------------


GOLDENS = [
    ("in_dist", "The woman found the panda .",
     "jyosei ga panda o mituke ta"),
    ("active_to_passive", "Sophia was recognized by Liam .",
     "sofia ga riamu niyotte ninsikisa re ta"),
    ("pp_in_subj", "The jar on the book changed .",
     "hon no ue no bin ga kawat ta"),
    ("wh_passive_subj", "What was seen ?",
     "nani ga mi rare ta ka ?"),
    ("in_dist",
     "The child handed the box beside the table beside the tree beside "
     "the house to the teacher .",
     "kodomo ga ie no yoko no ki no yoko no teeburu no yoko no hako o "
     "kyoosi ni tewatasi ta"),
]


def test_gloss_goldens(bank):
    for grammar_id, source, gloss in GOLDENS:
        grammar = bank.grammar_for(grammar_id)
        assert _reproduces(bank, grammar, source.split(),
                           tuple(gloss.split())), source


# -- 5. constituent-match fixture -------------------------------------------


def test_partial_match_fixture():
    ann = {"target_constituent_ref_tokens": ["panda"],
           "expected_role": "direct_object"}
    gold = "jyosei ga panda o mituke ta".split()
    preds = ["jyosei ga inu o mituke ta".split(),
             "panda ga jyosei o mituke ta".split(),
             "dansei ga panda o mituke ta".split()]
    assert [partial_match(p, ann) for p in preds] == [False, False, True]
    assert not exact_match(preds[2], gold)


# -- 6. metric oracles ------------------------------------------------------


def test_metric_oracles(full):
    records, _, _ = full
    refs = [list(r.target_tokens) for r in records["gen"][:500]]
    assert corpus_bleu(refs, refs) == 100.0
    # hand-computed three-sentence fixture (see test_metrics for the tally)
    hand_refs = ["kodomo ga hon o mi ta".split(),
                 "kodomo ga hon o yon da".split(),
                 "inu ga hasit ta".split()]
    hand_hyps = [list(hand_refs[0]), "kodomo ga hon o mi da".split(),
                 list(hand_refs[2])]
    want = 100.0 * ((15 / 16) * (11 / 13) * (8 / 10) * (5 / 7)) ** 0.25
    assert abs(corpus_bleu(hand_hyps, hand_refs) - want) <= 1e-6


def test_exact_implies_partial_over_perturbations(full):
    records, _, _ = full
    annotated = [r for r in records["gen"] if r.annotation][:2500]
    vocab = ["inu", "neko", "ga", "o", "ni", "zou"]
    rng = Random(7)
    checked = 0
    for i in range(10_000):
        r = annotated[i % len(annotated)]
        hyp = list(r.target_tokens)
        op = rng.randrange(4)
        if op == 1 and hyp:
            hyp[rng.randrange(len(hyp))] = rng.choice(vocab)
        elif op == 2 and hyp:
            del hyp[rng.randrange(len(hyp))]
        elif op == 3:
            hyp.insert(rng.randrange(len(hyp) + 1), rng.choice(vocab))
        if exact_match(hyp, r.target_tokens):
            assert partial_match(hyp, r.annotation), r.id
            checked += 1
    assert checked >= 1000  # the identity branch fires often enough


# -- 7. sampler statistics --------------------------------------------------


def test_sampler_statistics():
    test_sampling.test_rule_frequencies_within_l1_tolerance()
    test_sampling.test_zipf_slope_matches_exponent()
    test_sampling.test_zipf_slope_matches_half_exponent()


# -- 8. depth discipline ----------------------------------------------------


def test_depth_discipline(full, auditor, bank):
    records, manifest, _ = full
    for r in records["gen"]:
        depths = r.provenance.get("depths")
        if depths is None:
            continue
        stem = r.pattern_id.split("_")[0]
        construct = {"cp": "CP", "pp": "PP", "ce": "CenterEmbedRC",
                     "adj": "Adj"}[stem]
        if r.pattern_id.endswith("shallower"):
            assert depths[construct] == 3, r.id
        else:
            assert depths[construct] in (5, 6), r.id
    # depth evidence gathered while auditing the whole training split
    for construct in CONSTRUCTS:
        assert auditor.train_depths_seen[construct] <= {0, 1, 2, 4}, \
            construct
    assert manifest["lengths"]["train"]["max_source_len"] > \
        manifest["lengths"]["gen"]["max_source_len"]


def test_wo_concat_build_has_no_concatenations(bank):
    _, manifest = build_splits(
        RunConfig(master_seed=1, scale=0.01, with_concat=False), bank=bank)
    assert manifest["augmentations"]["concatenated"] == 0


# -- 9. naturalness ---------------------------------------------------------


def _content_lemma_map(bank):
    surface = {}
    for pos in ("CommonNoun", "ProperNoun", "Adjective"):
        for entry in bank.lexicon.by_pos.get(pos, ()):
            for form in entry.forms.values():
                surface[form] = entry.lemma
    for entry in bank.lexicon.by_pos["Verb"]:
        for form in entry.forms.values():
            surface[form] = entry.lemma
    return surface


def test_no_duplicate_content_lexemes(bank, full):
    records, _, _ = full
    surface = _content_lemma_map(bank)
    for split, recs in records.items():
        for r in recs:
            for seg in segment(list(r.source_tokens)):
                lemmas = [surface[t.lower() if t[:1].isupper() and
                                  t.lower() in surface else t]
                          for t in seg
                          if (t in surface) or
                          (t[:1].isupper() and t.lower() in surface)]
                assert len(lemmas) == len(set(lemmas)), (split, r.id,
                                                         r.source)


def test_zero_unrepaired_residuals(full):
    _, manifest, _ = full
    assert manifest["selectional_residuals"] == 0


def test_implausible_object_repair_golden(bank):
    trees = parse(bank.grammar_for("in_dist"),
                  "the teacher ate the bed .".split())
    assert len(trees) == 1
    cf = default_case_frames()
    fixed, analysis, changed = naturalize(
        trees[0], analyze(trees[0]), cf, Random(0),
        bank.grammar_for("in_dist").lexicon)
    assert changed and check_selectional(analysis, cf) == []
    got = " ".join(transduce(fixed, bank.dictionary, bank.morph))
    assert got == "kyoosi ga ringo o tabe ta"


# -- 10. determinism --------------------------------------------------------


def test_serial_and_parallel_builds_are_byte_identical(bank, full,
                                                       tmp_path_factory):
    records, manifest, _ = full
    base = tmp_path_factory.mktemp("determinism")
    serial_dir = base / "serial"
    parallel_dir = base / "parallel"
    write_corpus(records, manifest, str(serial_dir))
    precs, pmanifest = build_splits(
        RunConfig(master_seed=1, scale=1.0, parallel=True))
    write_corpus(precs, pmanifest, str(parallel_dir))
    names = sorted(os.listdir(serial_dir))
    assert names == sorted(os.listdir(parallel_dir))
    match, mismatch, errors = filecmp.cmpfiles(serial_dir, parallel_dir,
                                               names, shallow=False)
    assert mismatch == [] and errors == []
    assert sorted(match) == names
    assert json.loads((serial_dir / "manifest.json").read_text()) == \
        json.loads((parallel_dir / "manifest.json").read_text())
