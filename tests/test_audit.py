"""The leakage audit: clean on a real build, and sharp enough to catch a
single injected generalization sentence per pattern."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from types import SimpleNamespace

import pytest

from compmt.audit import (WITHHELD_STRUCTURES, GapAuditor, audit_gap,
                          audit_grammar, segment)
from compmt.bank import base_name
from compmt.build import SentenceRecord, _build_pattern
from compmt.earley import parse
from compmt.grammar import LexEntry, Lexicon, Lit, NT, Pcfg, Production, Slot
from compmt.naturalize import default_case_frames


def _as_train(record):
    return SentenceRecord("inj-" + record.id, "train", "",
                          record.source, record.target)


@pytest.fixture(scope="module")
def auditor(bank, patterns, mid_build):
    """One auditor that has consumed the whole mid-scale training split."""
    recs, _ = mid_build
    a = GapAuditor(patterns, bank=bank)
    for r in recs["train"]:
        a.consume(r)
    return a


def test_clean_build_has_no_violations(auditor):
    assert auditor.violations == []
    assert auditor.prerequisite_violations() == []


@pytest.fixture(scope="module")
def first_gen(mid_build):
    out = {}
    for r in mid_build[0]["gen"]:
        out.setdefault(r.pattern_id, r)
    return out


def pytest_generate_tests(metafunc):
    if "pattern_id" in metafunc.fixturenames:
        # Listed literally: parametrization happens at collection time,
        # before the session-scoped bank exists.
        ids = [
            "subj_to_obj_common", "subj_to_obj_proper", "obj_to_subj_common",
            "obj_to_subj_proper", "prim_to_subj_common",
            "prim_to_subj_proper", "prim_to_obj_common", "prim_to_obj_proper",
            "prim_to_inf_verb", "tense_dit", "tense_inf", "tense_cp",
            "trans_to_dit", "trans_to_inf", "trans_to_cp",
            "active_to_passive", "passive_to_active", "objom_to_trans",
            "unacc_to_trans", "do_to_pp", "pp_to_do", "pp_in_subj",
            "pp_in_iobj", "rc_in_subj", "rc_in_iobj", "adj_in_subj",
            "adj_in_iobj", "cp_recursion_shallower", "cp_recursion_deeper",
            "pp_recursion_shallower", "pp_recursion_deeper",
            "ce_recursion_shallower", "ce_recursion_deeper",
            "adj_recursion_shallower", "adj_recursion_deeper",
            "rc_iobj_gap", "wh_iobj_gap", "wh_active_subj",
            "wh_passive_subj", "wh_do_dit", "wh_subj_pp", "wh_long_move",
        ]
        metafunc.parametrize("pattern_id", ids)


def test_injected_gen_sentence_is_caught(auditor, first_gen, pattern_id):
    """Moving any pattern's generalization sentence into training must
    produce at least one leak attributed to that pattern."""
    start = len(auditor.violations)
    auditor.consume(_as_train(first_gen[pattern_id]))
    new = auditor.violations[start:]
    del auditor.violations[start:]
    assert any(v.pattern_id == pattern_id and v.kind == "leak"
               for v in new), [str(v) for v in new]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_gen_record_leaks_its_own_pattern(bank, patterns, seed):
    """Audited as train, each of the 760 gen records of a scale-0.01 build
    is charged with a leak of its own pattern: the audit grammar gives no
    gen sentence a most innocent parse that hides its withheld material."""
    cf = default_case_frames()
    gen = [r for p in patterns
           for r in _build_pattern(p.id, seed, 0.01, cf)[0]]
    assert len(gen) == 760
    a = GapAuditor(patterns, bank=bank)
    missed = []
    for record in gen:
        a.consume(_as_train(record))
        if not any(v.pattern_id == record.pattern_id and v.kind == "leak"
                   for v in a.violations):
            missed.append(record.id)
        a.violations.clear()
    assert missed == []


# (line count, sha256 of the newline-joined str() lines) of audit_gap on
# three training sets taken from the scale-0.01 build at seed 1: none, its
# first 50 train records, and every gen record audited as train.
AUDIT_OUTPUT = {
    "empty": (
        150,
        "a11f0b406406f2d7f8c545086addcf7555ed7b0863fbdc99d4c1040b8b1da2d7"),
    "first_50_train": (
        77,
        "b31012e746e1c45a3804aa876c02cb23f07465006af6964ffef9d061dc4858a0"),
    "gen_as_train": (
        828,
        "1d7c01071d91fa27fa6203112f3124ac3a43d2686e242153be87864cb4bdf6f8"),
}


def test_audit_output_is_pinned(bank, patterns, small_build):
    recs, _ = small_build
    inputs = {"empty": [], "first_50_train": recs["train"][:50],
              "gen_as_train": [_as_train(r) for r in recs["gen"]]}
    for name, records in inputs.items():
        lines = [str(v) for v in audit_gap(records, patterns, bank=bank)]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert (len(lines), digest) == AUDIT_OUTPUT[name], name


def test_no_id_the_audit_reads_is_suffixed(bank, patterns):
    """The withheld-structure ids and `rc_objgap` are read by exact (base)
    id, so a `__n`-suffixed copy of one in the audit grammar would parse
    its leak unseen."""
    read = {i for _, ids in WITHHELD_STRUCTURES.values() for i in ids}
    read.add("rc_objgap")
    prods = audit_grammar(bank, patterns).productions
    assert read <= {base_name(p.id) for p in prods}
    suffixed = [p.id for p in prods if "__" in p.id]
    assert suffixed
    assert [i for i in suffixed
            if base_name(i.split("__")[0]) in read] == []


def _toy_grammar(lexicon, *rules):
    """A grammar of (id, lhs, rhs) rules: an upper-case word is a
    nonterminal, a lemma in braces a noun slot admitting it, and any other
    word a literal."""
    def symbol(word):
        if word.isupper():
            return NT(word)
        if word.startswith("{"):
            return Slot("N", "base", "n", frozenset({word[1:-1]}))
        return Lit(word)
    return Pcfg("ROOT", [Production(pid, lhs, tuple(map(symbol, rhs.split())))
                         for pid, lhs, rhs in rules], lexicon)


def _toy_rule(p):
    return (p.id, p.lhs, " ".join(s.name if isinstance(s, NT) else
                                  s.text if isinstance(s, Lit) else "N"
                                  for s in p.rhs))


def test_audit_grammar_drops_only_covered_productions():
    """NP_S simulates NP and back once their slots are widened to
    {cat, dog}; NP_T, without the article, is strictly simulated by both."""
    lexicon = Lexicon([LexEntry(w, "N", forms={"base": w}, zipf_rank=r)
                       for r, w in enumerate(("cat", "dog"), 1)])
    training = _toy_grammar(
        lexicon,
        ("s_x", "ROOT", "NP_T x"),  # strictly simulated: dropped, though first
        ("s_y", "ROOT", "NP y"),  # the first of an equivalent pair: kept
        ("s_w", "ROOT", "NP w"),
        ("np_a", "NP", "{cat}"),
        ("np_b", "NP", "the {cat}"))
    pattern_s = _toy_grammar(
        lexicon,
        ("s_x", "ROOT", "NP x"),  # covers the training s_x
        ("s_y", "ROOT", "NP_S y"),  # the second of the pair: dropped
        ("np_a", "NP_S", "{dog}"),
        ("np_b", "NP_S", "the {dog}"))
    pattern_t = _toy_grammar(
        lexicon,
        ("s_z", "ROOT", "NP_T z"),  # no covering sibling: kept
        ("s_v", "ROOT", "NP_T w"),  # covered children, but not s_w's id
        ("np_a", "NP_T", "{dog}"))
    g = audit_grammar(
        SimpleNamespace(grammar=training, lexicon=lexicon),
        [SimpleNamespace(gen_grammar=pattern_s),
         SimpleNamespace(gen_grammar=pattern_t)])
    assert [_toy_rule(p) for p in g.productions] == [
        ("s_y", "ROOT", "NP y"), ("s_w", "ROOT", "NP w"),
        ("np_a", "NP", "N"), ("np_b", "NP", "the N"),
        ("s_x", "ROOT", "NP x"),
        ("np_a__1", "NP_S", "N"), ("np_b__1", "NP_S", "the N"),
        ("s_z", "ROOT", "NP_T z"), ("s_v", "ROOT", "NP_T w"),
        ("np_a__2", "NP_T", "N")]
    # the dropped productions' readings each parse once
    for sentence, ids in (("dog x", ["s_x", "np_a"]),
                          ("the dog y", ["s_y", "np_b"])):
        [tree] = parse(g, sentence.split())
        assert [tree.production.id, tree.children[0].production.id] == ids


def test_injected_pp_subject_sentence(bank, patterns):
    a = GapAuditor(patterns, bank=bank)
    a.consume(SentenceRecord(
        "inj-pp", "train", "",
        "The baby in the room cried .", ""))
    assert [(v.pattern_id, v.kind) for v in a.violations] == \
        [("pp_in_subj", "leak")]


def test_injected_cp_depth_three_sentence(bank, patterns):
    a = GapAuditor(patterns, bank=bank)
    a.consume(SentenceRecord(
        "inj-cp3", "train", "",
        "Emma believed that Liam hoped that Noah realized that "
        "the woman smiled .", ""))
    assert [(v.pattern_id, v.kind) for v in a.violations] == \
        [("cp_recursion_shallower", "leak")]


def test_unparsable_training_sentence_is_flagged(bank, patterns):
    a = GapAuditor(patterns, bank=bank)
    a.consume(SentenceRecord(
        "inj-bad", "train", "",
        "colorless green ideas sleep .", ""))
    assert [v.kind for v in a.violations] == ["unparsable"]


def test_empty_training_set_misses_prerequisites(bank, patterns):
    violations = audit_gap([], patterns, bank=bank)
    assert violations
    assert {v.kind for v in violations} == {"missing_prerequisite"}
    assert {v.pattern_id for v in violations} == {p.id for p in patterns}


def test_segment_splits_on_sentence_punctuation():
    toks = ("The", "fox", "ran", ".", "Who", "slept", "?")
    assert segment(toks) == [["The", "fox", "ran", "."],
                             ["Who", "slept", "?"]]
    assert segment(("lone",)) == [["lone"]]


def test_most_innocent_parse_rule(bank, patterns):
    """A sentence ambiguous between an innocent and a withheld reading is
    not charged: 'Harper wrote .' parses as object omission (licensed) and
    as plain intransitive."""
    a = GapAuditor(patterns, bank=bank)
    a.consume(SentenceRecord(
        "amb", "train", "", "Harper wrote .", ""))
    assert a.violations == []


_FLAG_ORDER_SCRIPT = """
from compmt.audit import GapAuditor
from compmt.bank import Analysis, default_bank
auditor = GapAuditor(default_bank().patterns)
an = Analysis(ids={"q_whlong", "np_subj_pp", "np_iobj_rco",
                   "np_subj_adj"})
print(" ".join(v.pattern_id for v in
               auditor._analysis_violations(an, "r")))
"""


def test_flag_violations_do_not_depend_on_the_hash_seed():
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = set()
    for hash_seed in ("1", "2", "3", "4"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _FLAG_ORDER_SCRIPT],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout.strip())
    assert outputs == {"pp_in_subj rc_in_iobj adj_in_subj wh_long_move"}
