from random import Random

import pytest

from compmt.bank import analyze
from compmt.earley import parse
from compmt.grammar import GrammarError
from compmt.naturalize import (CaseFrameList, UnrepairableRecordError,
                               check_selectional, default_case_frames,
                               naturalize, parse_case_frames,
                               reject_duplicates)
from compmt.transduce import transduce


def _gloss(bank, tree):
    return " ".join(transduce(tree, bank.dictionary, bank.morph))


def _parse_one(bank, sentence):
    trees = parse(bank.grammar_for("in_dist"), sentence.split())
    assert len(trees) == 1, sentence
    return trees[0]


def test_duplicate_lexeme_rejection(bank):
    dup = _parse_one(bank, "the teacher found the teacher .")
    ok = _parse_one(bank, "the teacher found the panda .")
    assert reject_duplicates(analyze(dup))
    assert not reject_duplicates(analyze(ok))


def test_unlicensed_object_repaired_to_top_ranked_noun(bank):
    """'the teacher ate the bed' is implausible; repair swaps in the
    highest-ranked licensed object of 'eat' and retranslation reflects it."""
    tree = _parse_one(bank, "the teacher ate the bed .")
    cf = default_case_frames()
    viols = check_selectional(analyze(tree), cf)
    assert [(v.verb, v.role, v.noun) for v in viols] == \
        [("eat", "direct_object", "bed")]
    fixed, analysis, changed = naturalize(
        tree, analyze(tree), cf, Random(0),
        bank.grammar_for("in_dist").lexicon)
    assert changed and check_selectional(analysis, cf) == []
    assert _gloss(bank, fixed) == "kyoosi ga ringo o tabe ta"
    assert analysis == analyze(fixed)


def test_repair_analyzes_each_tree_state_once(bank, monkeypatch):
    """The caller's analysis covers the sampled tree; naturalize analyzes
    only the repaired one."""
    import compmt.naturalize as nat
    calls = []

    def counted(tree):
        calls.append(tree)
        return analyze(tree)

    monkeypatch.setattr(nat, "analyze", counted)
    tree = _parse_one(bank, "the teacher ate the bed .")
    cf = default_case_frames()
    fixed, analysis, changed = naturalize(
        tree, analyze(tree), cf, Random(0),
        bank.grammar_for("in_dist").lexicon)
    assert calls == [fixed]
    assert changed and check_selectional(analysis, cf) == []


def test_inanimate_subject_repair(bank):
    tree = _parse_one(bank, "the book bloomed .")
    cf = default_case_frames()
    viols = check_selectional(analyze(tree), cf)
    assert [(v.verb, v.role, v.noun) for v in viols] == \
        [("bloom", "inanimate_subject", "book")]
    fixed, analysis, changed = naturalize(
        tree, analyze(tree), cf, Random(0),
        bank.grammar_for("in_dist").lexicon)
    assert changed and check_selectional(analysis, cf) == []
    assert _gloss(bank, fixed) == "hana ga sai ta"


def test_licensed_sentence_unchanged(bank):
    tree = _parse_one(bank, "the flower bloomed .")
    cf = default_case_frames()
    analysis = analyze(tree)
    fixed, fixed_analysis, changed = naturalize(
        tree, analysis, cf, Random(0), bank.grammar_for("in_dist").lexicon)
    assert not changed and fixed is tree
    assert fixed_analysis is analysis
    assert check_selectional(fixed_analysis, cf) == []


def test_noun_two_verbs_constrain_is_unrepairable(bank):
    """'wine' is the object of both 'ate' and the relative clause's 'drank'.
    The best object of 'eat', 'apple', is unlicensed for 'drink', so the
    repair would leave an unlicensed pair and the record is given up."""
    tree = _parse_one(bank, "Lucas ate the wine that Ava drank .")
    cf = default_case_frames()
    viols = check_selectional(analyze(tree), cf)
    assert [(v.verb, v.role, v.noun) for v in viols] == \
        [("eat", "direct_object", "wine")]
    assert cf.ranked("eat", "direct_object")[0] == ["apple"]
    assert not cf.licensed("drink", "direct_object", "apple")
    with pytest.raises(UnrepairableRecordError,
                       match=r"'apple' replaces 'wine' as direct_object of "
                             r"'eat' but is unlicensed as direct_object of "
                             r"'drink'$"):
        naturalize(tree, analyze(tree), cf, Random(0),
                   bank.grammar_for("in_dist").lexicon)


def test_repair_is_deterministic_in_seed(bank):
    tree = _parse_one(bank, "the teacher ate the bed .")
    cf = default_case_frames()
    lex = bank.grammar_for("in_dist").lexicon
    a = _gloss(bank, naturalize(tree, analyze(tree), cf, Random(7), lex)[0])
    b = _gloss(bank, naturalize(tree, analyze(tree), cf, Random(7), lex)[0])
    assert a == b


def test_uncovered_pairs_are_licensed(bank):
    """Open-world: a (verb, role) outside the list licenses everything."""
    tree = _parse_one(bank, "the teacher found the panda .")
    assert check_selectional(analyze(tree), default_case_frames()) == []


def test_case_frame_tsv_round_trip():
    rows = [("eat", "direct_object", "apple", 1),
            ("eat", "direct_object", "cake", 2),
            ("eat", "direct_object", "fig", 2),
            ("drink", "direct_object", "wine", 1),
            ("bloom", "inanimate_subject", "flower", 3),
            ("bloom", "inanimate_subject", "tree", 1)]
    text = "# verb\trole\tnoun\trank\n" + "".join(
        "\t".join(map(str, row)) + "\n" for row in rows)
    cf = parse_case_frames(text)
    want = CaseFrameList(rows)
    assert cf.pairs == want.pairs
    assert cf.pool == want.pool
    assert cf.ranked("eat", "direct_object") == [["apple"], ["cake", "fig"]]


def test_parse_case_frames_rejects_malformed_lines():
    with pytest.raises(GrammarError, match="^frames.tsv:1: expected 4"):
        parse_case_frames("eat\tdirect_object\tapple\n", "frames.tsv")
    with pytest.raises(GrammarError, match="^frames.tsv:2: bad rank"):
        parse_case_frames("# header\neat\tdirect_object\tapple\tfirst\n",
                          "frames.tsv")
    with pytest.raises(GrammarError, match="^frames.tsv:1: unknown"):
        parse_case_frames("eat\toblique\tapple\t1\n", "frames.tsv")
    with pytest.raises(GrammarError):
        CaseFrameList([("eat", "oblique", "apple", 1)])


def test_comments_and_blanks_ignored():
    cf = parse_case_frames(
        "# header\n\neat\tdirect_object\tapple\t1\n")
    assert cf.licensed("eat", "direct_object", "apple")
    assert not cf.licensed("eat", "direct_object", "bed")
