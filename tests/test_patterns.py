"""Inventory invariants for the 42 generalization patterns."""

import hashlib
import json
from collections import Counter

from compmt.audit import _CANON_FRAME, WITHHELD_STRUCTURES
from compmt.bank import (DET, L, ROLE_BY_TAG, _SELECTIONAL_ROLE, _emb,
                         _emb_id, base_name, n, v)
from compmt.grammar import NT, Slot

# sha256 of `_grammar_dump` over the 42 pattern grammars.  Any change to a
# production (order within its left-hand side, id, rhs, weight, construct,
# target flag, template) or to a pattern's variants, exposure recipes or
# metadata moves it; so does renaming a nonterminal.
GRAMMAR_DUMP_SHA256 = (
    "d13cbe5ca71e0a1787be88db8e0969e30428dd223dbc1365b19923ba94f400f9")

# sha256 of `_bank_grammar_dump` over the training grammar, in the format
# of `_grammar_dump`: it pins the embedded copies the training grammar
# derives by the naming rule.
BANK_GRAMMAR_IDS = ("in_dist",)
BANK_GRAMMAR_DUMP_SHA256 = (
    "d2ebfbb2ce87b2045c2ff62018989c5bf5042c9c7224ea22245f208331c8f3d5")

SMALL_COUNT_IDS = {
    "cp_recursion_shallower", "cp_recursion_deeper",
    "wh_iobj_gap", "wh_active_subj", "wh_passive_subj",
    "wh_do_dit", "wh_subj_pp", "wh_long_move",
}


def test_inventory_size_and_unique_ids(patterns):
    assert len(patterns) == 42
    assert len({p.id for p in patterns}) == 42


def test_category_counts(patterns):
    assert Counter(p.category for p in patterns) == {
        "PrimitiveSubstitution": 9,
        "TenseAlternation": 6,
        "PrimitiveStructuralAlternation": 6,
        "PhraseRecombination": 6,
        "RecursionDepthAlternation": 8,
        "GapPositionRecombination": 2,
        "WhStructuralAlternation": 5,
    }


def test_group_counts(patterns):
    assert Counter(p.group for p in patterns) == {
        "Lexical": 11,
        "LexicalMorphological": 10,
        "Structural": 21,
    }


def test_generalization_counts(patterns):
    assert sum(p.gen_count for p in patterns) == 76_000
    for p in patterns:
        assert p.gen_count == (1000 if p.id in SMALL_COUNT_IDS else 2000), \
            p.id


def test_partial_evaluable_excludes_exactly_recursion(patterns):
    """Partial Match needs a target constituent; only recursion patterns
    have none."""
    for p in patterns:
        assert (p.target_kind != "none") == \
            (p.category != "RecursionDepthAlternation"), p.id


def test_target_kind_values(patterns):
    for p in patterns:
        assert p.target_kind in ("np", "verb", "wh", "none"), p.id
        if p.target_kind == "wh":
            assert p.wh_word in ("dare", "nani"), p.id
        if p.category == "RecursionDepthAlternation":
            assert p.target_kind == "none", p.id


def test_lexical_patterns_have_five_targets(patterns):
    for p in patterns:
        if p.group in ("Lexical", "LexicalMorphological"):
            assert len(p.target_lexemes) == 5, p.id
        else:
            assert p.target_lexemes == (), p.id


def test_target_lexemes_disjoint_across_patterns(patterns):
    seen = Counter()
    for p in patterns:
        seen.update(p.target_lexemes)
    dup = [w for w, c in seen.items() if c > 1]
    assert dup == []


def test_tense_targets_are_four_regular_one_irregular(bank, patterns):
    lex = bank.grammar_for("in_dist").lexicon
    for p in patterns:
        if p.category != "TenseAlternation":
            continue
        reg = Counter(lex.by_key[(t, "Verb")].features["regularity"]
                      for t in p.target_lexemes)
        assert reg == {"regular": 4, "irregular": 1}, p.id


def test_cp_embedding_flag_and_variants(patterns):
    emb = [p for p in patterns if p.embed_marker]
    assert len(emb) == 34
    for p in emb:
        # variants alternate: embedded first, plain second
        required0, _, _ = p.variants[0]
        _, forbidden1, _ = p.variants[1]
        assert p.embed_marker in required0 and p.embed_marker in forbidden1, \
            p.id


def test_recursion_variants_pin_exact_depths(patterns):
    for p in patterns:
        if p.category != "RecursionDepthAlternation":
            continue
        depths = {d for _req, _forb, pairs in p.variants for _c, d in pairs}
        if p.id.endswith("shallower"):
            assert depths == {3}, p.id
        else:
            assert depths == {5, 6}, p.id


def test_every_pattern_has_exposure_recipes(patterns):
    for p in patterns:
        assert len(p.exposures) >= 1, p.id
        for recipe in p.exposures:
            assert recipe[0] in ("bare", "sample"), p.id


def test_constraints_for_cycles_variants(patterns):
    p = next(s for s in patterns if len(s.variants) > 1)
    n = len(p.variants)
    a = p.constraints_for(0)
    assert p.constraints_for(n) == a
    assert p.constraints_for(1) != a


def _canon(x):
    if isinstance(x, (set, frozenset)):
        return sorted(_canon(y) for y in x)
    if isinstance(x, (tuple, list)):
        return [_canon(y) for y in x]
    if isinstance(x, dict):
        return sorted([_canon(k), _canon(y)] for k, y in x.items())
    if isinstance(x, Slot):
        # [] holds the place of the slot feature list that the digest was
        # pinned with.
        return ["Slot", x.pos, x.bundle, x.tag, [],
                None if x.lemmas is None else sorted(x.lemmas)]
    if isinstance(x, (str, int, float, bool)) or x is None:
        return x
    return repr(x)


def _rules(g):
    """Each left-hand side's ordered productions (id, rhs, weight,
    construct, target flag, template)."""
    return sorted(
        [lhs, [[q.id, _canon(q.rhs), str(q.weight), q.construct,
                q.annot_target, repr(q.template)] for q in prods]]
        for lhs, prods in g.by_lhs.items())


def _grammar_dump(patterns):
    """Every pattern grammar as sampled, plus the pattern's variants,
    exposure recipes and metadata."""
    out = []
    for p in patterns:
        g = p.gen_grammar
        out.append([p.id, p.category, p.group, list(p.target_lexemes),
                    p.gen_count, p.target_kind != "none", bool(p.embed_marker),
                    p.target_kind, p.wh_word, p.expected_role,
                    p.embed_marker, g.start, g.zipf_exponent, _rules(g),
                    _canon(p.variants), _canon_exposures(p.exposures)])
    return json.dumps(out, sort_keys=True)


def _canon_exposures(recipes):
    # "in_dist" holds the place of the grammar key that a sample recipe
    # carried when the digest was pinned.
    return [_canon(r[:1] + ("in_dist",) + r[1:] if r[0] == "sample" else r)
            for r in recipes]


def _bank_grammar_dump(bank):
    """The training grammar."""
    out = []
    for gid in BANK_GRAMMAR_IDS:
        g = bank.grammar_for(gid)
        out.append([gid, g.start, g.zipf_exponent, _rules(g)])
    return json.dumps(out, sort_keys=True)


def test_pattern_grammars_are_pinned(patterns):
    digest = hashlib.sha256(_grammar_dump(patterns).encode()).hexdigest()
    assert digest == GRAMMAR_DUMP_SHA256


def test_bank_grammars_are_pinned(bank):
    digest = hashlib.sha256(_bank_grammar_dump(bank).encode()).hexdigest()
    assert digest == BANK_GRAMMAR_DUMP_SHA256


def test_embedded_copy_rule(bank):
    assert _emb(NT("NP_TSUBJ")) == NT("NP_ETSUBJ")
    assert _emb(NT("NP_DOBJ")) == NT("NP_EDOBJ")
    for shared in (DET, NT("PP"), NT("RC_OBJ"), NT("ADJSEQ"), L("was")):
        assert _emb(shared) == shared
    assert _emb(v("v:trans:past", "past", ["see"])) == \
        v("v:etrans:past", "past", ["see"])
    assert _emb(v("v:pass", "part", ["see"])) == v("v:epass", "part", ["see"])
    assert _emb(n("n:isubj", ["jar"])) == n("n:eisubj", ["jar"])
    assert _emb(n("n:dobj:cf", ["apple"])) == n("n:edobj:cf", ["apple"])
    assert [_emb_id(pid) for pid in ("s_trans_past_cf", "s_do_pres",
                                     "s_passdat")] == \
        ["semb_trans_cf", "semb_do", "semb_passdat"]
    assert [base_name(x) for x in ("edobj", "fdobj", "dobj", "np_edobj_c",
                                   "np_dobj_c", "semb_trans")] == \
        ["dobj", "dobj", "dobj", "np_dobj_c", "np_dobj_c", "semb_trans"]

    # Over all 43 grammars: the inverse undoes the rule, and every copied
    # tag stem or id reads back to a base one that some grammar holds.
    grammars = [bank.grammar_for(gid) for gid in BANK_GRAMMAR_IDS] + \
        [p.gen_grammar for p in bank.patterns]
    prods = [q for g in grammars for q in g.productions]
    slots = {s for q in prods for s in q.rhs if isinstance(s, Slot)}
    stems = {(s.pos, s.tag.split(":")[1]) for s in slots}
    ids = {q.id for q in prods}
    for s in slots:
        stem = s.tag.split(":")[1]
        assert (s.pos, base_name(stem)) in stems, s.tag
        if base_name(stem) == stem:
            assert base_name(_emb(s).tag.split(":")[1]) == stem, s.tag
            assert base_name("f" + stem) == stem, s.tag
    for pid in ids:
        assert base_name(pid) in ids, pid
        if pid.startswith("np_") and base_name(pid) == pid:
            assert base_name("np_e" + pid[3:]) == pid
        if pid.startswith("s_"):  # clause copies are never read back
            assert base_name(_emb_id(pid)) == _emb_id(pid)

    # The analysis and audit tables list base stems and ids only.
    withheld_ids = {i for _, ids in WITHHELD_STRUCTURES.values() for i in ids}
    for table in (ROLE_BY_TAG, _SELECTIONAL_ROLE, withheld_ids, _CANON_FRAME):
        assert [k for k in table if base_name(k) != k] == []


def test_shared_id_means_one_template_and_construct(bank):
    """Over all 43 grammars, the productions that share an id share one
    template and one construct; only the target flag may differ."""
    grammars = [bank.grammar_for(gid) for gid in BANK_GRAMMAR_IDS] + \
        [p.gen_grammar for p in bank.patterns]
    meanings = {}
    for g in grammars:
        for q in g.productions:
            meanings.setdefault(q.id, set()).add((q.template, q.construct))
    assert {pid: m for pid, m in meanings.items() if len(m) > 1} == {}
