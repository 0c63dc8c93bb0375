import re

import pytest

from compmt.bank import GrammarSpec, L, v
from compmt.earley import parse
from compmt.grammar import (LeafNode, Lit, LitNode, NT, ProdNode, Production,
                            iter_leaves, yield_tokens)
from compmt.lexdata import dictionary_rows
from compmt.transduce import (BilingualDictionary, TransductionError,
                              default_morph, render_leaf, target_span,
                              transduce)

# English sentence -> expected morpheme-level gloss.  Each pair exercises a
# different construction: plain transitive, long passive, PP-on-subject
# genitive chain, passive wh-question, and a depth-3 locative chain in a
# prepositional dative.
GOLDENS = [
    ("in_dist",
     "The woman found the panda .",
     "jyosei ga panda o mituke ta"),
    ("active_to_passive",
     "Sophia was recognized by Liam .",
     "sofia ga riamu niyotte ninsikisa re ta"),
    ("pp_in_subj",
     "The jar on the book changed .",
     "hon no ue no bin ga kawat ta"),
    ("wh_passive_subj",
     "What was seen ?",
     "nani ga mi rare ta ka ?"),
    ("in_dist",
     "The child handed the box beside the table beside the tree beside "
     "the house to the teacher .",
     "kodomo ga ie no yoko no ki no yoko no teeburu no yoko no hako o "
     "kyoosi ni tewatasi ta"),
]


@pytest.mark.parametrize("grammar_id,source,gloss", GOLDENS)
def test_paper_glosses_token_exact(bank, grammar_id, source, gloss):
    grammar = bank.grammar_for(grammar_id)
    tokens = source.split()
    trees = parse(grammar, tokens)
    if not trees:
        trees = parse(grammar,
                      [tokens[0][0].lower() + tokens[0][1:]] + tokens[1:])
    assert trees, source
    want = gloss.split()
    produced = [transduce(t, bank.dictionary, bank.morph) for t in trees]
    assert want in produced, produced


def test_declaratives_are_sov_without_final_punct(bank):
    """Japanese declaratives end in verbal morphology, never punctuation;
    questions end with the particle sequence 'ka ?'."""
    g = bank.grammar_for("in_dist")
    from random import Random
    rng = Random(3)
    seen_q = seen_d = 0
    for _ in range(300):
        tree = g.sample_with_rng(rng)
        source = yield_tokens(tree)
        target = transduce(tree, bank.dictionary, bank.morph)
        if source[-1] == "?":
            seen_q += 1
            assert target[-2:] == ["ka", "?"]
        else:
            seen_d += 1
            assert target[-1] not in (".", "?")
    assert seen_d > 0


def test_transduce_unknown_production_raises(bank):
    orphan = ProdNode(Production("no_such_rule", "S", (Lit("x"),)),
                      (LitNode("x"),))
    with pytest.raises(TransductionError,
                       match="uncovered production no_such_rule"):
        transduce(orphan, bank.dictionary, bank.morph)


@pytest.mark.parametrize("template,problem", [
    ("$0 @bogus", "malformed template token '@bogus'"),
    ("$0 $3", "child 3 out of range"),
    ("$0 ga @morph(0)", "child 0 referenced twice"),
    ("$1 @morph(2)", "child 1 is a literal terminal"),
    ("$2 @morph(0)", "@morph target 0 is not a verb slot"),
])
def test_grammar_spec_rejects_bad_template(template, problem):
    spec = GrammarSpec()
    rhs = [NT("NP_PSUBJ"), L("was"), v("v:pass", "part", ["see"])]
    with pytest.raises(TransductionError,
                       match=f"^production s_bad: {re.escape(problem)}$"):
        spec.add("s_bad", "S", rhs, 1, template)
    assert spec.prods == []


def test_one_template_per_production_id(bank, patterns):
    """A production id names one construction: every grammar that holds
    the id translates it by the same template."""
    grammar_ids = ["in_dist"] + [p.id for p in patterns]
    assert len(grammar_ids) == 43
    templates = {}
    for gid in grammar_ids:
        for prod in bank.grammar_for(gid).productions:
            assert prod.template is not None, (gid, prod.id)
            first = templates.setdefault(prod.id, prod.template)
            assert first == prod.template, (gid, prod.id)
    assert len(templates) == 135


# -- rendered leaves ----------------------------------------------------------


def test_leaf_tokens_are_kept_per_dictionary(bank):
    rows = list(dictionary_rows())
    renamed = [(lemma, pos, bundle, ("neko2",) if lemma == "cat" else tokens)
               for lemma, pos, bundle, tokens in rows]
    first, second = BilingualDictionary(rows), BilingualDictionary(renamed)
    leaf = LeafNode(bank.lexicon.get("cat", "CommonNoun"), "base", "n:x")
    morph = default_morph()
    plain = render_leaf(leaf, first, morph)
    assert plain != ("neko2",)
    assert render_leaf(leaf, second, morph) == ("neko2",)
    assert render_leaf(leaf, first, morph) == plain


def test_morph_overrides_render_apart_from_the_bundle(bank):
    """Each (tense, voice) override renders as it would in a fresh
    dictionary, whichever was rendered first."""
    leaf = LeafNode(bank.lexicon.get("see", "Verb"), "inf", "v:x")
    morph = default_morph()
    calls = [(None, None), ("past", None), ("past", "passive"),
             (None, None), ("pres", None)]
    cached = BilingualDictionary(dictionary_rows())
    got = [render_leaf(leaf, cached, morph, *tv) for tv in calls]
    fresh = [render_leaf(leaf, BilingualDictionary(dictionary_rows()),
                         morph, *tv) for tv in calls]
    assert got == fresh
    assert len(set(got)) == 3


def test_equal_leaves_get_their_own_target_spans(bank):
    g = bank.grammar_for("in_dist")
    [tree] = parse(g, "the woman found the small small panda .".split())
    first, second = [lf for lf in iter_leaves(tree)
                     if lf.entry.lemma == "small"]
    assert first == second and first is not second
    tokens = transduce(tree, bank.dictionary, bank.morph)
    spans = [target_span(tree, leaf, bank.dictionary, bank.morph)
             for leaf in (first, second)]
    assert spans[0] != spans[1]
    assert [tuple(tokens[a:b]) for a, b in spans] == \
        [render_leaf(first, bank.dictionary, bank.morph)] * 2


def test_target_span_covers_a_template_override(bank):
    """A verb inflected by its parent's ``@morph`` override spans the
    override's tokens, not its own bundle's."""
    [tree] = parse(bank.grammar_for("in_dist"),
                   "What did the woman find ?".split())
    assert tree.children[0].production.id == "q_whatobj"
    [verb] = [lf for lf in iter_leaves(tree) if lf.entry.pos == "Verb"]
    start, end = target_span(tree, verb, bank.dictionary, bank.morph)
    tokens = transduce(tree, bank.dictionary, bank.morph)
    past = render_leaf(verb, bank.dictionary, bank.morph, "past")
    assert tuple(tokens[start:end]) == past
    assert past != render_leaf(verb, bank.dictionary, bank.morph)
