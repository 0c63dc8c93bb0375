from fractions import Fraction
from random import Random

import pytest

from compmt import grammar
from compmt.bank import Bank, analyze
from compmt.build import _annotate
from compmt.earley import parse
from compmt.grammar import (Constraints, GrammarError, LeafNode, LexEntry,
                            Lexicon, Lit, LitNode, NT, Pcfg, ProdNode,
                            Production, Slot, UnsatisfiableConstraintError,
                            iter_leaves, iter_nodes, profile, yield_tokens)
from compmt.naturalize import _replace_leaf, default_case_frames, naturalize
from compmt.transduce import target_span, transduce


def _toy_lexicon():
    nouns = ["cat", "dog", "owl", "fox"]
    return Lexicon([
        LexEntry(w, "N", forms={"base": w}, zipf_rank=i + 1)
        for i, w in enumerate(nouns)
    ])


def _toy_grammar():
    n = Slot("N", "base", "n:head")
    return Pcfg("S", [
        Production("s", "S", (NT("A"), n)),
        Production("a_one", "A", (Lit("one"),), Fraction(1, 4)),
        Production("a_two", "A", (Lit("two"),), Fraction(3, 4)),
    ], _toy_lexicon())


def test_validate_clean_grammar():
    assert _toy_grammar().validate() == []


def test_validate_flags_non_normalized_lhs():
    g = Pcfg("S", [
        Production("s", "S", (Lit("x"),), Fraction(1, 2)),
        Production("s2", "S", (Lit("y"),), Fraction(1, 3)),
    ], _toy_lexicon())
    kinds = {v.kind for v in g.validate()}
    assert "non_normalized" in kinds


def test_validate_flags_dangling_nonterminal():
    g = Pcfg("S", [Production("s", "S", (NT("MISSING"),))], _toy_lexicon())
    assert any(v.kind != "non_normalized" for v in g.validate())


def test_empty_rhs_rejected():
    with pytest.raises(GrammarError):
        Production("bad", "S", ())


def test_negative_weight_rejected():
    with pytest.raises(GrammarError):
        Production("bad", "S", (Lit("x"),), Fraction(-1))


def test_slot_admission_respects_lemmas_and_bundle():
    lex = _toy_lexicon()
    open_slot = Slot("N", "base", "n:x")
    narrow = Slot("N", "base", "n:x", lemmas=frozenset({"cat"}))
    wrong_bundle = Slot("N", "past", "n:x")
    cat = lex.by_key[("cat", "N")]
    dog = lex.by_key[("dog", "N")]
    assert open_slot.admits(cat) and open_slot.admits(dog)
    assert narrow.admits(cat) and not narrow.admits(dog)
    assert not wrong_bundle.admits(cat)


def test_restrict_slots_swaps_lemma_sets():
    g = _toy_grammar()
    g2 = g.restrict_slots({"n:head": {"owl"}})
    tree = g2.sample_with_rng(Random(7))
    leaves = [t for t in yield_tokens(tree) if t not in ("one", "two")]
    assert leaves == ["owl"]
    # the original grammar is untouched
    lemmas = {yield_tokens(g.sample_with_rng(Random(seed)))[-1]
              for seed in range(40)}
    assert len(lemmas) > 1


def test_restricted_copy_reuses_the_solved_inside_weights(monkeypatch):
    g = _toy_grammar()
    one = Constraints(required=frozenset({"a_one"}))
    g.sample_with_rng(Random(0), one)
    solves = []
    solve = grammar._Intersection._solve

    def counted(self, flags):
        solves.append(flags)
        return solve(self, flags)

    monkeypatch.setattr(grammar._Intersection, "_solve", counted)
    owl = g.restrict_slots({"n:head": {"owl"}})
    rng = Random(7)
    for _ in range(20):
        assert yield_tokens(owl.sample_with_rng(rng, one)) == ["one", "owl"]
    assert solves == []
    # new constraints are solved once, for the copy and its parent alike
    two = Constraints(forbidden=frozenset({"a_one"}))
    assert yield_tokens(owl.sample_with_rng(rng, two)) == ["two", "owl"]
    g.sample_with_rng(rng, two)
    assert len(solves) == 1


def test_sampling_is_deterministic_in_seed():
    g = _toy_grammar()
    a = [yield_tokens(g.sample_with_rng(Random(s))) for s in range(20)]
    b = [yield_tokens(g.sample_with_rng(Random(s))) for s in range(20)]
    assert a == b


def test_constraints_required_and_forbidden():
    g = _toy_grammar()
    tree = g.sample_with_rng(Random(3),
                             Constraints(required=frozenset({"a_one"})))
    assert "a_one" in profile(tree)[0]
    tree = g.sample_with_rng(Random(3),
                             Constraints(forbidden=frozenset({"a_one"})))
    assert "a_one" not in profile(tree)[0]


def test_every_constrained_draw_meets_its_constraints(patterns):
    """One draw per record: a tree, never None, that meets the record's
    constraints, for every variant of every pattern."""
    for p in patterns:
        rng = Random(p.id)
        for i in range(4 * len(p.variants)):
            constraints = p.constraints_for(i)
            tree = p.gen_grammar.sample_with_rng(rng, constraints)
            assert tree is not None and \
                constraints.satisfied_by(*profile(tree)), \
                (p.id, str(constraints))


def test_unconstrained_draw_is_unchanged_by_empty_constraints():
    g = _toy_grammar()
    rng, twin = Random(3), Random(3)
    for _ in range(40):
        assert g.sample_with_rng(rng, Constraints()) == \
            g.sample_with_rng(twin)
    assert rng.getstate() == twin.getstate()


def test_constraints_unsatisfiable_raises():
    """Constraints that admit no tree fail at once, before any RNG call."""
    g = _toy_grammar()
    never = Constraints(required=frozenset({"a_one", "a_two"}))
    rng = Random(3)
    state = rng.getstate()
    assert not g.satisfiable(never)
    with pytest.raises(UnsatisfiableConstraintError,
                       match="required=a_one,a_two"):
        g.sample_with_rng(rng, never)
    assert rng.getstate() == state


def test_unknown_construct_rejected():
    with pytest.raises(GrammarError, match="unknown construct 'RC'"):
        Constraints(depths=(("RC", 1),))


@pytest.mark.parametrize("depths", [(("PP", -1),), (("PP", 1), ("PP", 2))])
def test_construct_needs_one_depth(depths):
    with pytest.raises(GrammarError, match="construct 'PP' needs one depth"):
        Constraints(depths=depths)


def _nest(g, pid, *children):
    return ProdNode(g.by_id[pid], children)


def test_profile_counts_nested_constructs():
    lex = _toy_lexicon()
    g = Pcfg("S", [
        Production("wrap", "S", (Lit("("), NT("S"), Lit(")")),
                   Fraction(1, 3), construct="CP"),
        Production("stop", "S", (Lit("x"),), Fraction(2, 3)),
    ], lex)
    tree = g.sample_with_rng(Random(1), Constraints(depths=(("CP", 3),)))
    assert profile(tree) == ({"wrap", "stop"},
                             {"CP": 3, "PP": 0, "CenterEmbedRC": 0, "Adj": 0})
    assert yield_tokens(tree) == ["(", "(", "(", "x", ")", ")", ")"]


def test_profile_depth_is_the_deepest_branch():
    g = Pcfg("S", [
        Production("pair", "S", (NT("P"), NT("P"))),
        Production("pp", "P", (Lit("on"), NT("P")), Fraction(1, 2),
                   construct="PP"),
        Production("adj", "P", (Lit("red"), NT("P")), Fraction(1, 4),
                   construct="Adj"),
        Production("end", "P", (Lit("x"),), Fraction(1, 4)),
    ], _toy_lexicon())
    end = _nest(g, "end", LitNode("x"))
    # Left branch: PP over Adj over PP; right branch: PP over PP over PP.
    left = _nest(g, "pp", LitNode("on"), _nest(
        g, "adj", LitNode("red"), _nest(g, "pp", LitNode("on"), end)))
    right = _nest(g, "pp", LitNode("on"), _nest(
        g, "pp", LitNode("on"), _nest(g, "pp", LitNode("on"), end)))
    ids, depths = profile(_nest(g, "pair", left, right))
    assert ids == {"pair", "pp", "adj", "end"}
    assert depths == {"CP": 0, "PP": 3, "CenterEmbedRC": 0, "Adj": 1}
    _, depths = profile(_nest(g, "pair", right, left))
    assert depths["PP"] == 3
    _, depths = profile(_nest(g, "pair", left, end))
    assert depths["PP"] == 2


def test_default_bank_grammars_validate(bank, patterns):
    assert bank.grammar_for("in_dist").validate() == []
    for p in patterns:
        assert p.gen_grammar.validate() == [], p.id


def test_bank_builds_without_validating_its_grammars(monkeypatch):
    """The bundled grammars are checked by the test above and by
    ``compmt validate``, not on every start."""
    def refuse(self):
        raise AssertionError("Pcfg.validate ran while building the bank")

    monkeypatch.setattr(Pcfg, "validate", refuse)
    assert len(Bank().patterns) == 42


def _value_pairs():
    """(node, an equal node built separately, a node unequal to it) for
    every tree node type."""
    entry = _toy_lexicon().get("cat", "N")
    prod = _toy_grammar().by_id["a_one"]
    return [
        (ProdNode(prod, (LitNode("one"),)), ProdNode(prod, (LitNode("one"),)),
         ProdNode(prod, (LitNode("two"),))),
        (LeafNode(entry, "base", "n:head"), LeafNode(entry, "base", "n:head"),
         LeafNode(entry, "base", "n:dobj")),
        (LitNode("one"), LitNode("one"), LitNode("two")),
    ]


@pytest.mark.parametrize("node, twin, other", _value_pairs())
def test_tree_nodes_are_immutable_values(node, twin, other):
    for name in node._fields:
        with pytest.raises(AttributeError):
            setattr(node, name, None)
    assert node == twin and node is not twin and hash(node) == hash(twin)
    assert node != other
    assert len({node, twin, other}) == 2


def test_tree_edits_find_nodes_by_identity(bank, patterns):
    """Equal nodes at different places in a tree stay apart: a repair
    replaces one leaf object, and a span is that of one node object."""
    g = bank.grammar_for("in_dist")
    [tree] = parse(g, "the woman found the small small panda .".split())
    first, second = [lf for lf in iter_leaves(tree)
                     if lf.entry.lemma == "small"]
    assert first == second
    big = LeafNode(g.lexicon.get("big", first.entry.pos), first.bundle,
                   first.tag)
    edited = _replace_leaf(tree, second, big)
    assert [lf.entry.lemma for lf in iter_leaves(edited)] == \
        ["woman", "find", "small", "big", "panda"]

    [tree] = parse(g, "the teacher ate the bed .".split())
    fixed, _, changed = naturalize(tree, analyze(tree),
                                   default_case_frames(), Random(0),
                                   g.lexicon)
    kept = [(a, b) for a, b in zip(iter_leaves(tree), iter_leaves(fixed))]
    assert changed and [a is b for a, b in kept] == [True, True, False]

    spec = next(p for p in patterns if p.target_kind == "np")
    tree = spec.gen_grammar.sample_with_rng(Random(0),
                                            spec.constraints_for(0))
    annotation, _, _ = _annotate(
        tree, analyze(tree), transduce(tree, bank.dictionary, bank.morph),
        spec, bank)
    node = next(nd for nd in iter_nodes(tree) if nd.production.annot_target)
    assert annotation["target_constituent_ref_tokens"] == \
        transduce(node, bank.dictionary, bank.morph)
    assert target_span(tree, ProdNode(*node), bank.dictionary,
                       bank.morph) is None
