"""Statistical properties of the seeded sampler.

The rule-frequency, Zipf-slope and conditional-frequency checks use fixed
seeds: they verify a statistical property at a sample size where the
expected deviation is well inside the tolerance, and the fixed seed keeps
the assertion reproducible.
"""

import hashlib
import math
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction
from random import Random

from compmt.audit import audit_grammar
from compmt.grammar import (Constraints, LexEntry, Lexicon, Lit, NT, Pcfg,
                            Production, Slot, iter_leaves, iter_nodes,
                            profile, yield_tokens)
from compmt.naturalize import SelViolation, _locate

F = Fraction


def _ten_rule_grammar():
    lex = Lexicon([LexEntry("tok", "T", forms={"base": "tok"})])
    return Pcfg("S", [
        Production("s", "S", (NT("A"), NT("B"), NT("D"))),
        Production("a_x", "A", (Lit("x"),), F(3, 10)),
        Production("a_y", "A", (Lit("y"),), F(7, 10)),
        Production("b_c", "B", (NT("C"),), F(2, 5)),
        Production("b_z", "B", (Lit("z"),), F(3, 5)),
        Production("c_u", "C", (Lit("u"),), F(1, 2)),
        Production("c_v", "C", (Lit("v"),), F(1, 4)),
        Production("c_w", "C", (Lit("w"),), F(1, 4)),
        Production("d_1", "D", (Lit("d1"),), F(9, 10)),
        Production("d_2", "D", (Lit("d2"),), F(1, 10)),
    ], lex)


# Exact per-sample marginal of each rule firing, by hand from the weights.
EXACT = {
    "s": 1.0,
    "a_x": 0.3, "a_y": 0.7,
    "b_c": 0.4, "b_z": 0.6,
    "c_u": 0.4 * 0.5, "c_v": 0.4 * 0.25, "c_w": 0.4 * 0.25,
    "d_1": 0.9, "d_2": 0.1,
}


def test_rule_frequencies_within_l1_tolerance():
    g = _ten_rule_grammar()
    assert g.validate() == []
    n = 100_000
    rng = Random(123)
    counts = Counter()
    for _ in range(n):
        for node in iter_nodes(g.sample_with_rng(rng)):
            counts[node.production.id] += 1
    l1 = sum(abs(counts[pid] / n - exact) for pid, exact in EXACT.items())
    assert l1 <= 0.01, l1


def _zipf_slope(exponent, n_draws, seed):
    lemmas = [f"w{i:02d}" for i in range(40)]
    lex = Lexicon([
        LexEntry(w, "N", forms={"base": w}, zipf_rank=i + 1)
        for i, w in enumerate(lemmas)
    ])
    g = Pcfg("S", [Production("s", "S", (Slot("N", "base", "n:x"),))],
             lex, zipf_exponent=exponent)
    rng = Random(seed)
    counts = Counter()
    for _ in range(n_draws):
        tree = g.sample_with_rng(rng)
        counts[tree.children[0].entry.zipf_rank] += 1
    xs, ys = [], []
    for rank in sorted(counts):
        xs.append(math.log(rank))
        ys.append(math.log(counts[rank]))
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / \
        sum((x - mx) ** 2 for x in xs)


def test_zipf_slope_matches_exponent():
    slope = _zipf_slope(exponent=1.0, n_draws=1_000_000, seed=11)
    assert abs(slope + 1.0) <= 0.1, slope


def test_zipf_slope_matches_half_exponent():
    slope = _zipf_slope(exponent=0.5, n_draws=1_000_000, seed=11)
    assert abs(slope + 0.5) <= 0.1, slope


# -- constrained draws against a rejection reference ------------------------


def _production_shares(trees):
    counts = Counter(node.production.id
                     for tree in trees for node in iter_nodes(tree))
    total = sum(counts.values())
    return {pid: c / total for pid, c in counts.items()}


def _l1(a, b):
    return sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in set(a) | set(b))


def _exact_against_rejection(g, variants, plain_draws, exact_draws, seed):
    """L1 distance, per variant, between the production shares of exact
    constrained draws and of plain draws kept by ``satisfied_by``."""
    rng = Random(seed)
    kept = [[] for _ in variants]
    for _ in range(plain_draws):
        tree = g.sample_with_rng(rng)
        for constraints, trees in zip(variants, kept):
            if constraints.satisfied_by(*profile(tree)):
                trees.append(tree)
    out = []
    for constraints, trees in zip(variants, kept):
        assert len(trees) >= 150, (str(constraints), len(trees))
        exact = [g.sample_with_rng(rng, constraints)
                 for _ in range(exact_draws)]
        out.append(_l1(_production_shares(exact), _production_shares(trees)))
    return out


def _pair_grammar():
    """Two independent nests: a depth or a required id can be met by
    either child, so the sampler must share its flags between them."""
    lex = Lexicon([LexEntry("tok", "T", forms={"base": "tok"})])
    return Pcfg("S", [
        Production("s", "S", (NT("A"), NT("A"))),
        Production("wrap", "A", (Lit("("), NT("A"), Lit(")")), F(2, 5),
                   construct="PP"),
        Production("x", "A", (Lit("x"),), F(2, 5)),
        Production("y", "A", (Lit("y"),), F(1, 5)),
    ], lex)


def test_exact_sampler_matches_rejection_on_a_toy_grammar():
    variants = [
        Constraints(required=frozenset({"y"}), depths=(("PP", 2),)),
        Constraints(required=frozenset({"x", "y"}), depths=(("PP", 1),)),
        Constraints(forbidden=frozenset({"y"}), depths=(("PP", 3),)),
    ]
    l1 = _exact_against_rejection(_pair_grammar(), variants, 40_000,
                                  10_000, seed=7)
    assert max(l1) <= 0.02, l1


def test_exact_sampler_matches_rejection_on_recursion_patterns(patterns):
    """Every variant (depth 3, 5 or 6, in or out of a complement clause)
    of the eight recursion patterns."""
    recursion = [p for p in patterns if "_recursion_" in p.id]
    assert len(recursion) == 8
    for p in recursion:
        variants = [p.constraints_for(i) for i in range(len(p.variants))]
        l1 = _exact_against_rejection(p.gen_grammar, variants, 10_000, 600,
                                      seed=p.id)
        assert max(l1) <= 0.06, (p.id, l1)


# -- expansion plans ----------------------------------------------------------

# sha256 of the source lines of the first 200 plain draws from the training
# grammar at Random(0).  A change that moves it changes which trees every
# seed draws.
PLAIN_DRAWS_SHA256 = \
    "174b80550ad5962bb2b0759c5245ac92d5ec88b65e25dc63f3a8fdc92b979e72"


def test_plain_draws_are_pinned(bank):
    rng = Random(0)
    text = "\n".join(" ".join(yield_tokens(bank.grammar.sample_with_rng(rng)))
                     for _ in range(200))
    assert hashlib.sha256(text.encode()).hexdigest() == PLAIN_DRAWS_SHA256


def _slot_lemmas(trees, tag):
    return {leaf.entry.lemma for tree in trees for leaf in iter_leaves(tree)
            if leaf.tag == tag}


def test_restricted_copy_has_its_own_expansion_plans(bank):
    """A ``restrict_slots`` copy shares its parent's constrained tables,
    not the slot entries its draws pick from, in either direction."""
    g = bank.grammar
    has_dobj = Constraints(required=frozenset({"np_dobj_c"}))
    rng = Random(5)
    before = [g.sample_with_rng(rng, has_dobj) for _ in range(50)]
    assert len(_slot_lemmas(before, "n:dobj:c")) > 5
    copy = g.restrict_slots({"n:dobj:c": {"panda"}})
    assert copy._intersections is g._intersections \
        and copy._plans is not g._plans
    drawn = [copy.sample_with_rng(rng, has_dobj) for _ in range(50)]
    assert _slot_lemmas(drawn, "n:dobj:c") == {"panda"}
    after = [g.sample_with_rng(rng, has_dobj) for _ in range(50)]
    assert len(_slot_lemmas(after, "n:dobj:c")) > 5


def _full_copy(g, overrides):
    """``g`` restricted to ``overrides`` with nothing shared: every
    production replaced and every table its own."""
    def remap(sym):
        if isinstance(sym, Slot) and sym.tag in overrides:
            return replace(sym, lemmas=frozenset(overrides[sym.tag]))
        return sym

    return Pcfg(g.start,
                [replace(p, rhs=tuple(map(remap, p.rhs)))
                 for p in g.productions], g.lexicon, g.zipf_exponent)


def test_restricted_copy_draws_what_a_full_copy_draws(bank, patterns):
    # The first exposure recipe that overrides each slot tag.
    recipes = {}
    for spec in patterns:
        for kind, *recipe in spec.exposures:
            if kind == "sample" and recipe[1]:
                recipes.setdefault(tuple(sorted(recipe[1])), recipe)
    assert len(recipes) > 10
    g = bank.grammar
    for required, overrides, depths in recipes.values():
        view, full = g.restrict_slots(overrides), _full_copy(g, overrides)
        cons = Constraints(required, frozenset(), depths)
        for seed in range(5):
            a = view.sample_with_rng(Random(seed), cons)
            b = full.sample_with_rng(Random(seed), cons)
            assert a == b and yield_tokens(a) == yield_tokens(b)


def test_restricted_copy_is_a_view_of_its_parent(bank):
    g = bank.grammar
    copy = g.restrict_slots({"n:dobj:c": {"panda"}})
    replaced = {pid for pid, prod in copy.by_id.items()
                if prod is not g.by_id[pid]}
    assert replaced == {p.id for p in g.productions if any(
        isinstance(s, Slot) and s.tag == "n:dobj:c" for s in p.rhs)}
    assert "np_dobj_c" in replaced and "s_trans_past" not in replaced
    assert copy._slot_cache is g._slot_cache
    # A drawn node keeps the restricted slot, so a repair stays inside it.
    tree = copy.sample_with_rng(
        Random(3), Constraints(required=frozenset({"np_dobj_c"})))
    node = next(n for n in iter_nodes(tree)
                if n.production.id == "np_dobj_c")
    assert node.production is copy.by_id["np_dobj_c"]
    leaf, slot = _locate(tree, SelViolation("eat", "direct_object", "panda",
                                            "n:dobj:c"))
    assert leaf in node.children and slot in node.production.rhs
    assert slot.lemmas == frozenset({"panda"})


def _has_verb_slot(prod):
    return any(isinstance(s, Slot) and s.pos == "Verb" for s in prod.rhs)


def test_is_clause_marks_the_productions_with_a_verb_slot(bank, patterns):
    grammars = [bank.grammar] + [p.gen_grammar for p in patterns] + \
        [audit_grammar(bank, patterns)]
    assert len(grammars) == 44
    prods = [prod for g in grammars for prod in g.productions]
    assert all(prod.is_clause == _has_verb_slot(prod) for prod in prods)
    assert {prod.is_clause for prod in prods} == {True, False}
    # A copy computes its own; the flag is no field, so no dump shows it.
    clause = next(prod for prod in prods if prod.is_clause)
    assert not replace(clause, rhs=(Lit("x"),)).is_clause
    assert "is_clause" not in {f.name for f in fields(Production)}
    assert "is_clause" not in repr(clause)
