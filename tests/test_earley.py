import hashlib
import json
import re
from itertools import product
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

from compmt.audit import PARSE_LIMIT, audit_grammar, segment
from compmt.earley import parse, span_tables
from compmt.grammar import (LeafNode, LexEntry, Lexicon, Lit, LitNode, NT,
                            Pcfg, ProdNode, Production, Slot, iter_leaves,
                            iter_nodes, yield_tokens)
from compmt.transduce import transduce

# sha256 of the _dump of every parse list of the scale-0.01 train split at
# seed 1, in list order.  Both digests here were checked against the
# enumerator without FIRST/LAST/length pruning, which gives the same.
SMALL_TRAIN_PARSES_SHA256 = \
    "5ccc134c4ca5c6c17914167633dd2afc115856767bd032151ec366538b4a61ac"
# The same over the first 10 scale-0.01 gen records of each of the 42
# patterns, both casings (840 parse lists): train holds no withheld
# material, so only this digest pins the parses that charge a leak.
SMALL_GEN_PARSES_SHA256 = \
    "e51389d55685f434d559d73d1b19421c8a360a12c04209c5e8613a23a51eea61"


def _translate(bank, tree):
    return tuple(transduce(tree, bank.dictionary, bank.morph))


def test_parse_rejects_garbage(bank):
    g = bank.grammar_for("in_dist")
    assert parse(g, ["panda", "the", "found", "."]) == []
    assert parse(g, ["completely", "unknown", "tokens"]) == []


def test_parse_round_trip_translation(bank):
    """Sampled sentences re-parse, and some parse reproduces the exact
    translation of the original derivation."""
    g = bank.grammar_for("in_dist")
    rng = Random(5)
    for _ in range(60):
        tree = g.sample_with_rng(rng)
        tokens = yield_tokens(tree)
        want = _translate(bank, tree)
        trees = parse(g, tokens)
        assert trees, tokens
        assert any(_translate(bank, t) == want for t in trees), tokens


def test_parse_respects_limit(bank):
    g = bank.grammar_for("in_dist")
    rng = Random(9)
    tree = g.sample_with_rng(rng)
    tokens = yield_tokens(tree)
    assert len(parse(g, tokens, limit=1)) == 1


def test_parse_is_deterministic(bank):
    g = bank.grammar_for("in_dist")
    tokens = "the woman found the panda .".split()
    a = parse(g, tokens)
    b = parse(g, tokens)
    assert a == b and len(a) >= 1


def _dump(node):
    if isinstance(node, ProdNode):
        return [node.production.id, [_dump(c) for c in node.children]]
    if isinstance(node, LeafNode):
        return [node.entry.lemma, node.bundle, node.tag]
    return node.text


def _parse_lists(g, records):
    """Every segment's parse list, both casings."""
    for record in records:
        for seg in segment(record.source_tokens):
            lowered = [seg[0][0].lower() + seg[0][1:]] + seg[1:]
            for tokens in (seg, lowered):
                yield parse(g, tokens, PARSE_LIMIT)


def _parses_digest(g, records):
    """sha256 of the _dump of every segment's parse list, both casings."""
    digest = hashlib.sha256()
    for trees in _parse_lists(g, records):
        digest.update(json.dumps([_dump(t) for t in trees]).encode())
    return digest.hexdigest()


def _first_gen_records(recs):
    """The first 10 gen records of each of the 42 patterns."""
    per_pattern = {}
    for record in recs["gen"]:
        group = per_pattern.setdefault(record.pattern_id, [])
        if len(group) < 10:
            group.append(record)
    assert len(per_pattern) == 42
    return [r for group in per_pattern.values() for r in group]


def test_audit_parse_lists_are_pinned(bank, patterns, small_build):
    """The same trees in the same order: the audit charges a segment with
    the first of its most innocent parses."""
    recs, _ = small_build
    g = audit_grammar(bank, patterns)
    assert _parses_digest(g, recs["train"]) == SMALL_TRAIN_PARSES_SHA256


def test_audit_gen_parse_lists_are_pinned(audit_g, small_build):
    """The parses that charge a leak: the first 10 gen records of each
    pattern."""
    recs, _ = small_build
    gen = _first_gen_records(recs)
    assert _parses_digest(audit_g, gen) == SMALL_GEN_PARSES_SHA256


def _shape(node):
    """A tree up to the audit grammar's ``__n`` id suffixes, its leaves by
    lemma, POS, bundle and tag."""
    if isinstance(node, ProdNode):
        return (re.sub(r"__\d+$", "", node.production.id),
                tuple(_shape(c) for c in node.children))
    if isinstance(node, LeafNode):
        return (node.entry.lemma, node.entry.pos, node.bundle, node.tag)
    return node.text


@pytest.fixture(scope="module")
def audit_g(bank, patterns):
    return audit_grammar(bank, patterns)


def test_one_parse_per_reading(audit_g, small_build):
    """No two parses in a list are the same reading: the audit grammar
    keeps no production that only copies another.  A list cut at
    PARSE_LIMIT may hold any readings, so it is exempt."""
    recs, _ = small_build
    records = recs["train"] + _first_gen_records(recs)
    lists = 0
    for trees in _parse_lists(audit_g, records):
        if len(trees) < PARSE_LIMIT:
            shapes = [_shape(t) for t in trees]
            assert len(set(shapes)) == len(shapes), yield_tokens(trees[0])
            lists += bool(trees)
    assert lists > len(records) // 2


def _grammar_ids(patterns):
    """The 43 grammars: in-distribution and 42 patterns."""
    return ["in_dist"] + [p.id for p in patterns]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64 - 1))
def test_every_sampled_tree_is_among_its_audit_parses(bank, patterns,
                                                      audit_g, seed):
    """The guard for any parser pruning: a parse it drops would let a
    withheld combination through the audit unseen."""
    for gid in _grammar_ids(patterns):
        tree = bank.grammar_for(gid).sample_with_rng(Random(seed))
        tokens = yield_tokens(tree)
        parses = parse(audit_g, tokens, PARSE_LIMIT)
        assert _shape(tree) in {_shape(t) for t in parses}, (gid, tokens)
        transduce(tree, bank.dictionary, bank.morph)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64 - 1))
def test_span_tables_admit_every_sampled_constituent(bank, patterns,
                                                     audit_g, seed):
    """A table too small would make the parser skip a span that derives
    something, and drop its parses silently."""
    minlen, first, last, _ = span_tables(audit_g)
    for gid in _grammar_ids(patterns):
        tree = bank.grammar_for(gid).sample_with_rng(Random(seed))
        for node in iter_nodes(tree):
            tokens, lhs = yield_tokens(node), node.production.lhs
            assert len(tokens) >= minlen[lhs], (gid, lhs, tokens)
            assert tokens[0] in first[lhs], (gid, lhs, tokens)
            assert tokens[-1] in last[lhs], (gid, lhs, tokens)


def test_span_tables_solve_through_cycles_and_recursion():
    noun = Slot("N", "base", "n")
    lexicon = Lexicon([LexEntry(w, "N", forms={"base": w}, zipf_rank=r)
                       for r, w in enumerate(("cat", "dog"), 1)])
    g = Pcfg("S", [Production("s_a", "S", (NT("A"), Lit("."))),
                   Production("s_d", "S", (NT("D"),)),
                   Production("a_b", "A", (NT("B"),)),
                   Production("a_yy", "A", (Lit("y"), Lit("y"))),
                   Production("b_a", "B", (NT("A"),)),
                   Production("b_xc", "B", (Lit("x"), NT("C"))),
                   Production("c_n", "C", (noun,)),
                   Production("c_cw", "C", (NT("C"), Lit("w"))),
                   Production("d_dq", "D", (NT("D"), Lit("q")))], lexicon)
    minlen, first, last, rules = span_tables(g)
    # A and B reach each other by unit productions, so each gets the
    # other's tokens; C is left-recursive; D derives nothing, so its length
    # is infinite, while its LAST set, read off last symbols, is not empty.
    assert minlen == {"S": 3, "A": 2, "B": 2, "C": 1, "D": float("inf")}
    assert first == {"S": {"x", "y"}, "A": {"x", "y"}, "B": {"x", "y"},
                     "C": {"cat", "dog"}, "D": set()}
    assert last == {"S": {".", "q"}, "A": {"y", "cat", "dog", "w"},
                    "B": {"y", "cat", "dog", "w"},
                    "C": {"cat", "dog", "w"}, "D": {"q"}}
    # per production: steps, suffix minimum lengths, first and last tokens
    p, steps, suffix, starts, ends = rules["B"][1]
    assert p.id == "b_xc" and steps == ({"x": [LitNode("x")]}, "C")
    assert suffix == (2, 1, 0)
    assert starts == {"x"} and ends == {"cat", "dog", "w"}
    assert span_tables(g) is span_tables(g)
    [tree] = parse(g, "x dog w w .".split())
    assert yield_tokens(tree) == "x dog w w .".split()
    assert parse(g, "x w .".split()) == []


def test_unit_cycle_terminates():
    g = Pcfg("A", [Production("a_b", "A", (NT("B"),)),
                   Production("b_a", "B", (NT("A"),)),
                   Production("b_x", "B", (Lit("x"),))], Lexicon([]))
    # the cycle A -> B -> A over one span contributes no tree
    assert parse(g, ["x"]) == [
        ProdNode(g.by_id["a_b"],
                 (ProdNode(g.by_id["b_x"], (LitNode("x"),)),))]
    assert parse(g, ["x", "x"]) == []


def test_grammars_sharing_a_slot_use_their_own_lexicons():
    slot = Slot("N", "base", "n")

    def grammar(word):
        lexicon = Lexicon([LexEntry(word, "N", forms={"base": word})])
        return Pcfg("S", [Production("s", "S", (slot,))], lexicon)

    cat, dog = grammar("cat"), grammar("dog")
    for g, word, other in ((cat, "cat", "dog"), (dog, "dog", "cat")):
        [tree] = parse(g, [word])
        assert tree.children[0].entry is g.lexicon.get(word, "N")
        assert parse(g, [other]) == []


def test_a_parse_hashes_no_grammar_symbol(bank, monkeypatch):
    """Terminals are looked up through the parser's own tables, by token:
    once they are built, a parse hashes no slot or literal."""
    g = bank.grammar_for("in_dist")
    span_tables(g)

    def unhashable(sym):
        raise AssertionError(f"parse hashed {sym!r}")

    for cls in (Slot, Lit):
        monkeypatch.setattr(cls, "__hash__", unhashable)
    trees = parse(g, "the woman found the small panda .".split())
    monkeypatch.undo()
    assert trees


def test_repeated_word_gets_a_leaf_per_position(bank):
    g = bank.grammar_for("in_dist")
    [tree] = parse(g, "the woman found the small small panda .".split())
    small = [leaf for leaf in iter_leaves(tree) if leaf.entry.lemma == "small"]
    assert len(small) == 2 and small[0] is not small[1]


# -- the pruned parser against plain enumeration -----------------------------

_TOY_LEXICON = Lexicon([LexEntry(lemma, "N", forms={"base": surface},
                                 zipf_rank=rank)
                        for rank, (lemma, surface) in
                        enumerate((("x1", "x"), ("x2", "x"), ("b", "b")), 1)])
# two literals and two slots over the tokens "a", "b" and "x": "x" is two
# entries, and "b" is a literal and a slot surface.
_TOY_TERMINALS = (Lit("a"), Lit("b"), Slot("N", "base", "n"),
                  Slot("N", "base", "m", frozenset({"x2", "b"})))
_TOY_TOKENS = ("a", "b", "x")


@st.composite
def _toy_grammars(draw):
    """Grammars of at most 6 nonterminals, with no empty right-hand side
    and no unit cycle: N<i> -> N<k> only for k > i."""
    n = draw(st.integers(min_value=1, max_value=6))

    def symbols(lowest_nt):
        terminals = st.sampled_from(_TOY_TERMINALS)
        if lowest_nt >= n:
            return terminals
        return terminals | st.integers(min_value=lowest_nt,
                                       max_value=n - 1).map(
            lambda k: NT(f"N{k}"))

    prods = []
    for i in range(n):
        for r in range(draw(st.integers(min_value=1, max_value=3))):
            size = draw(st.integers(min_value=1, max_value=3))
            rhs = tuple(draw(symbols(i + 1 if size == 1 else 0))
                        for _ in range(size))
            prods.append(Production(f"n{i}_{r}", f"N{i}", rhs))
    long = [p.rhs for p in prods if len(p.rhs) > 1]
    assume(any(isinstance(rhs[-1], NT) for rhs in long))
    assume(any(isinstance(s, NT) for rhs in long for s in rhs[:-1]))
    return Pcfg("N0", prods, _TOY_LEXICON)


def _parse_every_split(g, tokens, limit):
    """``parse`` without its pruning: every production over every span and
    every split that leaves each later symbol a token, in the same order,
    each span's list cut at ``limit``.  (A split that leaves none could
    reach a span of a unit chain that is in progress, whose guard would
    then be memoized as its list.)"""
    memo = {}

    def build_nt(name, i, j):
        if (name, i, j) not in memo:
            memo[(name, i, j)] = []
            results = []
            for p in g.by_lhs[name]:
                for children in cover(p.rhs, 0, i, j):
                    results.append(ProdNode(p, children))
                    if len(results) >= limit:
                        break
                if len(results) >= limit:
                    break
            memo[(name, i, j)] = results
        return memo[(name, i, j)]

    def cover(rhs, k, i, j):
        if k == len(rhs):
            if i == j:
                yield ()
            return
        sym = rhs[k]
        if i == j:
            return
        if isinstance(sym, NT):
            for mid in range(i + 1, j - (len(rhs) - k - 1) + 1):
                subs = build_nt(sym.name, i, mid)
                for tail in cover(rhs, k + 1, mid, j):
                    for sub in subs:
                        yield (sub,) + tail
        elif isinstance(sym, Lit):
            if tokens[i] == sym.text:
                for tail in cover(rhs, k + 1, i + 1, j):
                    yield (LitNode(sym.text),) + tail
        else:
            for e in g.slot_candidates(sym)[0]:
                if e.form(sym.bundle) != tokens[i]:
                    continue
                for tail in cover(rhs, k + 1, i + 1, j):
                    yield (LeafNode(e, sym.bundle, sym.tag),) + tail

    return build_nt(g.start, 0, len(tokens))


@settings(max_examples=15, deadline=None)
@given(g=_toy_grammars())
def test_pruned_parse_lists_equal_plain_enumeration(g):
    """The FIRST/LAST/length tables and the next-symbol filter skip only
    splits that derive nothing: every string of up to 6 tokens gets the
    same trees in the same order, with and without a small limit."""
    for n in range(1, 7):
        for tokens in product(_TOY_TOKENS, repeat=n):
            for limit in (200, 2):
                assert parse(g, tokens, limit) == \
                    _parse_every_split(g, tokens, limit), (tokens, limit)
