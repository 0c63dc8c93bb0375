import hashlib
import json
from random import Random

from compmt.audit import PARSE_LIMIT, audit_grammar, segment
from compmt.bank import analyze
from compmt.earley import parse

# sha256 of _analysis_dump over the audit parses of the scale-0.01 train
# split at seed 1 (each segment and its lower-cased retry), then over the
# first 25 trees of each of the 43 bank grammars sampled from Random(0).
ANALYSIS_SHA256 = \
    "39722579cb2c211f8049df8805d940d781c77feb156c3aff5f93874a72cd456f"
# sha256 of the sorted production ids and the content lemmas, in leaf order,
# over the same trees.
IDS_LEMMAS_SHA256 = \
    "bdcb67638263db4d725bd22dbdf46293f0b060c7a24d39b21fd73ee1e7e9dc45"


def _analysis_dump(tree):
    an = analyze(tree)
    return json.dumps([an.lemma_roles, an.verbs, an.pairs,
                       sorted(an.depths.items())])


def test_analysis_is_pinned(bank, patterns, small_build):
    recs, _ = small_build
    g = audit_grammar(bank, patterns)
    digest = hashlib.sha256()
    for record in recs["train"]:
        for seg in segment(record.source_tokens):
            lowered = [seg[0][0].lower() + seg[0][1:]] + seg[1:]
            for tokens in (seg, lowered):
                for tree in parse(g, tokens, PARSE_LIMIT):
                    digest.update(_analysis_dump(tree).encode())
    grammar_ids = ["in_dist"] + [p.id for p in patterns]
    assert len(grammar_ids) == 43
    for gid in grammar_ids:
        grammar, rng = bank.grammar_for(gid), Random(0)
        for _ in range(25):
            digest.update(_analysis_dump(grammar.sample_with_rng(rng)).encode())
    assert digest.hexdigest() == ANALYSIS_SHA256


def test_analysis_ids_and_lemmas_are_pinned(bank, patterns, small_build):
    recs, _ = small_build
    g = audit_grammar(bank, patterns)
    trees = [tree for record in recs["train"]
             for seg in segment(record.source_tokens)
             for tokens in (seg, [seg[0][0].lower() + seg[0][1:]] + seg[1:])
             for tree in parse(g, tokens, PARSE_LIMIT)]
    for gid in ["in_dist"] + [p.id for p in patterns]:
        grammar, rng = bank.grammar_for(gid), Random(0)
        trees += [grammar.sample_with_rng(rng) for _ in range(25)]
    digest = hashlib.sha256()
    for tree in trees:
        an = analyze(tree)
        digest.update(json.dumps([sorted(an.ids), an.lemmas]).encode())
    assert digest.hexdigest() == IDS_LEMMAS_SHA256


def test_infinitive_after_to_is_tenseless_in_any_clause(patterns):
    """A bare verb after "to" has no tense, in a matrix clause and in an
    embedded one alike."""
    g = next(p for p in patterns if p.id == "prim_to_inf_verb").gen_grammar
    embedded, = parse(g, "a baby knew that the captain prepared to laugh ."
                      .split())
    matrix, = parse(g, "a monkey agreed to swim .".split())
    assert analyze(embedded).verbs == [
        ("know", "cp", "past", "active"),
        ("prepare", "einf", "past", "active"),
        ("laugh", "einfbase", None, "active")]
    assert analyze(matrix).verbs == [
        ("agree", "inf", "past", "active"),
        ("swim", "infbase", None, "active")]
