import hashlib
import json
from random import Random

from compmt.audit import PARSE_LIMIT, audit_grammar, segment
from compmt.bank import analyze
from compmt.earley import parse
from compmt.grammar import CONSTRUCTS

# sha256 of _analysis_dump over the audit parses of the scale-0.01 train
# split at seed 1 (each segment and its lower-cased retry), then over the
# first 25 trees of each of the 47 bank grammars sampled from Random(0).
# The per-construct depth walks that analyze() made before profile() gave
# the same digest.
ANALYSIS_SHA256 = \
    "bc41c766bfdbe17ef43d4d41faec0e9b4f11bcf13518ce062ba95f7658a5e7dc"


def _analysis_dump(tree):
    an = analyze(tree)
    return json.dumps([an.lemma_roles, an.verbs, an.pairs, sorted(an.flags),
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
    grammar_ids = (["in_dist"] + [p.id for p in patterns]
                   + [f"boost:{c}" for c in CONSTRUCTS])
    assert len(grammar_ids) == 47
    for gid in grammar_ids:
        grammar, rng = bank.grammar_for(gid), Random(0)
        for _ in range(25):
            digest.update(_analysis_dump(grammar.sample_with_rng(rng)).encode())
    assert digest.hexdigest() == ANALYSIS_SHA256
