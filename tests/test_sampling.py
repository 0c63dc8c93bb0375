"""Statistical properties of the seeded sampler.

The rule-frequency and Zipf-slope checks use fixed seeds: they verify a
statistical property at a sample size where the expected deviation is
well inside the tolerance, and the fixed seed keeps the assertion
reproducible.
"""

import math
from collections import Counter
from fractions import Fraction
from random import Random

from compmt.grammar import (LexEntry, Lexicon, Lit, NT, Pcfg, Production,
                            Slot, iter_nodes)

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
