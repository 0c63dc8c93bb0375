"""Parsing by memoized span enumeration, over grammars as written.

``parse`` lists derivations top-down.  ``build_nt(A, i, j)`` holds the trees
of nonterminal ``A`` over ``tokens[i:j]``, memoized per (nonterminal, start,
end); ``cover`` splits a span among the symbols of a right-hand side, one
token per slot or literal and at least one per nonterminal.

Enumeration terminates.  No right-hand side is empty and every terminal
covers exactly one token, so a nonterminal child spans fewer tokens than
its parent unless the production is a unit one (``A -> B``).  The memo of a
span is set to ``[]`` before it is expanded, so a unit cycle reaching a span
that is in progress adds nothing instead of recursing again.

Three tables per grammar (``span_tables``) prune the enumeration, as the
prediction filter of Graham, Harrison & Ruzzo (1980) does: each
nonterminal's minimum yield length, its FIRST set (the tokens a yield can
start with) and its LAST set (the tokens it can end with), solved by
fixpoint; a literal contributes its text and a slot its surfaces.  A
production is not tried over a span shorter than its minimum length or
whose first or last token it cannot begin or end with, and ``cover`` gives
a nonterminal only the splits that fit these bounds and leave room for the
minimum length of the symbols after it.  The split must also suit the next
symbol: a nonterminal at ``rhs[k]`` ends at ``mid`` only where
``tokens[mid]`` can start ``rhs[k+1]`` (its literal, a surface of its slot,
or its FIRST set), and a final nonterminal ends only at the span's end.
Every production or split skipped so derives nothing, and outside a unit
cycle a span's trees do not depend on which spans were expanded before it,
so the lists are those of the unpruned enumeration, in the same order.  The
audit grammar has no unit cycle.

A terminal's leaf options at a position are built once per parse, and every
tree that puts that symbol there shares them: one leaf object per symbol
and position, as one subtree object per memoized span.  Equal leaves at
different positions stay distinct objects, which is what edits that find
a leaf by identity (``naturalize``) rely on.

The memo and the leaf options live on one ``_Parse`` object per call, whose
methods recurse through ``self``.  No helper refers to itself through a
closure, so a call leaves no reference cycle: its memo and every tree the
caller does not keep are freed when it returns, by reference counting
alone, without waiting for the cyclic garbage collector.

``limit`` caps the trees kept for each (nonterminal, span), so the result
has at most ``limit`` trees.  All productions participate, including
zero-weight ones (those exist for parse-only constructions such as
topicalized sentences).
"""

from __future__ import annotations

from itertools import accumulate
from math import inf
from typing import NamedTuple

from .grammar import Lit, LeafNode, LitNode, NT, Pcfg, ProdNode, Slot


class SpanTables(NamedTuple):
    minlen: dict  # nonterminal -> fewest tokens it derives (inf: none)
    first: dict  # nonterminal -> frozenset of tokens a yield starts with
    last: dict  # nonterminal -> frozenset of tokens a yield ends with
    rules: dict  # nonterminal -> [(production, suffix minlens, first, last)]


def span_tables(g: Pcfg) -> SpanTables:
    """The grammar's pruning tables, solved on first use and cached on it."""
    if g._span_tables is None:
        g._span_tables = _solve(g)
    return g._span_tables


def _solve(g: Pcfg) -> SpanTables:
    minlen = dict.fromkeys(g.by_lhs, inf)
    first = dict.fromkeys(g.by_lhs, frozenset())
    last = dict(first)

    def length(sym):
        return minlen.get(sym.name, inf) if isinstance(sym, NT) else 1

    def edge(sym, table):
        return frozenset(_edge(g, sym, table))

    changed = True
    while changed:
        changed = False
        for a, prods in g.by_lhs.items():
            new = (min(sum(map(length, p.rhs)) for p in prods),
                   first[a].union(*(edge(p.rhs[0], first) for p in prods)),
                   last[a].union(*(edge(p.rhs[-1], last) for p in prods)))
            if new != (minlen[a], first[a], last[a]):
                minlen[a], first[a], last[a] = new
                changed = True
    rules = {a: [(p, tuple(accumulate(map(length, reversed(p.rhs)),
                                      initial=0))[::-1],
                  edge(p.rhs[0], first), edge(p.rhs[-1], last))
                 for p in prods]
             for a, prods in g.by_lhs.items()}
    return SpanTables(minlen, first, last, rules)


def _edge(g: Pcfg, sym, table):
    """The tokens ``sym`` can start with (``table`` is FIRST) or end with
    (``table`` is LAST), as a container."""
    if isinstance(sym, Lit):
        return (sym.text,)
    if isinstance(sym, Slot):
        return g.slot_surfaces(sym)
    return table.get(sym.name, ())


def _leaf_options(g: Pcfg, sym, token):
    if isinstance(sym, Lit):
        return [LitNode(token)] if token == sym.text else []
    return [LeafNode(e, sym.bundle, sym.tag)
            for e in g.slot_surfaces(sym).get(token, ())]


def parse(g: Pcfg, tokens, limit: int = 200) -> list:
    """All derivations of the token sequence; empty list if unparseable."""
    tokens = list(tokens)
    return _Parse(g, tokens, limit).build_nt(g.start, 0, len(tokens))


class _Parse:
    """One call of ``parse``: its tokens, pruning tables, memo and leaf
    options, freed when ``parse`` returns its list."""

    def __init__(self, g: Pcfg, tokens: list, limit: int):
        self.g = g
        self.tokens = tokens
        self.limit = limit
        self.minlen, self.first, self.last, self.rules = span_tables(g)
        self.memo = {}
        self.leaves = {}  # (terminal symbol, position) -> its leaf options

    def build_nt(self, name, i, j):
        memo, tokens, limit = self.memo, self.tokens, self.limit
        memo[(name, i, j)] = []  # guard against unit cycles
        results = []
        for p, suffix, starts, ends in self.rules.get(name, ()):
            if (j - i < suffix[0] or tokens[i] not in starts
                    or tokens[j - 1] not in ends):
                continue
            for children in self.cover(p.rhs, suffix, 0, i, j):
                results.append(ProdNode(p, children))
                if len(results) >= limit:
                    break
            if len(results) >= limit:
                break
        memo[(name, i, j)] = results
        return results

    def cover(self, rhs, suffix, k, i, j):
        """All child tuples deriving tokens[i:j] from rhs[k:], given
        j - i >= suffix[k]."""
        if k == len(rhs):
            if i == j:
                yield ()
            return
        tokens = self.tokens
        sym = rhs[k]
        if isinstance(sym, (Lit, Slot)):
            options = self.leaves.get((sym, i))
            if options is None:
                options = self.leaves[(sym, i)] = \
                    _leaf_options(self.g, sym, tokens[i])
            for leaf in options:
                for tail in self.cover(rhs, suffix, k + 1, i + 1, j):
                    yield (leaf,) + tail
            return
        name = sym.name
        if tokens[i] not in self.first[name]:
            return
        ends = self.last[name]
        if k + 1 == len(rhs):
            mids = (j,)
        else:
            nexts = _edge(self.g, rhs[k + 1], self.first)
            mids = [mid for mid in range(i + self.minlen[name],
                                         j - suffix[k + 1] + 1)
                    if tokens[mid] in nexts]
        memo = self.memo
        for mid in mids:
            if tokens[mid - 1] not in ends:
                continue
            subs = memo.get((name, i, mid))
            if subs is None:
                subs = self.build_nt(name, i, mid)
            if subs:
                for tail in self.cover(rhs, suffix, k + 1, mid, j):
                    for sub in subs:
                        yield (sub,) + tail
