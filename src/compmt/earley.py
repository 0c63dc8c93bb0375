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

Each terminal symbol has one ``{token: leaves}`` table per grammar, shared
by equal symbols: its literal's one leaf, or a leaf per entry its slot
admits, by surface form in ``slot_candidates`` order.  A rule holds its
right-hand side as steps, each a nonterminal's name or a terminal's table,
so a parse hashes tokens and names, never a grammar symbol.  Three more
tables prune the enumeration, as the prediction filter of Graham, Harrison
& Ruzzo (1980) does: each nonterminal's minimum yield length, its FIRST set
(the tokens a yield can start with) and its LAST set (the tokens it can end
with), solved by fixpoint; a terminal contributes its table's tokens.  A
production is not tried over a span shorter than its minimum length or
whose first or last token it cannot begin or end with, and ``cover`` gives
a nonterminal only the splits that fit these bounds, leave room for the
minimum length of the steps after it and end where the next step can start
(``tokens[mid]`` is in its table or FIRST set); a final nonterminal ends
only at the span's end.  Every production or split skipped so derives
nothing, and outside a unit cycle a span's trees do not depend on which
spans were expanded before it, so the lists are those of the unpruned
enumeration, in the same order.  The audit grammar has no unit cycle.

A terminal's leaf options at a position, fresh copies of its table's leaves
for that token, are made once per parse and shared by every tree that puts
it there: one leaf object per table and position, as one subtree object
per memoized span.  Equal leaves at different positions stay distinct
objects, which edits that find a leaf by identity (``naturalize``) rely on.

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

from .grammar import Lit, LeafNode, LitNode, NT, Pcfg, ProdNode


class SpanTables(NamedTuple):
    minlen: dict  # nonterminal -> fewest tokens it derives (inf: none)
    first: dict  # nonterminal -> frozenset of tokens a yield starts with
    last: dict  # nonterminal -> frozenset of tokens a yield ends with
    rules: dict  # nonterminal -> [(prod, steps, suffix minlens, first, last)]


def span_tables(g: Pcfg) -> SpanTables:
    """The grammar's pruning tables, solved on first use and cached on it."""
    if g._span_tables is None:
        g._span_tables = _solve(g)
    return g._span_tables


def _solve(g: Pcfg) -> SpanTables:
    # one {token: leaves} table per terminal symbol, shared by equal ones
    terminals = dict.fromkeys(s for p in g.productions for s in p.rhs
                              if not isinstance(s, NT))
    for sym in terminals:
        terminals[sym] = _terminal_table(g, sym)
    steps = {a: [(p, tuple(s.name if isinstance(s, NT) else terminals[s]
                           for s in p.rhs)) for p in prods]
             for a, prods in g.by_lhs.items()}
    minlen = dict.fromkeys(g.by_lhs, inf)
    first = dict.fromkeys(g.by_lhs, frozenset())
    last = dict(first)

    def length(s):
        return minlen.get(s, inf) if isinstance(s, str) else 1

    def edge(s, table):  # FIRST or LAST of step ``s``, per ``table``
        return frozenset(table.get(s, ()) if isinstance(s, str) else s)

    changed = True
    while changed:
        changed = False
        for a, prods in steps.items():
            new = (min(sum(map(length, rhs)) for _, rhs in prods),
                   first[a].union(*(edge(rhs[0], first) for _, rhs in prods)),
                   last[a].union(*(edge(rhs[-1], last) for _, rhs in prods)))
            if new != (minlen[a], first[a], last[a]):
                minlen[a], first[a], last[a] = new
                changed = True
    rules = {a: [(p, rhs, tuple(accumulate(map(length, reversed(rhs)),
                                           initial=0))[::-1],
                  edge(rhs[0], first), edge(rhs[-1], last))
                 for p, rhs in prods]
             for a, prods in steps.items()}
    return SpanTables(minlen, first, last, rules)


def _terminal_table(g: Pcfg, sym) -> dict:
    """{token: the leaves ``sym`` puts over it}: a literal's one leaf, or a
    slot's admitted entries in ``slot_candidates`` order."""
    if isinstance(sym, Lit):
        return {sym.text: [LitNode(sym.text)]}
    table = {}
    for e in g.slot_candidates(sym)[0]:
        table.setdefault(e.form(sym.bundle), []).append(
            LeafNode(e, sym.bundle, sym.tag))
    return table


def parse(g: Pcfg, tokens, limit: int = 200) -> list:
    """All derivations of the token sequence; empty list if unparseable."""
    tokens = list(tokens)
    return _Parse(g, tokens, limit).build_nt(g.start, 0, len(tokens))


class _Parse:
    """One call of ``parse``: its tokens, pruning tables, memo and leaf
    options, freed when ``parse`` returns its list."""

    def __init__(self, g: Pcfg, tokens: list, limit: int):
        self.tokens = tokens
        self.limit = limit
        self.minlen, self.first, self.last, self.rules = span_tables(g)
        self.memo = {}
        self.leaves = {}  # (id of a terminal's table, position) -> leaves

    def build_nt(self, name, i, j):
        memo, tokens, limit = self.memo, self.tokens, self.limit
        memo[(name, i, j)] = []  # guard against unit cycles
        results = []
        for p, steps, suffix, starts, ends in self.rules.get(name, ()):
            if (j - i < suffix[0] or tokens[i] not in starts
                    or tokens[j - 1] not in ends):
                continue
            for children in self.cover(steps, suffix, 0, i, j):
                results.append(ProdNode(p, children))
                if len(results) >= limit:
                    break
            if len(results) >= limit:
                break
        memo[(name, i, j)] = results
        return results

    def cover(self, steps, suffix, k, i, j):
        """All child tuples deriving tokens[i:j] from steps[k:], given
        j - i >= suffix[k]."""
        if k == len(steps):
            if i == j:
                yield ()
            return
        tokens = self.tokens
        step = steps[k]
        if not isinstance(step, str):  # a terminal's table
            options = self.leaves.get((id(step), i))
            if options is None:  # a fresh copy of each leaf per position
                options = self.leaves[(id(step), i)] = [
                    type(leaf)(*leaf) for leaf in step.get(tokens[i], ())]
            for leaf in options:
                for tail in self.cover(steps, suffix, k + 1, i + 1, j):
                    yield (leaf,) + tail
            return
        name = step
        if tokens[i] not in self.first[name]:
            return
        ends = self.last[name]
        if k + 1 == len(steps):
            mids = (j,)
        else:
            nexts = steps[k + 1]
            if isinstance(nexts, str):
                nexts = self.first[nexts]
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
                for tail in self.cover(steps, suffix, k + 1, mid, j):
                    for sub in subs:
                        yield (sub,) + tail
