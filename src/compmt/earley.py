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

``limit`` caps the trees kept for each (nonterminal, span), so the result
has at most ``limit`` trees.  All productions participate, including
zero-weight ones (those exist for parse-only constructions such as
topicalized sentences).
"""

from __future__ import annotations

from .grammar import Lit, LeafNode, LitNode, Pcfg, ProdNode, Slot


def _leaf_options(g: Pcfg, sym, token):
    if isinstance(sym, Lit):
        return [LitNode(token)] if token == sym.text else []
    return [LeafNode(e, sym.bundle, sym.tag)
            for e in g.slot_surfaces(sym).get(token, ())]


def parse(g: Pcfg, tokens, limit: int = 200) -> list:
    """All derivations of the token sequence; empty list if unparseable."""
    tokens = list(tokens)
    memo = {}

    def build_nt(name, i, j):
        memo[(name, i, j)] = []  # guard against unit cycles
        results = []
        for p in g.by_lhs.get(name, ()):
            for children in cover(p.rhs, 0, i, j):
                results.append(ProdNode(p, children))
                if len(results) >= limit:
                    break
            if len(results) >= limit:
                break
        memo[(name, i, j)] = results
        return results

    def cover(rhs, k, i, j):
        """All child tuples deriving tokens[i:j] from rhs[k:]."""
        if k == len(rhs):
            if i == j:
                yield ()
            return
        sym = rhs[k]
        rest = len(rhs) - k - 1
        if isinstance(sym, (Lit, Slot)):
            if j - i > rest:
                for leaf in _leaf_options(g, sym, tokens[i]):
                    for tail in cover(rhs, k + 1, i + 1, j):
                        yield (leaf,) + tail
            return
        name = sym.name
        for mid in range(i + 1, j - rest + 1):
            subs = memo.get((name, i, mid))
            if subs is None:
                subs = build_nt(name, i, mid)
            if subs:
                for tail in cover(rhs, k + 1, mid, j):
                    for sub in subs:
                        yield (sub,) + tail

    return build_nt(g.start, 0, len(tokens))
