"""Earley-style chart parsing over grammars as written (no normal form).

The recognizer fills a chart of completed constituents; trees are then
enumerated from chart-supported spans only, so every returned derivation is a
genuine parse.  All productions participate, including zero-weight ones
(those exist for parse-only constructions such as topicalized sentences).
"""

from __future__ import annotations

from .grammar import NT, Slot, Lit, LeafNode, LitNode, Pcfg, ProdNode


class _State:
    __slots__ = ("prod", "dot", "origin")

    def __init__(self, prod, dot, origin):
        self.prod = prod
        self.dot = dot
        self.origin = origin

    def key(self):
        return (id(self.prod), self.dot, self.origin)

    @property
    def complete(self):
        return self.dot == len(self.prod.rhs)

    @property
    def next_symbol(self):
        return self.prod.rhs[self.dot]


def _leaf_options(g: Pcfg, sym, token):
    if isinstance(sym, Lit):
        return [LitNode(token)] if token == sym.text else []
    entries, _ = g.slot_candidates(sym)
    return [LeafNode(e, sym.bundle, sym.tag)
            for e in entries if e.form(sym.bundle) == token]


def _recognize(g: Pcfg, tokens):
    """Completed spans {(lhs, i, j)} reachable while parsing tokens."""
    n = len(tokens)
    charts = [dict() for _ in range(n + 1)]  # key -> state

    def add(pos, state):
        key = state.key()
        if key not in charts[pos]:
            charts[pos][key] = state
            return True
        return False

    for p in g.by_lhs.get(g.start, ()):
        add(0, _State(p, 0, 0))

    completed = set()
    for pos in range(n + 1):
        queue = list(charts[pos].values())
        while queue:
            state = queue.pop()
            if state.complete:
                completed.add((state.prod.lhs, state.origin, pos))
                for other in list(charts[state.origin].values()):
                    if not other.complete and isinstance(other.next_symbol, NT) \
                            and other.next_symbol.name == state.prod.lhs:
                        nxt = _State(other.prod, other.dot + 1, other.origin)
                        if add(pos, nxt):
                            queue.append(nxt)
                continue
            sym = state.next_symbol
            if isinstance(sym, NT):
                for p in g.by_lhs.get(sym.name, ()):
                    nxt = _State(p, 0, pos)
                    if add(pos, nxt):
                        queue.append(nxt)
            elif pos < n and _leaf_options(g, sym, tokens[pos]):
                add(pos + 1, _State(state.prod, state.dot + 1, state.origin))
    return completed


def parse(g: Pcfg, tokens, limit: int = 200) -> list:
    """All derivations of the token sequence; empty list if unparseable."""
    tokens = list(tokens)
    n = len(tokens)
    if n == 0:
        return []
    completed = _recognize(g, tokens)
    if (g.start, 0, n) not in completed:
        return []

    memo = {}

    def build_nt(name, i, j):
        key = (name, i, j)
        if key in memo:
            return memo[key]
        memo[key] = []  # guard against cycles
        results = []
        for p in g.by_lhs.get(name, ()):
            for children in cover(p.rhs, 0, i, j):
                results.append(ProdNode(p, children))
                if len(results) >= limit:
                    break
            if len(results) >= limit:
                break
        memo[key] = results
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
            if i < j and j - i >= 1 + rest:
                for leaf in _leaf_options(g, sym, tokens[i]):
                    for tail in cover(rhs, k + 1, i + 1, j):
                        yield (leaf,) + tail
        else:
            for mid in range(i + 1, j - rest + 1):
                if (sym.name, i, mid) not in completed:
                    continue
                subs = build_nt(sym.name, i, mid)
                if not subs:
                    continue
                for tail in cover(rhs, k + 1, mid, j):
                    for sub in subs:
                        yield (sub,) + tail

    return build_nt(g.start, 0, n)
