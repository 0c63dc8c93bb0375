"""Weighted context-free grammars over a featured lexicon.

The grammar side of the pipeline: lexical entries with morphological forms,
weighted productions whose right-hand sides mix nonterminals, part-of-speech
slots and literal tokens, plus validation, Zipfian lexical weighting,
seeded one-draw sampling and ``profile``, the one structural walk of a tree.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import accumulate
from random import Random
from typing import Iterable, Iterator, Optional

CONSTRUCTS = ("CP", "PP", "CenterEmbedRC", "Adj")


class GrammarError(Exception):
    """Raised for malformed grammars, lexicons or unsatisfiable sampling."""


class UnsatisfiableConstraintError(GrammarError):
    """A record's draw budget ran out before an acceptable tree."""


@dataclass(frozen=True)
class LexEntry:
    lemma: str
    pos: str
    features: dict = field(default_factory=dict, hash=False)
    forms: dict = field(default_factory=dict, hash=False)
    zipf_rank: int = 1

    def form(self, bundle: str) -> str:
        try:
            return self.forms[bundle]
        except KeyError:
            raise GrammarError(
                f"entry {self.lemma}/{self.pos} has no {bundle!r} form"
            ) from None


class Lexicon:
    """Immutable collection of entries indexed by POS and (lemma, pos)."""

    def __init__(self, entries: Iterable[LexEntry]):
        self.entries = tuple(entries)
        self.by_key = {}
        self.by_pos = {}
        for e in self.entries:
            key = (e.lemma, e.pos)
            if key in self.by_key:
                raise GrammarError(f"duplicate lexicon entry {key}")
            self.by_key[key] = e
            self.by_pos.setdefault(e.pos, []).append(e)
        for pos, group in self.by_pos.items():
            group.sort(key=lambda e: e.zipf_rank)
            ranks = [e.zipf_rank for e in group]
            if ranks != list(range(1, len(group) + 1)):
                raise GrammarError(f"zipf ranks for {pos} not contiguous from 1")

    def __len__(self):
        return len(self.entries)

    def get(self, lemma: str, pos: str) -> LexEntry:
        try:
            return self.by_key[(lemma, pos)]
        except KeyError:
            raise GrammarError(f"no lexicon entry for {lemma}/{pos}") from None


@dataclass(frozen=True)
class NT:
    name: str


@dataclass(frozen=True)
class Slot:
    """POS slot: filled by a lexical entry surfacing a fixed morph bundle.

    ``bundle`` is the morph form: for verbs "past"/"pres" (active, finite),
    "part" (past participle, the passive after "was") or "inf" (bare form);
    every other part of speech surfaces its single "base" form.  ``tag``
    names the grammatical position (used for lexeme restrictions and corpus
    analysis); ``lemmas`` optionally restricts to an explicit set.
    """

    pos: str
    bundle: str
    tag: str
    lemmas: Optional[frozenset] = None

    def admits(self, entry: LexEntry) -> bool:
        if entry.pos != self.pos:
            return False
        if self.lemmas is not None and entry.lemma not in self.lemmas:
            return False
        return self.bundle in entry.forms


@dataclass(frozen=True)
class Lit:
    text: str


@dataclass(frozen=True)
class Production:
    id: str
    lhs: str
    rhs: tuple
    weight: Fraction = Fraction(1)
    construct: Optional[str] = None  # CP / PP / CenterEmbedRC / Adj
    annot_target: bool = False  # marks a pattern's target constituent
    template: Optional[tuple] = None  # of transduce.TItem; None: parse-only

    def __post_init__(self):
        if not self.rhs:
            raise GrammarError(f"production {self.id}: empty rhs")
        if self.weight < 0:
            raise GrammarError(f"production {self.id}: negative weight")


@dataclass(frozen=True)
class ProdNode:
    production: Production
    children: tuple


@dataclass(frozen=True)
class LeafNode:
    entry: LexEntry
    bundle: str
    tag: str

    @property
    def surface(self):
        return self.entry.form(self.bundle)


@dataclass(frozen=True)
class LitNode:
    text: str


def yield_tokens(tree) -> list:
    """Left-to-right leaf surfaces of a derivation tree."""
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, LitNode):
            out.append(node.text)
        elif isinstance(node, LeafNode):
            out.append(node.surface)
        else:
            stack.extend(reversed(node.children))
    return out


def iter_nodes(tree) -> Iterator[ProdNode]:
    """Production nodes in preorder, left to right."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ProdNode):
            yield node
            stack.extend(node.children[::-1])


def iter_leaves(tree) -> Iterator[LeafNode]:
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, LeafNode):
            yield node
        elif isinstance(node, ProdNode):
            stack.extend(reversed(node.children))


def profile(tree: ProdNode) -> tuple:
    """(production ids, {construct: depth}) of a derivation tree, in one walk.
    A construct's depth is the most productions tagged with it on any path
    from the root: how deeply it nests within itself."""
    ids, depths = set(), dict.fromkeys(CONSTRUCTS, 0)

    def walk(node, path):  # path: the constructs tagged above node
        ids.add(node.production.id)
        construct = node.production.construct
        if construct:
            path += (construct,)
            depths[construct] = max(depths[construct], path.count(construct))
        for child in node.children:
            if isinstance(child, ProdNode):
                walk(child, path)

    walk(tree, ())
    return ids, depths


@dataclass
class Violation:
    kind: str
    subject: str
    detail: str

    def __str__(self):
        return f"{self.kind}: {self.subject} ({self.detail})"


class Pcfg:
    """Weighted CFG plus its lexicon and Zipf exponent for lexical slots."""

    def __init__(self, start: str, productions: Iterable[Production],
                 lexicon: Lexicon, zipf_exponent: float = 1.0):
        self.start = start
        self.productions = tuple(productions)
        self.lexicon = lexicon
        self.zipf_exponent = zipf_exponent
        self.by_lhs = {}
        self.by_id = {}
        for p in self.productions:
            if p.id in self.by_id:
                raise GrammarError(f"duplicate production id {p.id}")
            self.by_id[p.id] = p
            self.by_lhs.setdefault(p.lhs, []).append(p)
        self._slot_cache = {}
        self._surface_cache = {}
        self._sampler_cache = {}
        self._span_tables = None  # earley.span_tables

    # -- lexical slot machinery -------------------------------------------

    def slot_candidates(self, slot: Slot) -> tuple:
        """Entries admitted by the slot, with the running sums of their
        normalized Zipf probabilities."""
        cached = self._slot_cache.get(slot)
        if cached is None:
            entries = [e for e in self.lexicon.by_pos.get(slot.pos, ())
                       if slot.admits(e)]
            weights = [e.zipf_rank ** (-float(self.zipf_exponent))
                       for e in entries]
            total = sum(weights)
            cached = (entries, list(accumulate(w / total for w in weights)))
            self._slot_cache[slot] = cached
        return cached

    def slot_surfaces(self, slot: Slot) -> dict:
        """The slot's admitted entries by surface form, {surface: [entries]},
        each list in ``slot_candidates`` order."""
        cached = self._surface_cache.get(slot)
        if cached is None:
            cached = {}
            for e in self.slot_candidates(slot)[0]:
                cached.setdefault(e.form(slot.bundle), []).append(e)
            self._surface_cache[slot] = cached
        return cached

    def restrict_slots(self, overrides: dict) -> "Pcfg":
        """New grammar with slot tags restricted to the given lemma sets."""
        def remap(sym):
            if isinstance(sym, Slot) and sym.tag in overrides:
                return replace(sym, lemmas=frozenset(overrides[sym.tag]))
            return sym

        prods = [replace(p, rhs=tuple(remap(s) for s in p.rhs))
                 for p in self.productions]
        return Pcfg(self.start, prods, self.lexicon, self.zipf_exponent)

    # -- validation --------------------------------------------------------

    def validate(self) -> list:
        """All invariant violations; empty list means the grammar is sound."""
        violations = []
        for lhs, prods in self.by_lhs.items():
            positive = [p for p in prods if p.weight > 0]
            if positive:
                total = sum((p.weight for p in prods), Fraction(0))
                if abs(float(total) - 1.0) > 1e-9:
                    violations.append(Violation(
                        "non_normalized", lhs, f"lhs {lhs} sums to {float(total)}"))
        # Dangling nonterminals / empty slots.
        for p in self.productions:
            for sym in p.rhs:
                if isinstance(sym, NT) and sym.name not in self.by_lhs:
                    violations.append(Violation(
                        "unproductive", sym.name,
                        f"nonterminal {sym.name} in {p.id} has no productions"))
                elif isinstance(sym, Slot):
                    entries, _ = self.slot_candidates(sym)
                    if not entries:
                        violations.append(Violation(
                            "dangling_slot", p.id,
                            f"slot {sym.tag} admits no lexicon entry"))
        # Productivity: fixpoint over nonterminals that derive a finite string.
        productive = set()
        changed = True
        while changed:
            changed = False
            for p in self.productions:
                if p.lhs in productive or p.weight == 0:
                    continue
                ok = True
                for sym in p.rhs:
                    if isinstance(sym, NT) and sym.name not in productive:
                        ok = False
                        break
                    if isinstance(sym, Slot) and not self.slot_candidates(sym)[0]:
                        ok = False
                        break
                if ok:
                    productive.add(p.lhs)
                    changed = True
        for lhs in self.by_lhs:
            if lhs not in productive:
                violations.append(Violation(
                    "unproductive", lhs, f"unproductive {lhs}"))
        # Reachability from start.
        reachable = {self.start}
        frontier = [self.start]
        while frontier:
            nt = frontier.pop()
            for p in self.by_lhs.get(nt, ()):
                for sym in p.rhs:
                    if isinstance(sym, NT) and sym.name not in reachable:
                        reachable.add(sym.name)
                        frontier.append(sym.name)
        for lhs in self.by_lhs:
            if lhs not in reachable:
                violations.append(Violation(
                    "unreachable", lhs, f"unreachable {lhs}"))
        if self.start not in self.by_lhs:
            violations.append(Violation(
                "unproductive", self.start, f"start symbol {self.start} undefined"))
        # Verb entries must carry the past form the morphology relies on.
        for e in self.lexicon.by_pos.get("Verb", ()):
            if "past" not in e.forms:
                violations.append(Violation(
                    "missing_form", e.lemma, f"verb {e.lemma} lacks a past form"))
        return violations

    # -- sampling ----------------------------------------------------------

    def _prepared(self, lhs: str):
        """Cumulative weights for the positive-weight productions of lhs."""
        cached = self._sampler_cache.get(lhs)
        if cached is None:
            prods = [p for p in self.by_lhs.get(lhs, ()) if p.weight > 0]
            if not prods:
                raise GrammarError(f"no sampleable productions for {lhs}")
            cum = []
            acc = 0.0
            for p in prods:
                acc += float(p.weight)
                cum.append(acc)
            cached = (prods, cum, acc)
            self._sampler_cache[lhs] = cached
        return cached

    def _expand(self, lhs: str, rng: Random):
        prods, cum, total = self._prepared(lhs)
        prod = prods[_pick(cum, rng.random() * total)]
        children = []
        for sym in prod.rhs:
            if isinstance(sym, NT):
                children.append(self._expand(sym.name, rng))
            elif isinstance(sym, Slot):
                entries, sums = self.slot_candidates(sym)
                if not entries:
                    raise GrammarError(f"slot {sym.tag} admits no entries")
                children.append(LeafNode(entries[_pick(sums, rng.random())],
                                         sym.bundle, sym.tag))
            else:
                children.append(LitNode(sym.text))
        return ProdNode(prod, tuple(children))

    def sample_with_rng(self, rng: Random, constraints: "Constraints" = None):
        """One root draw: the tree, or None if it fails ``constraints``."""
        tree = self._expand(self.start, rng)
        if constraints is None or constraints.satisfied_by(tree):
            return tree
        return None


def _pick(cum, x):
    """Index of the first running sum above ``x``, clamped to the last."""
    return min(bisect.bisect_right(cum, x), len(cum) - 1)


@dataclass
class Constraints:
    """Restrictions for rejection sampling.

    ``required``/``forbidden`` are production ids; ``depths`` maps a construct
    name to the exact depth the tree must show.
    """

    required: frozenset = frozenset()
    forbidden: frozenset = frozenset()
    depths: tuple = ()  # ((construct, depth), ...)

    def __post_init__(self):
        for construct, _ in self.depths:
            if construct not in CONSTRUCTS:
                raise GrammarError(f"unknown construct {construct!r}")

    def satisfied_by(self, tree) -> bool:
        ids, depths = profile(tree)
        return self.required <= ids and not self.forbidden & ids and \
            all(depths[c] == d for c, d in self.depths)

    def __str__(self):
        bits = []
        if self.required:
            bits.append("required=" + ",".join(sorted(self.required)))
        if self.forbidden:
            bits.append("forbidden=" + ",".join(sorted(self.forbidden)))
        if self.depths:
            bits.append("depths=" + ",".join(f"{c}={d}" for c, d in self.depths))
        return "; ".join(bits) or "none"
