"""Weighted context-free grammars over a featured lexicon.

The grammar side of the pipeline: lexical entries with morphological forms,
weighted productions whose right-hand sides mix nonterminals, part-of-speech
slots and literal tokens, plus validation, Zipfian lexical weighting,
seeded sampling, exact under constraints, and ``profile``, the one
structural walk of a tree.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import accumulate, product
from random import Random
from typing import Iterable, Iterator, NamedTuple, Optional

CONSTRUCTS = ("CP", "PP", "CenterEmbedRC", "Adj")


class GrammarError(Exception):
    """Raised for malformed grammars, lexicons or unsatisfiable sampling."""


class UnsatisfiableConstraintError(GrammarError):
    """No tree meets a draw's constraints, or a record's draw budget ran
    out before an acceptable tree."""


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
        # Whether the production heads a clause: it has a verb slot.  A
        # plain attribute, not a field, so it stays out of equality, hash
        # and repr; ``replace`` copies compute it afresh.
        object.__setattr__(self, "is_clause", any(
            isinstance(s, Slot) and s.pos == "Verb" for s in self.rhs))


# Derivation tree nodes.  A run builds hundreds of thousands of them, so
# they are named tuples: immutable and hashable, and built without the
# object.__setattr__ per field that a frozen dataclass pays.  Equality is
# tuple equality; code that must tell two equal nodes apart (a tree's leaf
# positions) compares them with ``is``.  No walker over them is a closure
# that refers to itself: each recursive helper is a module-level function
# or a method, so no call leaves a reference cycle behind, and reference
# counting frees a tree as soon as its last user lets it go.

class ProdNode(NamedTuple):
    production: Production
    children: tuple


class LeafNode(NamedTuple):
    entry: LexEntry
    bundle: str
    tag: str

    @property
    def surface(self):
        return self.entry.form(self.bundle)


class LitNode(NamedTuple):
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
    _profile_walk(tree, (), ids, depths)
    return ids, depths


def _profile_walk(node, path, ids, depths):
    """``profile``'s walk below ``node``; ``path`` holds the constructs
    tagged above it."""
    ids.add(node.production.id)
    construct = node.production.construct
    if construct:
        path += (construct,)
        depths[construct] = max(depths[construct], path.count(construct))
    for child in node.children:
        if isinstance(child, ProdNode):
            _profile_walk(child, path, ids, depths)


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
        self._slot_cache = {}  # slot -> slot_candidates
        self._plans = {}  # production id -> _plan
        self._intersections = {}  # constraints -> _Intersection
        self._parent = None  # the grammar a restrict_slots copy views
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

    def restrict_slots(self, overrides: dict) -> "Pcfg":
        """New grammar with slot tags restricted to the given lemma sets,
        drawn as a thin view of this one.

        Only a production with an overridden slot tag is replaced; every
        other production stays this grammar's object, and the copy reuses
        its plan (``_plan``).  The copy shares this grammar's constrained
        tables (``_Intersection``): they read the productions' ids,
        weights, constructs and nonterminals, never which lemmas a slot
        admits, so a constraint set solved for one of them is solved for
        all.  It shares the slot candidates too, which are keyed by the
        slot, lemmas included."""
        def remap(sym):
            if isinstance(sym, Slot) and sym.tag in overrides:
                return replace(sym, lemmas=frozenset(overrides[sym.tag]))
            return sym

        prods = []
        for p in self.productions:
            rhs = tuple(map(remap, p.rhs))
            prods.append(p if rhs == p.rhs else replace(p, rhs=rhs))
        copy = Pcfg(self.start, prods, self.lexicon, self.zipf_exponent)
        copy._slot_cache = self._slot_cache
        copy._intersections = self._intersections
        copy._parent = self
        return copy

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

    def _intersection(self, constraints) -> "_Intersection":
        cached = self._intersections.get(constraints)
        if cached is None:
            cached = _Intersection(self, constraints)
            self._intersections[constraints] = cached
        return cached

    def satisfiable(self, constraints: "Constraints") -> bool:
        """Whether some tree of the grammar meets ``constraints``."""
        table = self._intersection(constraints)
        return table.options(table.root)[2] > 0

    def _plan(self, pid: str) -> tuple:
        """(this grammar's production ``pid``, how ``_expand`` fills each
        symbol of its right-hand side: None for a nonterminal, a literal's
        text, or a slot's (entries, running sums, bundle, tag)).  Built once
        per production; a ``restrict_slots`` copy takes its parent's plan
        for every production it did not replace."""
        prod = self.by_id[pid]
        parent = self._parent
        if parent is not None and parent.by_id.get(pid) is prod:
            plan = parent._plans.get(pid) or parent._plan(pid)
        else:
            steps = []
            for sym in prod.rhs:
                if isinstance(sym, NT):
                    steps.append(None)
                elif isinstance(sym, Slot):
                    entries, sums = self.slot_candidates(sym)
                    if not entries:
                        raise GrammarError(
                            f"slot {sym.tag} admits no entries")
                    steps.append((entries, sums, sym.bundle, sym.tag))
                else:
                    steps.append(sym.text)
            plan = (prod, tuple(steps))
        self._plans[pid] = plan
        return plan

    def _expand(self, key, rng: Random, table: "_Intersection"):
        """A tree below split nonterminal ``key``.  The table's choices may
        hold another view's productions; each node gets this grammar's own
        from its plan."""
        options, cum, total = table.options(key)
        if not options:
            raise GrammarError(f"no sampleable productions for {key[0]}")
        choice, child_keys = options[_pick(cum, rng.random() * total)]
        prod, plan = self._plans.get(choice.id) or self._plan(choice.id)
        child_keys = iter(child_keys)
        children = []
        for step in plan:
            if step is None:
                children.append(self._expand(next(child_keys), rng, table))
            elif isinstance(step, str):
                children.append(LitNode(step))
            else:
                entries, sums, bundle, tag = step
                children.append(LeafNode(entries[_pick(sums, rng.random())],
                                         bundle, tag))
        return ProdNode(prod, tuple(children))

    def sample_with_rng(self, rng: Random, constraints: "Constraints" = None):
        """One tree drawn exactly from P(tree | constraints), never None.

        Without constraints this is the grammar's own draw, one RNG call
        per production and per slot.  The draw is not checked here: the
        build checks every constrained tree it draws against
        ``constraints.satisfied_by``.  Raises UnsatisfiableConstraintError,
        before any RNG call, when no tree meets the constraints."""
        table = self._intersection(constraints)
        if table.options(table.root)[2] <= 0:
            raise UnsatisfiableConstraintError(
                f"no tree meets the constraints ({constraints})")
        return self._expand(table.root, rng, table)


def _pick(cum, x):
    """Index of the first running sum above ``x``, clamped to the last."""
    return min(bisect.bisect_right(cum, x), len(cum) - 1)


@dataclass(frozen=True)
class Constraints:
    """What a sampled tree must show: ``required`` and ``forbidden`` are
    production ids; ``depths`` gives constructs, each at most once, and the
    exact depth the tree must show for each.  ``Pcfg.sample_with_rng``
    draws from the grammar conditioned on them, and ``satisfied_by`` checks
    a tree's ``profile`` independently of the sampler.
    """

    required: frozenset = frozenset()
    forbidden: frozenset = frozenset()
    depths: tuple = ()  # ((construct, depth), ...)

    def __post_init__(self):
        named = [construct for construct, _ in self.depths]
        for construct, depth in self.depths:
            if construct not in CONSTRUCTS:
                raise GrammarError(f"unknown construct {construct!r}")
            if depth < 0 or named.count(construct) > 1:
                raise GrammarError(
                    f"construct {construct!r} needs one depth of at least 0")

    def satisfied_by(self, ids, depths) -> bool:
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


# Bound on the fixpoint sweeps for one grammar's constrained inside
# weights.  Depth-bounded recursion is acyclic in the split nonterminals,
# so only unbounded recursion takes more than a few sweeps; the bank's
# grammars settle in at most 36.
FIXPOINT_ROUNDS = 10_000


class _Intersection:
    """A grammar intersected with one set of constraints (Bar-Hillel et al.
    1961), from which ``Pcfg._expand`` draws exactly P(tree | constraints).

    Each nonterminal is split by a key (lhs, path, negated, pending).
    ``path`` counts, for each construct with a target depth, that
    construct's productions on the path from the root down to the node.
    ``negated`` and ``pending`` are bit sets over the flags: one per
    required id ("contains X") and one per positive target depth ("reaches
    depth d").  The subtree must satisfy every pending flag and no negated
    one, use no forbidden id, and keep every construct within its target.

    A key's inside weight is the probability of that event under the
    grammar's own weights.  Without pending flags the event holds at every
    node, and its weights are solved by fixpoint (Nederhof & Satta 2003).
    A pending flag is the whole minus its negation: "contains X" is all
    trees minus those that avoid X, and "exact depth d" is "at most d"
    minus "at most d-1".  A choice at a key is a production together with
    a sharing of its pending flags among its children: each flag goes to
    the first child that satisfies it, and the children before that one
    negate it.

    Without constraints every inside weight is 1 (``compmt validate``
    checks that each grammar is normalized and consistent), so the choices
    are the productions with their own weights and the draw is the plain
    PCFG's.

    The table reads only the productions' ids, weights, constructs and
    nonterminal children, so a grammar and its ``restrict_slots`` copies
    share one table per constraint set, with its inside weights, solved
    once.  Its choices hold the productions of whichever of them built it;
    ``Pcfg._expand`` maps each choice to the drawing grammar's own
    production by id.
    """

    def __init__(self, grammar: Pcfg, constraints: Optional[Constraints]):
        c = constraints or Constraints()
        # The productions only, not the grammar: the grammar caches this
        # table, and a reference back would make the pair a cycle.
        self.by_lhs = grammar.by_lhs
        self.forbidden = c.forbidden
        self.constructs = tuple(construct for construct, _ in c.depths)
        self.targets = tuple(depth for _, depth in c.depths)
        self.id_bits = {pid: 1 << i
                        for i, pid in enumerate(sorted(c.required))}
        self.reach_bits = tuple(1 << (len(self.id_bits) + j) if d > 0 else 0
                                for j, d in enumerate(self.targets))
        flags = sum(self.id_bits.values()) + sum(self.reach_bits)
        self.root = (grammar.start, (0,) * len(self.targets), 0, flags)
        self._options = {}
        self._weights = {}
        self._z = None if c == Constraints() else self._solve(flags)

    def _step(self, prod, path, negated):
        """(path below ``prod``, flags ``prod`` satisfies), or None where
        ``prod`` may not be used."""
        if prod.weight <= 0 or prod.id in self.forbidden:
            return None
        done = self.id_bits.get(prod.id, 0)
        if done & negated:
            return None
        if prod.construct in self.constructs:
            j = self.constructs.index(prod.construct)
            depth, bit = path[j] + 1, self.reach_bits[j]
            if depth > self.targets[j] - bool(bit & negated):
                return None
            if depth == self.targets[j]:
                done |= bit
            path = path[:j] + (depth,) + path[j + 1:]
        return path, done

    def _solve(self, flags):
        """Inside weights {(negated, lhs, path): probability} of the events
        without pending flags, for every ``negated`` within ``flags``."""
        by_lhs = self.by_lhs
        paths = list(product(*(range(d + 1) for d in self.targets)))
        rules = []
        for negated in range(flags + 1):
            if negated & ~flags:
                continue
            for lhs, prods in by_lhs.items():
                for path in paths:
                    terms = []
                    for prod in prods:
                        step = self._step(prod, path, negated)
                        kids = [s.name for s in prod.rhs if isinstance(s, NT)]
                        if step is not None and all(k in by_lhs for k in kids):
                            terms.append((float(prod.weight), tuple(
                                (negated, k, step[0]) for k in kids)))
                    rules.append(((negated, lhs, path), terms))
        z = dict.fromkeys((key for key, _ in rules), 0.0)
        # Gauss-Seidel sweeps from 0: every value rises monotonically, also
        # in floating point, so the sweeps end when none changes.
        for _ in range(FIXPOINT_ROUNDS):
            changed = False
            for key, terms in rules:
                total = 0.0
                for w, kids in terms:
                    for kid in kids:
                        w *= z[kid]
                    total += w
                if total != z[key]:
                    z[key] = total
                    changed = True
            if not changed:
                return z
        raise GrammarError(
            f"inside weights did not settle in {FIXPOINT_ROUNDS} sweeps")

    def weight(self, key) -> float:
        """Inside weight of a split nonterminal.  Pending flags are peeled
        off one at a time, so a flag its subtree cannot satisfy gives
        exactly 0."""
        if self._z is None:
            return 1.0
        lhs, path, negated, pending = key
        if not pending:
            return self._z.get((negated, lhs, path), 0.0)
        got = self._weights.get(key)
        if got is None:
            bit = pending & -pending
            rest = pending ^ bit
            got = self.weight((lhs, path, negated, rest)) \
                - self.weight((lhs, path, negated | bit, rest))
            self._weights[key] = got
        return got

    def options(self, key) -> tuple:
        """(choices, running sums of their weights, total) at a split
        nonterminal; a choice is (production, keys of its nonterminal
        children)."""
        got = self._options.get(key)
        if got is None:
            got = self._options[key] = self._choices(key)
        return got

    def _choices(self, key):
        lhs, path, negated, pending = key
        choices, weights = [], []
        for prod in self.by_lhs.get(lhs, ()):
            step = self._step(prod, path, negated)
            if step is None:
                continue
            below, done = step
            kids = [s.name for s in prod.rhs if isinstance(s, NT)]
            rest = pending & ~done
            bits = [1 << i for i in range(rest.bit_length()) if rest >> i & 1]
            # owners[f]: the first child to satisfy flag bits[f].
            for owners in product(range(len(kids)), repeat=len(bits)):
                keys = tuple(
                    (kid, below,
                     negated | sum(b for b, o in zip(bits, owners) if o > i),
                     sum(b for b, o in zip(bits, owners) if o == i))
                    for i, kid in enumerate(kids))
                w = float(prod.weight)
                for k in keys:
                    w *= max(0.0, self.weight(k))
                if w > 0:
                    choices.append((prod, keys))
                    weights.append(w)
        cum = list(accumulate(weights))
        return choices, cum, cum[-1] if cum else 0.0
