"""Naturalness filtering: duplicate-lexeme rejection and selectional repair.

Two mechanisms keep generated sentences plausible.  First, any sentence in
which a content lexeme (noun, proper noun, verb or adjective lemma) appears
more than once is rejected outright; the sampler simply draws again.  Second,
verb-noun combinations in two sensitive positions — a verb with its direct
object, and a verb with an inanimate subject — are checked against a
case-frame pair list; an unlicensed noun is replaced in the derivation tree
with a licensed one and the sentence is retranslated.  When two verbs
constrain the noun at once ("ate the wine that Ava drank"), the noun chosen
for one verb must be licensed for the other too; otherwise the record is
unrepairable, the sampler draws again and the build counts it in
``unrepairable_dropped``.  So every sentence that leaves ``naturalize`` has
only licensed pairs.

The pair list is open-world: a (verb, role) that the list says nothing
about licenses every noun.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grammar import GrammarError, LeafNode, ProdNode, Slot
from .bank import analyze
from .lexdata import CASE_FRAMES
from .utf8 import undecodable

ROLES = ("inanimate_subject", "direct_object")


class UnrepairableRecordError(GrammarError):
    """No admissible replacement noun licenses every pair of an offending
    noun's position."""


@dataclass(frozen=True)
class SelViolation:
    verb: str
    role: str
    noun: str
    tag: str = ""  # slot tag of the offending noun, used to locate it


class CaseFrameList:
    """Licensed (verb, role, noun) pairs plus ranked replacement pools.

    Every pool noun is itself a member of `pairs`, so a repair can never
    introduce a new violation for the pair it fixes.
    """

    def __init__(self, rows):
        # rows: iterable of (verb, role, noun, rank)
        self.pairs = set()
        self.pool = {}
        for verb, role, noun, rank in rows:
            if role not in ROLES:
                raise GrammarError(f"unknown case-frame role {role!r}")
            self.pairs.add((verb, role, noun))
            self.pool.setdefault((verb, role), []).append((int(rank), noun))
        for key in self.pool:
            self.pool[key].sort()

    def licensed(self, verb, role, noun):
        return ((verb, role) not in self.pool
                or (verb, role, noun) in self.pairs)

    def ranked(self, verb, role):
        """Pool nouns grouped by rank, best first."""
        groups = []
        for rank, noun in self.pool.get((verb, role), ()):
            if groups and groups[-1][0] == rank:
                groups[-1][1].append(noun)
            else:
                groups.append((rank, [noun]))
        return [nouns for _rank, nouns in groups]


def default_case_frames() -> CaseFrameList:
    rows = []
    for verb, role, nouns in CASE_FRAMES:
        for i, noun in enumerate(nouns):
            rows.append((verb, role, noun, i + 1))
    return CaseFrameList(rows)


def parse_case_frames(text: str, source="case-frames") -> CaseFrameList:
    """Rows ``verb<TAB>role<TAB>noun<TAB>rank``; an error names
    ``source:line``."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{source}:{lineno}"
        cols = line.split("\t")
        if len(cols) != 4:
            raise GrammarError(
                f"{where}: expected 4 columns, got {len(cols)}")
        verb, role, noun, rank = cols
        if role not in ROLES:
            raise GrammarError(f"{where}: unknown case-frame role {role!r}")
        if not rank.isdigit():
            raise GrammarError(f"{where}: bad rank {rank!r}")
        rows.append((verb, role, noun, int(rank)))
    return CaseFrameList(rows)


def read_case_frames(path) -> CaseFrameList:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError:
            raise GrammarError(undecodable(path)) from None
    return parse_case_frames(text, path)


# --------------------------------------------------------------------------
# Checks
# --------------------------------------------------------------------------


def reject_duplicates(analysis) -> bool:
    """True iff some content lemma occurs at least twice in the analyzed
    sentence."""
    return len(set(analysis.lemmas)) < len(analysis.lemmas)


def check_selectional(analysis, cf: CaseFrameList) -> list:
    out = []
    for verb, role, noun, tag in analysis.pairs:
        if not cf.licensed(verb, role, noun):
            out.append(SelViolation(verb, role, noun, tag))
    return out


# --------------------------------------------------------------------------
# Repair
# --------------------------------------------------------------------------


def _locate(tree, violation):
    """The offending leaf and its slot, found by slot tag + lemma."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if not isinstance(node, ProdNode):
            continue
        for sym, child in zip(node.production.rhs, node.children):
            if isinstance(child, LeafNode):
                if isinstance(sym, Slot) and child.tag == violation.tag \
                        and child.entry.lemma == violation.noun:
                    return child, sym
            else:
                stack.append(child)
    raise GrammarError(
        f"offending noun {violation.noun!r} not found in tree")


def _replace_leaf(node, old, new):
    if node is old:
        return new
    if not isinstance(node, ProdNode):
        return node
    children = tuple(_replace_leaf(c, old, new) for c in node.children)
    return ProdNode(node.production, children)


def _pick_replacement(cf, violation, slot, lexicon, present, rng):
    """Highest-ranked admissible pool noun not already in the sentence."""
    for group in cf.ranked(violation.verb, violation.role):
        entries = []
        for noun in group:
            if noun in present:
                continue
            entry = lexicon.by_key.get((noun, slot.pos))
            if entry is not None and slot.admits(entry):
                entries.append(entry)
        if entries:
            if len(entries) == 1:
                return entries[0]
            return rng.choice(sorted(entries, key=lambda e: e.lemma))
    return None


def naturalize(tree, analysis, cf: CaseFrameList, rng, lexicon):
    """Replace offending nouns of one derivation tree and its ``analysis``
    until every checked pair is licensed.

    Returns (tree, analysis of that tree, changed); only a tree a
    replacement made is analyzed again.  A replacement comes from the pool
    of the pair it fixes and every pair at its position must license it, so
    each pass licenses one position for good and the passes are bounded by
    the first check's violation count.  Raises UnrepairableRecordError when
    no admissible noun is left, or when the replacement is unlicensed for a
    second verb at the same position.  Duplicate-lexeme rejection is the
    caller's job (it resamples rather than repairs).
    """
    current = check_selectional(analysis, cf)
    changed = bool(current)
    for _ in range(len(current)):
        if not current:
            break
        v = current[0]
        leaf, slot = _locate(tree, v)
        entry = _pick_replacement(cf, v, slot, lexicon, set(analysis.lemmas),
                                  rng)
        if entry is None:
            raise UnrepairableRecordError(
                f"no replacement for {v.noun!r} as {v.role} of {v.verb!r}")
        tree = _replace_leaf(tree, leaf, LeafNode(entry, leaf.bundle,
                                                  leaf.tag))
        analysis = analyze(tree)
        current = check_selectional(analysis, cf)
        for o in current:
            if o.noun == entry.lemma and o.tag == leaf.tag:
                raise UnrepairableRecordError(
                    f"{entry.lemma!r} replaces {v.noun!r} as {v.role} of "
                    f"{v.verb!r} but is unlicensed as {o.role} of "
                    f"{o.verb!r}")
    return tree, analysis, changed
