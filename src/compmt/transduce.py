"""Tree transduction from English derivation trees to Japanese token output.

Each production carries its own target template (``Production.template``,
parsed by ``parse_template`` when the grammar is built); templates
interleave child references, literal morphemes (case particles,
complementizer "to", the question particle) and morphology directives that
inflect a verb leaf.  Templates are applied bottom-up, yielding a target
tree whose linearization is the SOV reference translation.  English
function words (determiners, auxiliaries, relative pronouns) are simply
never referenced by a template and therefore drop.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from .grammar import GrammarError, LeafNode, Lit, ProdNode


class TransductionError(GrammarError):
    """Uncovered production/lexeme or ill-formed template."""


# English morph bundle -> (tense, voice) as the morphology table sees it.
BUNDLE_TV = {
    "past": ("past", "active"),
    "pres": ("pres", "active"),
    "part": ("past", "passive"),
    "inf": ("pres", "active"),
}


@dataclass(frozen=True)
class TItem:
    kind: str  # "child" | "lit" | "morph" | "q"
    index: int = -1
    tense: Optional[str] = None
    voice: Optional[str] = None
    text: str = ""


class BilingualDictionary:
    """(lemma, pos, bundle) -> target morpheme tokens.

    Verb entries store their morphology class and one stem per form slot
    under the bundles "class", "stem_past", "stem_pres", "stem_pass".
    """

    def __init__(self, rows: Iterable[tuple]):
        self.entries = {}
        # (morph table, lemma, pos, bundle, tense, voice) -> the TLeaf tuple
        # ``render_leaf`` built from this dictionary and that table.
        self._rendered = {}
        for lemma, pos, bundle, tokens in rows:
            key = (lemma, pos, bundle)
            if key in self.entries:
                raise TransductionError(f"duplicate dictionary entry {key}")
            self.entries[key] = tuple(tokens)

    def __len__(self):
        return len(self.entries)

    def lookup(self, lemma: str, pos: str, bundle: str) -> tuple:
        try:
            return self.entries[(lemma, pos, bundle)]
        except KeyError:
            raise TransductionError(
                f"uncovered lexeme {lemma}/{pos} (bundle {bundle})") from None

    def verb_class(self, lemma: str) -> str:
        return self.lookup(lemma, "Verb", "class")[0]


class MorphTable:
    """(verb class, tense, voice) -> (stem slot, suffix tokens); question "ka"."""

    def __init__(self, rows: Iterable[tuple], question_particle: str = "ka"):
        self.rules = {}
        for cls, tense, voice, stem_key, suffixes in rows:
            self.rules[(cls, tense, voice)] = (stem_key, tuple(suffixes))
        self.question_particle = question_particle

    def inflect(self, cls: str, tense: str, voice: str) -> tuple:
        try:
            return self.rules[(cls, tense, voice)]
        except KeyError:
            raise TransductionError(
                f"no morphology for class {cls!r} {tense}/{voice}") from None


# -- target trees -----------------------------------------------------------

# Named tuples for the same reason as the source tree's nodes (grammar.py).

class TLeaf(NamedTuple):
    token: str


class TNode(NamedTuple):
    source: object  # the ProdNode / LeafNode this node rewrites
    children: tuple


def linearize(tt) -> list:
    """Left-to-right target tokens of a target tree."""
    out = []
    stack = [tt]
    while stack:
        node = stack.pop()
        if isinstance(node, TLeaf):
            out.append(node.token)
        else:
            stack.extend(reversed(node.children))
    return out


def render_leaf(leaf: LeafNode, dictionary: BilingualDictionary,
                morph: MorphTable, tense=None, voice=None) -> TNode:
    """Target node of one lexical leaf.  A verb is inflected for its
    bundle's tense and voice unless ``tense`` or ``voice`` overrides them.
    The target leaves are built once per dictionary, morphology table and
    (lemma, pos, bundle, tense, voice); every call gets a node of its own."""
    entry = leaf.entry
    key = (morph, entry.lemma, entry.pos, leaf.bundle, tense, voice)
    leaves = dictionary._rendered.get(key)
    if leaves is None:
        if entry.pos == "Verb":
            bt, bv = BUNDLE_TV[leaf.bundle]
            cls = dictionary.verb_class(entry.lemma)
            stem_key, suffixes = morph.inflect(cls, tense or bt, voice or bv)
            tokens = dictionary.lookup(entry.lemma, "Verb", stem_key) \
                + suffixes
        else:
            tokens = dictionary.lookup(entry.lemma, entry.pos, leaf.bundle)
        leaves = dictionary._rendered[key] = tuple(TLeaf(t) for t in tokens)
    return TNode(leaf, leaves)


def transduce(tree: ProdNode, dictionary: BilingualDictionary,
              morph: MorphTable) -> TNode:
    """Rewrite a source derivation tree into a target tree, bottom-up, by
    each node's production template."""
    return _rewrite(tree, dictionary, morph)


def _rewrite(node: ProdNode, dictionary, morph) -> TNode:
    pid = node.production.id
    template = node.production.template
    if template is None:
        raise TransductionError(
            f"uncovered production {pid}: no transduction rule")
    out = []
    for item in template:
        if item.kind == "lit":
            out.append(TLeaf(item.text))
        elif item.kind == "q":
            out.append(TLeaf(morph.question_particle))
        elif item.kind == "child":
            child = node.children[item.index]
            out.append(_rewrite(child, dictionary, morph)
                       if isinstance(child, ProdNode)
                       else render_leaf(child, dictionary, morph))
        else:  # morph directive
            child = node.children[item.index]
            if not isinstance(child, LeafNode) or child.entry.pos != "Verb":
                raise TransductionError(
                    f"production {pid}: @morph target {item.index} is "
                    "not a verb leaf")
            out.append(render_leaf(child, dictionary, morph,
                                   item.tense, item.voice))
    return TNode(node, tuple(out))


def target_spans(tt: TNode) -> list:
    """(source node, start, end) for every target node, in preorder."""
    out = []
    _span_walk(tt, 0, out)
    return out


def _span_walk(node, offset, out) -> int:
    """Append the spans of ``node`` and its descendants, ``node`` starting
    at ``offset``, to ``out``; returns the offset after ``node``."""
    if isinstance(node, TLeaf):
        return offset + 1
    start = offset
    for child in node.children:
        offset = _span_walk(child, offset, out)
    out.append((node.source, start, offset))
    return offset


def span_for_source(tt: TNode, src_node) -> Optional[tuple]:
    for source, start, end in target_spans(tt):
        if source is src_node:
            return (start, end)
    return None


# -- template tokens --------------------------------------------------------

_MORPH_RE = re.compile(r"^@morph\((\d+)(?:,([a-z]+))?(?:,([a-z]+))?\)$")
_CHILD_RE = re.compile(r"^\$(\d+)$")


def _parse_item(pid: str, token: str) -> TItem:
    """One template token: ``$k``, ``@morph(k[,tense[,voice]])``, ``@q`` or
    a literal morpheme."""
    m = _CHILD_RE.match(token)
    if m:
        return TItem("child", int(m.group(1)))
    if token == "@q":
        return TItem("q")
    m = _MORPH_RE.match(token)
    if m:
        return TItem("morph", int(m.group(1)), m.group(2), m.group(3))
    if token.startswith("@") or token.startswith("$"):
        raise TransductionError(
            f"production {pid}: malformed template token {token!r}")
    return TItem("lit", text=token)


def parse_template(pid: str, text: str, rhs: tuple) -> tuple:
    """The template of production ``pid`` as a tuple of TItem.  Each child
    reference (``$k`` or ``@morph(k)``) must name a distinct non-literal
    symbol of ``rhs``."""
    items = tuple(_parse_item(pid, t) for t in text.split())
    seen = set()
    for item in items:
        if item.kind not in ("child", "morph"):
            continue
        if not 0 <= item.index < len(rhs):
            raise TransductionError(
                f"production {pid}: child {item.index} out of range")
        if item.index in seen:
            raise TransductionError(
                f"production {pid}: child {item.index} referenced twice")
        if isinstance(rhs[item.index], Lit):
            raise TransductionError(
                f"production {pid}: child {item.index} is a literal terminal")
        seen.add(item.index)
    return items


def default_dictionary() -> BilingualDictionary:
    from .lexdata import dictionary_rows
    return BilingualDictionary(dictionary_rows())


def default_morph() -> MorphTable:
    from .lexdata import MORPH_ROWS, QUESTION_PARTICLE
    return MorphTable(MORPH_ROWS, QUESTION_PARTICLE)
