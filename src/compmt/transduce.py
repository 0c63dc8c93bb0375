"""Tree transduction from English derivation trees to Japanese tokens.

Each production carries its own target template (``Production.template``,
parsed by ``parse_template`` when the grammar is built); templates
interleave child references, literal morphemes (case particles,
complementizer "to", the question particle) and morphology directives that
inflect a verb leaf.  One walk of the source tree applies them and emits
the SOV reference translation's tokens left to right.  English function
words (determiners, auxiliaries, relative pronouns) are simply never
referenced by a template and therefore drop.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional

from .grammar import GrammarError, LeafNode, Lit, ProdNode, Slot


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
        # (morph table, lemma, pos, bundle, tense, voice) -> the token tuple
        # ``render_leaf`` looked up in this dictionary and that table.
        self._rendered = {}
        for lemma, pos, bundle, tokens in rows:
            key = (lemma, pos, bundle)
            if key in self.entries:
                raise TransductionError(f"duplicate dictionary entry {key}")
            self.entries[key] = tuple(tokens)

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


# -- translation ------------------------------------------------------------


def render_leaf(leaf: LeafNode, dictionary: BilingualDictionary,
                morph: MorphTable, tense=None, voice=None) -> tuple:
    """Target tokens of one lexical leaf.  A verb is inflected for its
    bundle's tense and voice unless ``tense`` or ``voice`` overrides them.
    The tokens are looked up once per dictionary, morphology table and
    (lemma, pos, bundle, tense, voice); every call gets that one tuple."""
    entry = leaf.entry
    key = (morph, entry.lemma, entry.pos, leaf.bundle, tense, voice)
    tokens = dictionary._rendered.get(key)
    if tokens is None:
        if entry.pos == "Verb":
            bt, bv = BUNDLE_TV[leaf.bundle]
            cls = dictionary.verb_class(entry.lemma)
            stem_key, suffixes = morph.inflect(cls, tense or bt, voice or bv)
            tokens = dictionary.lookup(entry.lemma, "Verb", stem_key) \
                + suffixes
        else:
            tokens = dictionary.lookup(entry.lemma, entry.pos, leaf.bundle)
        dictionary._rendered[key] = tokens
    return tokens


def transduce(tree: ProdNode, dictionary: BilingualDictionary,
              morph: MorphTable) -> list:
    """Target tokens of a source derivation tree, by each node's
    production template."""
    out = []
    _emit(tree, dictionary, morph, out, None, None)
    return out


def target_span(tree: ProdNode, node, dictionary: BilingualDictionary,
                morph: MorphTable) -> Optional[tuple]:
    """(start, end) of the node object ``node``'s tokens in ``tree``'s
    translation, or None when ``tree`` does not translate that object (an
    equal node elsewhere has its own span)."""
    found = []
    _emit(tree, dictionary, morph, [], node, found)
    return found[0] if found else None


def _emit(node, dictionary, morph, out, mark, found, tense=None, voice=None):
    """Append the target tokens of ``node`` to ``out``, a verb leaf
    inflected by ``tense`` and ``voice`` when given; append the (start, end)
    of ``mark``'s tokens to ``found`` when the walk passes it."""
    start = len(out)
    if isinstance(node, LeafNode):
        out.extend(render_leaf(node, dictionary, morph, tense, voice))
    else:
        template = node.production.template
        if template is None:
            raise TransductionError(
                f"uncovered production {node.production.id}: "
                "no transduction rule")
        for item in template:
            if item.kind == "lit":
                out.append(item.text)
            elif item.kind == "q":
                out.append(morph.question_particle)
            else:  # "child", or "morph" with its tense/voice override
                _emit(node.children[item.index], dictionary, morph, out,
                      mark, found, item.tense, item.voice)
    if node is mark:
        found.append((start, len(out)))


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
    symbol of ``rhs``, and each ``@morph(k)`` a verb slot."""
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
        if item.kind == "morph" and not (isinstance(rhs[item.index], Slot)
                                         and rhs[item.index].pos == "Verb"):
            raise TransductionError(f"production {pid}: @morph target "
                                    f"{item.index} is not a verb slot")
        seen.add(item.index)
    return items


def default_dictionary() -> BilingualDictionary:
    from .lexdata import dictionary_rows
    return BilingualDictionary(dictionary_rows())


def default_morph() -> MorphTable:
    from .lexdata import MORPH_ROWS, QUESTION_PARTICLE
    return MorphTable(MORPH_ROWS, QUESTION_PARTICLE)
