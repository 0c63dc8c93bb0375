"""The bundled grammar bank: lexeme pools, the in-distribution grammar
(each production with its transduction template), and derivation-tree
analysis.

Slot tags encode grammatical positions ("n:subj:c", "v:do:past", ...) so that
lexeme restrictions target exactly one position and `analyze` can read
roles, verb frames, selectional pairs, production ids and construct depths
off a tree in one walk, in an order its callers depend on (see `Analysis`);
analysis judges nothing, and the gap audit decides which of those facts
are withheld.  Production ids are shared between the in-distribution
grammar and the per-pattern generalization grammars wherever the clause
shape is identical, because the gap audit reads them; a shared id always
carries the same template and construct.  `patterns` copies each shared
production from the grammar built here, so the rule holds by construction
for those; `tests/test_patterns.py` checks it over all 43 grammars, the
hand-written productions included.

Embedded copies.  A clause embedded under "X thought that ..." is a copy of
a matrix clause, and this module is the one home of the rule that names it:

- clause ids lose their tense: `s_trans_past_cf` -> `semb_trans_cf` on SEMB;
- noun-phrase ids gain an `e`: `np_dobj_c` -> `np_edobj_c`;
- `NP_X` -> `NP_EX` (other nonterminals are shared);
- slot-tag stems gain an `e`: `v:trans:past` -> `v:etrans:past`,
  `n:dobj:cf` -> `n:edobj:cf`; free clauses, written by hand, use `f`.

`_emb` and `_emb_id` name a copy, `_np`, `_pairs` and `_emb_clause` add
copied productions to the training and pattern grammars, and `base_name`
reads a copied tag stem or id back, so the analysis tables here and in
`audit` list base stems and ids only.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache

from .grammar import (
    CONSTRUCTS, Lit, NT, Pcfg, Production, Slot, LeafNode, ProdNode,
)
from .lexdata import (
    ANIMATE_NOUNS, INANIMATE_NOUNS, PROPER_NOUNS, VERBS, build_lexicon,
)
from .transduce import default_dictionary, default_morph, parse_template

# --------------------------------------------------------------------------
# Target lexeme sets (five per lexical pattern; tense sets are four regular
# verbs plus one irregular).
# --------------------------------------------------------------------------

SUBJ2OBJ_C = ("goat", "wolf", "fox", "deer", "sheep")
SUBJ2OBJ_P = ("Chris", "Morgan", "Casey", "Jordan", "Riley")
OBJ2SUBJ_C = ("panda", "zebra", "camel", "koala", "lemur")
OBJ2SUBJ_P = ("Taylor", "Quinn", "Avery", "Rowan", "Sage")
PRIM_SUBJ_C = ("thief", "spy", "pilot", "nurse", "clown")
PRIM_SUBJ_P = ("Coco", "Milo", "Ziggy", "Juno", "Remy")
PRIM_OBJ_C = ("trainer", "editor", "barber", "tailor", "magician")
PRIM_OBJ_P = ("Nova", "Kai", "Suki", "Bodhi", "Luca")
PRIM_VERBS = ("jump", "dance", "swim", "shout", "laugh")
TENSE_DIT = ("offer", "hand", "pass", "award", "lend")
TENSE_INF = ("want", "plan", "decide", "attempt", "choose")
TENSE_CP = ("believe", "hope", "realize", "expect", "think")
TRANS2DIT = ("show", "serve", "mail", "promise", "sell")
TRANS2INF = ("prepare", "start", "continue", "try", "begin")
TRANS2CP = ("learn", "notice", "discover", "confirm", "understand")
ACT2PASS = ("move", "recognize", "raise", "carry", "push")
PASS2ACT = ("drop", "use", "clean", "lift", "support")
OBJOM2TRANS = ("write", "draw", "paint", "study", "cook")
UNACC2TRANS = ("explode", "melt", "burn", "roll", "change")
DO2PP = ("grant", "assign", "issue", "toss", "feed")
PP2DO = ("gift", "forward", "ship", "deliver", "send")

# Verbs whose curated case frames could trigger a repair; generalization
# grammars keep them away from clauses holding a target noun so that a
# repair can never rewrite the target lexeme itself.
CASE_FRAME_VERBS = ("eat", "drink", "cook", "bloom")

# -- noun pools -------------------------------------------------------------

_ANIM = tuple(lemma for lemma, _ in ANIMATE_NOUNS)
_INANIM = tuple(lemma for lemma, _, _ in INANIMATE_NOUNS)
_PROP = tuple(lemma for lemma, _ in PROPER_NOUNS)
LOC_NOUNS = tuple(lemma for lemma, _, loc in INANIMATE_NOUNS if loc)

_NOUN_TARGETS_C = frozenset(SUBJ2OBJ_C + OBJ2SUBJ_C + PRIM_SUBJ_C + PRIM_OBJ_C)
_NOUN_TARGETS_P = frozenset(SUBJ2OBJ_P + OBJ2SUBJ_P + PRIM_SUBJ_P + PRIM_OBJ_P)

FREE_ANIM = tuple(x for x in _ANIM if x not in _NOUN_TARGETS_C)
FREE_PROP = tuple(x for x in _PROP if x not in _NOUN_TARGETS_P)
SUBJ_ANIM = FREE_ANIM + SUBJ2OBJ_C
SUBJ_PROP = FREE_PROP + SUBJ2OBJ_P
OBJ_ANIM = FREE_ANIM + OBJ2SUBJ_C
OBJ_PROP = FREE_PROP + OBJ2SUBJ_P
DOBJ_POOL = OBJ_ANIM + _INANIM
PSUBJ_POOL = FREE_ANIM + _INANIM
INANIM_POOL = _INANIM

# -- verb pools -------------------------------------------------------------


def _verbs_with(frame):
    return tuple(v[0] for v in VERBS if frame in v[3].split())


def _minus(pool, *excl):
    gone = frozenset(x for e in excl for x in e)
    return tuple(x for x in pool if x not in gone)


V_TRANS = _minus(_verbs_with("trans"), PASS2ACT, OBJOM2TRANS, UNACC2TRANS)
V_TRANS_SAFE = _minus(V_TRANS, CASE_FRAME_VERBS)
V_PASS = _minus(_verbs_with("passv"), ACT2PASS, TENSE_DIT, TRANS2DIT,
                DO2PP, PP2DO, OBJOM2TRANS, UNACC2TRANS)
V_PASSDAT = tuple(v for v in _verbs_with("dit") if v in V_PASS)
V_OBJOM = _verbs_with("objom")
V_UNACC = _verbs_with("unacc")
V_INTRANS = _minus(_verbs_with("intrans"), PRIM_VERBS)
V_INFBASE = _minus(_verbs_with("infbase"), PRIM_VERBS)
V_DO_PAST = _minus(_verbs_with("dit"), PP2DO)
V_DO_PRES = _minus(V_DO_PAST, TENSE_DIT, TRANS2DIT)
V_PPDAT_PAST = _minus(_verbs_with("dit"), DO2PP)
V_PPDAT_PRES = _minus(V_PPDAT_PAST, TENSE_DIT, TRANS2DIT)
V_CP_PAST = _verbs_with("cp")
V_CP_PRES = _minus(V_CP_PAST, TENSE_CP, TRANS2CP)
V_INF_PAST = _verbs_with("inf")
V_INF_PRES = _minus(V_INF_PAST, TENSE_INF, TRANS2INF)

# -- symbol factories -------------------------------------------------------


def n(tag, pool):
    return Slot("CommonNoun", "base", tag, lemmas=frozenset(pool))


def pn(tag, pool):
    return Slot("ProperNoun", "base", tag, lemmas=frozenset(pool))


def v(tag, bundle, pool):
    return Slot("Verb", bundle, tag, lemmas=frozenset(pool))


def adj():
    return Slot("Adjective", "base", "a:mod")


def prep():
    return Slot("Preposition", "base", "p:prep")


DET = NT("DET")
L = Lit


class GrammarSpec:
    """Accumulates productions, each with its parsed transduction template."""

    def __init__(self):
        self.prods = []

    def add(self, pid, lhs, rhs, weight, template,
            construct=None, annot=False):
        rhs = tuple(rhs)
        self.prods.append(Production(
            pid, lhs, rhs, Fraction(weight), construct, annot,
            parse_template(pid, template, rhs)))

    def grammar(self, lexicon, zipf_exponent=1.0):
        return Pcfg("ROOT", self.prods, lexicon, zipf_exponent)


def np_pair(g, stem, common, proper):
    """Common (7/10) and proper (3/10) noun phrases on NP_<STEM>."""
    nt = "NP_" + stem.upper()
    g.add(f"np_{stem}_c", nt, [DET, n(f"n:{stem}:c", common)],
          Fraction(7, 10), "$1")
    g.add(f"np_{stem}_p", nt, [pn(f"n:{stem}:p", proper)],
          Fraction(3, 10), "$0")


# --------------------------------------------------------------------------
# Embedded copies: the naming rule, written and read back
# --------------------------------------------------------------------------


def _emb(sym):
    """A symbol's copy inside a complement clause: `NP_X` -> `NP_EX`, a
    slot's tag stem gains an `e`; other symbols are shared."""
    if isinstance(sym, NT) and sym.name.startswith("NP_"):
        return NT("NP_E" + sym.name[3:])
    if isinstance(sym, Slot):
        kind, rest = sym.tag.split(":", 1)
        return replace(sym, tag=f"{kind}:e{rest}")
    return sym


def _emb_id(pid):
    """Embedded clause id: `s_<clause>` -> `semb_<clause>`, tense dropped."""
    return "semb_" + pid[2:].replace("_past", "").replace("_pres", "")


@cache
def base_name(name):
    """The rule read back, on a tag stem or a production id: an embedded
    (`e`) or free (`f`) copy's stem loses its prefix, `edobj` -> `dobj`,
    and a noun-phrase copy's id loses its `e`, `np_edobj_c` ->
    `np_dobj_c`.  No base stem starts with `e` or `f`.  Cached, so a
    lookup through it stays a dict hit."""
    if name.startswith("np_e"):
        return "np_" + name[4:]
    return name[1:] if name[:1] in ("e", "f") else name


def _np(g, pid, nt, rhs, w, template, annot=False):
    """Noun-phrase production `np_<stem>...` on `nt` and its embedded copy
    `np_e<stem>...` on `_emb(nt)`."""
    g.add(pid, nt, rhs, w, template, annot=annot)
    g.add("np_e" + pid[3:], _emb(NT(nt)).name, [_emb(s) for s in rhs], w,
          template, annot=annot)


def _pairs(g, stem, common, proper):
    """`np_pair` for `stem` and for its embedded copy `e<stem>`."""
    np_pair(g, stem, common, proper)
    np_pair(g, "e" + stem, common, proper)


def _emb_clause(g, pid, weight):
    """The embedded copy of `g`'s clause `pid`, on SEMB with `weight`."""
    p = next(q for q in g.prods if q.id == pid)
    g.prods.append(replace(p, id=_emb_id(pid), lhs="SEMB",
                           rhs=tuple(_emb(s) for s in p.rhs),
                           weight=Fraction(weight)))


def _det(spec):
    spec.add("det_the", "DET", [L("the")], "1/2", "")
    spec.add("det_a", "DET", [L("a")], "1/2", "")


def in_distribution_spec() -> GrammarSpec:
    g = GrammarSpec()

    # Roots.  Topicalized roots carry weight 0: parse-only, produced by the
    # topicalization transform in the split builder.
    g.add("root_decl", "ROOT", [NT("S"), L(".")], "17/20", "$0")
    g.add("root_q", "ROOT", [NT("SQ")], "3/20", "$0")
    g.add("root_topic_past", "ROOT",
          [NT("NP_DOBJ"), L(","), NT("NP_SUBJ"),
           v("v:trans:past", "past", V_TRANS), L(".")],
          "0", "$0 wa $2 ga @morph(3)")
    g.add("root_topic_pres", "ROOT",
          [NT("NP_DOBJ"), L(","), NT("NP_SUBJ"),
           v("v:trans:pres", "pres", V_TRANS), L(".")],
          "0", "$0 wa $2 ga @morph(3)")

    # Matrix clauses.
    g.add("s_trans_past", "S",
          [NT("NP_SUBJ"), v("v:trans:past", "past", V_TRANS), NT("NP_DOBJ")],
          "17/100", "$0 ga $2 o @morph(1)")
    g.add("s_trans_pres", "S",
          [NT("NP_SUBJ"), v("v:trans:pres", "pres", V_TRANS), NT("NP_DOBJ")],
          "9/100", "$0 ga $2 o @morph(1)")
    g.add("s_intrans_past", "S",
          [NT("NP_SUBJ"), v("v:intrans:past", "past", V_INTRANS)],
          "5/100", "$0 ga @morph(1)")
    g.add("s_intrans_pres", "S",
          [NT("NP_SUBJ"), v("v:intrans:pres", "pres", V_INTRANS)],
          "3/100", "$0 ga @morph(1)")
    g.add("s_unacc_past", "S",
          [NT("NP_ISUBJ"), v("v:unacc:past", "past", V_UNACC)],
          "4/100", "$0 ga @morph(1)")
    g.add("s_unacc_pres", "S",
          [NT("NP_ISUBJ"), v("v:unacc:pres", "pres", V_UNACC)],
          "3/100", "$0 ga @morph(1)")
    g.add("s_objom_past", "S",
          [NT("NP_SUBJ"), v("v:objom:past", "past", V_OBJOM)],
          "3/100", "$0 ga @morph(1)")
    g.add("s_objom_pres", "S",
          [NT("NP_SUBJ"), v("v:objom:pres", "pres", V_OBJOM)],
          "2/100", "$0 ga @morph(1)")
    g.add("s_pass", "S",
          [NT("NP_PSUBJ"), L("was"), v("v:pass", "part", V_PASS)],
          "4/100", "$0 ga @morph(2)")
    g.add("s_pass_by", "S",
          [NT("NP_PSUBJ"), L("was"), v("v:pass", "part", V_PASS),
           L("by"), NT("NP_AGENT")],
          "4/100", "$0 ga $4 niyotte @morph(2)")
    g.add("s_passdat", "S",
          [NT("NP_PSUBJ"), L("was"), v("v:passdat", "part", V_PASSDAT),
           L("to"), NT("NP_IOBJ")],
          "3/100", "$0 ga $4 ni @morph(2)")
    g.add("s_do_past", "S",
          [NT("NP_SUBJ"), v("v:do:past", "past", V_DO_PAST),
           NT("NP_IOBJ"), NT("NP_DOBJ")],
          "6/100", "$0 ga $2 ni $3 o @morph(1)")
    g.add("s_do_pres", "S",
          [NT("NP_SUBJ"), v("v:do:pres", "pres", V_DO_PRES),
           NT("NP_IOBJ"), NT("NP_DOBJ")],
          "3/100", "$0 ga $2 ni $3 o @morph(1)")
    g.add("s_ppdat_past", "S",
          [NT("NP_SUBJ"), v("v:ppdat:past", "past", V_PPDAT_PAST),
           NT("NP_DOBJ"), L("to"), NT("NP_IOBJ")],
          "6/100", "$0 ga $2 o $4 ni @morph(1)")
    g.add("s_ppdat_pres", "S",
          [NT("NP_SUBJ"), v("v:ppdat:pres", "pres", V_PPDAT_PRES),
           NT("NP_DOBJ"), L("to"), NT("NP_IOBJ")],
          "3/100", "$0 ga $2 o $4 ni @morph(1)")
    g.add("s_cp_past", "S",
          [NT("NP_SUBJ"), v("v:cp:past", "past", V_CP_PAST), NT("CP")],
          "8/100", "$0 ga $2 @morph(1)")
    g.add("s_cp_pres", "S",
          [NT("NP_SUBJ"), v("v:cp:pres", "pres", V_CP_PRES), NT("CP")],
          "4/100", "$0 ga $2 @morph(1)")
    g.add("s_inf_past", "S",
          [NT("NP_SUBJ"), v("v:inf:past", "past", V_INF_PAST),
           L("to"), v("v:infbase", "inf", V_INFBASE)],
          "8/100", "$0 ga @morph(3,pres) koto o @morph(1)")
    g.add("s_inf_pres", "S",
          [NT("NP_SUBJ"), v("v:inf:pres", "pres", V_INF_PRES),
           L("to"), v("v:infbase", "inf", V_INFBASE)],
          "5/100", "$0 ga @morph(3,pres) koto o @morph(1)")

    # Wh-questions seen in distribution: transitive only, past only.
    g.add("q_whosubj", "SQ",
          [L("Who"), v("v:whts:past", "past", V_TRANS), NT("NP_DOBJ"), L("?")],
          "4/10", "dare ga $2 o @morph(1) @q ?")
    g.add("q_whatobj", "SQ",
          [L("What"), L("did"), NT("NP_SUBJ"),
           v("v:wht:inf", "inf", V_TRANS), L("?")],
          "3/10", "$2 ga nani o @morph(3,past) @q ?")
    g.add("q_whoobj", "SQ",
          [L("Who"), L("did"), NT("NP_SUBJ"),
           v("v:wht:inf", "inf", V_TRANS), L("?")],
          "3/10", "$2 ga dare o @morph(3,past) @q ?")

    # Noun phrases by position, with the embedded copies that complement
    # clauses use.
    _pairs(g, "subj", SUBJ_ANIM, SUBJ_PROP)
    _np(g, "np_isubj", "NP_ISUBJ", [DET, n("n:isubj", INANIM_POOL)], "1", "$1")
    _pairs(g, "psubj", PSUBJ_POOL, FREE_PROP)
    np_pair(g, "iobj", OBJ_ANIM, OBJ_PROP)
    _pairs(g, "agent", FREE_ANIM, FREE_PROP)

    g.add("np_dobj_c", "NP_DOBJ", [DET, n("n:dobj:c", DOBJ_POOL)],
          "30/100", "$1")
    g.add("np_dobj_p", "NP_DOBJ", [pn("n:dobj:p", OBJ_PROP)], "14/100", "$0")
    g.add("np_dobj_adj", "NP_DOBJ",
          [DET, NT("ADJSEQ"), n("n:dobj:c", DOBJ_POOL)], "14/100", "$1 $2")
    g.add("np_dobj_pp", "NP_DOBJ",
          [DET, n("n:dobj:c", DOBJ_POOL), NT("PP")], "14/100", "$2 $1")
    g.add("np_dobj_rco", "NP_DOBJ",
          [DET, n("n:dobj:c", DOBJ_POOL), NT("RC_OBJ")], "14/100", "$2 $1")
    g.add("np_dobj_rcs", "NP_DOBJ",
          [DET, n("n:dobj:c", OBJ_ANIM), NT("RC_SUBJ")], "14/100", "$2 $1")

    # Prepositional phrases (noun attachment only; "Y no <rel> no X").
    g.add("pp_mod", "PP", [prep(), NT("NP_PPN")], "1", "$1 no $0 no",
          construct="PP")
    g.add("np_ppn", "NP_PPN", [DET, n("n:ppn", LOC_NOUNS)], "7/10", "$1")
    g.add("np_ppn_pp", "NP_PPN", [DET, n("n:ppn", LOC_NOUNS), NT("PP")],
          "3/10", "$2 $1")

    # Stacked prenominal adjectives.
    g.add("adj_one", "ADJSEQ", [adj()], "7/10", "$0", construct="Adj")
    g.add("adj_more", "ADJSEQ", [adj(), NT("ADJSEQ")], "3/10", "$0 $1",
          construct="Adj")

    # Relative clauses.  Object-gap RCs center-embed through NP_CESUBJ.
    g.add("rc_objgap", "RC_OBJ",
          [L("that"), NT("NP_CESUBJ"), v("v:rc:past", "past", V_TRANS)],
          "1", "$1 ga @morph(2)", construct="CenterEmbedRC")
    g.add("np_cesubj_c", "NP_CESUBJ", [DET, n("n:cesubj:c", SUBJ_ANIM)],
          "45/100", "$1")
    g.add("np_cesubj_p", "NP_CESUBJ", [pn("n:cesubj:p", SUBJ_PROP)],
          "25/100", "$0")
    g.add("np_cesubj_rc", "NP_CESUBJ",
          [DET, n("n:cesubj:c", SUBJ_ANIM), NT("RC_OBJ")], "30/100", "$2 $1")
    g.add("rc_subjgap_t", "RC_SUBJ",
          [L("that"), v("v:rcs:past", "past", V_TRANS), NT("NP_RCOBJ")],
          "7/10", "$2 o @morph(1)")
    g.add("rc_subjgap_do", "RC_SUBJ",
          [L("that"), v("v:rcsdo:past", "past", V_DO_PAST),
           NT("NP_RCIOBJ"), NT("NP_RCOBJ")],
          "3/10", "$2 ni $3 o @morph(1)")
    np_pair(g, "rcobj", DOBJ_POOL, OBJ_PROP)
    np_pair(g, "rciobj", OBJ_ANIM, OBJ_PROP)

    # Complement clauses: embedded copies of six matrix clauses.  NP_EDOBJ
    # is not a copy of NP_DOBJ: it takes no modifier.
    g.add("cp_clause", "CP", [L("that"), NT("SEMB")], "1", "$1 to",
          construct="CP")
    for pid, weight in (("s_trans_past", "30/100"),
                        ("s_intrans_past", "15/100"),
                        ("s_unacc_past", "10/100"), ("s_pass", "10/100"),
                        ("s_pass_by", "10/100"), ("s_cp_past", "25/100")):
        _emb_clause(g, pid, weight)
    np_pair(g, "edobj", DOBJ_POOL, OBJ_PROP)

    _det(g)
    return g


# --------------------------------------------------------------------------
# Tree analysis: roles, verb frames, selectional pairs, ids, depths.
# --------------------------------------------------------------------------

# The tables below list base stems and ids only; lookups read an embedded
# or free copy through `base_name`.

# Noun-tag stem (between "n:" and an optional ":c"/":p") -> grammatical role.
ROLE_BY_TAG = {
    "subj": "subject", "cesubj": "subject", "rcsubj": "subject",
    "whsubj": "subject", "osubj": "subject", "isubj": "subject",
    "psubj": "subject",
    "dobj": "direct_object", "rcobj": "direct_object",
    "iobj": "indirect_object", "rciobj": "indirect_object",
    "agent": "agent",
    "ppn": "pp_noun",
}

# Tags whose noun participates in selectional checking, with the checked
# role.  Passive subjects are deep direct objects; inanimate-subject checks
# cover active inanimate subjects only (animate subjects are never checked).
_SELECTIONAL_ROLE = {
    "dobj": "direct_object", "rcobj": "direct_object",
    "psubj": "direct_object",
    "isubj": "inanimate_subject",
}

CONTENT_POS = ("CommonNoun", "ProperNoun", "Verb", "Adjective")


@cache
def _tag_stem(tag: str) -> str:
    """A slot tag's base stem: `n:edobj:c` -> `dobj`."""
    return base_name(tag.split(":")[1] if ":" in tag else tag)


def tag_role(tag: str):
    return ROLE_BY_TAG.get(_tag_stem(tag)) if tag.startswith("n:") else None


@dataclass
class Analysis:
    """What one walk reads off a derivation tree.  Callers depend on the
    lists' order: ``naturalize`` repairs ``pairs[0]`` first, so reordering
    moves the RNG stream and the corpus bytes, and the audit's violation
    lines follow ``lemma_roles`` and ``verbs``.  ``lemma_roles``, ``verbs``
    and ``lemmas`` are in leaf order.  A clause's ``pairs`` follow those of
    the clauses nested in it, in the order of its noun phrases, and a gap
    link follows its object-gap relative clause's own pairs."""

    lemma_roles: list = field(default_factory=list)  # (lemma, role)
    verbs: list = field(default_factory=list)  # (lemma, frame, tense, voice)
    pairs: list = field(default_factory=list)  # (verb, sel-role, noun, tag)
    depths: dict = field(  # construct -> depth, every construct
        default_factory=lambda: dict.fromkeys(CONSTRUCTS, 0))
    ids: set = field(default_factory=set)  # production ids
    lemmas: list = field(default_factory=list)  # content lemmas


def _verb_facts(leaf: LeafNode):
    parts = leaf.tag.split(":")
    frame = parts[1] if len(parts) > 1 else "unknown"
    if leaf.bundle == "part":
        tense, voice = "past", "passive"
    elif leaf.bundle == "inf":
        # Bare form after "did" (semantically past) or after "to" (tenseless).
        tense = None if _tag_stem(leaf.tag) == "infbase" else "past"
        voice = "active"
    else:
        tense, voice = leaf.bundle, "active"
    return (leaf.entry.lemma, frame, tense, voice)


def analyze(tree: ProdNode) -> Analysis:
    """Every fact of ``tree`` in one walk, its root taken for a clause."""
    out = Analysis()
    _clause(tree, (), out)
    return out


def _np_head(node):
    """Head noun leaf of an NP subtree, as the walk's NP step finds it."""
    return _noun_phrase(node, (), Analysis())


def _enter(node: ProdNode, path: tuple, out: Analysis) -> tuple:
    """Add ``node``'s id and construct depth to ``out`` and return the
    constructs on the path down to it: a construct's depth is the most
    productions tagged with it on any path from the root."""
    out.ids.add(node.production.id)
    construct = node.production.construct
    if construct:
        path += (construct,)
        out.depths[construct] = max(out.depths[construct],
                                    path.count(construct))
    return path


def _leaf(leaf: LeafNode, out: Analysis):
    role = tag_role(leaf.tag)
    if role is not None:
        out.lemma_roles.append((leaf.entry.lemma, role))
    if leaf.entry.pos in CONTENT_POS:
        out.lemmas.append(leaf.entry.lemma)


def _clause(node: ProdNode, path: tuple, out: Analysis):
    """The clause step: walk the clause at ``node`` into ``out`` and return
    its verb, the first that is not a bare infinitive after "to".  Each of
    its noun phrases' heads with a checked role makes a pair with it."""
    path = _enter(node, path, out)
    verb = None
    heads = []
    for child in node.children:
        if isinstance(child, LeafNode):
            _leaf(child, out)
            if child.entry.pos == "Verb":
                out.verbs.append(_verb_facts(child))
                if verb is None and _tag_stem(child.tag) != "infbase":
                    verb = child
        elif isinstance(child, ProdNode):
            if child.production.is_clause:
                _clause(child, path, out)
            else:
                head = _noun_phrase(child, path, out)
                if head is not None:
                    heads.append(head)
    for head in heads:
        sel = _SELECTIONAL_ROLE.get(_tag_stem(head.tag))
        if verb is not None and sel is not None:
            out.pairs.append(
                (verb.entry.lemma, sel, head.entry.lemma, head.tag))
    return verb


def _noun_phrase(node: ProdNode, path: tuple, out: Analysis, head=None,
                 in_pp=False):
    """The NP step: walk the noun phrase at ``node`` into ``out`` and
    return its head, the last noun leaf reached without entering a clause
    or a PP, other than a PP's `n:ppn` noun; ``head`` and ``in_pp`` carry
    the enclosing phrase's state into its parts.  The head so far is the
    object of an object-gap relative clause in the phrase (the gap link); a
    relative clause ends its phrase in every bank grammar."""
    path = _enter(node, path, out)
    in_pp = in_pp or node.production.id.startswith("pp_")
    for child in node.children:
        if isinstance(child, LeafNode):
            _leaf(child, out)
            if not in_pp and child.tag.startswith("n:") \
                    and _tag_stem(child.tag) != "ppn":
                head = child
        elif not isinstance(child, ProdNode):
            continue
        elif not child.production.is_clause:
            head = _noun_phrase(child, path, out, head, in_pp)
        else:
            verb = _clause(child, path, out)
            if child.production.id == "rc_objgap" and head and verb:
                out.pairs.append((verb.entry.lemma, "direct_object",
                                  head.entry.lemma, head.tag))
    return head


# --------------------------------------------------------------------------
# Assembled bank
# --------------------------------------------------------------------------


class Bank:
    """Everything the pipeline needs, built once from the bundled tables."""

    def __init__(self):
        from . import patterns as _patterns
        self.lexicon = build_lexicon()
        self.dictionary = default_dictionary()
        self.morph = default_morph()
        self.grammar = in_distribution_spec().grammar(self.lexicon)
        self.patterns = _patterns.build_patterns(self.lexicon)
        self.by_pattern = {p.id: p for p in self.patterns}

    def grammar_for(self, grammar_id: str) -> Pcfg:
        if grammar_id == "in_dist":
            return self.grammar
        return self.by_pattern[grammar_id].gen_grammar


_default_bank = None


def default_bank() -> Bank:
    global _default_bank
    if _default_bank is None:
        _default_bank = Bank()
    return _default_bank
