"""Leakage audit for the train/generalization gap.

Every generalization pattern withholds one combination from training: a
lexeme in a grammatical role, a verb in a (frame, tense, voice) cell, a
phrase type on a syntactic position, a recursion depth, or a question
structure.  The audit re-parses every training sentence and checks two
directions:

* no training sentence realizes a withheld combination (leakage), and
* training does contain each pattern's prerequisites — the target lexemes
  in their licensed uses and the questioned structures with free lexemes.

The gap policy lives here, in the licence tables, ``WITHHELD_STRUCTURES``
and the recursion depths; ``bank.analyze`` only reports a reading's roles,
verb cells, production ids and depths.  Each charged reading adds its facts
to one set, and every prerequisite is a row met by any one of its facts.

Parsing uses a union grammar: the in-distribution productions plus every
pattern grammar's productions, each slot widened to the union of the lemma
sets that the grammars give its (pos, bundle, tag); a slot that any grammar
leaves unrestricted stays so.  The restrictions exist to *prevent*
held-out material during sampling; the audit must instead *recognize* such
material wherever some grammar puts it.  Lifting them altogether would let
any verb take any frame and invent innocent readings of a leak; the union
does not, and a leak that uses a lexeme outside it fails closed, as
``unparsable``.  The union still makes some frames string-ambiguous
(``Harper wrote .`` parses as object-omission or plain intransitive), so a
sentence is charged only with the violations of its most innocent parse.

The union holds one production per reading.  Pattern grammars copy
training productions onto their own nonterminals (``NP_TOBJ`` for
``NP_DOBJ``), so a plain union would parse a reading once per copy.
``audit_grammar`` drops a production that a sibling covers: one with the
same id, construct and terminals whose nonterminal children derive every
tree that the dropped one's children derive.  Each tree through a dropped
production has a twin through its cover with the same ids and leaves, so
no reading and no verdict is lost.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache

from .bank import analyze, base_name, default_bank
from .earley import parse, span_tables
from .grammar import CONSTRUCTS, NT, Pcfg, Slot

PARSE_LIMIT = 50

# The withheld structures: flag name (printed in the violation), the pattern
# that withholds it and the base production ids that realize it.  A training
# parse that uses any of these ids, or an embedded copy of one, is a leak.
WITHHELD_STRUCTURES = {
    "pp_on_subj": ("pp_in_subj", {"np_subj_pp", "np_isubj_pp"}),
    "pp_on_iobj": ("pp_in_iobj", {"np_iobj_pp"}),
    "rc_on_subj": ("rc_in_subj", {"np_subj_rcs", "np_subj_rco"}),
    "rc_on_iobj": ("rc_in_iobj", {"np_iobj_rcs", "np_iobj_rco"}),
    "adj_on_subj": ("adj_in_subj", {"np_subj_adj"}),
    "adj_on_iobj": ("adj_in_iobj", {"np_iobj_adj"}),
    "rc_gap_iobj": ("rc_iobj_gap", {"rc_iobjgap", "np_dobj_rcio"}),
    "wh_gap_iobj": ("wh_iobj_gap", {"q_whoiobj"}),
    "wh_active_subj": ("wh_active_subj", {
        "q_whsubj_intrans", "q_whsubj_inf", "q_whsubj_objom", "q_whsubj_cp",
        "q_whsubj_do", "q_whsubj_ppdat"}),
    "wh_passive_subj": ("wh_passive_subj", {"q_whatpass", "q_whatpass_by"}),
    "wh_do_dit": ("wh_do_dit", {"q_whatdit"}),
    "wh_subj_pp": ("wh_subj_pp", {"np_whsubj_pp"}),
    "wh_long_move": ("wh_long_move", {"q_whlong"}),
}

# Recursion constructs and their shallower/deeper pattern ids.
DEPTH_PATTERNS = {
    "CP": ("cp_recursion_shallower", "cp_recursion_deeper"),
    "PP": ("pp_recursion_shallower", "pp_recursion_deeper"),
    "CenterEmbedRC": ("ce_recursion_shallower", "ce_recursion_deeper"),
    "Adj": ("adj_recursion_shallower", "adj_recursion_deeper"),
}
WITHHELD_DEPTH = 3
REQUIRED_DEPTHS = (1, 2, 4)

# Verb-slot base stems normalized to a canonical frame name.  Embedded and
# free-clause copies of a frame (`bank.base_name`), its relative-clause and
# wh-question variants count as the frame itself, and frames that are
# surface-identical (plain intransitive, object omission, unaccusative)
# collapse together: the gap is about observable usage.
_CANON_FRAME = {
    "rc": "trans", "rcs": "trans", "wht": "trans", "whts": "trans",
    "objom": "intrans", "unacc": "intrans",
    "rcsdo": "do",
    "rcio": "dit",
}


@cache
def _canon_frame(frame):
    frame = base_name(frame)
    return _CANON_FRAME.get(frame, frame)


# Wh-question and iobj-gap ditransitives surface under one slot tag that
# does not distinguish double-object from prepositional datives; a cell
# with this frame is licensed when either dative realization is.
_EITHER_DATIVE = ("do", "ppdat")

# Licensed (frame, tense, voice) cells for each verb-targeting pattern.
# A target verb observed in training outside its pattern's cell set is a
# leak of the withheld combination.
_A, _P = "active", "passive"
VERB_LICENSES = {
    "prim_to_inf_verb": frozenset(),  # bare citation forms only
    "tense_dit": frozenset({("do", "past", _A), ("ppdat", "past", _A)}),
    "tense_inf": frozenset({("inf", "past", _A)}),
    "tense_cp": frozenset({("cp", "past", _A)}),
    "trans_to_dit": frozenset({
        ("trans", "past", _A), ("trans", "pres", _A),
        ("do", "past", _A), ("ppdat", "past", _A)}),
    "trans_to_inf": frozenset({
        ("trans", "past", _A), ("trans", "pres", _A), ("inf", "past", _A)}),
    "trans_to_cp": frozenset({
        ("trans", "past", _A), ("trans", "pres", _A), ("cp", "past", _A)}),
    "active_to_passive": frozenset({
        ("trans", "past", _A), ("trans", "pres", _A)}),
    "passive_to_active": frozenset({("pass", "past", _P)}),
    "objom_to_trans": frozenset({
        ("intrans", "past", _A), ("intrans", "pres", _A)}),
    "unacc_to_trans": frozenset({
        ("intrans", "past", _A), ("intrans", "pres", _A)}),
    "do_to_pp": frozenset({("do", "past", _A), ("do", "pres", _A)}),
    "pp_to_do": frozenset({("ppdat", "past", _A), ("ppdat", "pres", _A)}),
}

# Licensed grammatical roles for each noun-targeting lexical pattern.  The
# primitive-exposure patterns license no sentential role at all: their
# targets appear in training only as bare citation forms.
NOUN_LICENSES = {
    "subj_to_obj_common": frozenset({"subject"}),
    "subj_to_obj_proper": frozenset({"subject"}),
    "obj_to_subj_common": frozenset({"direct_object", "indirect_object"}),
    "obj_to_subj_proper": frozenset({"direct_object", "indirect_object"}),
    "prim_to_subj_common": frozenset(),
    "prim_to_subj_proper": frozenset(),
    "prim_to_obj_common": frozenset(),
    "prim_to_obj_proper": frozenset(),
}


@dataclass(frozen=True)
class GapViolation:
    pattern_id: str
    kind: str  # "leak", "unparsable", or "missing_prerequisite"
    detail: str
    record_id: str = ""

    def __str__(self):
        where = f" [{self.record_id}]" if self.record_id else ""
        return f"{self.pattern_id}: {self.kind}: {self.detail}{where}"


def _slot_unions(grammars):
    """{(pos, bundle, tag): the union of that slot's lemma sets over
    ``grammars``}, None for a slot that some grammar leaves unrestricted."""
    unions = {}
    for g in grammars:
        for prod in g.productions:
            for s in prod.rhs:
                if isinstance(s, Slot):
                    key = (s.pos, s.bundle, s.tag)
                    known = unions.get(key, frozenset())
                    unions[key] = None if s.lemmas is None or known is None \
                        else known | s.lemmas
    return unions


def _rule(prod):
    """(left-hand side, label, children) of ``prod``: its label is what a
    covering production shares with it, the id, construct and terminals
    with each nonterminal's place held by None; its children are the
    nonterminals' names."""
    return (prod.lhs,
            (prod.id, prod.construct,
             tuple(None if isinstance(s, NT) else s for s in prod.rhs)),
            tuple(s.name for s in prod.rhs if isinstance(s, NT)))


def _simulation(rules):
    """The simulation preorder over the nonterminals of ``rules`` (as
    ``_rule`` gives them), as the set of pairs (X, Y) with X <= Y: the
    greatest relation in which each production of X is covered by one of
    Y.  Starting from every pair, a sweep drops each pair that some
    production of X no longer finds a cover for, until a sweep drops none
    (Henzinger, Henzinger & Kopke 1995 give a faster algorithm; the audit
    grammar is small)."""
    by_lhs = {}  # lhs -> label -> children tuples
    for lhs, label, kids in rules:
        by_lhs.setdefault(lhs, {}).setdefault(label, set()).add(kids)
    names = set(by_lhs).union(*(kids for _, _, kids in rules))
    sim = {(x, y) for x in names for y in names}
    while True:
        lost = {(x, y) for x, y in sim
                if not all(any(all(pair in sim for pair in zip(kids, cover))
                               for cover in by_lhs.get(y, {}).get(label, ()))
                           for label, group in by_lhs.get(x, {}).items()
                           for kids in group)}
        if not lost:
            return sim
        sim -= lost


def audit_grammar(bank, patterns) -> Pcfg:
    """Union of the in-distribution and all pattern grammars, each slot
    widened to the union of its (pos, bundle, tag) lemma sets over them, so
    withheld material parses wherever any grammar puts it.

    One production per reading: a production is dropped when a sibling on
    its left-hand side covers it and comes earlier or is not itself covered
    by it.  q covers p when both have the same id, construct and terminals
    (slots compared after widening) and each nonterminal child of p is
    simulated by q's child in the same place (``_simulation``).  Every
    tree through p then has a twin through q with the same ids and leaves,
    and so the same analysis.  Covering is transitive, so a kept sibling
    covers each dropped production and no reading is lost.  Identical
    productions cover each other, and the first is kept.

    Surviving productions sharing an id but differing in shape (a pattern
    grammar repurposing an id under another nonterminal) are kept under
    suffixed ids; analyses only depend on slot tags, constructs and the ids
    of ``WITHHELD_STRUCTURES`` and ``rc_objgap``, none of which are
    suffixed.
    """
    grammars = [bank.grammar]
    grammars.extend(p.gen_grammar for p in patterns)
    unions = _slot_unions(grammars)
    prods = [replace(prod, rhs=tuple(
                replace(s, lemmas=unions[s.pos, s.bundle, s.tag])
                if isinstance(s, Slot) else s for s in prod.rhs))
             for g in grammars for prod in g.productions]
    rules = [_rule(p) for p in prods]
    sim = _simulation(rules)

    def covers(j, i):
        """Whether production j covers production i."""
        return rules[j][1] == rules[i][1] and all(
            pair in sim for pair in zip(rules[i][2], rules[j][2]))

    siblings = {}
    for i, (lhs, _, _) in enumerate(rules):
        siblings.setdefault(lhs, []).append(i)
    merged, copies = [], {}
    for i, p in enumerate(prods):
        if any(covers(j, i) and (j < i or not covers(i, j))
               for j in siblings[p.lhs]):
            continue
        n = copies.get(p.id, 0)
        copies[p.id] = n + 1
        merged.append(replace(p, id=f"{p.id}__{n}") if n else p)
    return Pcfg("ROOT", merged, bank.lexicon, 1.0)


def segment(tokens):
    """Sentence segments of a (possibly concatenated) source token list."""
    segs, cur = [], []
    for tok in tokens:
        cur.append(tok)
        if tok in (".", "?"):
            segs.append(cur)
            cur = []
    if cur:
        segs.append(cur)
    return segs


class GapAuditor:
    """Stateful single pass over training records.

    Call :meth:`consume` for every training record, then
    :meth:`prerequisite_violations` once.  Leakage violations accumulate in
    :attr:`violations`; :attr:`facts` gathers what the charged readings
    show, as tuples: ``("bare", lemma)``, ``("role", lemma, role)``,
    ``("cell", lemma, frame, tense, voice)``, ``("frame", frame)``,
    ``("depth", construct, d)`` and ``("question",)``.
    """

    def __init__(self, patterns, bank=None):
        bank = bank if bank is not None else default_bank()
        patterns = list(patterns)
        self.grammar = audit_grammar(bank, patterns)
        self._starts = span_tables(self.grammar).first[self.grammar.start]
        self._target_patterns = {}
        for p in patterns:
            for lemma in p.target_lexemes:
                self._target_patterns.setdefault(lemma, []).append(p.id)
        self._prerequisites = _prerequisites(patterns)
        self.violations = []
        self.facts = set()

    # -- per-record leak checks -------------------------------------------

    def consume(self, record):
        for seg in segment(record.source_tokens):
            if len(seg) == 1 and seg[0] not in (".", "?"):
                # A lone token is a citation form: the lemma itself.
                self.facts.add(("bare", seg[0]))
                continue
            self._consume_segment(record, seg)

    def _consume_segment(self, record, seg):
        # A capitalized first token that cannot start a sentence is a
        # sentence-initial capital: only the lowered form can parse.
        trees = []
        if seg[0] in self._starts or not seg[0][:1].isupper():
            trees = parse(self.grammar, seg, limit=PARSE_LIMIT)
        if not trees and seg[0][:1].isupper():
            lowered = [seg[0][0].lower() + seg[0][1:]] + seg[1:]
            trees = parse(self.grammar, lowered, limit=PARSE_LIMIT)
        if not trees:
            self.violations.append(GapViolation(
                "", "unparsable", "no parse under the audit grammar",
                record.id))
            return
        # Charge the segment with its most innocent reading.
        best = None
        for tree in trees:
            an = analyze(tree)
            viols = self._analysis_violations(an, record.id)
            if best is None or len(viols) < len(best[0]):
                best = (viols, an)
            if not viols:
                break
        viols, an = best
        self.violations.extend(viols)
        self._record_facts(an, seg)

    def _analysis_violations(self, an, record_id):
        out = []
        for lemma, role in an.lemma_roles:
            for pid in self._target_patterns.get(lemma, ()):
                allowed = NOUN_LICENSES.get(pid)
                if allowed is not None and role not in allowed:
                    out.append(GapViolation(
                        pid, "leak", f"target {lemma!r} used as {role}",
                        record_id))
        for lemma, frame, tense, voice in an.verbs:
            cell = (_canon_frame(frame), tense, voice)
            for pid in self._target_patterns.get(lemma, ()):
                allowed = VERB_LICENSES.get(pid)
                if allowed is None:
                    continue
                if cell[0] == "dit":
                    if any((f, tense, voice) in allowed
                           for f in _EITHER_DATIVE):
                        continue
                if cell not in allowed:
                    out.append(GapViolation(
                        pid, "leak",
                        f"target {lemma!r} in withheld cell {cell}",
                        record_id))
        ids = {base_name(i) for i in an.ids}
        for flag, (pid, flagged) in WITHHELD_STRUCTURES.items():
            if not ids.isdisjoint(flagged):
                out.append(GapViolation(
                    pid, "leak", f"withheld structure {flag}", record_id))
        for construct, (shallow, deep) in DEPTH_PATTERNS.items():
            d = an.depths.get(construct, 0)
            if d == WITHHELD_DEPTH:
                out.append(GapViolation(
                    shallow, "leak",
                    f"{construct} recursion depth {d}", record_id))
            elif d > WITHHELD_DEPTH + 1:
                out.append(GapViolation(
                    deep, "leak",
                    f"{construct} recursion depth {d}", record_id))
        return out

    def _record_facts(self, an, seg):
        facts = self.facts
        facts.update(("role", lemma, role) for lemma, role in an.lemma_roles)
        for lemma, frame, tense, voice in an.verbs:
            canon = _canon_frame(frame)
            facts.add(("cell", lemma, canon, tense, voice))
            facts.add(("frame", canon))
        facts.update(("depth", c, an.depths.get(c, 0)) for c in CONSTRUCTS)
        if seg[-1] == "?":
            facts.add(("question",))

    # -- corpus-level prerequisite checks ---------------------------------

    def prerequisite_violations(self):
        return [GapViolation(pid, "missing_prerequisite", detail)
                for pid, detail, meets in self._prerequisites
                if self.facts.isdisjoint(meets)]


# Structural prerequisites: (detail, the fact that meets it) per pattern.
_PP = ("no PP-modified phrase", ("depth", "PP", 1))
_RC = ("no relative clause", ("depth", "CenterEmbedRC", 1))
_ADJ = ("no adjective-modified phrase", ("depth", "Adj", 1))
_DO = ("no double-object sentence", ("frame", "do"))
_Q = ("no question sentence", ("question",))
_STRUCT_PREREQS = {
    "pp_in_subj": [_PP],
    "pp_in_iobj": [_PP, _DO],
    "rc_in_subj": [_RC],
    "rc_in_iobj": [_RC, _DO],
    "adj_in_subj": [_ADJ],
    "adj_in_iobj": [_ADJ, _DO],
    **{pid: [(f"no {construct} depth-{d} sentence", ("depth", construct, d))
             for d in REQUIRED_DEPTHS]
       for construct, pids in DEPTH_PATTERNS.items() for pid in pids},
    "rc_iobj_gap": [_RC, _DO],
    "wh_iobj_gap": [_Q],
    "wh_active_subj": [_Q],
    "wh_passive_subj": [_Q, ("no passive sentence", ("frame", "pass"))],
    "wh_do_dit": [_Q, _DO],
    "wh_subj_pp": [_Q, _PP],
    "wh_long_move": [_Q, ("no complement clause", ("depth", "CP", 1))],
}


def _prerequisites(patterns):
    """(pattern id, detail, facts any one of which meets it) for every
    prerequisite, in pattern order.  A target lexeme with licensed uses
    needs one of them; one with none needs a bare exposure."""
    rows = []
    for p in patterns:
        if p.id in NOUN_LICENSES or p.id in VERB_LICENSES:
            for lemma in p.target_lexemes:
                meets = {("role", lemma, role)
                         for role in NOUN_LICENSES.get(p.id, ())}
                meets |= {("cell", lemma) + cell
                          for cell in VERB_LICENSES.get(p.id, ())}
                if meets:
                    rows.append((p.id, f"no licensed use of {lemma!r}", meets))
                else:
                    rows.append((p.id, f"no bare exposure of {lemma!r}",
                                 {("bare", lemma)}))
        for detail, fact in _STRUCT_PREREQS.get(p.id, ()):
            rows.append((p.id, detail, {fact}))
    return rows


def audit_gap(records, patterns, bank=None):
    """All leakage and missing-prerequisite violations for a training set.

    ``records`` is the iterable of training records (other splits carry no
    gap obligations); ``patterns`` the full pattern inventory.
    """
    auditor = GapAuditor(patterns, bank=bank)
    for record in records:
        auditor.consume(record)
    return auditor.violations + auditor.prerequisite_violations()
