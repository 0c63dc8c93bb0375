"""The 42 generalization patterns.

Each pattern holds its target lexemes, a dedicated generalization grammar,
the constraint variants cycled during generation (complement-clause
embedding on/off, exact recursion depths), and the primitive-exposure
recipes that seed the training set with the pattern's prerequisites.  Each
production carries its own transduction template.

Shared productions.  A pattern grammar is the training grammar with one
combination moved out of it, so every production whose id the training
grammar defines is taken from it by `_copy`: the copy keeps the training
production's template and construct, and may rename nonterminals, give
the slots of a tag another lemma pool, take the pattern's weight, or take
a new id.  The gap audit reads the ids (those of
`audit.WITHHELD_STRUCTURES`, and `rc_objgap` for the relative-clause gap
link in analysis), so a shared id carries one template and one construct
in all 43 grammars; `tests/test_patterns.py` checks it.

Embedded copies.  34 patterns test their withheld combination both in a
matrix clause and in a clause embedded under "X thought that ...".  Each
matrix clause and noun phrase is written once; `_with_embedded` and
`bank`'s `_emb_clause`, `_np` and `_pairs` derive the copy by the naming
rule that `bank` defines, writes and reads back for analysis and the audit.

Written by hand instead, because the training grammar does not define
them: the withheld structures (`np_subj_pp`, ...) and the other
pattern-specific noun phrases, kept on `bank`'s `np_pair`, `_pairs` and
`_np`; the wh-questions other than `q_whatobj`; `np_osubj_*` and
`rc_iobjgap`; and `_gen_pres_cp`'s free (`f`-tag) clauses and its
present-tense `semb_cp` on SEMB_T.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .grammar import Constraints, NT, Pcfg, Slot
from .bank import (
    DET, L, GrammarSpec, in_distribution_spec, n, np_pair, pn, v,
    _emb_clause, _np, _pairs,
    ACT2PASS, DO2PP, OBJ2SUBJ_C, OBJ2SUBJ_P, OBJOM2TRANS, PASS2ACT, PP2DO,
    PRIM_OBJ_C, PRIM_OBJ_P, PRIM_SUBJ_C, PRIM_SUBJ_P, PRIM_VERBS,
    SUBJ2OBJ_C, SUBJ2OBJ_P, TENSE_CP, TENSE_DIT, TENSE_INF,
    TRANS2CP, TRANS2DIT, TRANS2INF, UNACC2TRANS,
    FREE_ANIM, FREE_PROP, INANIM_POOL,
    V_CP_PAST, V_CP_PRES, V_DO_PAST, V_INFBASE, V_INF_PAST, V_INTRANS,
    V_OBJOM, V_PASS, V_PPDAT_PAST, V_TRANS_SAFE, V_UNACC,
)
from .lexdata import CASE_FRAMES

F = Fraction

# Verbs safe for clauses that must never trigger a selectional repair.
V_UNACC_SAFE = tuple(x for x in V_UNACC if x != "bloom")
FREE_MIXED = FREE_ANIM + INANIM_POOL

# Lemma pools, by slot tag, for the shared slots that a pattern keeps away
# from selectional repairs.
_SAFE = {"v:trans:past": V_TRANS_SAFE, "v:etrans:past": V_TRANS_SAFE,
         "v:rc:past": V_TRANS_SAFE, "v:rcs:past": V_TRANS_SAFE,
         "v:unacc:past": V_UNACC_SAFE}

T_MOD = "$2 $1"   # det noun modifier -> modifier-first in the target
T_ADJ = "$1 $2"


@dataclass
class PatternSpec:
    id: str
    category: str
    group: str
    target_lexemes: tuple
    gen_count: int
    target_kind: str  # "np" | "verb" | "wh" | "none"
    gen_grammar: Pcfg
    variants: tuple  # of (required ids, forbidden ids, depth pairs)
    # exposure recipes, cycled to 100 records: ("bare", pos, lemma), or
    # ("sample", required ids, slot overrides, depth pairs) over the
    # training grammar
    exposures: tuple
    wh_word: str = ""
    expected_role: str = ""
    embed_marker: str = ""

    def constraints_for(self, index: int) -> Constraints:
        required, forbidden, depths = self.variants[index % len(self.variants)]
        return Constraints(frozenset(required), frozenset(forbidden), depths)


# --------------------------------------------------------------------------
# Grammar-building helpers
# --------------------------------------------------------------------------

# The training grammar's productions, by id: the one source of every
# production a pattern grammar shares with it.
_TRAINING = {p.id: p for p in in_distribution_spec().prods}


def _copy(g, pid, weight, names=None, pools=None, new_id=None):
    """Add to `g` the training production `pid` with `weight`, its
    nonterminals (the left-hand side too) renamed by `names`, the slots of
    each tag in `pools` drawing from that tag's pool, and `new_id` as its
    id if given; return it."""
    names, pools = names or {}, pools or {}

    def copy_sym(s):
        if isinstance(s, NT):
            return NT(names.get(s.name, s.name))
        if isinstance(s, Slot) and s.tag in pools:
            return replace(s, lemmas=frozenset(pools[s.tag]))
        return s

    p = _TRAINING[pid]
    p = replace(p, id=new_id or pid, lhs=names.get(p.lhs, p.lhs),
                rhs=tuple(map(copy_sym, p.rhs)), weight=F(weight))
    g.prods.append(p)
    return p


def _base(g, question=False):
    _copy(g, "root_q" if question else "root_decl", 1)
    _copy(g, "det_the", F(1, 2))
    _copy(g, "det_a", F(1, 2))


def _clauses(g, clauses, mass=F(1)):
    """`_copy` each `(pid, rel, names, pools, new_id)`, the last three
    optional, with its relative weight `rel` scaled to `mass`; return the
    copies."""
    total = sum(rel for _pid, rel, *_rest in clauses)
    return [_copy(g, pid, mass * F(rel, total), *rest)
            for pid, rel, *rest in clauses]


def _embed(g, cp_nt="CP", marker="cp_clause", semb_nt="SEMB"):
    """Outer complement-clause scaffold on half the S mass: free subject +
    free CP verb."""
    _copy(g, "s_cp_past", F(1, 2), {"NP_SUBJ": "NP_OSUBJ", "CP": cp_nt},
          {"v:cp:past": V_CP_PRES})
    _copy(g, "cp_clause", 1, {"CP": cp_nt, "SEMB": semb_nt}, new_id=marker)
    np_pair(g, "osubj", FREE_ANIM, FREE_PROP)


def _with_embedded(g, clauses):
    """`_clauses` on half the S mass, the complement-clause scaffold, and
    each clause's embedded copy on SEMB with the same relative weight."""
    matrix = _clauses(g, clauses, F(1, 2))
    _embed(g)
    for p in matrix:  # SEMB holds only the copies: twice the S weights
        _emb_clause(g, p.id, 2 * p.weight)


def _sample_exposures(plans, targets=None):
    """Exposure recipes over the training grammar: one per target x plan."""
    out = []
    for t in (targets or (None,)):
        for plan in plans:
            if isinstance(plan, tuple):
                pid, tag = plan
                out.append(("sample", frozenset([pid]),
                            {tag: (t,)} if t else {}, ()))
            else:
                out.append(("sample", frozenset([plan]), {}, ()))
    return tuple(out)


def _bare_exposures(pos, targets):
    return tuple(("bare", pos, t) for t in targets)


def _depth_exposures(construct):
    return tuple(("sample", frozenset(), {}, ((construct, d),))
                 for d in (1, 2, 4))


# --------------------------------------------------------------------------
# Primitive substitution
# --------------------------------------------------------------------------


def _gen_subject(targets, proper, include_do=True, include_objom=False):
    """Targets in the (animate) subject position of simple clauses."""
    g = GrammarSpec()
    _base(g)
    subj = {"NP_SUBJ": "NP_TSUBJ"}
    clauses = [("s_trans_past", 5, subj, _SAFE), ("s_intrans_past", 2, subj)]
    if include_do:
        clauses.append(("s_do_past", 2, subj))
    if include_objom:
        clauses.append(("s_objom_past", 1, subj))
    _with_embedded(g, clauses)
    if proper:
        _np(g, "np_subj_p", "NP_TSUBJ", [pn("n:subj:p", targets)], F(1),
            "$0", annot=True)
    else:
        _np(g, "np_subj_c", "NP_TSUBJ", [DET, n("n:subj:c", targets)], F(1),
            "$1", annot=True)
    _pairs(g, "dobj", FREE_MIXED, FREE_PROP)
    if include_do:
        _pairs(g, "iobj", FREE_ANIM, FREE_PROP)
    return g


def _gen_dobj_common(targets):
    """Targets as the direct object of transitive/ditransitive clauses."""
    g = GrammarSpec()
    _base(g)
    tobj = {"NP_DOBJ": "NP_TOBJ"}
    _with_embedded(g, [("s_trans_past", 5, tobj, _SAFE),
                       ("s_do_past", 3, tobj), ("s_ppdat_past", 2, tobj)])
    _np(g, "np_dobj_c", "NP_TOBJ", [DET, n("n:dobj:c", targets)], F(1), "$1",
        annot=True)
    _pairs(g, "subj", FREE_ANIM, FREE_PROP)
    _pairs(g, "iobj", FREE_ANIM, FREE_PROP)
    return g


def _gen_obj_proper(targets):
    """Proper-noun targets as direct object (trans) or recipient (DO)."""
    g = GrammarSpec()
    _base(g)
    _with_embedded(g, [("s_trans_past", 3, {"NP_DOBJ": "NP_TOBJ"}, _SAFE),
                       ("s_do_past", 2, {"NP_IOBJ": "NP_TIOBJ"})])
    _np(g, "np_dobj_p", "NP_TOBJ", [pn("n:dobj:p", targets)], F(1), "$0",
        annot=True)
    _np(g, "np_iobj_p", "NP_TIOBJ", [pn("n:iobj:p", targets)], F(1), "$0",
        annot=True)
    _np(g, "np_dobj_c", "NP_DOBJ", [DET, n("n:dobj:c", FREE_MIXED)], F(1),
        "$1")
    _pairs(g, "subj", FREE_ANIM, FREE_PROP)
    return g


def _gen_prim_obj_proper(targets):
    """Proper-noun targets as recipients and objects, incl. passive dative."""
    g = GrammarSpec()
    _base(g)
    tiobj = {"NP_IOBJ": "NP_TIOBJ"}
    _with_embedded(g, [("s_passdat", 2, tiobj),
                       ("s_trans_past", 2, {"NP_DOBJ": "NP_TOBJ"}, _SAFE),
                       ("s_ppdat_past", 1, tiobj)])
    _np(g, "np_iobj_p", "NP_TIOBJ", [pn("n:iobj:p", targets)], F(1), "$0",
        annot=True)
    _np(g, "np_dobj_p", "NP_TOBJ", [pn("n:dobj:p", targets)], F(1), "$0",
        annot=True)
    _np(g, "np_psubj_c", "NP_PSUBJ", [DET, n("n:psubj:c", INANIM_POOL)], F(1),
        "$1")
    _np(g, "np_dobj_c", "NP_DOBJ", [DET, n("n:dobj:c", INANIM_POOL)], F(1),
        "$1")
    _pairs(g, "subj", FREE_ANIM, FREE_PROP)
    return g


def _gen_prim_inf():
    """Primitive verbs as the infinitival complement."""
    g = GrammarSpec()
    _base(g)
    _with_embedded(g, [("s_inf_past", 1, None, {"v:infbase": PRIM_VERBS})])
    _pairs(g, "subj", FREE_ANIM, FREE_PROP)
    return g


# --------------------------------------------------------------------------
# Tense alternation
# --------------------------------------------------------------------------


def _gen_pres_dit(targets):
    g = GrammarSpec()
    _base(g)
    _with_embedded(g, [("s_do_pres", 1, None, {"v:do:pres": targets}),
                       ("s_ppdat_pres", 1, None, {"v:ppdat:pres": targets})])
    _pairs(g, "subj", FREE_ANIM, FREE_PROP)
    _pairs(g, "iobj", FREE_ANIM, FREE_PROP)
    _pairs(g, "dobj", FREE_MIXED, FREE_PROP)
    return g


def _gen_pres_inf(targets):
    g = GrammarSpec()
    _base(g)
    _with_embedded(g, [("s_inf_pres", 1, None, {"v:inf:pres": targets})])
    _pairs(g, "subj", FREE_ANIM, FREE_PROP)
    return g


def _gen_pres_cp(targets):
    """Present-tense complement-taking targets; the embedded half wraps the
    target clause inside a further (past) complement clause."""
    g = GrammarSpec()
    _base(g)
    _copy(g, "s_cp_pres", F(1, 2), pools={"v:cp:pres": targets})
    _embed(g, cp_nt="CP_T", marker="cp_clause_t", semb_nt="SEMB_T")
    g.add("semb_cp", "SEMB_T",
          [NT("NP_ESUBJ"), v("v:ecp:pres", "pres", targets), NT("CP")],
          F(1), "$0 ga $2 @morph(1)")
    _copy(g, "cp_clause", 1)
    g.add("semb_trans", "SEMB",
          [NT("NP_FSUBJ"), v("v:ftrans:past", "past", V_TRANS_SAFE),
           NT("NP_FDOBJ")], F(3, 10), "$0 ga $2 o @morph(1)")
    g.add("semb_intrans", "SEMB",
          [NT("NP_FSUBJ"), v("v:fintrans:past", "past", V_INTRANS)],
          F(2, 10), "$0 ga @morph(1)")
    g.add("semb_pass", "SEMB",
          [NT("NP_FPSUBJ"), L("was"), v("v:fpass", "part", V_PASS)],
          F(2, 10), "$0 ga @morph(2)")
    g.add("semb_pass_by", "SEMB",
          [NT("NP_FPSUBJ"), L("was"), v("v:fpass", "part", V_PASS),
           L("by"), NT("NP_FAGENT")], F(2, 10), "$0 ga $4 niyotte @morph(2)")
    g.add("semb_unacc", "SEMB",
          [NT("NP_FISUBJ"), v("v:funacc:past", "past", V_UNACC_SAFE)],
          F(1, 10), "$0 ga @morph(1)")
    _pairs(g, "subj", FREE_ANIM, FREE_PROP)
    np_pair(g, "fsubj", FREE_ANIM, FREE_PROP)
    np_pair(g, "fdobj", FREE_MIXED, FREE_PROP)
    np_pair(g, "fpsubj", FREE_MIXED, FREE_PROP)
    np_pair(g, "fagent", FREE_ANIM, FREE_PROP)
    g.add("np_fisubj", "NP_FISUBJ", [DET, n("n:fisubj", INANIM_POOL)], F(1),
          "$1")
    return g


# --------------------------------------------------------------------------
# Primitive structural alternation
# --------------------------------------------------------------------------


def _gen_passive(targets):
    g = GrammarSpec()
    _base(g)
    _with_embedded(g, [("s_pass", 2, None, {"v:pass": targets}),
                       ("s_pass_by", 3, None, {"v:pass": targets})])
    _pairs(g, "psubj", FREE_MIXED, FREE_PROP)
    _pairs(g, "agent", FREE_ANIM, FREE_PROP)
    return g


def _gen_active_trans(targets, dobj_common, dobj_proper=None):
    """Targets used transitively (gen side of passive-only / object-omitted /
    unaccusative training verbs)."""
    g = GrammarSpec()
    _base(g)
    safe = tuple(t for t in targets
                 if t not in {verb for verb, _role, _ns in CASE_FRAMES})
    framed = tuple(t for t in targets if t not in safe)
    clauses = [("s_trans_past", len(safe), None, {"v:trans:past": safe})]
    if framed:
        clauses.append(("s_trans_past", len(framed), {"NP_DOBJ": "NP_CFOBJ"},
                        {"v:trans:past": framed}, "s_trans_past_cf"))
    _with_embedded(g, clauses)
    if framed:
        pool = tuple(sorted({x for verb, role, nouns in CASE_FRAMES
                             if verb in framed and role == "direct_object"
                             for x in nouns}))
        _np(g, "np_dobj_cf", "NP_CFOBJ", [DET, n("n:dobj:cf", pool)], F(1),
            "$1")
    if dobj_proper:
        _pairs(g, "dobj", dobj_common, dobj_proper)
    else:
        _np(g, "np_dobj_c", "NP_DOBJ", [DET, n("n:dobj:c", dobj_common)],
            F(1), "$1")
    _pairs(g, "subj", FREE_ANIM, FREE_PROP)
    return g


def _gen_dat(targets, double_object):
    """Targets in the unseen dative frame (DO -> PP or PP -> DO), past."""
    g = GrammarSpec()
    _base(g)
    if double_object:
        clause = ("s_do_past", 1, None, {"v:do:past": targets})
    else:
        clause = ("s_ppdat_past", 1, None, {"v:ppdat:past": targets})
    _with_embedded(g, [clause])
    _pairs(g, "subj", FREE_ANIM, FREE_PROP)
    _pairs(g, "iobj", FREE_ANIM, FREE_PROP)
    _pairs(g, "dobj", FREE_MIXED, FREE_PROP)
    return g


# --------------------------------------------------------------------------
# Phrase recombination
# --------------------------------------------------------------------------


def _add_pp(g, nesting=F(0)):
    _copy(g, "pp_mod", 1)
    _copy(g, "np_ppn", 1 - nesting)
    if nesting:
        _copy(g, "np_ppn_pp", nesting)


def _add_rc(g, nesting=F(0)):
    _copy(g, "rc_objgap", 1, pools=_SAFE)
    free = {"n:cesubj:c": FREE_ANIM, "n:cesubj:p": FREE_PROP}
    rest = 1 - nesting
    _copy(g, "np_cesubj_c", rest * F(65, 100), pools=free)
    _copy(g, "np_cesubj_p", rest * F(35, 100), pools=free)
    if nesting:
        _copy(g, "np_cesubj_rc", nesting, pools=free)


def _add_rc_subjgap(g):
    _copy(g, "rc_subjgap_t", F(7, 10), pools=_SAFE)
    _copy(g, "rc_subjgap_do", F(3, 10))
    np_pair(g, "rcobj", FREE_MIXED, FREE_PROP)
    np_pair(g, "rciobj", FREE_ANIM, FREE_PROP)


def _add_modifiers(g, kind, nt, stem):
    """A PP / RC / adjective modifier on `nt`, an animate common noun
    tagged `n:<stem>:c`, and on its embedded copy; the target constituent."""
    noun = n(f"n:{stem}:c", FREE_ANIM)
    if kind == "pp":
        _add_pp(g)
        _np(g, f"np_{stem}_pp", nt, [DET, noun, NT("PP")], F(1), T_MOD,
            annot=True)
    elif kind == "rc":
        _add_rc(g)
        _add_rc_subjgap(g)
        _np(g, f"np_{stem}_rco", nt, [DET, noun, NT("RC_OBJ")], F(1, 2),
            T_MOD, annot=True)
        _np(g, f"np_{stem}_rcs", nt, [DET, noun, NT("RC_SUBJ")], F(1, 2),
            T_MOD, annot=True)
    else:
        _copy(g, "adj_one", 1)
        _np(g, f"np_{stem}_adj", nt, [DET, NT("ADJSEQ"), noun], F(1), T_ADJ,
            annot=True)


def _gen_mod_subj(kind):
    """A PP / RC / adjective modifier on the subject."""
    g = GrammarSpec()
    _base(g)
    msubj = {"NP_SUBJ": "NP_MSUBJ"}
    if kind == "pp":
        other = ("s_unacc_past", 2, {"NP_ISUBJ": "NP_MISUBJ"}, _SAFE)
    else:
        other = ("s_intrans_past", 2, msubj)
    _with_embedded(g, [("s_trans_past", 3, msubj, _SAFE), other])
    _add_modifiers(g, kind, "NP_MSUBJ", "subj")
    if kind == "pp":
        _np(g, "np_isubj_pp", "NP_MISUBJ",
            [DET, n("n:isubj", INANIM_POOL), NT("PP")], F(1), T_MOD,
            annot=True)
    _pairs(g, "dobj", FREE_MIXED, FREE_PROP)
    return g


def _gen_mod_iobj(kind):
    """A PP / RC / adjective modifier on the indirect object."""
    g = GrammarSpec()
    _base(g)
    miobj = {"NP_IOBJ": "NP_MIOBJ"}
    _with_embedded(g, [("s_ppdat_past", 3, miobj), ("s_do_past", 2, miobj)])
    _add_modifiers(g, kind, "NP_MIOBJ", "iobj")
    _pairs(g, "subj", FREE_ANIM, FREE_PROP)
    _pairs(g, "dobj", FREE_MIXED, FREE_PROP)
    return g


# --------------------------------------------------------------------------
# Recursion depth alternation
# --------------------------------------------------------------------------


# Weight of nesting once more in a recursion grammar.  Every record drawn
# from one fixes its depth exactly, which forces each nesting choice, so
# the weight shapes only plain draws, and the build makes none from them.
NEST_WEIGHT = F(7, 10)


def _gen_recursion(construct):
    """Grammar producing unbounded nesting of one construct; each record's
    exact depth comes from its constraints, on which the sampler
    conditions."""
    g = GrammarSpec()
    _base(g)
    rest = F(1) - NEST_WEIGHT
    if construct == "CP":
        _copy(g, "s_cp_past", 1)
        _copy(g, "cp_clause", 1)
        _clauses(g, [("semb_trans", 4, None, _SAFE), ("semb_intrans", 2),
                     ("semb_pass", 2), ("semb_pass_by", 2)], rest)
        _copy(g, "semb_cp", NEST_WEIGHT)
        _pairs(g, "subj", FREE_ANIM, FREE_PROP)
        np_pair(g, "edobj", FREE_MIXED, FREE_PROP)
        np_pair(g, "epsubj", FREE_MIXED, FREE_PROP)
        np_pair(g, "eagent", FREE_ANIM, FREE_PROP)
        return g
    # The other three constructs nest inside a (possibly CP-embedded)
    # transitive clause's direct object.
    _with_embedded(g, [("s_trans_past", 1, None, _SAFE)])
    if construct == "PP":
        _np(g, "np_dobj_pp", "NP_DOBJ",
            [DET, n("n:dobj:c", INANIM_POOL), NT("PP")], F(1), T_MOD)
        _add_pp(g, NEST_WEIGHT)
    elif construct == "CenterEmbedRC":
        _np(g, "np_dobj_rco", "NP_DOBJ",
            [DET, n("n:dobj:c", FREE_MIXED), NT("RC_OBJ")], F(1), T_MOD)
        _add_rc(g, NEST_WEIGHT)
    else:  # stacked adjectives
        _np(g, "np_dobj_adj", "NP_DOBJ",
            [DET, NT("ADJSEQ"), n("n:dobj:c", FREE_MIXED)], F(1), T_ADJ)
        _copy(g, "adj_one", rest)
        _copy(g, "adj_more", NEST_WEIGHT)
    _pairs(g, "subj", FREE_ANIM, FREE_PROP)
    return g


# --------------------------------------------------------------------------
# Gap position recombination and wh-question structural alternation
# --------------------------------------------------------------------------


def _gen_rc_iobj_gap():
    g = GrammarSpec()
    _base(g)
    _with_embedded(g, [("s_trans_past", 1, {"NP_DOBJ": "NP_GOBJ"}, _SAFE)])
    _np(g, "np_dobj_rcio", "NP_GOBJ",
        [DET, n("n:dobj:c", FREE_MIXED), NT("RC_IOBJ")], F(1), T_MOD,
        annot=True)
    g.add("rc_iobjgap", "RC_IOBJ",
          [L("that"), NT("NP_RCSUBJ"),
           v("v:rcio:past", "past", V_PPDAT_PAST), NT("NP_RCOBJ"), L("to")],
          F(1), "$1 ga $3 o @morph(2)")
    np_pair(g, "rcsubj", FREE_ANIM, FREE_PROP)
    _copy(g, "np_rcobj_c", 1, pools={"n:rcobj:c": INANIM_POOL})
    _pairs(g, "subj", FREE_ANIM, FREE_PROP)
    return g


def _gen_wh_iobj_gap():
    g = GrammarSpec()
    _base(g, question=True)
    g.add("q_whoiobj", "SQ",
          [L("Who"), L("did"), NT("NP_SUBJ"),
           v("v:dit:inf", "inf", V_PPDAT_PAST), NT("NP_DOBJ"), L("to"),
           L("?")],
          F(1), "$2 ga dare ni $4 o @morph(3,past) @q ?")
    np_pair(g, "subj", FREE_ANIM, FREE_PROP)
    np_pair(g, "dobj", FREE_MIXED, FREE_PROP)
    return g


def _gen_wh_active_subj():
    g = GrammarSpec()
    _base(g, question=True)
    g.add("q_whsubj_intrans", "SQ",
          [L("Who"), v("v:intrans:past", "past", V_INTRANS), L("?")],
          F(1, 10), "dare ga @morph(1) @q ?")
    g.add("q_whsubj_inf", "SQ",
          [L("Who"), v("v:inf:past", "past", V_INF_PAST), L("to"),
           v("v:infbase", "inf", V_INFBASE), L("?")],
          F(3, 10), "dare ga @morph(3,pres) koto o @morph(1) @q ?")
    g.add("q_whsubj_objom", "SQ",
          [L("Who"), v("v:objom:past", "past", V_OBJOM), L("?")],
          F(1, 10), "dare ga @morph(1) @q ?")
    g.add("q_whsubj_cp", "SQ",
          [L("Who"), v("v:cp:past", "past", V_CP_PAST), NT("CP"), L("?")],
          F(2, 10), "dare ga $2 @morph(1) @q ?")
    g.add("q_whsubj_do", "SQ",
          [L("Who"), v("v:do:past", "past", V_DO_PAST),
           NT("NP_IOBJ"), NT("NP_DOBJ"), L("?")],
          F(2, 10), "dare ga $2 ni $3 o @morph(1) @q ?")
    g.add("q_whsubj_ppdat", "SQ",
          [L("Who"), v("v:ppdat:past", "past", V_PPDAT_PAST),
           NT("NP_DOBJ"), L("to"), NT("NP_IOBJ"), L("?")],
          F(1, 10), "dare ga $2 o $4 ni @morph(1) @q ?")
    _copy(g, "cp_clause", 1)
    _clauses(g, [("semb_trans", 3, None, _SAFE), ("semb_intrans", 2)])
    np_pair(g, "esubj", FREE_ANIM, FREE_PROP)
    np_pair(g, "edobj", FREE_MIXED, FREE_PROP)
    np_pair(g, "iobj", FREE_ANIM, FREE_PROP)
    np_pair(g, "dobj", FREE_MIXED, FREE_PROP)
    return g


def _gen_wh_passive_subj():
    g = GrammarSpec()
    _base(g, question=True)
    g.add("q_whatpass", "SQ",
          [L("What"), L("was"), v("v:pass", "part", V_PASS), L("?")],
          F(1, 10), "nani ga @morph(2) @q ?")
    g.add("q_whatpass_by", "SQ",
          [L("What"), L("was"), v("v:pass", "part", V_PASS), L("by"),
           NT("NP_AGENT"), L("?")],
          F(9, 10), "nani ga $4 niyotte @morph(2) @q ?")
    np_pair(g, "agent", FREE_ANIM, FREE_PROP)
    return g


def _gen_wh_do_dit():
    g = GrammarSpec()
    _base(g, question=True)
    g.add("q_whatdit", "SQ",
          [L("What"), L("did"), NT("NP_SUBJ"),
           v("v:dit:inf", "inf", V_PPDAT_PAST), L("to"), NT("NP_IOBJ"),
           L("?")],
          F(1), "$2 ga nani o $5 ni @morph(3,past) @q ?")
    np_pair(g, "subj", FREE_ANIM, FREE_PROP)
    np_pair(g, "iobj", FREE_ANIM, FREE_PROP)
    return g


def _gen_wh_subj_pp():
    g = GrammarSpec()
    _base(g, question=True)
    _copy(g, "q_whatobj", 1, {"NP_SUBJ": "NP_WSUBJ"})
    g.add("np_whsubj_pp", "NP_WSUBJ",
          [DET, n("n:whsubj:c", FREE_ANIM), NT("PP")], F(1), T_MOD,
          annot=True)
    _add_pp(g)
    return g


def _gen_wh_long_move():
    g = GrammarSpec()
    _base(g, question=True)
    g.add("q_whlong", "SQ",
          [L("What"), L("did"), NT("NP_SUBJ"),
           v("v:cp:inf", "inf", V_CP_PAST), L("that"), NT("NP_ESUBJ"),
           v("v:etrans:inf", "inf", V_TRANS_SAFE), L("?")],
          F(1), "$2 ga $5 ga nani o @morph(6,past) to @morph(3,past) @q ?")
    np_pair(g, "subj", FREE_ANIM, FREE_PROP)
    np_pair(g, "esubj", FREE_ANIM, FREE_PROP)
    return g


# --------------------------------------------------------------------------
# The inventory
# --------------------------------------------------------------------------

PRIM_SUB = "PrimitiveSubstitution"
TENSE = "TenseAlternation"
PRIM_STRUCT = "PrimitiveStructuralAlternation"
PHRASE = "PhraseRecombination"
RECURSION = "RecursionDepthAlternation"
GAP = "GapPositionRecombination"
WH = "WhStructuralAlternation"

LEX = "Lexical"
LEXMOR = "LexicalMorphological"
STRUCT = "Structural"


def build_patterns(lexicon) -> list:
    specs = []

    def add(pid, category, group, targets, spec, kind, count=2000,
            marker="cp_clause", depths=(), exposures=(), wh_word="",
            role="", zipf=1.0):
        """`marker` is the id of the embedding complement clause, empty for
        a pattern that does not embed; `depths` lists (construct, depth)
        pairs, each fixed by its own variants."""
        variants = []
        for fixed in [(pair,) for pair in depths] or [()]:
            if marker:
                variants += [((marker,), (), fixed), ((), (marker,), fixed)]
            else:
                variants.append(((), (), fixed))
        specs.append(PatternSpec(
            pid, category, group, tuple(targets), count, kind,
            spec.grammar(lexicon, zipf_exponent=zipf), tuple(variants),
            tuple(exposures), wh_word, role, marker))

    # -- primitive substitution -------------------------------------------
    add("subj_to_obj_common", PRIM_SUB, LEX, SUBJ2OBJ_C,
        _gen_dobj_common(SUBJ2OBJ_C), "np",
        exposures=_sample_exposures([("np_subj_c", "n:subj:c")], SUBJ2OBJ_C))
    add("subj_to_obj_proper", PRIM_SUB, LEX, SUBJ2OBJ_P,
        _gen_obj_proper(SUBJ2OBJ_P), "np",
        exposures=_sample_exposures([("np_subj_p", "n:subj:p")], SUBJ2OBJ_P))
    add("obj_to_subj_common", PRIM_SUB, LEX, OBJ2SUBJ_C,
        _gen_subject(OBJ2SUBJ_C, proper=False), "np",
        exposures=_sample_exposures([("np_dobj_c", "n:dobj:c")], OBJ2SUBJ_C))
    add("obj_to_subj_proper", PRIM_SUB, LEX, OBJ2SUBJ_P,
        _gen_subject(OBJ2SUBJ_P, proper=True), "np",
        exposures=_sample_exposures([("np_dobj_p", "n:dobj:p")], OBJ2SUBJ_P))
    add("prim_to_subj_common", PRIM_SUB, LEX, PRIM_SUB_C := PRIM_SUBJ_C,
        _gen_subject(PRIM_SUB_C, proper=False, include_do=False), "np",
        exposures=_bare_exposures("CommonNoun", PRIM_SUB_C))
    add("prim_to_subj_proper", PRIM_SUB, LEX, PRIM_SUBJ_P,
        _gen_subject(PRIM_SUBJ_P, proper=True, include_do=False,
                     include_objom=True), "np",
        exposures=_bare_exposures("ProperNoun", PRIM_SUBJ_P))
    add("prim_to_obj_common", PRIM_SUB, LEX, PRIM_OBJ_C,
        _gen_dobj_common(PRIM_OBJ_C), "np",
        exposures=_bare_exposures("CommonNoun", PRIM_OBJ_C))
    add("prim_to_obj_proper", PRIM_SUB, LEX, PRIM_OBJ_P,
        _gen_prim_obj_proper(PRIM_OBJ_P), "np",
        exposures=_bare_exposures("ProperNoun", PRIM_OBJ_P))
    add("prim_to_inf_verb", PRIM_SUB, LEX, PRIM_VERBS,
        _gen_prim_inf(), "verb",
        exposures=_bare_exposures("Verb", PRIM_VERBS))

    # -- tense alternation -------------------------------------------------
    add("tense_dit", TENSE, LEXMOR, TENSE_DIT,
        _gen_pres_dit(TENSE_DIT), "verb",
        exposures=_sample_exposures(
            [("s_do_past", "v:do:past"), ("s_ppdat_past", "v:ppdat:past")],
            TENSE_DIT))
    add("tense_inf", TENSE, LEXMOR, TENSE_INF,
        _gen_pres_inf(TENSE_INF), "verb",
        exposures=_sample_exposures([("s_inf_past", "v:inf:past")],
                                    TENSE_INF))
    add("tense_cp", TENSE, LEXMOR, TENSE_CP,
        _gen_pres_cp(TENSE_CP), "verb", marker="cp_clause_t",
        exposures=_sample_exposures([("s_cp_past", "v:cp:past")], TENSE_CP))
    add("trans_to_dit", TENSE, LEXMOR, TRANS2DIT,
        _gen_pres_dit(TRANS2DIT), "verb",
        exposures=_sample_exposures(
            [("s_do_past", "v:do:past"), ("s_ppdat_past", "v:ppdat:past"),
             ("s_trans_past", "v:trans:past"),
             ("s_trans_pres", "v:trans:pres")], TRANS2DIT))
    add("trans_to_inf", TENSE, LEXMOR, TRANS2INF,
        _gen_pres_inf(TRANS2INF), "verb",
        exposures=_sample_exposures(
            [("s_inf_past", "v:inf:past"), ("s_trans_past", "v:trans:past"),
             ("s_trans_pres", "v:trans:pres")], TRANS2INF))
    add("trans_to_cp", TENSE, LEXMOR, TRANS2CP,
        _gen_pres_cp(TRANS2CP), "verb", marker="cp_clause_t",
        exposures=_sample_exposures(
            [("s_cp_past", "v:cp:past"), ("s_trans_past", "v:trans:past"),
             ("s_trans_pres", "v:trans:pres")], TRANS2CP))

    # -- primitive structural alternation ---------------------------------
    add("active_to_passive", PRIM_STRUCT, LEXMOR, ACT2PASS,
        _gen_passive(ACT2PASS), "verb",
        exposures=_sample_exposures(
            [("s_trans_past", "v:trans:past"),
             ("s_trans_pres", "v:trans:pres")], ACT2PASS))
    add("passive_to_active", PRIM_STRUCT, LEXMOR, PASS2ACT,
        _gen_active_trans(PASS2ACT, FREE_MIXED, FREE_PROP), "verb",
        exposures=_sample_exposures(
            [("s_pass", "v:pass"), ("s_pass_by", "v:pass")], PASS2ACT))
    add("objom_to_trans", PRIM_STRUCT, LEXMOR, OBJOM2TRANS,
        _gen_active_trans(OBJOM2TRANS, INANIM_POOL), "verb",
        exposures=_sample_exposures(
            [("s_objom_past", "v:objom:past"),
             ("s_objom_pres", "v:objom:pres")], OBJOM2TRANS))
    add("unacc_to_trans", PRIM_STRUCT, LEXMOR, UNACC2TRANS,
        _gen_active_trans(UNACC2TRANS, INANIM_POOL), "verb",
        exposures=_sample_exposures(
            [("s_unacc_past", "v:unacc:past"),
             ("s_unacc_pres", "v:unacc:pres")], UNACC2TRANS))
    add("do_to_pp", PRIM_STRUCT, LEX, DO2PP,
        _gen_dat(DO2PP, double_object=False), "verb",
        exposures=_sample_exposures(
            [("s_do_past", "v:do:past"), ("s_do_pres", "v:do:pres")],
            DO2PP))
    add("pp_to_do", PRIM_STRUCT, LEX, PP2DO,
        _gen_dat(PP2DO, double_object=True), "verb",
        exposures=_sample_exposures(
            [("s_ppdat_past", "v:ppdat:past"),
             ("s_ppdat_pres", "v:ppdat:pres")], PP2DO))

    # -- phrase recombination ---------------------------------------------
    add("pp_in_subj", PHRASE, STRUCT, (), _gen_mod_subj("pp"), "np",
        exposures=_sample_exposures(["np_dobj_pp"]))
    add("pp_in_iobj", PHRASE, STRUCT, (), _gen_mod_iobj("pp"), "np",
        exposures=_sample_exposures(["np_dobj_pp"]))
    add("rc_in_subj", PHRASE, STRUCT, (), _gen_mod_subj("rc"), "np",
        exposures=_sample_exposures(["np_dobj_rco", "np_dobj_rcs"]))
    add("rc_in_iobj", PHRASE, STRUCT, (), _gen_mod_iobj("rc"), "np",
        exposures=_sample_exposures(["np_dobj_rco", "np_dobj_rcs"]))
    add("adj_in_subj", PHRASE, STRUCT, (), _gen_mod_subj("adj"), "np",
        exposures=_sample_exposures(["np_dobj_adj"]))
    add("adj_in_iobj", PHRASE, STRUCT, (), _gen_mod_iobj("adj"), "np",
        exposures=_sample_exposures(["np_dobj_adj"]))

    # -- recursion depth alternation --------------------------------------
    for construct, stem in (("CP", "cp"), ("PP", "pp"),
                            ("CenterEmbedRC", "ce"), ("Adj", "adj")):
        marker = "" if construct == "CP" else "cp_clause"
        add(f"{stem}_recursion_shallower", RECURSION, STRUCT, (),
            _gen_recursion(construct), "none",
            count=1000 if construct == "CP" else 2000, marker=marker,
            depths=[(construct, 3)],
            exposures=_depth_exposures(construct), zipf=0.5)
        add(f"{stem}_recursion_deeper", RECURSION, STRUCT, (),
            _gen_recursion(construct), "none",
            count=1000 if construct == "CP" else 2000, marker=marker,
            depths=[(construct, 5), (construct, 6)],
            exposures=_depth_exposures(construct), zipf=0.5)

    # -- gap position recombination ---------------------------------------
    add("rc_iobj_gap", GAP, STRUCT, (), _gen_rc_iobj_gap(), "np",
        role="direct_object",
        exposures=_sample_exposures(["rc_subjgap_do", "rc_objgap"]))
    add("wh_iobj_gap", GAP, STRUCT, (), _gen_wh_iobj_gap(), "wh",
        count=1000, marker="", wh_word="dare", role="indirect_object",
        exposures=_sample_exposures(["q_whosubj", "q_whoobj"]))

    # -- wh-question structural alternation -------------------------------
    add("wh_active_subj", WH, STRUCT, (), _gen_wh_active_subj(), "wh",
        count=1000, marker="", wh_word="dare", role="subject",
        exposures=_sample_exposures(["q_whosubj"]))
    add("wh_passive_subj", WH, STRUCT, (), _gen_wh_passive_subj(), "wh",
        count=1000, marker="", wh_word="nani", role="subject",
        exposures=_sample_exposures(["q_whosubj", "s_pass"]))
    add("wh_do_dit", WH, STRUCT, (), _gen_wh_do_dit(), "wh",
        count=1000, marker="", wh_word="nani", role="direct_object",
        exposures=_sample_exposures(["q_whatobj", "s_ppdat_past"]))
    add("wh_subj_pp", WH, STRUCT, (), _gen_wh_subj_pp(), "np",
        count=1000, marker="", role="subject",
        exposures=_sample_exposures(["q_whatobj", "np_dobj_pp"]))
    add("wh_long_move", WH, STRUCT, (), _gen_wh_long_move(), "wh",
        count=1000, marker="", wh_word="nani", role="direct_object",
        exposures=_sample_exposures(["q_whatobj", "s_cp_past"]))
    return specs
