"""Corpus construction: the four splits, augmentations, and manifests.

The build is deterministic in one master seed.  Every stream (each pattern's
generalization sampler, the primitive-exposure sampler, the in-distribution
pool, the concatenation stream) derives its own child seed, so per-pattern
generalization work can run in parallel without changing a byte of output.

Build order matters: the generalization set is built first so that its
maximum sentence length and its (source, target) pairs are known when the
training side is assembled.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from collections import Counter
from dataclasses import dataclass, field, fields
from random import Random

from .grammar import (Constraints, GrammarError, LeafNode, LitNode, ProdNode,
                      UnsatisfiableConstraintError, iter_leaves, iter_nodes,
                      yield_tokens)
from .transduce import render_leaf, target_span, transduce
from .bank import analyze, default_bank, tag_role, _np_head
from .naturalize import (UnrepairableRecordError, default_case_frames,
                         naturalize, read_case_frames, reject_duplicates)
from .utf8 import undecodable

TRAIN_DEPTHS = frozenset({0, 1, 2, 4})
_MOD_DOBJ_IDS = frozenset(
    {"np_dobj_pp", "np_dobj_rco", "np_dobj_rcs", "np_dobj_adj"})

# Default (unscaled) counts.
N_DEV = 5000
N_TEST = 5000
N_POOL_TRAIN = 39_200   # in-distribution train records incl. topicalized
N_EXPOSURE = 100        # per pattern
N_CONCAT = 400
DRAW_BUDGET = 10_000    # root draws per record, in every stream

OUT_DIR_ENV = "COMPMT_OUT_DIR"

# JSON value types accepted for each RunConfig field type.
_JSON_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}


@dataclass
class RunConfig:
    master_seed: int = 1
    scale: float = 1.0
    topicalization_fraction: float = 0.10
    with_concat: bool = True
    out_dir: str = "corpus"
    case_frame_path: str = ""
    parallel: bool = False

    @classmethod
    def from_file(cls, path):
        """Config from a JSON object; an unknown key or a value of the wrong
        type (a bool is not a number) raises ValueError naming the file."""
        data = _read_json(path)
        if not isinstance(data, dict):
            raise ValueError(f"{path}: expected a JSON object")
        types = {f.name: f.type for f in fields(cls)}
        unknown = set(data) - set(types)
        if unknown:
            raise ValueError(f"{path}: unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            want = types[key]
            if not isinstance(value, _JSON_TYPES[want]) or \
                    (isinstance(value, bool) and want != "bool"):
                raise ValueError(f"{path}: {key} must be of type {want}, "
                                 f"got {value!r}")
            if want == "float":
                data[key] = float(value)  # 1 and 1.0 give one manifest
        return cls(**data)

    def range_errors(self, gen_counts):
        """(field, message) for each value the build cannot run with;
        ``gen_counts`` are the patterns' unscaled generalization counts."""
        errors = []
        largest = max(N_DEV, N_TEST, N_POOL_TRAIN, N_EXPOSURE, N_CONCAT,
                      *gen_counts)
        if math.isinf(largest * self.scale):
            errors.append(("scale", f"{self.scale} makes a record count "
                           f"infinite ({largest} x scale overflows)"))
        elif largest * self.scale > sys.maxsize:
            errors.append(("scale", f"{self.scale} makes a record count "
                           f"larger than a list can hold ({largest} x scale "
                           f"exceeds {sys.maxsize})"))
        elif not (math.isfinite(self.scale)
                  and all(round(n * self.scale) >= 1 for n in gen_counts)):
            errors.append(("scale", f"{self.scale} leaves a pattern with no "
                           f"generalization records (round({min(gen_counts)}"
                           " x scale) must be at least 1)"))
        if not 0 <= self.topicalization_fraction <= 1:
            errors.append(("topicalization_fraction",
                           f"{self.topicalization_fraction} is outside "
                           "[0, 1]"))
        return errors

    def to_dict(self):
        out = dict(self.__dict__)
        # Worker-pool use and the output directory never change the
        # corpus, so they have no place in the manifest.
        out.pop("parallel", None)
        out.pop("out_dir", None)
        return out


@dataclass(slots=True)
class SentenceRecord:
    """One sentence pair.  Slotted.  The source and target are texts, the
    tokens joined by single spaces (a read record keeps its line's
    strings); ``source_tokens`` and ``target_tokens`` split them on demand,
    which gives the tokens back, since no token is empty or holds
    whitespace.  The split and pattern id are interned, and the annotation
    and provenance are read-only values, one object for each distinct value
    in a file or a build stream (``_shared``): a corpus has a few thousand
    of them over hundreds of thousands of uses, so records hold
    references."""
    id: str
    split: str
    pattern_id: str
    source: str
    target: str
    annotation: dict = None
    provenance: dict = field(default_factory=dict)

    @property
    def source_tokens(self):
        return tuple(self.source.split())

    @property
    def target_tokens(self):
        return tuple(self.target.split())

    def to_json(self):
        out = {"id": self.id, "split": self.split,
               "source": self.source, "target": self.target}
        if self.pattern_id:
            out["pattern_id"] = self.pattern_id
        if self.annotation is not None:
            out["annotation"] = self.annotation
        if self.provenance:
            out["provenance"] = self.provenance
        return out

    @classmethod
    def from_json(cls, data, memo=None):
        """Record of a JSON object whose annotation and provenance are the
        values ``memo`` shares (``_shared``)."""
        memo = {} if memo is None else memo
        return cls(data["id"], sys.intern(data["split"]),
                   sys.intern(data.get("pattern_id", "")),
                   data["source"], data["target"],
                   _shared(data.get("annotation"), memo),
                   _shared(data.get("provenance", {}), memo))


def _read_only(self, *args, **kwargs):
    raise TypeError(f"a {type(self).__name__} is shared between records "
                    "and cannot change")


class ReadOnlyDict(dict):
    """A dict that records share; every method that would change it raises
    TypeError."""
    __slots__ = ()
    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = \
        setdefault = update = _read_only

    def __reduce__(self):
        # The default unpickling of a dict subclass sets its items one by
        # one, which would raise.
        return ReadOnlyDict, (dict(self),)


class ReadOnlyList(list):
    """A list that records share; every method that would change it raises
    TypeError."""
    __slots__ = ()
    __setitem__ = __delitem__ = __iadd__ = __imul__ = append = clear = \
        extend = insert = pop = remove = reverse = sort = _read_only

    def __reduce__(self):
        return ReadOnlyList, (list(self),)


def _shared(value, memo):
    """The read-only value that stands for the JSON value ``value`` in
    ``memo``, which lives for one file or one build stream.  Records given
    equal values get one object.  The key is ``repr(value)``, which keeps
    ``true``, ``1`` and ``1.0`` apart, and ``-0.0`` and ``0.0``.  Only a
    miss does work: it rebuilds ``value`` (``_rebuilt``)."""
    key = repr(value)
    try:
        return memo[key]
    except KeyError:
        shared = memo[key] = _rebuilt(value, memo)
        return shared


def _rebuilt(value, memo):
    """``value`` with each dict and list made read-only, each key and
    string interned and each int taken from ``memo``, where an int is its
    own key.  A bool or float stays as it is (``True == 1`` and
    ``1.0 == 1``, so a memo keyed by value would change its type)."""
    kind = type(value)
    if kind is dict:
        # A dict's leaves are shared inline: a call for each of them would
        # make the rebuild half as slow again.
        out = {}
        for key, item in value.items():
            item_kind = type(item)
            if item_kind is str:
                item = sys.intern(item)
            elif item_kind is int:
                item = memo.setdefault(item, item)
            elif item_kind is dict or item_kind is list:
                item = _rebuilt(item, memo)
            out[sys.intern(key)] = item
        return ReadOnlyDict(out)
    if kind is list:
        return ReadOnlyList([sys.intern(item) if type(item) is str
                             else _rebuilt(item, memo) for item in value])
    if kind is str:
        return sys.intern(value)
    if kind is int:
        return memo.setdefault(value, value)
    return value


def _check_provenance(provenance):
    if not isinstance(provenance, dict):
        raise ValueError("'provenance' is not an object")
    if not isinstance(provenance.get("depths", {}), dict):
        raise ValueError("'provenance.depths' is not an object")


def _check_annotation(annotation):
    if annotation is None:
        return
    if not isinstance(annotation, dict):
        raise ValueError("'annotation' is not an object")
    ref = annotation.get("target_constituent_ref_tokens")
    if not (isinstance(ref, list) and all(isinstance(t, str) for t in ref)):
        raise ValueError(
            "'target_constituent_ref_tokens' is not a list of strings")
    if not ref:
        raise ValueError("'target_constituent_ref_tokens' is empty")
    if not isinstance(annotation.get("expected_role"), (str, type(None))):
        raise ValueError("'expected_role' is neither a string nor null")
    if not isinstance(annotation.get("depth_profile", {}), dict):
        raise ValueError("'depth_profile' is not an object")


def child_seed(master_seed: int, stream: str) -> int:
    digest = hashlib.md5(f"{master_seed}:{stream}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _bucket(master_seed: int, index: int) -> int:
    digest = hashlib.md5(f"{master_seed}:pool:{index}".encode()).digest()
    return digest[0] % 10


def _scaled(n, scale):
    return max(1, round(n * scale)) if n else 0


def _length(text):
    """Tokens in a built record's text: its tokens are joined by single
    spaces and hold none."""
    return text.count(" ") + 1


def _train_depths(analysis):
    return all(d in TRAIN_DEPTHS for d in analysis.depths.values())


def _render(bank, tree):
    """(capitalized source text, target text)."""
    source = " ".join(yield_tokens(tree))
    return (source[0].upper() + source[1:],
            " ".join(transduce(tree, bank.dictionary, bank.morph)))


def _draw(grammar, rng, constraints, accept, bank, cf, seen, dropped, what):
    """One record of a stream, by the build's only rejection loop: draw a
    tree exactly from the grammar conditioned on ``constraints``, analyze
    it, check the constraints, accept (on the analysis), reject duplicate
    lexemes, naturalize (an unrepairable tree counts in ``dropped[0]`` and
    is drawn again), translate, capitalize and, unless ``seen`` is None,
    reject a (source, target) text pair already used.  ``seen`` keeps the
    returned pair itself, so a record of its texts adds no copy.

    Returns (tree, analysis, source, target, samples), where
    ``analysis`` is ``analyze(tree)`` and ``samples`` counts its root
    draws.  Raises UnsatisfiableConstraintError naming ``what`` and
    ``constraints`` before the first draw when no tree meets
    ``constraints``, and after DRAW_BUDGET root draws otherwise.  A drawn
    tree that fails its constraints is a sampler bug and raises
    GrammarError naming both.
    """
    if constraints is not None and not grammar.satisfiable(constraints):
        raise UnsatisfiableConstraintError(
            f"{what}: no tree meets the constraints ({constraints})")
    for samples in range(1, DRAW_BUDGET + 1):
        tree = grammar.sample_with_rng(rng, constraints)
        analysis = analyze(tree)
        if constraints is not None and \
                not constraints.satisfied_by(analysis.ids, analysis.depths):
            raise GrammarError(f"{what}: sampled a tree that fails its "
                               f"constraints ({constraints})")
        if accept is not None and not accept(analysis):
            continue
        if reject_duplicates(analysis):
            continue
        try:
            tree, analysis, _ = naturalize(tree, analysis, cf, rng,
                                           bank.lexicon)
        except UnrepairableRecordError:
            dropped[0] += 1
            continue
        pair = _render(bank, tree)
        if seen is not None:
            if pair in seen:
                continue
            seen.add(pair)
        return (tree, analysis, *pair, samples)
    raise UnsatisfiableConstraintError(
        f"{what}: no fresh record in {DRAW_BUDGET} root draws "
        f"(constraints: {constraints or 'none'})")


def _annotate(tree, analysis, target, spec, bank):
    """Annotation payload for one generalization record; ``target`` is the
    list of its target tokens."""
    in_cp = spec.embed_marker in analysis.ids
    if spec.target_kind == "none":
        return None, dict(analysis.depths), in_cp
    if spec.target_kind == "wh":
        ref = [spec.wh_word]
        role = spec.expected_role
    else:
        if spec.target_kind == "verb":
            node = next(lf for lf in iter_leaves(tree)
                        if lf.entry.pos == "Verb"
                        and lf.entry.lemma in spec.target_lexemes)
            # No case particle follows a predicate; Partial Match checks
            # the inflected form's presence only.
            role = None
        else:  # np
            node = next(nd for nd in iter_nodes(tree)
                        if nd.production.annot_target)
            role = spec.expected_role or tag_role(_np_head(node).tag)
        span = target_span(tree, node, bank.dictionary, bank.morph)
        if span is None:
            raise GrammarError(
                f"{spec.id}: target constituent has no target span")
        start, end = span
        ref = list(target[start:end])
    annotation = {
        "target_constituent_ref_tokens": ref,
        "expected_role": role,
        "depth_profile": dict(analysis.depths),
        "in_cp": in_cp,
    }
    return annotation, dict(analysis.depths), in_cp


# --------------------------------------------------------------------------
# Generalization records (parallelizable per pattern)
# --------------------------------------------------------------------------


def _build_pattern(pattern_id, master_seed, scale, cf):
    """(records, unrepairable drops, root draws) of one pattern's
    generalization stream; pure in its arguments."""
    bank = default_bank()
    spec = bank.by_pattern[pattern_id]
    seed = child_seed(master_seed, f"gen:{pattern_id}")
    rng = Random(seed)
    count = round(spec.gen_count * scale)
    records = []
    seen = set()
    dropped = [0]
    draws = 0
    memo = {}
    for i in range(count):
        tree, analysis, source, target, samples = _draw(
            spec.gen_grammar, rng, spec.constraints_for(i), None, bank, cf,
            seen, dropped, f"pattern {pattern_id}: gen record {i}")
        draws += samples
        annotation, depths, in_cp = _annotate(tree, analysis, target.split(),
                                              spec, bank)
        provenance = {"seed": seed, "grammar_id": pattern_id,
                      "variant": i % len(spec.variants), "in_cp": in_cp}
        if spec.target_kind == "none":
            provenance["depths"] = depths
        records.append(SentenceRecord(
            f"gen-{pattern_id}-{i:05d}", "gen", pattern_id, source, target,
            _shared(annotation, memo), _shared(provenance, memo)))
    return records, dropped[0], draws


# --------------------------------------------------------------------------
# Training-side streams
# --------------------------------------------------------------------------


def primitive_exposures(bank, spec, n, master_seed, cf, seen, grammar_cache,
                        dropped):
    """(n training records supplying the pattern's licensed prerequisites,
    their root draws)."""
    seed = child_seed(master_seed, f"exp:{spec.id}")
    rng = Random(seed)
    records = []
    draws = 0
    memo = {}
    augmentations = ["exposure:" + spec.id]
    bare = _shared({"seed": seed, "grammar_id": "lexicon",
                    "augmentations": augmentations}, memo)
    drawn = _shared({"seed": seed, "grammar_id": "in_dist",
                     "augmentations": augmentations}, memo)
    for k in range(n):
        recipe = spec.exposures[k % len(spec.exposures)]
        rid = f"train-exp-{spec.id}-{k:03d}"
        if recipe[0] == "bare":
            _, pos, lemma = recipe
            leaf = LeafNode(bank.lexicon.by_key[(lemma, pos)],
                            "inf" if pos == "Verb" else "base", "")
            target = " ".join(render_leaf(leaf, bank.dictionary, bank.morph))
            records.append(SentenceRecord(rid, "train", "", leaf.surface,
                                          target, provenance=bare))
            continue
        _, required, overrides, depths = recipe
        cache_key = tuple(sorted(
            (tag, tuple(sorted(ls))) for tag, ls in overrides.items()))
        grammar = grammar_cache.get(cache_key)
        if grammar is None:
            grammar = bank.grammar
            if overrides:
                grammar = grammar.restrict_slots(
                    {tag: frozenset(ls) for tag, ls in overrides.items()})
            grammar_cache[cache_key] = grammar
        cons = Constraints(frozenset(required), frozenset(), tuple(depths))
        _, _, source, target, samples = _draw(
            grammar, rng, cons, _train_depths, bank, cf, seen, dropped,
            f"pattern {spec.id}: exposure recipe {recipe!r}")
        draws += samples
        records.append(SentenceRecord(rid, "train", "", source, target,
                                      provenance=drawn))
    return records, draws


def _topic_eligible(tree):
    """The clause node of a matrix transitive clause with a modified direct
    object, or None."""
    if tree.production.id != "root_decl":
        return None
    s_node = tree.children[0]
    if not isinstance(s_node, ProdNode) or \
            s_node.production.id not in ("s_trans_past", "s_trans_pres"):
        return None
    dobj = s_node.children[2]
    if isinstance(dobj, ProdNode) and dobj.production.id in _MOD_DOBJ_IDS:
        return s_node
    return None


def topicalize(bank, tree, s_node):
    """Fronted variant: the modified object before a comma, topic particle
    "wa" on the Japanese side.  The result parses under the same grammar
    via the zero-weight topicalization productions."""
    which = "root_topic_past" if s_node.production.id == "s_trans_past" \
        else "root_topic_pres"
    prod = bank.grammar.by_id[which]
    subj, verb, dobj = s_node.children
    return ProdNode(prod, (dobj, LitNode(","), subj, verb, LitNode(".")))


def _declarative_train_depths(analysis):
    return "root_decl" in analysis.ids and _train_depths(analysis)


def concatenate_for_length(bank, cf, master_seed, n, gen_max_len, seen,
                           dropped):
    """(Training records longer than any generalization sentence, formed by
    concatenating independent declarative in-distribution sentences, their
    root draws).

    A record's root draws, over all its parts and retries, count against
    one DRAW_BUDGET.  It is checked after each part, so a record overdraws
    by at most one part's draws."""
    seed = child_seed(master_seed, "concat")
    rng = Random(seed)
    records = []
    total = 0
    memo = {}
    for j in range(n):
        draws = 0
        while True:
            source, target, length, parts = "", "", 0, 0
            while length <= gen_max_len:
                if draws >= DRAW_BUDGET:
                    raise UnsatisfiableConstraintError(
                        f"concatenation record {j}: no fresh joined pair in "
                        f"{draws} root draws")
                _, _, src, tgt, samples = _draw(
                    bank.grammar, rng, None, _declarative_train_depths, bank,
                    cf, None, dropped,
                    f"concatenation record {j} part {parts}")
                draws += samples
                # As the parts' tokens joined, with "." between targets.
                source = f"{source} {src}" if source else src
                target = f"{target} . {tgt}" if target else tgt
                length += _length(src)
                parts += 1
            pair = (source, target)
            if pair not in seen:
                break
        seen.add(pair)
        total += draws
        records.append(SentenceRecord(
            f"train-cat-{j:04d}", "train", "", source, target,
            provenance=_shared({"seed": seed, "grammar_id": "in_dist",
                                "augmentations": ["concatenated"],
                                "parts": parts}, memo)))
    return records, total


# --------------------------------------------------------------------------
# The whole build
# --------------------------------------------------------------------------


def build_splits(config: RunConfig, bank=None):
    """Build train/dev/test/gen; returns ({split: [records]}, manifest).

    ``bank`` can be passed in to reuse compiled grammars; it defaults to
    the standard resources.  It serves every stage but the generalization
    set: each pattern's stream (``_build_pattern``) always uses
    ``default_bank()``, so that it runs alike in a worker process.
    """
    if bank is None:
        bank = default_bank()
    if config.case_frame_path:
        cf = read_case_frames(config.case_frame_path)
    else:
        cf = default_case_frames()
    scale = config.scale
    seed = config.master_seed

    # 1. Generalization set, one independent stream per pattern.
    gen_records = []
    pattern_ids = [p.id for p in bank.patterns]
    if config.parallel:
        # Imported here: every other command would pay for loading the
        # process-pool machinery.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor() as pool:
            futures = [pool.submit(_build_pattern, pid, seed, scale, cf)
                       for pid in pattern_ids]
            results = [f.result() for f in futures]
    else:
        results = [_build_pattern(pid, seed, scale, cf)
                   for pid in pattern_ids]
    seen = set()
    dropped = [0]
    gen_draws = {}
    for pid, (recs, pat_dropped, draws) in zip(pattern_ids, results):
        gen_draws[pid] = draws
        for r in recs:
            key = (r.source, r.target)
            if key in seen:
                raise GrammarError(
                    f"cross-pattern duplicate generalization pair: "
                    f"{r.source!r}")
            seen.add(key)
        gen_records.extend(recs)
        dropped[0] += pat_dropped
    gen_max_len = max(_length(r.source) for r in gen_records)

    # 2. Primitive exposures (bare primitives are exempt from dedup: the
    # same bare lexeme record recurs by design).
    n_exp = _scaled(N_EXPOSURE, scale)
    exposure_records = []
    exposure_counts = {}
    grammar_cache = {}
    root_draws = sum(gen_draws.values())
    for spec in bank.patterns:
        # Never scale below one exposure per recipe: a pattern's
        # prerequisites are only covered once the recipe cycle completes.
        recs, draws = primitive_exposures(
            bank, spec, max(n_exp, len(spec.exposures)), seed, cf, seen,
            grammar_cache, dropped)
        exposure_records.extend(recs)
        exposure_counts[spec.id] = len(recs)
        root_draws += draws

    # 3. One in-distribution pool, hash-partitioned into dev/test/train;
    # the n-th eligible training sentence also yields a topicalized copy
    # when floor(n * fraction) rises, so exactly that share of them do
    # (every tenth at the default 0.10).
    n_dev = _scaled(N_DEV, scale)
    n_test = _scaled(N_TEST, scale)
    n_pool_train = round(N_POOL_TRAIN * scale)
    pool_seed = child_seed(seed, "pool")
    rng = Random(pool_seed)
    dev, test, train_pool = [], [], []
    eligible = 0
    topicalized = 0
    index = 0
    fraction = config.topicalization_fraction
    memo = {}
    in_dist = _shared({"seed": pool_seed, "grammar_id": "in_dist"}, memo)
    fronted_in_dist = _shared({"seed": pool_seed, "grammar_id": "in_dist",
                               "augmentations": ["topicalized"]}, memo)
    while len(dev) < n_dev or len(test) < n_test or \
            len(train_pool) < n_pool_train:
        tree, _, source, target, samples = _draw(
            bank.grammar, rng, None, _train_depths, bank, cf, seen, dropped,
            f"in-distribution pool (draw {index})")
        index += samples
        bucket = _bucket(seed, index)
        if bucket == 0 and len(dev) < n_dev:
            split, out = "dev", dev
        elif bucket == 1 and len(test) < n_test:
            split, out = "test", test
        elif len(train_pool) < n_pool_train:
            split, out = "train", train_pool
        elif len(dev) < n_dev:
            split, out = "dev", dev
        else:
            split, out = "test", test
        width = 6 if split == "train" else 5
        out.append(SentenceRecord(
            f"{split}-{len(out):0{width}d}", split, "", source, target,
            provenance=in_dist))
        if split != "train":
            continue
        s_node = _topic_eligible(tree)
        if s_node is None:
            continue
        eligible += 1
        if int(eligible * fraction) == int((eligible - 1) * fraction) or \
                len(train_pool) >= n_pool_train:
            continue
        fronted = topicalize(bank, tree, s_node)
        pair = _render(bank, fronted)
        if pair in seen:
            continue
        seen.add(pair)
        train_pool.append(SentenceRecord(
            f"train-{len(train_pool):06d}", "train", "", *pair,
            provenance=fronted_in_dist))
        topicalized += 1

    root_draws += index

    # 4. Length-covering concatenations.
    n_concat = _scaled(N_CONCAT, scale) if config.with_concat else 0
    concat_records, draws = concatenate_for_length(
        bank, cf, seed, n_concat, gen_max_len, seen, dropped)
    root_draws += draws

    train = exposure_records + train_pool + concat_records
    records = {"train": train, "dev": dev, "test": test, "gen": gen_records}
    manifest = _manifest(config, bank, records, topicalized, eligible,
                         exposure_counts, len(concat_records), dropped[0],
                         gen_draws, root_draws)
    return records, manifest


def _manifest(config, bank, records, topicalized, eligible, exposure_counts,
              concatenated, dropped, gen_draws, root_draws):
    def lengths(recs):
        if not recs:
            return {"max_source_len": 0, "max_target_len": 0}
        return {"max_source_len": max(_length(r.source) for r in recs),
                "max_target_len": max(_length(r.target) for r in recs)}

    gen_counts = Counter(r.pattern_id for r in records["gen"])
    per_pattern = {}
    for spec in bank.patterns:
        per_pattern[spec.id] = {
            "category": spec.category, "group": spec.group,
            "gen_count": gen_counts[spec.id],
            "exposure_count": exposure_counts[spec.id],
            "root_draws": gen_draws[spec.id],
        }
    return {
        "master_seed": config.master_seed,
        "config": config.to_dict(),
        "counts": {split: len(recs) for split, recs in records.items()},
        "per_pattern": per_pattern,
        "augmentations": {
            "topicalized": topicalized,
            "topic_eligible": eligible,
            "concatenated": concatenated,
            "exposures": sum(exposure_counts.values()),
        },
        "root_draws": root_draws,
        # naturalize returns only fully licensed trees (see its docstring).
        "selectional_residuals": 0,
        "unrepairable_dropped": dropped,
        "lengths": {split: lengths(recs)
                    for split, recs in records.items()},
    }


# --------------------------------------------------------------------------
# Files
# --------------------------------------------------------------------------

SPLITS = ("train", "dev", "test", "gen")


# One encoder for every line: json.dumps with options builds one per call.
_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True)


def write_corpus(records, manifest, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    for split in SPLITS:
        with open(os.path.join(out_dir, f"{split}.jsonl"), "w",
                  encoding="utf-8") as fh:
            for r in records[split]:
                fh.write(_ENCODER.encode(r.to_json()) + "\n")
    with open(os.path.join(out_dir, "corpus.tsv"), "w",
              encoding="utf-8") as fh:
        fh.write("id\tsplit\tpattern\tsource\ttarget\n")
        for split in SPLITS:
            for r in records[split]:
                fh.write(f"{r.id}\t{split}\t{r.pattern_id}\t"
                         f"{r.source}\t{r.target}\n")
    with open(os.path.join(out_dir, "manifest.json"), "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")


_DECODER = json.JSONDecoder()


def _record(data, memo):
    """The record one parsed line of a split file holds; ValueError says why
    it is not one that ``score`` and ``inspect`` can read.  ``memo`` is the
    file's (``_shared``): a line that repeats an annotation or provenance
    holds the same object, so each distinct pair of them is checked once,
    at the first line that holds it."""
    if not isinstance(data, dict):
        raise ValueError("expected a JSON object")
    for key in ("id", "split", "source", "target"):
        if not isinstance(data.get(key), str):
            raise ValueError(f"{key!r} is missing or not a string")
    if not isinstance(data.get("pattern_id", ""), str):
        raise ValueError("'pattern_id' is not a string")
    record = SentenceRecord.from_json(data, memo)
    # The memo holds both values, so their ids stand for them.
    key = (id(record.provenance), id(record.annotation))
    if key not in memo:
        _check_provenance(record.provenance)
        _check_annotation(record.annotation)
        memo[key] = None
    return record


def read_jsonl(path):
    """Records of one split file; a line that is not UTF-8, not JSON or not
    a record (see ``_record``) raises ValueError naming ``path:line``.
    Equal annotations, provenances and ints are one object per file."""
    out = []
    memo = {}
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    data, end = _DECODER.raw_decode(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc.msg}") from None
                if end < len(line):  # as json.loads says; no space trails
                    raise ValueError(f"{path}:{lineno}: Extra data")
                try:
                    out.append(_record(data, memo))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
        except UnicodeDecodeError:
            raise ValueError(undecodable(path)) from None
    return out


def _read_json(path):
    """The JSON value of a whole file; one that is not UTF-8 or not JSON
    raises ValueError naming ``path:line``."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError:
            raise ValueError(undecodable(path)) from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{exc.lineno}: {exc.msg}") from None


def read_corpus(out_dir, keep=SPLITS):
    """({split: records} for each split in ``keep``, manifest).  Every split
    file and the manifest are read and checked, in order, kept or not."""
    records = {}
    for split in SPLITS:
        records[split] = read_jsonl(os.path.join(out_dir, f"{split}.jsonl"))
        if split not in keep:
            del records[split]
    return records, _read_json(os.path.join(out_dir, "manifest.json"))
