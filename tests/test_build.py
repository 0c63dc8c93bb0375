import gc
import hashlib
import json
import pickle
from random import Random

import pytest

from compmt import build
from compmt.audit import audit_gap
from compmt.build import (SPLITS, RunConfig, SentenceRecord, _draw,
                          build_splits, child_seed, concatenate_for_length,
                          read_corpus, write_corpus)
from compmt.earley import parse
from compmt.grammar import (Constraints, GrammarError, Lit, Pcfg,
                            UnsatisfiableConstraintError)
from compmt.naturalize import default_case_frames

# sha256 over train, dev, test and gen.jsonl, in that order, at seed 1 and
# scale 0.01.  A change that moves it changes the corpus and must say why.
SMALL_BUILD_SHA256 = \
    "824e9dd46d59bff03027aa2669b970981ac5731590e2539cb34f32de7d1cd980"


def _pairs(recs):
    return {(r.source, r.target) for r in recs}


def test_counts_scale_linearly(small_build, mid_build):
    recs01, man01 = small_build
    recs05, man05 = mid_build
    assert man01["counts"]["dev"] == 50 and man01["counts"]["test"] == 50
    assert man05["counts"]["dev"] == 250 and man05["counts"]["test"] == 250
    assert man01["counts"]["gen"] == 760    # 0.01 x 76,000
    assert man05["counts"]["gen"] == 3800   # 0.05 x 76,000
    # train = in-distribution pool + exposures + concatenations
    aug01 = man01["augmentations"]
    assert man01["counts"]["train"] == \
        392 + aug01["exposures"] + aug01["concatenated"]
    aug05 = man05["augmentations"]
    assert man05["counts"]["train"] == \
        1960 + aug05["exposures"] + aug05["concatenated"]
    assert aug01["concatenated"] == 4 and aug05["concatenated"] == 20


def test_per_pattern_gen_counts(mid_build, patterns):
    _, manifest = mid_build
    for p in patterns:
        got = manifest["per_pattern"][p.id]["gen_count"]
        assert got == round(p.gen_count * 0.05), p.id


def test_exposures_cover_every_recipe(mid_build, patterns):
    _, manifest = mid_build
    for p in patterns:
        got = manifest["per_pattern"][p.id]["exposure_count"]
        assert got >= len(p.exposures), p.id


def test_splits_share_no_sentence_pairs(mid_build):
    recs, _ = mid_build
    splits = list(recs)
    for i, a in enumerate(splits):
        for b in splits[i + 1:]:
            assert not (_pairs(recs[a]) & _pairs(recs[b])), (a, b)


def test_no_duplicate_pairs_within_gen(mid_build):
    recs, _ = mid_build
    assert len(_pairs(recs["gen"])) == len(recs["gen"])


def test_topicalization_hits_requested_fraction(mid_build):
    _, manifest = mid_build
    aug = manifest["augmentations"]
    assert aug["topic_eligible"] > 0
    ratio = aug["topicalized"] / aug["topic_eligible"]
    assert abs(ratio - 0.10) <= 0.02, ratio
    # topicalized sources front the object before a comma
    recs, _ = mid_build
    fronted = [r for r in recs["train"]
               if "topicalized" in r.provenance.get("augmentations", ())]
    assert len(fronted) == aug["topicalized"]
    for r in fronted:
        assert "," in r.source_tokens
        assert "wa" in r.target_tokens


@pytest.mark.parametrize("fraction", [0.0, 0.4, 1.0])
def test_topicalization_fraction_is_honoured(bank, fraction):
    """Each fraction gives its own rate; none is rounded to a period, and
    eligible sentences are counted at 0 too."""
    _, manifest = build_splits(
        RunConfig(master_seed=1, scale=0.01,
                  topicalization_fraction=fraction), bank=bank)
    aug = manifest["augmentations"]
    assert aug["topic_eligible"] > 0
    ratio = aug["topicalized"] / aug["topic_eligible"]
    assert abs(ratio - fraction) <= 0.05, ratio


def test_cp_embedding_mixed_half_and_half(mid_build, patterns):
    recs, _ = mid_build
    by_pattern = {}
    for r in recs["gen"]:
        by_pattern.setdefault(r.pattern_id, []).append(r)
    for p in patterns:
        if not p.embed_marker:
            continue
        mine = by_pattern[p.id]
        inside = sum(1 for r in mine if r.provenance["in_cp"])
        assert inside * 2 == len(mine), p.id


def test_recursion_record_depths(mid_build, patterns):
    recs, _ = mid_build
    construct = {"cp": "CP", "pp": "PP", "ce": "CenterEmbedRC",
                 "adj": "Adj"}
    for r in recs["gen"]:
        if "depths" not in r.provenance:
            continue
        stem = r.pattern_id.split("_")[0]
        d = r.provenance["depths"][construct[stem]]
        if r.pattern_id.endswith("shallower"):
            assert d == 3, r.id
        else:
            assert d in (5, 6), r.id


def test_concatenation_dominates_gen_length(mid_build):
    recs, manifest = mid_build
    gen_max = manifest["lengths"]["gen"]["max_source_len"]
    cats = [r for r in recs["train"]
            if "concatenated" in r.provenance.get("augmentations", ())]
    for r in cats:
        assert len(r.source_tokens) > gen_max
    assert manifest["lengths"]["train"]["max_source_len"] > gen_max


def test_without_concat(bank):
    recs, manifest = build_splits(
        RunConfig(master_seed=3, scale=0.01, with_concat=False), bank=bank)
    assert manifest["augmentations"]["concatenated"] == 0
    assert all("concatenated" not in r.provenance.get("augmentations", ())
               for r in recs["train"])


def test_build_is_deterministic_in_seed(bank, small_build):
    recs, manifest = small_build
    recs2, manifest2 = build_splits(RunConfig(master_seed=1, scale=0.01),
                                    bank=bank)
    for split in recs:
        assert [r.to_json() for r in recs[split]] == \
            [r.to_json() for r in recs2[split]]
    assert manifest == manifest2


def test_different_seed_changes_output(bank, small_build):
    recs, _ = small_build
    recs2, _ = build_splits(RunConfig(master_seed=2, scale=0.01), bank=bank)
    assert [r.to_json() for r in recs["gen"]] != \
        [r.to_json() for r in recs2["gen"]]


def test_child_seed_streams_are_distinct():
    seeds = {child_seed(1, s) for s in
             ("pool", "concat", "gen:a", "gen:b", "exp:a")}
    assert len(seeds) == 5
    assert child_seed(1, "pool") == child_seed(1, "pool")
    assert child_seed(1, "pool") != child_seed(2, "pool")


def test_write_read_round_trip(tmp_path, small_build):
    recs, manifest = small_build
    out = tmp_path / "corpus"
    write_corpus(recs, manifest, str(out))
    back, manifest2 = read_corpus(str(out))
    assert manifest2 == json.loads(json.dumps(manifest))
    for split in recs:
        assert [r.to_json() for r in back[split]] == \
            [r.to_json() for r in recs[split]]
        # Each read record writes back its own line byte for byte: dict
        # equality would miss a bool or a float read back as an int.
        lines = (out / f"{split}.jsonl").read_text(
            encoding="utf-8").splitlines()
        assert [json.dumps(r.to_json(), ensure_ascii=False, sort_keys=True)
                for r in back[split]] == lines
    # the TSV mirror carries one row per record plus the header
    tsv = (out / "corpus.tsv").read_text(encoding="utf-8").splitlines()
    assert len(tsv) == 1 + sum(len(v) for v in recs.values())


def _emitted_tokens(bank):
    """(where, token) for every token a built record can hold: lexicon
    surfaces, dictionary translations, morphology suffixes, the question
    particle and the literal tokens of every production, source and
    target side, of the bank's grammar and each pattern's."""
    for entry in bank.lexicon.entries:
        for bundle, surface in entry.forms.items():
            yield f"lexicon {entry.lemma}/{entry.pos} {bundle}", surface
    for (lemma, pos, bundle), tokens in bank.dictionary.entries.items():
        if bundle != "class":  # a verb's morphology class, never emitted
            for token in tokens:
                yield f"dictionary {lemma}/{pos} {bundle}", token
    for key, (_, suffixes) in bank.morph.rules.items():
        for token in suffixes:
            yield f"morphology {key}", token
    yield "question particle", bank.morph.question_particle
    for grammar in (bank.grammar, *(p.gen_grammar for p in bank.patterns)):
        for prod in grammar.productions:
            for symbol in prod.rhs:
                if isinstance(symbol, Lit):
                    yield f"production {prod.id}", symbol.text
            for item in prod.template or ():
                if item.kind == "lit":
                    yield f"template of {prod.id}", item.text


def test_every_emitted_token_splits_back_to_itself(bank):
    """Records hold their texts, tokens joined by single spaces, so a token
    must be non-empty and hold no whitespace: then a text splits back to
    its tokens, and (source, target) text pairs dedup exactly as token
    pairs do."""
    tokens = list(_emitted_tokens(bank))
    assert {where.split()[0] for where, _ in tokens} == {
        "lexicon", "dictionary", "morphology", "question", "production",
        "template"}
    bad = [(where, token) for where, token in tokens
           if token.split() != [token]]
    assert not bad


def test_record_json_round_trip():
    r = SentenceRecord("x-1", "gen", "pat", "a b", "c",
                       {"expected_role": "subject"}, {"seed": 4})
    assert SentenceRecord.from_json(r.to_json()) == r


def _parts(value):
    """Every key, dict, list and leaf value of a JSON value, at any depth."""
    yield value
    if isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from _parts(item)
    elif isinstance(value, list):
        for item in value:
            yield from _parts(item)


def _assert_read_only(value):
    """Every dict and list of a JSON value, at any depth, refuses change."""
    for part in _parts(value):
        if isinstance(part, dict):
            changes = (lambda d: d.__setitem__("k", 0),
                       lambda d: d.update(k=0), lambda d: d.pop("k", None),
                       lambda d: d.clear())
        elif isinstance(part, list):
            changes = (lambda xs: xs.__setitem__(0, 0),
                       lambda xs: xs.append(0), lambda xs: xs.pop(),
                       lambda xs: xs.clear())
        else:
            continue
        before = json.dumps(part)
        for change in changes:
            with pytest.raises(TypeError):
                change(part)
        assert json.dumps(part) == before


def test_read_records_are_slotted_and_share_tokens(tmp_path, bank):
    """A read corpus holds slotted records whose source and target are the
    strings of their line; equal splits and pattern ids are one shared
    string each, as are the keys and strings of their annotations and
    provenances; equal ints (the stream seeds) are one object per file.
    Equal annotations and provenances are one read-only object per file."""
    config = RunConfig(master_seed=1, scale=0.002)
    recs, manifest = build_splits(config, bank=bank)
    write_corpus(recs, manifest, str(tmp_path))
    back, _ = read_corpus(str(tmp_path))
    assert not hasattr(back["gen"][0], "__dict__")
    first = {}
    for split in SPLITS:
        ints, seeds, values = {}, 0, {}
        lines = (tmp_path / f"{split}.jsonl").read_text(
            encoding="utf-8").splitlines()
        assert len(lines) == len(back[split])
        for r, line in zip(back[split], lines):
            data = json.loads(line)
            for name in ("source", "target"):
                assert type(getattr(r, name)) is str
                assert getattr(r, name) == data[name]
            for token in (r.split, r.pattern_id):
                assert first.setdefault(token, token) is token
            for name in ("annotation", "provenance"):
                value = getattr(r, name)
                assert values.setdefault((name, repr(value)), value) is value
                _assert_read_only(value)
            for part in (*_parts(r.annotation), *_parts(r.provenance)):
                if type(part) is str:
                    assert first.setdefault(part, part) is part
                elif type(part) is int:
                    assert ints.setdefault(part, part) is part
            seeds += "seed" in r.provenance
            assert SentenceRecord.from_json(r.to_json()) == r
        # more records than streams, so some seed is read more than once
        assert len([v for v in ints if v > 256]) < seeds


def test_read_record_keeps_every_json_value(tmp_path):
    """Sharing changes no value's type: bools, floats and nulls read back
    as written, at any depth, and equal records share one read-only
    annotation and provenance."""
    record = {"id": "x-1", "split": "gen", "source": "a b", "target": "c",
              "annotation": {"target_constituent_ref_tokens": ["c"],
                             "flags": [True, 1, 1.0, -0.0, None, 7 ** 30,
                                       "s", [False, 0, {"k": 0.0}]],
                             "depth_profile": {"CP": 1, "PP": True}},
              "provenance": {"seed": 7 ** 30, "depths": {"CP": 1.0},
                             "ok": False}}
    line = json.dumps(record, ensure_ascii=False, sort_keys=True)
    path = tmp_path / "gen.jsonl"
    path.write_text(line + "\n" + line + "\n", encoding="utf-8")
    one, two = build.read_jsonl(str(path))
    for r in (one, two):
        assert json.dumps(r.to_json(), ensure_ascii=False,
                          sort_keys=True) == line
    assert one.provenance["seed"] is two.annotation["flags"][5]
    assert one.annotation is two.annotation
    assert one.provenance is two.provenance
    _assert_read_only(one.annotation)
    _assert_read_only(one.provenance)


def _line(annotation, provenance):
    return json.dumps({"id": "g-1", "split": "gen", "source": "a b",
                       "target": "c", "annotation": annotation,
                       "provenance": provenance},
                      ensure_ascii=False, sort_keys=True)


@pytest.mark.parametrize("old,new", [(True, 1), (1.0, 1), (-0.0, 0.0)])
def test_values_that_differ_only_in_type_or_sign_share_nothing(
        tmp_path, old, new):
    """Equal lines share their annotation and provenance; a line whose
    values differ from theirs only in ``true``/``1``, ``1.0``/``1`` or
    ``-0.0``/``0.0`` (equal in Python) shares no dict or list with them and
    reads back byte for byte."""
    def line(flag):
        return _line({"target_constituent_ref_tokens": ["c"],
                      "flags": [flag], "depth_profile": {"CP": flag}},
                     {"seed": 5, "depths": {"CP": flag}, "x": flag})

    lines = [line(old), line(old), line(new)]
    path = tmp_path / "gen.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    one, two, three = build.read_jsonl(str(path))
    assert one.annotation is two.annotation
    assert one.provenance is two.provenance
    assert three.annotation == one.annotation
    assert three.provenance == one.provenance
    seen = {id(p) for r in (one, two)
            for p in (*_parts(r.annotation), *_parts(r.provenance))
            if isinstance(p, (dict, list))}
    assert not seen & {id(p) for p in (*_parts(three.annotation),
                                       *_parts(three.provenance))
                       if isinstance(p, (dict, list))}
    assert [json.dumps(r.to_json(), ensure_ascii=False, sort_keys=True)
            for r in (one, two, three)] == lines


def test_a_value_is_checked_in_each_role_it_is_read_in(tmp_path):
    """One object stands for equal values, whether read as an annotation
    or a provenance; a value first read as a provenance is still checked
    when a later line holds it as its annotation."""
    value = {"seed": 5}
    path = tmp_path / "gen.jsonl"
    path.write_text(_line(None, value) + "\n" + _line(value, value) + "\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{path}:2: 'target_constituent_"
                                         "ref_tokens' is not a list"):
        build.read_jsonl(str(path))


def test_built_records_are_read_only(small_build):
    recs, _ = small_build
    for split in SPLITS:
        for r in recs[split]:
            _assert_read_only(r.annotation)
            _assert_read_only(r.provenance)


def test_records_pickle_as_read_only_values(tmp_path, small_build):
    """The --parallel gen stage sends records back from its workers
    pickled; they come back equal and still read-only, built or read."""
    recs, manifest = small_build
    write_corpus(recs, manifest, str(tmp_path))
    back, _ = read_corpus(str(tmp_path), keep=("gen",))
    for records in (recs["gen"], back["gen"]):
        copies = pickle.loads(pickle.dumps(records))
        assert copies == records
        for r in copies:
            _assert_read_only(r.annotation)
            _assert_read_only(r.provenance)


def test_pool_records_share_one_provenance(small_build):
    recs, _ = small_build
    pool = [r for split in ("train", "dev", "test") for r in recs[split]
            if r.provenance == {"seed": child_seed(1, "pool"),
                                "grammar_id": "in_dist"}]
    assert len(pool) >= 50 + 50 + 300
    assert all(r.provenance is pool[0].provenance for r in pool)


def test_config_round_trip(tmp_path):
    cfg = RunConfig(master_seed=9, scale=0.5, with_concat=False)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
    assert RunConfig.from_file(str(path)) == cfg


def test_float_config_field_from_file_is_a_float(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"scale": 1}', encoding="utf-8")
    from_file = RunConfig.from_file(str(path)).to_dict()
    assert json.dumps(from_file, sort_keys=True) == \
        json.dumps(RunConfig(scale=1.0).to_dict(), sort_keys=True)


def test_small_build_bytes_are_pinned(tmp_path, small_build):
    recs, manifest = small_build
    write_corpus(recs, manifest, str(tmp_path))
    digest = hashlib.sha256()
    for split in SPLITS:
        digest.update((tmp_path / f"{split}.jsonl").read_bytes())
    assert digest.hexdigest() == SMALL_BUILD_SHA256


def _count_draws(monkeypatch, grammar):
    """The list that gets one item per root draw from ``grammar``.  The
    patch is on the class, so undoing it leaves nothing on the shared
    bank's grammar that would hide it from later class-level patches."""
    sample, draws = Pcfg.sample_with_rng, []

    def counted(self, rng, constraints=None):
        if self is grammar:
            draws.append(1)
        return sample(self, rng, constraints)

    monkeypatch.setattr(Pcfg, "sample_with_rng", counted)
    return draws


def test_draw_gives_up_after_its_budget(bank, monkeypatch):
    with pytest.raises(UnsatisfiableConstraintError,
                       match="^test stream: no fresh record in 10000"):
        _draw(bank.grammar, Random(0), None, lambda tree: False, bank,
              default_case_frames(), set(), [0], "test stream")
    # Constraints that admit no tree raise before the first root draw.
    draws = _count_draws(monkeypatch, bank.grammar)
    never = Constraints(required=frozenset({"root_decl", "root_q"}))
    with pytest.raises(UnsatisfiableConstraintError,
                       match=r"^test stream: no tree meets the constraints "
                             r"\(required=root_decl,root_q\)$"):
        _draw(bank.grammar, Random(0), never, None, bank,
              default_case_frames(), set(), [0], "test stream")
    assert draws == []
    monkeypatch.undo()
    assert "sample_with_rng" not in vars(bank.grammar)


def test_draw_checks_every_constrained_tree(bank, monkeypatch):
    """The sampler's draws are checked by ``_draw``, not trusted: a sampler
    that ignores its constraints is a hard error naming the stream and the
    constraints."""
    decl = Constraints(required=frozenset({"root_decl"}))
    tree = bank.grammar.sample_with_rng(Random(0), decl)
    monkeypatch.setattr(Pcfg, "sample_with_rng",
                        lambda self, rng, constraints=None: tree)
    question = Constraints(forbidden=frozenset({"root_decl"}))
    with pytest.raises(GrammarError,
                       match=r"^test stream: sampled a tree that fails its "
                             r"constraints \(forbidden=root_decl\)$"):
        _draw(bank.grammar, Random(0), question, None, bank,
              default_case_frames(), set(), [0], "test stream")


def test_draw_redraws_an_unrepairable_tree(bank, monkeypatch):
    """A noun two verbs constrain ('wine', eaten and drunk) whose repair
    would leave an unlicensed pair is not kept: ``_draw`` counts the tree as
    unrepairable and draws again."""
    in_dist = bank.grammar_for("in_dist")
    [unrepairable] = parse(in_dist,
                           "Lucas ate the wine that Ava drank .".split())
    [clean] = parse(in_dist, "the teacher found the panda .".split())
    trees = iter([unrepairable, clean])
    monkeypatch.setattr(Pcfg, "sample_with_rng",
                        lambda self, rng, constraints=None: next(trees))
    dropped = [0]
    got = _draw(bank.grammar, Random(0), None, None, bank,
                default_case_frames(), set(), dropped, "test stream")
    tree, source, samples = got[0], got[2], got[-1]
    assert tree is clean and samples == 2 and dropped == [1]
    assert source == "The teacher found the panda ."


def test_concatenation_part_draw_is_bounded(bank, monkeypatch):
    # With no training depth allowed, no tree passes the depth check.
    monkeypatch.setattr(build, "TRAIN_DEPTHS", frozenset())
    with pytest.raises(UnsatisfiableConstraintError,
                       match="^concatenation record 0 part 0:"):
        concatenate_for_length(bank, default_case_frames(), 1, 1, 10, set(),
                               [0])


class _EveryPairUsed(set):
    def __contains__(self, key):
        return True


def test_concatenation_record_has_one_draw_budget(bank, monkeypatch):
    """Parts and retries of one record share DRAW_BUDGET root draws, checked
    after each part: a record overdraws by at most one part's budget."""
    monkeypatch.setattr(build, "DRAW_BUDGET", 20)
    draws = _count_draws(monkeypatch, bank.grammar)
    with pytest.raises(UnsatisfiableConstraintError,
                       match=r"^concatenation record 0: no fresh joined pair "
                             r"in \d+ root draws$"):
        concatenate_for_length(bank, default_case_frames(), 1, 1, 10,
                               _EveryPairUsed(), [0])
    assert 20 <= len(draws) < 2 * 20
    monkeypatch.undo()
    assert "sample_with_rng" not in vars(bank.grammar)


def test_in_distribution_pool_draw_is_bounded(bank, monkeypatch):
    def one_gen_record(pid, *_args):
        return [SentenceRecord(f"gen-{pid}", "gen", pid, pid, pid)], \
            0, 1

    monkeypatch.setattr(build, "_build_pattern", one_gen_record)
    monkeypatch.setattr(build, "primitive_exposures", lambda *_args: ([], 0))
    monkeypatch.setattr(build, "TRAIN_DEPTHS", frozenset())
    with pytest.raises(UnsatisfiableConstraintError,
                       match="^in-distribution pool"):
        build_splits(RunConfig(scale=0.001), bank=bank)


def test_manifest_counts_every_root_draw(bank, tmp_path, monkeypatch):
    """The manifest's root_draws total is the build's sample_with_rng
    calls, and the serial and parallel builds write the same manifest."""
    calls = []
    sample = Pcfg.sample_with_rng

    def counted(self, rng, constraints=None):
        calls.append(1)
        return sample(self, rng, constraints)

    monkeypatch.setattr(Pcfg, "sample_with_rng", counted)
    serial = RunConfig(master_seed=1, scale=0.01, out_dir=str(tmp_path / "s"))
    recs, manifest = build_splits(serial, bank=bank)
    monkeypatch.undo()
    assert manifest["root_draws"] == len(calls)
    gen_draws = [s["root_draws"] for s in manifest["per_pattern"].values()]
    assert all(d >= s["gen_count"] for d, s in
               zip(gen_draws, manifest["per_pattern"].values()))
    assert sum(gen_draws) < manifest["root_draws"]
    write_corpus(recs, manifest, serial.out_dir)

    parallel = RunConfig(master_seed=1, scale=0.01, parallel=True,
                         out_dir=str(tmp_path / "p"))
    write_corpus(*build_splits(parallel, bank=bank), parallel.out_dir)
    assert (tmp_path / "s" / "manifest.json").read_bytes() == \
        (tmp_path / "p" / "manifest.json").read_bytes()


def test_manifest_does_not_name_the_output_directory(bank, tmp_path):
    """One build written to two directories gives one manifest."""
    for name in ("a", "b"):
        config = RunConfig(master_seed=1, scale=0.01,
                           out_dir=str(tmp_path / name))
        write_corpus(*build_splits(config, bank=bank), config.out_dir)
    assert (tmp_path / "a" / "manifest.json").read_bytes() == \
        (tmp_path / "b" / "manifest.json").read_bytes()


def test_build_and_audit_leave_no_reference_cycles(bank):
    """Every tree, analysis, target tree and parse memo of a build and of
    its audit is freed by reference counting when its call returns, so
    neither leaves work for the cyclic garbage collector.  (Writing the
    corpus is left out: the standard library's indenting JSON encoder
    leaves a few cycles of its own.)"""
    gc.collect()
    gc.disable()
    try:
        records, _ = build_splits(RunConfig(master_seed=1, scale=0.01),
                                  bank=bank)
        assert gc.collect() == 0
        assert audit_gap(records["train"], bank.patterns, bank=bank) == []
        assert gc.collect() == 0
    finally:
        gc.enable()
