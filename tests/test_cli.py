import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest
from click.testing import CliRunner

from compmt import bank as bank_module
from compmt import patterns as patterns_module
from compmt.cli import main
from compmt.grammar import GrammarError


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory, runner):
    out = tmp_path_factory.mktemp("cli") / "corpus"
    result = runner.invoke(
        main, ["generate", "--seed", "1", "--scale", "0.01",
               "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "audit clean" in result.output
    return out


def test_generate_writes_all_files(corpus_dir):
    names = {p.name for p in corpus_dir.iterdir()}
    assert names == {"train.jsonl", "dev.jsonl", "test.jsonl", "gen.jsonl",
                     "corpus.tsv", "manifest.json"}
    manifest = json.loads((corpus_dir / "manifest.json").read_text())
    assert manifest["counts"] == {"train": 616, "dev": 50, "test": 50,
                                  "gen": 760}


def test_validate_ok(runner):
    result = runner.invoke(main, ["validate"])
    assert result.exit_code == 0, result.output
    assert "ok: 43 grammars" in result.output
    assert "42 pattern grammars" in result.output


def test_validate_names_a_non_normalized_pattern_grammar(runner,
                                                         monkeypatch):
    """The bank is built without validating its grammars, so ``validate``
    reaches its own report for a broken pattern grammar."""
    build = patterns_module._gen_wh_passive_subj

    def skewed():
        g = build()
        i = next(i for i, p in enumerate(g.prods) if p.id == "q_whatpass")
        g.prods[i] = replace(g.prods[i], weight=F(2, 10))
        return g

    monkeypatch.setattr(patterns_module, "_gen_wh_passive_subj", skewed)
    monkeypatch.setattr(bank_module, "_default_bank", None)
    result = runner.invoke(main, ["validate"])
    assert result.exit_code == 1, result.output
    assert result.output == ("wh_passive_subj: non_normalized: SQ "
                             "(lhs SQ sums to 1.1)\n1 grammar violations\n")


@pytest.mark.parametrize("command", ["validate", "generate", "audit",
                                     "score"])
def test_a_bank_that_cannot_be_built_exits_1_naming_the_production(
        runner, corpus_dir, tmp_path, monkeypatch, command):
    parse = bank_module.parse_template

    def malformed(pid, text, rhs):
        if pid == "s_trans_past":
            text = "$0 ga $9 o @morph(1)"
        return parse(pid, text, rhs)

    monkeypatch.setattr(bank_module, "parse_template", malformed)
    monkeypatch.setattr(bank_module, "_default_bank", None)
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("")
    args = {"validate": [],
            "generate": ["--scale", "0.01", "--out", str(tmp_path / "out")],
            "audit": ["--corpus", str(corpus_dir)],
            "score": ["--corpus", str(corpus_dir), "--hyp", str(hyp)]}
    result = runner.invoke(main, [command, *args[command]])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output == \
        "error: production s_trans_past: child 9 out of range\n"


def test_audit_existing_corpus(runner, corpus_dir):
    result = runner.invoke(main, ["audit", "--corpus", str(corpus_dir)])
    assert result.exit_code == 0, result.output
    assert "no leakage" in result.output


def test_audit_missing_corpus_is_io_error(runner, tmp_path):
    result = runner.invoke(main, ["audit", "--corpus",
                                  str(tmp_path / "nope")])
    assert result.exit_code == 2


def _write_hypotheses(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps({"id": rec["id"],
                                 "hypothesis": rec["target"]}) + "\n")


def _read_split(corpus_dir, split):
    return [json.loads(line) for line in
            (corpus_dir / f"{split}.jsonl").read_text().splitlines()]


def test_score_self_hypotheses(runner, corpus_dir, tmp_path):
    gen = _read_split(corpus_dir, "gen")
    hyp_path = tmp_path / "hyp.jsonl"
    _write_hypotheses(hyp_path, gen)
    report_path = tmp_path / "report.json"
    result = runner.invoke(
        main, ["score", "--corpus", str(corpus_dir), "--hyp", str(hyp_path),
               "--report", str(report_path)])
    assert result.exit_code == 0, result.output
    assert "[overall]" in result.output and "100.00" in result.output
    report = json.loads(report_path.read_text())
    assert report["overall"]["exact_pct"] == 100.0
    assert report["scored"] == len(gen)


def test_score_counts_unmatched_ids(runner, corpus_dir, tmp_path):
    gen = _read_split(corpus_dir, "gen")
    hyp_path = tmp_path / "hyp.jsonl"
    _write_hypotheses(hyp_path, gen + [{"id": "no-such-id",
                                        "target": "x"}])
    report_path = tmp_path / "report.json"
    result = runner.invoke(
        main, ["score", "--corpus", str(corpus_dir), "--hyp", str(hyp_path),
               "--report", str(report_path)])
    assert result.exit_code == 0, result.output
    report = json.loads(report_path.read_text())
    assert report["unmatched"] == 1
    assert report["scored"] == len(gen) and report["skipped"] == 0
    assert f"{hyp_path}: 1 hypothesis ids match no gen record" in \
        result.stderr


def test_score_with_no_matching_id_is_io_error(runner, corpus_dir,
                                               tmp_path):
    hyp_path = tmp_path / "dev-hyp.jsonl"
    _write_hypotheses(hyp_path, _read_split(corpus_dir, "dev"))
    result = runner.invoke(
        main, ["score", "--corpus", str(corpus_dir), "--split", "gen",
               "--hyp", str(hyp_path)])
    assert result.exit_code == 2
    assert f"error: {hyp_path}: none of its 50 hypothesis ids" in \
        result.stderr


def test_score_missing_hypothesis_file(runner, corpus_dir, tmp_path):
    result = runner.invoke(
        main, ["score", "--corpus", str(corpus_dir),
               "--hyp", str(tmp_path / "absent.jsonl")])
    assert result.exit_code == 2


def test_inspect_pattern_filter(runner, corpus_dir):
    result = runner.invoke(
        main, ["inspect", "--corpus", str(corpus_dir),
               "--pattern", "active_to_passive", "--limit", "3"])
    assert result.exit_code == 0, result.output
    assert result.output.count("src:") == 3
    assert "/active_to_passive]" in result.output


def test_inspect_depth_filter(runner, corpus_dir):
    result = runner.invoke(
        main, ["inspect", "--corpus", str(corpus_dir), "--split", "gen",
               "--depth", "cp=5", "--limit", "2"])
    assert result.exit_code == 0, result.output
    assert "CP=5" in result.output


def test_inspect_regex_filter(runner, corpus_dir):
    result = runner.invoke(
        main, ["inspect", "--corpus", str(corpus_dir), "--split", "gen",
               "--regex", r"^What\b", "--limit", "1"])
    assert result.exit_code == 0, result.output
    assert "src: What" in result.output


def test_inspect_limit_must_be_positive(runner, corpus_dir):
    for limit in ("0", "-1"):
        result = runner.invoke(main, ["inspect", "--corpus", str(corpus_dir),
                                      "--limit", limit])
        assert result.exit_code == 2, limit
        assert "--limit" in result.stderr, limit


def test_bad_corpus_line_is_io_error_naming_the_line(runner, corpus_dir,
                                                     tmp_path):
    copy = tmp_path / "corpus"
    shutil.copytree(corpus_dir, copy)
    train, gen = copy / "train.jsonl", copy / "gen.jsonl"
    record = json.loads(train.read_text(encoding="utf-8").splitlines()[2])
    del record["source"]
    annotated = json.loads(gen.read_text(encoding="utf-8").splitlines()[0])
    hyp = tmp_path / "hyp.jsonl"  # scores the annotated record
    hyp.write_text(json.dumps({"id": annotated["id"],
                               "hypothesis": annotated["target"]}) + "\n",
                   encoding="utf-8")

    def with_annotation(annotation=None, **fields):
        if annotation is None:
            annotation = dict(annotated["annotation"], **fields)
        return json.dumps(dict(annotated, annotation=annotation))

    gen_lines = gen.read_text(encoding="utf-8").splitlines()
    shallow_line, shallow = next(
        (i, json.loads(line)) for i, line in enumerate(gen_lines, 1)
        if json.loads(line)["pattern_id"] == "cp_recursion_shallower")

    audit = [["audit", "--corpus", str(copy)]]
    readers = [["score", "--corpus", str(copy), "--hyp", str(hyp)],
               ["inspect", "--corpus", str(copy)]]
    not_tokens = "'target_constituent_ref_tokens' is not a list of strings"
    bad = [
        (train, 3, "{id: 1}", "Expecting property name", audit),
        (train, 3, "[1, 2]", "expected a JSON object", audit),
        (train, 3, json.dumps(record), "'source' is missing or not a string",
         audit),
        (train, 3, json.dumps(dict(record, source="x", provenance=5)),
         "'provenance' is not an object", audit + readers),
        (train, 3, json.dumps(dict(record, source="x")) + " {}", "Extra data",
         audit + readers),
        (gen, 1, json.dumps(dict(annotated, pattern_id=["x"])),
         "'pattern_id' is not a string", readers),
        (gen, 1, with_annotation(5), "'annotation' is not an object", readers),
        (gen, 1, with_annotation(target_constituent_ref_tokens="ookami"),
         not_tokens, readers),
        (gen, 1, with_annotation(target_constituent_ref_tokens=["ookami", 1]),
         not_tokens, readers),
        (gen, 1, with_annotation(target_constituent_ref_tokens=[]),
         "'target_constituent_ref_tokens' is empty", readers),
        (gen, 1, with_annotation(expected_role=3),
         "'expected_role' is neither a string nor null", readers),
        (gen, 1, with_annotation(depth_profile=[0]),
         "'depth_profile' is not an object", readers),
        (gen, shallow_line, json.dumps(dict(
            shallow, provenance=dict(shallow["provenance"], depths=5))),
         "'provenance.depths' is not an object",
         readers + [["inspect", "--corpus", str(copy), "--pattern",
                     "cp_recursion_shallower"],
                    ["inspect", "--corpus", str(copy), "--depth", "cp=3"]]),
        # Text mode decodes in chunks, so the error surfaces lines early.
        (train, 3, b"\xff\xfe", "not UTF-8 (invalid start byte)",
         audit + readers),
        (copy / "manifest.json", 2, b"\xff\xfe", "not UTF-8",
         audit + readers),
        (hyp, 1, b"\xff\xfe", "not UTF-8", readers[:1]),
    ]
    for path, lineno, text, message, commands in bad:
        original = path.read_bytes()
        lines = original.splitlines()
        lines[lineno - 1] = text if isinstance(text, bytes) else text.encode()
        path.write_bytes(b"\n".join(lines) + b"\n")
        for command in commands:
            result = runner.invoke(main, command)
            assert result.exit_code == 2, (text, command)
            assert result.stderr.startswith(
                f"error: {path}:{lineno}: {message}"), result.stderr
        path.write_bytes(original)


def test_cli_import_loads_no_process_pool():
    """Only ``generate --parallel`` starts workers, so importing the CLI
    loads none of the process-pool machinery."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = ("import sys, compmt.cli; print(sorted(m for m in "
              "('concurrent.futures.process', 'multiprocessing') "
              "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_inspect_bad_depth_filter(runner, corpus_dir):
    result = runner.invoke(
        main, ["inspect", "--corpus", str(corpus_dir), "--depth", "xx=1"])
    assert result.exit_code == 2


def test_generate_wo_concat(runner, tmp_path):
    out = tmp_path / "corpus"
    result = runner.invoke(
        main, ["generate", "--seed", "2", "--scale", "0.01", "--wo-concat",
               "--out", str(out)])
    assert result.exit_code == 0, result.output
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["augmentations"]["concatenated"] == 0
    assert manifest["config"]["with_concat"] is False


def test_out_dir_env_variable(runner, tmp_path, monkeypatch):
    out = tmp_path / "from-env"
    monkeypatch.setenv("COMPMT_OUT_DIR", str(out))
    result = runner.invoke(
        main, ["generate", "--seed", "3", "--scale", "0.002"])
    assert result.exit_code == 0, result.output
    assert (out / "manifest.json").exists()


def test_config_file_and_flag_overrides(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"master_seed": 5, "scale": 0.002,
                               "out_dir": str(tmp_path / "a")}),
                   encoding="utf-8")
    result = runner.invoke(
        main, ["generate", "--config", str(cfg),
               "--out", str(tmp_path / "b")])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "b" / "manifest.json").exists()
    assert not (tmp_path / "a").exists()


def test_parallel_comes_from_the_config_file_or_the_flag(runner, tmp_path,
                                                         monkeypatch):
    seen = []

    def record_parallel(config, bank=None):
        seen.append(config.parallel)
        raise GrammarError("stop after reading the config")

    monkeypatch.setattr("compmt.cli.build_splits", record_parallel)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"parallel": True, "scale": 0.002}),
                   encoding="utf-8")
    for args in (["--config", str(cfg)], [], ["--parallel"]):
        result = runner.invoke(main, ["generate", *args])
        assert result.exit_code == 1, result.output
    assert seen == [True, False, True]


def test_bad_config_file_is_io_error(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"no_such_key": 1}', encoding="utf-8")
    result = runner.invoke(main, ["validate", "--config", str(cfg)])
    assert result.exit_code == 2
    # A knob that was accepted but never read is now unknown, and so is
    # closed-world selectional checking, which no build could honour.
    for knob in ({"cp_embedding_fraction": 0.5},
                 {"strict_selectional": True}):
        cfg.write_text(json.dumps(knob), encoding="utf-8")
        result = runner.invoke(main, ["validate", "--config", str(cfg)])
        assert result.exit_code == 2, knob
        assert "unknown config keys" in result.stderr, knob
    result = runner.invoke(main, ["generate", "--strict-selectional",
                                  "--out", str(tmp_path / "never")])
    assert result.exit_code == 2
    assert "No such option" in result.stderr
    assert "--strict-selectional" in result.stderr
    result = runner.invoke(main, ["validate", "--config",
                                  str(tmp_path / "missing.json")])
    assert result.exit_code == 2
    frames = tmp_path / "frames.tsv"
    bad = {
        '{"scale": "0.01"}': f"{cfg}: scale must be of type float",
        '{"master_seed": true}': f"{cfg}: master_seed must be of type int",
        '{"with_concat": 1}': f"{cfg}: with_concat must be of type bool",
        '[1, 2]': f"{cfg}: expected a JSON object",
        '{"scale": 0.01,\n "seed"}': f"{cfg}:2: ",
        '{"scale": 0}': f"{cfg}: scale 0.0 leaves a pattern",
        '{"scale": 0.0001}': f"{cfg}: scale 0.0001 leaves a pattern",
        '{"topicalization_fraction": 1.5}':
            f"{cfg}: topicalization_fraction 1.5 is outside [0, 1]",
        json.dumps({"case_frame_path": str(frames)}):
            f"{frames}:2: expected 4 columns, got 3",
        b'{"scale": 0.01,\n \xff\xfe}':
            f"{cfg}:2: not UTF-8 (invalid start byte)",
    }
    frames.write_text("eat\tdirect_object\tapple\t1\n"
                      "eat\tdirect_object\tcake\n", encoding="utf-8")
    for text, message in bad.items():
        cfg.write_bytes(text if isinstance(text, bytes) else text.encode())
        result = runner.invoke(main, ["validate", "--config", str(cfg)])
        assert result.exit_code == 2, text
        assert f"error: {message}" in result.stderr, (text, result.stderr)
    cfg.write_text(json.dumps({"case_frame_path": str(frames)}),
                   encoding="utf-8")
    for rows, message in (
            (b"eat\toblique\tapple\t1\n",
             "1: unknown case-frame role 'oblique'"),
            (b"eat\tdirect_object\tapple\t1\n\xff\xfe\n", "2: not UTF-8")):
        frames.write_bytes(rows)
        result = runner.invoke(main, ["generate", "--config", str(cfg),
                                      "--out", str(tmp_path / "never")])
        assert result.exit_code == 2, rows
        assert f"error: {frames}:{message}" in result.stderr, result.stderr
        assert not (tmp_path / "never").exists()
    for scale, message in (("0", "leaves a pattern"),
                           ("-0.5", "leaves a pattern"),
                           ("0.0001", "leaves a pattern"),
                           ("nan", "leaves a pattern"),
                           ("1e300", "makes a record count larger than a "
                                     "list can hold"),
                           ("1e308", "makes a record count infinite")):
        result = runner.invoke(main, ["validate", "--scale", scale])
        assert result.exit_code == 2, scale
        assert result.stderr.startswith(
            f"error: --scale {float(scale)} {message}"), scale
