"""Command-line interface.

Subcommands wire the pipeline end to end: ``validate`` checks every
grammar (as the tests do; no command checks them on start) and, by
building them, every transduction template, ``generate`` builds and
audits a corpus, ``audit`` re-audits an existing one, ``score`` evaluates
a hypothesis file, and ``inspect`` filters records for eyeballing.

Exit codes: 0 success, 1 validation or leakage failure or a bank that
cannot be built, 2 I/O or configuration error.
"""

from __future__ import annotations

import os
import re
import sys

import click

from .audit import audit_gap
from .bank import default_bank
from .build import (OUT_DIR_ENV, SPLITS, RunConfig, build_splits,
                    read_corpus, write_corpus)
from .grammar import GrammarError
from .metrics import ScoringError, score_file
from .naturalize import read_case_frames

EXIT_INVALID = 1
EXIT_IO = 2

_DEPTH_KEYS = {"cp": "CP", "pp": "PP", "ce": "CenterEmbedRC", "adj": "Adj"}


def _fail_io(message):
    click.echo(f"error: {message}", err=True)
    sys.exit(EXIT_IO)


def _bank():
    """The bundled bank, or exit 1 with why it cannot be built."""
    try:
        return default_bank()
    except GrammarError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_INVALID)


def _load_config(config_path, seed, scale, wo_concat, out):
    """The run configuration: the file, then the flags over it.  A bad
    value exits 2 naming the flag or the file it came from."""
    try:
        config = (RunConfig.from_file(config_path) if config_path
                  else RunConfig())
    except (OSError, ValueError) as exc:
        _fail_io(exc)
    if seed is not None:
        config.master_seed = seed
    if scale is not None:
        config.scale = scale
    if wo_concat:
        config.with_concat = False
    if out is not None:
        config.out_dir = out
    elif os.environ.get(OUT_DIR_ENV):
        config.out_dir = os.environ[OUT_DIR_ENV]
    gen_counts = [p.gen_count for p in _bank().patterns]
    for key, message in config.range_errors(gen_counts):
        if key == "scale" and scale is not None:
            _fail_io(f"--scale {message}")
        _fail_io(f"{config_path}: {key} {message}")
    if config.case_frame_path:
        try:
            read_case_frames(config.case_frame_path)
        except (OSError, GrammarError) as exc:
            _fail_io(exc)
    return config


def _config_options(fn):
    fn = click.option("--config", "config_path", type=click.Path(),
                      default=None, help="JSON run configuration.")(fn)
    fn = click.option("--seed", type=int, default=None,
                      help="Master random seed.")(fn)
    fn = click.option("--scale", type=float, default=None,
                      help="Linear corpus size multiplier.")(fn)
    fn = click.option("--wo-concat", is_flag=True,
                      help="Skip the long-sentence concatenation step.")(fn)
    fn = click.option("--out", type=click.Path(), default=None,
                      help=f"Output directory (or ${OUT_DIR_ENV}).")(fn)
    return fn


@click.group()
def main():
    """Controlled English-Japanese corpus generation and evaluation."""


@main.command()
@_config_options
def validate(config_path, seed, scale, wo_concat, out):
    """Validate every grammar the build samples from.  Building the bank
    parses every production's transduction template against its rhs."""
    _load_config(config_path, seed, scale, wo_concat, out)
    bank = _bank()
    patterns = bank.patterns
    names = ["in_dist"] + [p.id for p in patterns]
    grammars = [(name, bank.grammar_for(name)) for name in names]
    problems = [f"{name}: {violation}" for name, grammar in grammars
                for violation in grammar.validate()]
    if problems:
        for line in problems:
            click.echo(line)
        click.echo(f"{len(problems)} grammar violations")
        sys.exit(EXIT_INVALID)
    click.echo(f"ok: {len(grammars)} grammars validate and are covered "
               f"by the transduction rules (in_dist and {len(patterns)} "
               f"pattern grammars)")


@main.command()
@_config_options
@click.option("--parallel", is_flag=True,
              help="Build generalization patterns in worker processes.")
def generate(config_path, seed, scale, wo_concat, out, parallel):
    """Build all four splits, audit the gap, and write the corpus."""
    config = _load_config(config_path, seed, scale, wo_concat, out)
    if parallel:
        config.parallel = True
    bank = _bank()
    try:
        splits, manifest = build_splits(config, bank=bank)
    except GrammarError as exc:
        click.echo(f"build failed: {exc}", err=True)
        sys.exit(EXIT_INVALID)
    except OSError as exc:
        _fail_io(exc)
    violations = audit_gap(splits["train"], bank.patterns, bank=bank)
    if violations:
        for v in violations[:50]:
            click.echo(str(v), err=True)
        click.echo(f"leakage audit failed: {len(violations)} violations; "
                   "no corpus written", err=True)
        sys.exit(EXIT_INVALID)
    try:
        write_corpus(splits, manifest, config.out_dir)
    except OSError as exc:
        _fail_io(exc)
    counts = manifest["counts"]
    click.echo("wrote " + ", ".join(
        f"{split} {counts[split]}" for split in SPLITS) +
        f" to {config.out_dir} (audit clean)")


@main.command()
@click.option("--corpus", "corpus_dir", type=click.Path(), required=True,
              help="Directory holding a generated corpus.")
def audit(corpus_dir):
    """Re-run the leakage audit over an existing corpus."""
    try:
        records, _manifest = read_corpus(corpus_dir, keep=("train",))
    except (OSError, ValueError) as exc:
        _fail_io(exc)
    bank = _bank()
    patterns = bank.patterns
    violations = audit_gap(records["train"], patterns, bank=bank)
    for v in violations:
        click.echo(str(v))
    if violations:
        click.echo(f"{len(violations)} violations")
        sys.exit(EXIT_INVALID)
    click.echo(f"ok: no leakage across {len(patterns)} patterns")


@main.command()
@click.option("--corpus", "corpus_dir", type=click.Path(), required=True)
@click.option("--split", default="gen", show_default=True,
              type=click.Choice(SPLITS))
@click.option("--hyp", "hyp_path", type=click.Path(), required=True,
              help="Hypotheses: JSONL {id, hypothesis} or aligned text.")
@click.option("--report", "report_path", type=click.Path(), default=None,
              help="Where to write the JSON report.")
def score(corpus_dir, split, hyp_path, report_path):
    """Score hypotheses against a corpus split."""
    try:
        records, _manifest = read_corpus(corpus_dir, keep=(split,))
    except (OSError, ValueError) as exc:
        _fail_io(exc)
    patterns = _bank().patterns
    try:
        report = score_file(hyp_path, records[split], patterns)
    except (OSError, ScoringError) as exc:
        _fail_io(exc)
    click.echo(report.table())
    if report.unmatched:
        click.echo(f"warning: {hyp_path}: {report.unmatched} hypothesis ids "
                   f"match no {split} record", err=True)
    if report_path:
        try:
            with open(report_path, "w", encoding="utf-8") as fh:
                fh.write(report.to_json() + "\n")
        except OSError as exc:
            _fail_io(exc)


def _record_depths(record):
    if record.annotation and "depth_profile" in record.annotation:
        return record.annotation["depth_profile"]
    return record.provenance.get("depths")


@main.command()
@click.option("--corpus", "corpus_dir", type=click.Path(), required=True)
@click.option("--split", default=None,
              type=click.Choice(SPLITS))
@click.option("--pattern", "pattern_id", default=None)
@click.option("--depth", "depth_filter", default=None,
              help="Construct depth filter, e.g. cp=5 or pp=3.")
@click.option("--regex", default=None,
              help="Regular expression over the source sentence, as "
              "the split file holds it.")
@click.option("--limit", type=click.IntRange(min=1), default=20,
              show_default=True)
def inspect(corpus_dir, split, pattern_id, depth_filter, regex, limit):
    """Pretty-print records matching the given filters."""
    splits = [split] if split else SPLITS
    try:
        records, _manifest = read_corpus(corpus_dir, keep=splits)
    except (OSError, ValueError) as exc:
        _fail_io(exc)
    want_construct = want_depth = None
    if depth_filter:
        try:
            key, _, value = depth_filter.partition("=")
            want_construct = _DEPTH_KEYS[key.strip().lower()]
            want_depth = int(value)
        except (KeyError, ValueError):
            _fail_io(f"bad depth filter {depth_filter!r}; expected one of "
                     f"{sorted(_DEPTH_KEYS)} = <int>")
    try:
        matcher = re.compile(regex) if regex else None
    except re.error as exc:
        _fail_io(f"bad regex: {exc}")
    shown = 0
    for name in splits:
        for record in records[name]:
            if pattern_id and record.pattern_id != pattern_id:
                continue
            if matcher and not matcher.search(record.source):
                continue
            depths = _record_depths(record)
            if want_construct is not None:
                if not depths or \
                        depths.get(want_construct) != want_depth:
                    continue
            click.echo(f"{record.id} [{name}"
                       + (f"/{record.pattern_id}" if record.pattern_id
                          else "") + "]")
            click.echo(f"  src: {record.source}")
            click.echo(f"  tgt: {record.target}")
            if depths:
                click.echo("  depths: " + ", ".join(
                    f"{k}={v}" for k, v in sorted(depths.items())))
            if record.annotation:
                ann = record.annotation
                click.echo(
                    "  annotation: ref="
                    + " ".join(ann["target_constituent_ref_tokens"])
                    + f" role={ann.get('expected_role')}"
                    + f" in_cp={ann.get('in_cp')}")
            shown += 1
            if shown >= limit:
                return
    if shown == 0:
        click.echo("no matching records")


if __name__ == "__main__":
    main()
