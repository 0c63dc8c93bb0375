"""One benchmark step in a fresh process; ``run.py`` starts it.

    python3 perfbench/worker.py probe
    python3 perfbench/worker.py prepare --seed N --dir DIR
    python3 perfbench/worker.py run --workload W --seed N --dir DIR
        [--trace-out PATH]

``probe`` times ``import compmt`` + ``default_bank()``.  ``prepare`` builds
the corpus that ``audit`` and ``score`` consume, with the leaks and
hypothesis systems derived from the seed.  ``run`` performs one workload the
way the matching ``compmt`` command does, checks its outputs and, with
``--trace-out``, records spans and derives the per-layer metrics.  Each step
prints one JSON object as its last line of standard output.

compmt must be importable (``run.py`` puts the checkout's ``src`` on
``PYTHONPATH``).
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from random import Random  # noqa: E402

SCALE = 0.1
EXPECTED_COUNTS = {"train": 4400, "dev": 500, "test": 500, "gen": 7600}
N_PATTERNS = 42
# The files whose concatenated bytes give the corpus sha256.
REFEREE_FILES = ("train.jsonl", "dev.jsonl", "test.jsonl", "gen.jsonl",
                 "manifest.json")
SWAP = {"ga": "o", "o": "ga"}


def _setup():
    """import compmt + default_bank(), as every compmt command starts."""
    from compmt import audit, bank, build, metrics  # noqa: F401
    return bank.default_bank(), time.perf_counter() - T_START


def corpus_sha256(corpus_dir):
    digest = hashlib.sha256()
    for name in REFEREE_FILES:
        with open(os.path.join(corpus_dir, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def corpus_bytes(corpus_dir):
    return sum(os.path.getsize(os.path.join(corpus_dir, name))
               for name in REFEREE_FILES)


def peak_rss_mb():
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


# --------------------------------------------------------------------------
# Inputs derived from the seed
# --------------------------------------------------------------------------


def _read_lines(path):
    with open(path, encoding="utf-8") as fh:
        return [line for line in fh.read().splitlines() if line.strip()]


def _dump(obj):
    return json.dumps(obj, ensure_ascii=False, sort_keys=True)


def _inject_leaks(corpus_dir, out_dir, seed):
    """Copy of the corpus whose train split also holds the first gen record
    of every pattern, each at a seed-chosen position."""
    os.makedirs(out_dir)
    for name in REFEREE_FILES[1:]:
        shutil.copyfile(os.path.join(corpus_dir, name),
                        os.path.join(out_dir, name))
    train = _read_lines(os.path.join(corpus_dir, "train.jsonl"))
    first = {}
    for line in _read_lines(os.path.join(corpus_dir, "gen.jsonl")):
        rec = json.loads(line)
        first.setdefault(rec["pattern_id"], rec)
    rng = Random(f"perfbench:leaks:{seed}")
    for pid, rec in first.items():
        leak = {"id": f"mut-{pid}", "split": "train",
                "source": rec["source"], "target": rec["target"]}
        train.insert(rng.randrange(len(train) + 1), _dump(leak))
    with open(os.path.join(out_dir, "train.jsonl"), "w",
              encoding="utf-8") as fh:
        fh.write("\n".join(train) + "\n")
    return sorted(first)


def _delete_token(tokens, rng):
    if len(tokens) < 2:
        return tokens
    i = rng.randrange(len(tokens))
    return tokens[:i] + tokens[i + 1:]


def _transpose(tokens, rng):
    spots = [i for i in range(len(tokens) - 1) if tokens[i] != tokens[i + 1]]
    if not spots:
        return tokens
    i = rng.choice(spots)
    return tokens[:i] + [tokens[i + 1], tokens[i]] + tokens[i + 2:]


def _swap_particles(tokens, annotation):
    """ga <-> o over the target constituent and the particle after it."""
    if not annotation:
        return tokens
    ref = annotation["target_constituent_ref_tokens"]
    n = len(ref)
    for start in range(len(tokens) - n + 1):
        if tokens[start:start + n] == ref:
            end = min(start + n + 1, len(tokens))
            return tokens[:start] + [SWAP.get(t, t)
                                     for t in tokens[start:end]] \
                + tokens[end:]
    return tokens


# name -> (perturbation or None, plain-text format)
SYSTEMS = {
    "oracle": (None, False),
    "token_deletion": (lambda toks, rec, rng: _delete_token(toks, rng),
                       False),
    "particle_swap": (lambda toks, rec, rng: _swap_particles(
        toks, rec.get("annotation")), False),
    "transposition_text": (lambda toks, rec, rng: _transpose(toks, rng),
                           True),
}


def _write_systems(corpus_dir, hyp_dir, seed):
    """Hypothesis files over the gen split, each perturbing a seed-chosen
    half of the records; returns what each must score."""
    os.makedirs(hyp_dir)
    gen = [json.loads(line)
           for line in _read_lines(os.path.join(corpus_dir, "gen.jsonl"))]
    systems = []
    for name, (perturb, plain) in SYSTEMS.items():
        rng = Random(f"perfbench:hyp:{seed}:{name}")
        lines, untouched = [], 0
        for rec in gen:
            ref = rec["target"].split()
            hyp = ref
            if perturb is not None and rng.random() < 0.5:
                hyp = perturb(ref, rec, rng)
            untouched += hyp == ref
            text = " ".join(hyp)
            lines.append(text if plain else
                         _dump({"id": rec["id"], "hypothesis": text}))
        path = os.path.join(hyp_dir, name + (".txt" if plain else ".jsonl"))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        systems.append({"name": name, "path": path, "n": len(gen),
                        "untouched": untouched})
    unannotated = sorted({r["pattern_id"] for r in gen
                          if not r.get("annotation")}
                         - {r["pattern_id"] for r in gen
                            if r.get("annotation")})
    return systems, unannotated


def prepare(seed, work_dir):
    """Build the corpus once (with a worker pool; untimed) and derive the
    audit and score inputs from it."""
    from compmt import build
    bank, _ = _setup()
    os.chdir(work_dir)
    config = build.RunConfig(master_seed=seed, scale=SCALE, parallel=True)
    splits, manifest = build.build_splits(config, bank=bank)
    build.write_corpus(splits, manifest, config.out_dir)
    corpus = os.path.join(work_dir, config.out_dir)
    leaked = _inject_leaks(corpus, os.path.join(work_dir, "audit_corpus"),
                           seed)
    systems, unannotated = _write_systems(
        corpus, os.path.join(work_dir, "hyp"), seed)
    with open(os.path.join(work_dir, "inputs.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"leaked_patterns": leaked, "systems": systems,
                   "unannotated_patterns": unannotated}, fh)
    return {"sha256": corpus_sha256(corpus), "counts": manifest["counts"]}


# --------------------------------------------------------------------------
# Workloads: the calls each compmt command makes, in its order
# --------------------------------------------------------------------------


def _generate(bank, seed, work_dir, parallel):
    from compmt import audit, build
    # The manifest records out_dir: keep the default, as `compmt generate`
    # without --out does, so every build's sha256 is comparable.
    run_dir = os.path.join(work_dir, "generated")
    os.makedirs(run_dir, exist_ok=True)
    os.chdir(run_dir)
    t0 = time.perf_counter()
    config = build.RunConfig(master_seed=seed, scale=SCALE,
                             parallel=parallel)
    splits, manifest = build.build_splits(config, bank=bank)
    violations = audit.audit_gap(splits["train"], bank.patterns, bank=bank)
    if not violations:
        build.write_corpus(splits, manifest, config.out_dir)
    wall = time.perf_counter() - t0

    problems = [f"audit: {v}" for v in violations[:5]]
    if manifest["counts"] != EXPECTED_COUNTS:
        problems.append(f"counts {manifest['counts']} != {EXPECTED_COUNTS}")
    result = {"wall_s": wall, "records": sum(manifest["counts"].values()),
              "built_here": sum(manifest["counts"].values())
              - (manifest["counts"]["gen"] if parallel else 0)}
    if not violations:
        result["sha256"] = corpus_sha256(config.out_dir)
        result["corpus_bytes"] = corpus_bytes(config.out_dir)
    os.chdir(work_dir)
    shutil.rmtree(run_dir)
    if parallel:
        workers = os.cpu_count()
        affinity = len(os.sched_getaffinity(0))
        result.update(pool_workers=workers, affinity_cpus=affinity,
                      oversubscribed=workers > affinity)
    return result, problems


def _audit(bank, seed, work_dir):
    from compmt import audit, build
    corpus = os.path.join(work_dir, "audit_corpus")
    t0 = time.perf_counter()
    records, _manifest = build.read_corpus(corpus)
    violations = audit.audit_gap(records["train"], bank.patterns, bank=bank)
    wall = time.perf_counter() - t0

    with open(os.path.join(work_dir, "inputs.json"), encoding="utf-8") as fh:
        leaked = json.load(fh)["leaked_patterns"]
    problems = []
    kinds = sorted({v.kind for v in violations})
    pids = sorted(v.pattern_id for v in violations)
    if kinds != ["leak"] or pids != leaked or len(leaked) != N_PATTERNS:
        problems.append(
            f"expected one leak for each of {N_PATTERNS} patterns, got "
            f"{len(violations)} violations of kinds {kinds} over "
            f"{len(set(pids))} patterns")
    return {"wall_s": wall, "records": len(records["train"]),
            "corpus_bytes": corpus_bytes(corpus)}, problems


def _score(bank, seed, work_dir):
    from compmt import build, metrics
    corpus = os.path.join(work_dir, "corpus")
    with open(os.path.join(work_dir, "inputs.json"), encoding="utf-8") as fh:
        inputs = json.load(fh)
    systems = inputs["systems"]
    reports = []
    t0 = time.perf_counter()
    for system in systems:
        records, _manifest = build.read_corpus(corpus)
        report = metrics.score_file(system["path"], records["gen"],
                                    bank.patterns)
        reports.append((report.table(), report.to_json()))
    wall = time.perf_counter() - t0

    problems = []
    for system, (table, text) in zip(systems, reports):
        problems.extend(f"{system['name']}: {p}" for p in _score_problems(
            system, table, text, inputs["unannotated_patterns"]))
    return {"wall_s": wall, "records": sum(s["n"] for s in systems),
            "corpus_bytes": corpus_bytes(corpus)}, problems


def _score_problems(system, table, text, unannotated):
    report = json.loads(text)
    out = []
    if report["scored"] != system["n"] or report["skipped"]:
        out.append(f"scored {report['scored']} skipped {report['skipped']} "
                   f"of {system['n']}")
    last_row = table.splitlines()[-1].split()
    if last_row[:2] != ["[overall]", str(system["n"])]:
        out.append(f"table ends with {last_row}")
    if system["name"] == "oracle":
        rows = [("overall", report["overall"])] + [
            (row["pattern_id"], row) for row in report["per_pattern"]]
        for name, row in rows:
            for key in ("exact_pct", "bleu", "partial_pct"):
                value = row[key]
                if key == "partial_pct" and name in unannotated:
                    if value is not None:
                        out.append(f"{name} partial_pct {value} without "
                                   "annotations")
                elif value is None or abs(value - 100.0) > 1e-9:
                    out.append(f"{name} {key} {value} != 100")
        if len(report["per_pattern"]) != N_PATTERNS:
            out.append(f"{len(report['per_pattern'])} pattern rows")
    expected = 100.0 * system["untouched"] / system["n"]
    if abs(report["overall"]["exact_pct"] - expected) > 1e-9 \
            or last_row[2:3] != [f"{expected:.2f}"]:
        out.append(f"exact_pct {report['overall']['exact_pct']} != "
                   f"{expected} ({system['untouched']} untouched)")
    return out


WORKLOADS = {
    "generate": lambda b, s, d: _generate(b, s, d, parallel=False),
    "generate_parallel": lambda b, s, d: _generate(b, s, d, parallel=True),
    "audit": _audit,
    "score": _score,
}


def run(workload, seed, work_dir, trace_out=None):
    bank, setup_s = _setup()
    tracer = None
    if trace_out:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    result, problems = WORKLOADS[workload](bank, seed, work_dir)
    result.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb(),
                  problems=problems)
    if tracer is not None:
        from compmt.audit import PARSE_LIMIT
        tracer.write(trace_out)
        result["layers"] = spans.layer_metrics(
            tracer.spans, PARSE_LIMIT, result.get("built_here", 0),
            result.get("corpus_bytes", 0))
        result["spans"] = len(tracer.spans)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("step", choices=["probe", "prepare", "run"])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--dir")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    if args.step == "probe":
        _bank, setup_s = _setup()
        out = {"setup_s": setup_s}
    elif args.step == "prepare":
        out = prepare(args.seed, args.dir)
    else:
        out = run(args.workload, args.seed, args.dir, args.trace_out)
    print(json.dumps(out))


if __name__ == "__main__":
    sys.exit(main())
