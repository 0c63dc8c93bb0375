"""compmt benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload generate --seed 1 --seconds 40 \\
        --trace 0

Run it from the root of a compmt checkout; it imports compmt from that
checkout's ``src``.  Workloads, each the calls one ``compmt`` command makes:

* ``generate`` - build_splits (serial), audit_gap over train, write_corpus;
* ``generate_parallel`` - the same with the gen stage in a process pool;
* ``audit`` - read_corpus and audit_gap over train plus 42 injected leaks;
* ``score`` - read_corpus and score_file for four hypothesis systems.

Every workload run happens in a fresh process (``worker.py``), so compmt's
grammar and sampler caches start cold, as for a CLI user.  ``audit`` and
``score`` first build their corpus once, untimed, from the seed.  With
``--trace 0`` runs repeat until ``--seconds`` of measuring is used and the
medians of the end-to-end metrics are reported; ``setup_s`` is the median of
the fresh-process ``import compmt`` + ``default_bank()`` times of several
probes and of every run.  With ``--trace 1`` one untraced and one traced
run give the per-layer metrics and the tracing overhead.

A table goes to standard output, then one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  The metric names and
units come from ``BENCHMARK.json`` at the checkout root.  Exit status 2 means
the checkout holds no compmt sources; nothing is printed on stdout then.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
STATE_DIR = ROOT / ".perfbench_work"
LEDGER = STATE_DIR / "corpus_sha256.json"
WORKLOADS = ("generate", "generate_parallel", "audit", "score")
SETUP_PROBES = 5
DEADLINE_S = 170.0  # every run exits within 180 s


class StepFailed(RuntimeError):
    pass


class Invocation:
    """Starts worker processes for one invocation and enforces its deadline."""

    def __init__(self, work_dir):
        self.work_dir = work_dir
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def left(self):
        return self.deadline - time.monotonic()

    def step(self, *args):
        """Run worker.py with args in a new process group; its JSON result
        and the wall time of the whole process."""
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(WORKER), *args],
                                cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=max(self.left(), 1.0))
        except subprocess.TimeoutExpired:
            out = None
        finally:
            # Also reaps pool workers a failed parallel build left behind.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        elapsed = time.monotonic() - t0
        if out is None:
            raise StepFailed(f"worker {args[0]} timed out")
        if proc.returncode != 0 or not out.strip():
            raise StepFailed(f"worker {args[0]} exited {proc.returncode}")
        return json.loads(out.strip().splitlines()[-1]), elapsed


# --------------------------------------------------------------------------
# Serial/parallel guard across invocations
# --------------------------------------------------------------------------


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "compmt").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_sha(seed, sha, source):
    """Record the corpus sha256 built at this seed by this source tree; a
    problem if an earlier serial or parallel build disagreed."""
    key = f"{_source_digest()}/{seed}"
    try:
        ledger = json.loads(LEDGER.read_text())
    except (OSError, ValueError):
        ledger = {}
    seen = ledger.get(key)
    if seen is not None and seen["sha256"] != sha:
        return [f"corpus sha256 {sha[:12]} ({source}) != {seen['sha256'][:12]}"
                f" ({seen['source']}) at seed {seed}"]
    if seen is None:
        ledger[key] = {"sha256": sha, "source": source}
        tmp = LEDGER.with_suffix(f".{os.getpid()}")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        os.replace(tmp, LEDGER)
    return []


# --------------------------------------------------------------------------
# One workload
# --------------------------------------------------------------------------


def _workload_run(session, workload, seed, trace_out=None):
    """One fresh-process run: (result or None, problems, elapsed)."""
    args = ["run", "--workload", workload, "--seed", str(seed),
            "--dir", str(session.work_dir)]
    if trace_out:
        args += ["--trace-out", str(trace_out)]
    try:
        result, elapsed = session.step(*args)
    except StepFailed as exc:
        return None, [str(exc)], 0.0
    problems = list(result["problems"])
    if "sha256" in result:
        problems += check_sha(seed, result["sha256"], workload)
    if result.get("oversubscribed"):
        print(f"warning: {result['pool_workers']} pool workers on "
              f"{result['affinity_cpus']} usable CPUs", file=sys.stderr)
    return result, problems, elapsed


def _prepare(session, workload, seed):
    if workload not in ("audit", "score"):
        return []
    result, _ = session.step("prepare", "--seed", str(seed),
                             "--dir", str(session.work_dir))
    return check_sha(seed, result["sha256"], "prepare (parallel build)")


def measure(session, workload, seed, seconds):
    """End-to-end metrics: medians over repeated fresh-process runs."""
    problems = _prepare(session, workload, seed)
    setup = [session.step("probe")[0]["setup_s"]
             for _ in range(SETUP_PROBES)]
    runs, measured = [], 0.0
    while True:
        result, run_problems, elapsed = _workload_run(session, workload, seed)
        runs.append((result, run_problems))
        measured += elapsed
        if result is None or measured >= seconds \
                or session.left() < 2 * elapsed:
            break
    done = [r for r, _ in runs if r is not None]
    if not done:
        raise StepFailed("; ".join(runs[0][1]))
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in done),
        "records_per_s": statistics.median(r["records"] / r["wall_s"]
                                           for r in done),
        "setup_s": statistics.median(setup + [r["setup_s"] for r in done]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
    }
    # A bad prepared corpus spoils every run that consumed it.
    failed = len(runs) if problems else sum(1 for r, p in runs
                                            if r is None or p)
    for _, run_problems in runs:
        problems += run_problems
    notes = {k: done[-1][k] for k in ("sha256", "pool_workers",
                                      "affinity_cpus") if k in done[-1]}
    notes["runs_wall_s"] = " ".join(f"{r['wall_s']:.3f}" for r in done)
    return metrics, len(runs), failed, problems, notes


def trace(session, workload, seed):
    """Per-layer metrics from one traced run, plus the tracing overhead
    against an untraced run of the same workload."""
    problems = _prepare(session, workload, seed)
    plain, plain_problems, _ = _workload_run(session, workload, seed)
    spans_path = STATE_DIR / f"spans-{workload}.json"
    traced, traced_problems, _ = _workload_run(session, workload, seed,
                                               trace_out=spans_path)
    if plain is None or traced is None:
        raise StepFailed("; ".join(plain_problems + traced_problems))
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    metrics["trace.spans"] = traced["spans"]
    failed = 2 if problems else bool(plain_problems) + bool(traced_problems)
    notes = {"untraced_wall_s": plain["wall_s"],
             "traced_wall_s": traced["wall_s"], "spans_file": str(spans_path)}
    return metrics, 2, failed, problems + plain_problems + traced_problems, \
        notes


def _table(workload, seed, metrics, units, attempted, failed, problems,
           notes):
    lines = [f"workload {workload}, seed {seed}: {attempted} run(s), "
             f"{failed} failed"]
    for name, value in metrics.items():
        lines.append(f"  {name:40s} {value:16.6f} {units[name]}")
    lines.append(f"  {'failed_ratio':40s} {failed / attempted:16.6f} ratio")
    lines.extend(f"  {key}: {value}" for key, value in notes.items())
    lines.extend(f"  FAILED CHECK: {p}" for p in problems[:20])
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="compmt benchmark (see the module docstring)")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "compmt" / "__init__.py").is_file():
        print(f"error: no compmt sources under {ROOT / 'src'}; run from a "
              "compmt checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    STATE_DIR.mkdir(exist_ok=True)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        work_dir = STATE_DIR / f"run-{os.getpid()}"
        shutil.rmtree(work_dir, ignore_errors=True)
        work_dir.mkdir()
        session = Invocation(work_dir)
        try:
            if args.trace:
                result = trace(session, workload, args.seed)
            else:
                result = measure(session, workload, args.seed, args.seconds)
        except StepFailed as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        metrics, attempted, failed, problems, notes = result
        if set(metrics) != set(units):
            raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} "
                             f"disagree with BENCHMARK.json {kind}")
        print(_table(workload, args.seed, metrics, units, attempted, failed,
                     problems, notes), flush=True)
        summary["correct"] &= not problems and failed == 0
        summary["attempted"] += attempted
        summary["failed"] += failed
        prefix = f"{workload}." if args.workload == "all" else ""
        summary["metrics"].update(
            {prefix + name: {"value": value, "unit": units[name]}
             for name, value in metrics.items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
