"""perfbench/spans.py wraps compmt functions by attribute name from outside
the package; a traced benchmark run fails if one of them is renamed or
stops being called where the per-layer metrics expect it.  The probe runs
one build draw and one two-record audit under the tracer."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = """
from collections import Counter
from random import Random
from spans import Tracer, install
tracer = Tracer()
install(tracer)
from compmt import audit, build, naturalize
from compmt.bank import default_bank
from compmt.grammar import Constraints, Pcfg
hooks = [build.analyze, naturalize.analyze, audit.analyze, build.naturalize,
         build.reject_duplicates, build.transduce, Pcfg.sample_with_rng,
         Constraints.satisfied_by]
assert all(hasattr(f, "__wrapped__") for f in hooks)
bank = default_bank()
spec = bank.by_pattern["pp_recursion_deeper"]
build._draw(spec.gen_grammar, Random(0), spec.constraints_for(0), None, bank,
            naturalize.default_case_frames(), set(), [0], "probe")
records = [build.SentenceRecord(f"probe-{i}", "train", "", s, "")
           for i, s in enumerate(("Harper wrote .", "The baby cried ."))]
audit.audit_gap(records, bank.patterns, bank=bank)
calls = Counter(span[0] for span in tracer.spans)
print(calls["grammar.sample"], calls["grammar.constraint_check"],
      calls["naturalize"], calls["transduce"], calls["earley.parse"],
      calls["audit.audit_gap"], calls["audit.consume"],
      calls["bank.analyze.audit"])
"""


def test_benchmark_span_hooks_install_and_fire():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src")]))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    (samples, checks, naturalized, transduced, parses, audits, consumed,
     analyzed) = map(int, proc.stdout.split())
    # One constraint check per constrained root draw: perfbench counts
    # root draws as unconstrained samples plus checks.
    assert samples == checks >= 1
    assert naturalized >= 1 and transduced >= 1
    # The audit hooks feed the earley.*, audit.* and
    # bank.analyze.calls.audit metrics.
    assert audits == 1 and consumed == 2
    assert parses >= 2 and analyzed >= 2
