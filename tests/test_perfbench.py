"""The benchmark still runs against the package.

`perfbench` patches `adam_step`, `backward` and `save_checkpoint` where
the package looks them up, builds models with `ModelParams(config,
tensors)` and checks the reloaded optimizer state against
`OptimizerState.to_arrays()`; its traced runs read `ScoreSet.token_positions`,
`span_valid` and each loss's tape. A change to the package that breaks one of
these fails here rather than in the next benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["desk", "paper", "corpus"])
def test_traced_run_passes_its_output_checks(workload):
    """One short traced run of each workload (about 12, 7 and 19 s on one
    core) exits 0 with correct=true and no failed document; corpus's
    empty documents must end in typed refusals, not crashes. Only a
    traced run installs the count hooks that read the heads' and the
    tape's internals. It writes only to the git-ignored perfbench/out/."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout[-2000:]
