"""The benchmark still runs against the package.

`perfbench/` is kept unchanged between benchmark changes, so the package
must keep every name and argument position it binds. Read off
`perfbench/workloads.py` and `perfbench/tracing.py`, that is:

- Names that `instrument` patches (traced runs), by module:
  - `multigrain.train` and `multigrain.predict`: `build_graph`, `encode`
    and `score_nodes`;
  - `multigrain.train`: `joint_loss` and `adam_step` (`StepProbe`
    patches `adam_step` in untraced runs too);
  - `multigrain.tensor`: `backward`;
  - `multigrain.encoder`: `embed_tokens`, `graph_initialize`,
    `self_attention_level`, `graph_integration`, `feed_forward_concat`,
    `gat_attention` and `save_checkpoint`;
  - `multigrain.predict`: `select_answers`;
  - `multigrain.preprocess`: `preprocess_example`;
  - `multigrain.evaluate`: `threshold_sweep` (its `records` argument is
    counted).
- `gat_attention`'s positional `(states, mask, relation, params,
  prefix)`: the hook reads `mask.size`, `params.config.m` and `prefix`.
- `select_answers`'s second positional argument, `max_answer_tokens`.
- `self_attention_level`'s leading `level`, which names the span.
- `HierGraph.n_nodes`, and the arrays in `vars(graph)` of the graph that
  `build_graph` returns, which are summed into the graph's size.
- `loss._tape.nodes` of the loss passed to `backward`, and each node's
  `.data`.
- `ScoreSet.token_positions` and `ScoreSet.span_valid`, with each
  instance's `spans`.
- `ModelParams(config, tensors)`, with `.config` and `.tensors`, and the
  `(model, extra)` pair that `ModelParams.load` returns.
- `OptimizerState.to_arrays()` of the state `train_loop` returns, which
  must equal `extra`.
- Each `report.grains` value's `cases`, `f1`, `curve`, `precision` and
  `recall`.

A change to the package that breaks one of these fails here rather than
in the next benchmark run.
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
