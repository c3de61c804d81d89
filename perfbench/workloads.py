"""The three workloads and one round of each.

A round is the whole user pipeline on the workload's inputs, in a closed
loop with one caller: raw JSONL read -> preprocess -> instance JSONL write
and read -> train with checkpoints -> checkpoint reload -> per-document
prediction -> evaluate. Every round of a run starts from the same
initial model, so every round must give bit-identical outputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field, replace
from importlib import import_module
from pathlib import Path

import numpy as np

from multigrain.docgraph import NodeType
from multigrain.encoder import EncoderConfig, ModelParams
from multigrain.evaluate import GoldLabel, evaluate
from multigrain.predict import predict_instances
from multigrain.preprocess import (
    Annotations,
    PreprocessConfig,
    RawExample,
    preprocess_examples,
    read_instances,
    read_raw_examples,
    write_instances,
    write_raw_examples,
)
from multigrain.synthgen import CorpusSpec, build_vocab, generate_corpus
from multigrain.tensor import ContractViolation, Tensor
from multigrain.train import TrainConfig, train_loop

from speed import RefClock
from tracing import Patches, StepProbe, Tracer

# By module path: the package re-exports functions named like some modules
# (multigrain.evaluate is also the function evaluate).
m_encoder, m_evaluate, m_predict, m_preprocess, m_tensor, m_train = (
    import_module(f"multigrain.{name}")
    for name in ("encoder", "evaluate", "predict", "preprocess", "tensor", "train")
)

# Cheap phases (set-up, preprocess, evaluate) are repeated until they have
# run this long, and their median is used, so a short phase is still steady.
MIN_PHASE_S = 0.25


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: dict            # CorpusSpec fields other than the seed
    encoder: dict           # EncoderConfig fields other than vocab_size
    train_docs: int         # first windows of documents 0..train_docs-1 are trained on
    batch_size: int
    total_steps: int
    checkpoint_every: int
    peak_lr: float
    empty_every: int = 0    # every k-th raw document gets an empty paragraph list


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk",
            corpus=dict(n_docs=80, answerable_frac=0.4, yesno_frac=0.1),
            encoder=dict(d_h=32, m=4, n_layers=2, d_ff=128),
            # 12 steps of 8 are two whole epochs of 48 documents, so every
            # seed trains on each of its documents equally often.
            train_docs=48,
            batch_size=8,
            total_steps=12,
            checkpoint_every=4,
            peak_lr=3e-3,
        ),
        Workload(
            name="paper",
            # 15-16 paragraphs of 4 sentences put nearly every document at three
            # overlapping fragments, so per-document times do not jump between
            # a two- and a three-fragment mode from one seed to the next.
            corpus=dict(n_docs=3, par_min=15, par_max=16, sent_min=4, sent_max=4,
                        tok_min=8, tok_max=12, answerable_frac=0.5, yesno_frac=0.0),
            encoder=dict(),
            train_docs=3,
            batch_size=1,
            total_steps=3,
            checkpoint_every=1,
            peak_lr=1e-3,
        ),
        Workload(
            name="corpus",
            # One narrow layer, not zero: with zero layers every encoder
            # sublayer time would read 0 on every run.
            corpus=dict(n_docs=500, par_min=2, par_max=12),
            encoder=dict(d_h=8, m=1, n_layers=1, d_ff=8),
            train_docs=64,
            batch_size=8,
            total_steps=8,
            checkpoint_every=4,
            peak_lr=3e-3,
            empty_every=50,
        ),
    )
}


def doc_index(example_id: str) -> int:
    return int(example_id.rsplit("-", 1)[1])


# ------------------------------------------------------------------ set-up


@dataclass
class Prepared:
    workload: Workload
    seed: int
    workdir: Path
    vocab: object
    golds: list[GoldLabel]
    model0: ModelParams

    @property
    def raw_path(self):
        return self.workdir / "raw.jsonl"

    @property
    def instance_path(self):
        return self.workdir / "instances.jsonl"

    @property
    def checkpoint_path(self):
        return self.workdir / "model.ckpt"


def generate(wl: Workload, seed: int):
    """The workload's corpus, with the same mix of lengths for every seed.

    Drawing each document's paragraph count from the seed would let the
    mix of lengths, and so the work, change from seed to seed. Instead one
    sub-corpus is generated per paragraph count in [par_min, par_max], and
    their documents are interleaved: document d has par_min + d % K
    paragraphs, for K counts. The seed varies everything else.
    """
    spec = CorpusSpec(seed=seed, **wl.corpus)
    counts = range(spec.par_min, spec.par_max + 1)
    parts = [
        generate_corpus(replace(spec, seed=seed * len(counts) + j, par_min=k, par_max=k,
                                n_docs=len(range(j, spec.n_docs, len(counts)))))
        for j, k in enumerate(counts)
    ]
    examples, golds = [], []
    for d in range(spec.n_docs):
        part_examples, part_golds = parts[d % len(counts)]
        example_id = f"doc{seed}-{d:04d}"
        examples.append(replace(part_examples[d // len(counts)], example_id=example_id))
        golds.append(replace(part_golds[d // len(counts)], example_id=example_id))
    return spec, examples, golds


def prepare(wl: Workload, seed: int, workdir: Path) -> Prepared:
    """Generate the seeded inputs, write the raw JSONL and init the model."""
    spec, examples, golds = generate(wl, seed)
    if wl.empty_every:
        for d in range(wl.empty_every - 1, len(examples), wl.empty_every):
            ex = examples[d]
            examples[d] = RawExample(ex.example_id, ex.question, [], Annotations())
            golds[d] = GoldLabel(ex.example_id)
    vocab = build_vocab(spec)
    cfg = EncoderConfig(vocab_size=len(vocab), **wl.encoder)
    p = Prepared(wl, seed, workdir, vocab, golds, ModelParams.init(cfg, seed=seed))
    workdir.mkdir(parents=True, exist_ok=True)
    write_raw_examples(p.raw_path, examples)
    return p


def fresh_model(model: ModelParams) -> ModelParams:
    return ModelParams(
        model.config,
        {k: Tensor(t.data.copy(), requires_grad=True) for k, t in model.tensors.items()},
    )


# ------------------------------------------------------------------- round


@dataclass
class Units:
    """One round's timed units, as ids of the run's RefClock units."""
    setup: list = field(default_factory=list)
    preprocess: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    after_steps: int = -1  # train_loop after its last step: the final checkpoint
    docs: list = field(default_factory=list)
    eval: list = field(default_factory=list)


@dataclass
class RoundResult:
    n_docs: int = 0
    fragments: int = 0
    units: Units = field(default_factory=Units)
    train_instances: int = 0
    losses: list = field(default_factory=list)
    checkpoint_bytes: int = 0
    typed_failures: list = field(default_factory=list)
    failed: list = field(default_factory=list)
    wall_s: float = 0.0
    counts: dict = field(default_factory=dict)  # trace counts added by this round
    spans: tuple = (0, 0)                       # this round's slice of the span list
    digest: str = ""
    errors: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return self.n_docs + len(self.losses)


def repeat(fn, clock: RefClock, units: list):
    """Run fn until MIN_PHASE_S has passed, timing each call as a unit.

    Appends each call's unit id to `units`; returns the first call's result.
    """
    first, t0 = None, time.perf_counter()
    clock.start(fresh=True)
    for _ in range(50):
        out = fn()
        units.append(clock.stop())
        if first is None:
            first = out
        if time.perf_counter() - t0 >= MIN_PHASE_S:
            break
        clock.start()
    return first


def run_round(p: Prepared, tracer: Tracer, probe: StepProbe, clock: RefClock,
              r: RoundResult) -> RoundResult:
    """The pipeline once on the prepared inputs; adds its results to r."""
    wl = p.workload

    # -- preprocess: raw JSONL -> instances -> instance JSONL -> instances
    pp_cfg = PreprocessConfig(keep_prob=1.0, seed=p.seed)

    def preprocess_phase():
        with tracer.span("phase.preprocess"):
            with tracer.span("preprocess.jsonl"):
                raw = read_raw_examples(p.raw_path)
            with tracer.span("preprocess.examples"):
                insts = preprocess_examples(raw, p.vocab, pp_cfg)
            with tracer.span("preprocess.jsonl"):
                write_instances(p.instance_path, insts)
                back = read_instances(p.instance_path)
        return raw, insts, back

    raw, insts, instances = repeat(preprocess_phase, clock, r.units.preprocess)
    r.n_docs, r.fragments = len(raw), len(instances)
    with tracer.span("bench.check"):
        if [i.to_json() for i in instances] != [i.to_json() for i in insts]:
            r.errors.append("instance JSONL round trip changed an instance")
        by_doc: dict[str, list] = {ex.example_id: [] for ex in raw}
        for inst in instances:
            by_doc[inst.example_id].append(inst)
        if any(not frags for frags in by_doc.values()):
            r.errors.append("a document produced no fragment")

    # -- train with periodic checkpoints, on each training document's first
    # window: full 512-token windows cost the same per step, later ones vary.
    # The shuffle seed is fixed: document d's paragraph count depends on d
    # alone (see generate), so every seed batches the same lengths together
    # and the median step does the same work.
    train_set = [i for i in instances
                 if doc_index(i.example_id) < wl.train_docs and i.fragment_index == 0]
    tcfg = TrainConfig(batch_size=wl.batch_size, total_steps=wl.total_steps,
                       peak_lr=wl.peak_lr, seed=0, checkpoint_every=wl.checkpoint_every)
    model = fresh_model(p.model0)
    tracer.request = "step0"
    with tracer.span("phase.train"):
        probe.begin(clock)
        model, trace, opt = train_loop(train_set, model, tcfg, str(p.checkpoint_path))
        r.units.after_steps = probe.end()
    r.units.steps = probe.steps
    r.losses = [row.loss for row in trace]
    per_epoch = -(-len(train_set) // wl.batch_size)
    r.train_instances = sum(
        min(wl.batch_size, len(train_set) - (row.step % per_epoch) * wl.batch_size)
        for row in trace
    )
    r.checkpoint_bytes = os.path.getsize(p.checkpoint_path)
    tracer.request = None
    if len(r.losses) != wl.total_steps or len(r.units.steps) != wl.total_steps:
        r.errors.append("train_loop did not run every step")
    if not all(np.isfinite(r.losses)):
        r.errors.append("non-finite training loss")

    # -- reload the checkpoint; it must equal the parameters held in memory
    with tracer.span("phase.reload"):
        with tracer.span("encoder.ckpt_load"):
            loaded, extra = ModelParams.load(p.checkpoint_path)
    with tracer.span("bench.check"):
        r.errors.extend(_checkpoint_errors(model, opt, loaded, extra))

    # -- predict every document on its own; failures are counted, not raised
    preds, outcomes = [], []
    with tracer.span("phase.predict"):
        clock.start(fresh=True)
        for example_id, frags in by_doc.items():
            tracer.request = example_id
            try:
                with tracer.span("predict.doc"):
                    (pred,) = predict_instances(frags, loaded, p.vocab)
                preds.append(pred)
                outcomes.append("prediction")
            except ContractViolation as exc:
                r.typed_failures.append(example_id)
                outcomes.append(f"{type(exc).__name__}: {exc}")
            except Exception as exc:  # noqa: BLE001 - a crash is counted, not fatal
                r.failed.append(f"{example_id}: {type(exc).__name__}: {exc}")
                outcomes.append(f"untyped {type(exc).__name__}")
            r.units.docs.append(clock.stop())
            clock.start()
    tracer.request = None
    with tracer.span("bench.check"):
        r.errors.extend(_prediction_errors(raw, preds))
        pred_json = [pr.to_json() for pr in preds]

    # -- evaluate against the gold labels
    def eval_phase():
        with tracer.span("phase.eval"):
            with tracer.span("evaluate.evaluate"):
                return evaluate(pred_json, p.golds)

    report = repeat(eval_phase, clock, r.units.eval)
    with tracer.span("bench.check"):
        r.errors.extend(_report_errors(report, len(p.golds)))
        payload = {
            "loss": [repr(x) for x in r.losses],
            "predictions": pred_json,
            "outcomes": outcomes,
            "report": report.to_json(),
        }
        r.digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")
        ).hexdigest()
    return r


# ------------------------------------------------------------ output checks


def _checkpoint_errors(model, opt, loaded, extra) -> list[str]:
    errors = []
    if loaded.config != model.config:
        errors.append("reloaded checkpoint has a different config")
    if set(loaded.tensors) != set(model.tensors):
        errors.append("reloaded checkpoint has different parameter names")
    else:
        for name, t in model.tensors.items():
            if not np.array_equal(loaded.tensors[name].data, t.data):
                errors.append(f"reloaded parameter {name} differs from memory")
                break
    saved_opt = opt.to_arrays()
    if set(extra) != set(saved_opt) or any(
        not np.array_equal(extra[k], v) for k, v in saved_opt.items()
    ):
        errors.append("reloaded optimizer state differs from memory")
    return errors


def _prediction_errors(raw, preds) -> list[str]:
    n_blocks = {ex.example_id: len(ex.blocks) for ex in raw}
    errors = []
    for pr in preds:
        if not 0 <= pr.long_index < n_blocks[pr.example_id]:
            errors.append(f"{pr.example_id}: long index {pr.long_index} outside the document")
        if pr.long_start > pr.long_end:
            errors.append(f"{pr.example_id}: empty long span")
        if pr.short_kind == "span" and not (
            pr.long_start <= pr.short_start <= pr.short_end <= pr.long_end
        ):
            errors.append(f"{pr.example_id}: short span outside the long answer")
    return errors[:5]


def _report_errors(report, n_golds: int) -> list[str]:
    errors = []
    for grain, g in report.grains.items():
        if sum(g.cases) != n_golds:
            errors.append(f"{grain}: five cases sum to {sum(g.cases)}, not {n_golds}")
        if g.f1 != max(row[3] for row in g.curve):
            errors.append(f"{grain}: chosen threshold is not the best F1 on the curve")
        if not all(0.0 <= x <= 1.0 for x in (g.precision, g.recall, g.f1)):
            errors.append(f"{grain}: P/R/F1 outside [0, 1]")
    return errors


# -------------------------------------------------------------- the layers


def _graph_bytes(graph) -> int:
    total = 0
    for value in vars(graph).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, dict):
            total += sum(v.nbytes for v in value.values() if isinstance(v, np.ndarray))
    return total


def _count_graph(counts, graph, *args, **kwargs):
    counts["graphs"] += 1
    counts["graph_nodes"] += graph.n_nodes
    counts["graph_bytes"] += _graph_bytes(graph)


def _count_attention(counts, result, states, mask, buckets, params, prefix, *args, **kwargs):
    counts["attn_cells"] += mask.size * params.config.m
    if prefix.endswith(".integ"):
        counts["integ_calls"] += 1
        counts["integ_cells"] += mask.size
        counts["integ_edges"] += int(np.count_nonzero(mask))


def _count_tape(counts, grads, loss, params):
    nodes = loss._tape.nodes
    counts["backwards"] += 1
    counts["tape_nodes"] += len(nodes)
    counts["tape_bytes"] += sum(n.data.nbytes for n in nodes)


def _count_span_pairs(counts, pred, fragments, max_answer_tokens=30, *args, **kwargs):
    """(start, end) pairs the span search scores, from the candidate shapes."""
    for inst, scores in fragments:
        valid = set(scores.token_positions[scores.span_valid].tolist())
        for a, b in inst.spans[1:]:
            n = sum(1 for pos in range(a, b + 1) if pos in valid)
            counts["span_pairs"] += sum(min(max_answer_tokens, n - i) for i in range(n))


def _count_records(counts, result, records):
    counts["eval_records"] += len(records)


_LEVEL_SPAN = {
    NodeType.TOKEN: "encoder.attn_tok",
    NodeType.SENTENCE: "encoder.attn_sent",
    NodeType.PARAGRAPH: "encoder.attn_par",
}


def instrument(tracer: Tracer, patches: Patches):
    """Wrap each layer's public functions where their callers look them up."""
    for mod in (m_train, m_predict):
        tracer.wrap(patches, mod, "build_graph", "docgraph.build", count=_count_graph)
        tracer.wrap(patches, mod, "encode", "encoder.encode")
        tracer.wrap(patches, mod, "score_nodes", "heads.score")
    tracer.wrap(patches, m_train, "joint_loss", "heads.loss")
    tracer.wrap(patches, m_train, "adam_step", "train.adam")
    tracer.wrap(patches, m_tensor, "backward", "tensor.backward", count=_count_tape)
    tracer.wrap(patches, m_encoder, "embed_tokens", "encoder.embed")
    tracer.wrap(patches, m_encoder, "graph_initialize", "encoder.init")
    tracer.wrap(patches, m_encoder, "self_attention_level",
                lambda level, *a, **k: _LEVEL_SPAN[level])
    tracer.wrap(patches, m_encoder, "graph_integration", "encoder.integ")
    tracer.wrap(patches, m_encoder, "feed_forward_concat", "encoder.ffn")
    tracer.hook(patches, m_encoder, "gat_attention", _count_attention)
    tracer.wrap(patches, m_encoder, "save_checkpoint", "encoder.ckpt_save")
    tracer.wrap(patches, m_predict, "select_answers", "heads.select", count=_count_span_pairs)
    tracer.wrap(patches, m_preprocess, "preprocess_example", "preprocess.example")
    tracer.wrap(patches, m_evaluate, "threshold_sweep", "evaluate.sweep", count=_count_records)
