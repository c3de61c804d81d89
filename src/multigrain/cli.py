"""Command line entry point wiring the pipeline end to end.

Subcommands: synth, preprocess, train, predict, eval, gradcheck.
`gradcheck` prints each micro-model parameter's worst finite-difference
error, then the overall worst against 1e-4. Exit codes: 0 success,
1 runtime failure, 2 config/usage error. Settings come from one flat
JSON config file, with --seed and per-subcommand path flags on top.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass, field

from . import checks
from .encoder import EncoderConfig, ModelParams
from .evaluate import evaluate, read_gold, write_gold
from .predict import predict_instances
from .preprocess import (
    PreprocessConfig,
    Vocab,
    preprocess_examples,
    read_instances,
    read_jsonl,
    read_raw_examples,
    whole_file,
    write_instances,
    write_jsonl,
    write_raw_examples,
)
from .synthgen import CorpusSpec, build_vocab, generate_corpus
from .tensor import ContractViolation
from .train import OptimizerState, TrainConfig, train_loop, write_trace_csv


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    """Merged view over the per-module configs, built from flat JSON."""

    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    corpus: CorpusSpec = field(default_factory=CorpusSpec)
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)

    @classmethod
    def from_flat(cls, flat: dict, seed: int | None = None) -> "RunConfig":
        """Route each key to every section with a field of its name; `seed` overrides every seed."""
        sections = {f.name: f.default_factory for f in dataclasses.fields(cls)}  # name -> config class
        names = {sec: {f.name for f in dataclasses.fields(klass)} for sec, klass in sections.items()}
        unknown = [key for key in flat if not any(key in keys for keys in names.values())]
        if unknown:
            raise ConfigError(f"unknown config key {unknown[0]!r}")
        if seed is not None:
            flat = {**flat, "seed": seed}
        try:
            return cls(**{sec: klass(**{k: v for k, v in flat.items() if k in names[sec]})
                          for sec, klass in sections.items()})
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def load_config(path: str | None, seed: int | None) -> RunConfig:
    flat = {}
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                flat = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(flat, dict):
            raise ConfigError(f"config {path} is not a JSON object")
    return RunConfig.from_flat(flat, seed)


def _cmd_synth(args) -> int:
    cfg = load_config(args.config, args.seed)
    examples, golds = generate_corpus(cfg.corpus)
    write_raw_examples(args.out, examples)
    write_gold(args.gold, golds)
    if args.vocab:
        build_vocab(cfg.corpus).save(args.vocab)
    print(f"wrote {len(examples)} examples to {args.out}")
    return 0


def _cmd_preprocess(args) -> int:
    cfg = load_config(args.config, args.seed)
    vocab = Vocab.load(args.vocab)
    examples = read_raw_examples(args.input)
    instances = preprocess_examples(examples, vocab, cfg.preprocess)
    write_instances(args.output, instances)
    print(f"wrote {len(instances)} instances to {args.output}")
    return 0


def _cmd_train(args) -> int:
    cfg = load_config(args.config, args.seed)
    vocab = Vocab.load(args.vocab)
    instances = read_instances(args.instances)
    enc_cfg = dataclasses.replace(cfg.encoder, vocab_size=len(vocab))
    if args.resume:
        model, extra = ModelParams.load(args.resume)
        try:
            opt = OptimizerState.from_arrays(model, extra)
        except ValueError as exc:
            raise ValueError(f"{args.resume}: {exc}") from exc
    else:
        model = ModelParams.init(enc_cfg, seed=cfg.train.seed)
        opt = None
    model, trace, _ = train_loop(instances, model, cfg.train, args.out, opt)
    if args.trace:
        write_trace_csv(args.trace, trace)
    final = trace[-1].loss if trace else float("nan")
    print(f"trained {len(trace)} steps, final loss {final:.4f}, checkpoint {args.out}")
    return 0


def _cmd_predict(args) -> int:
    model, _ = ModelParams.load(args.checkpoint)
    vocab = Vocab.load(args.vocab)
    by_doc: dict[str, list] = {}
    for inst in read_instances(args.instances):
        by_doc.setdefault(inst.example_id, []).append(inst)
    preds, skipped = [], 0
    for example_id, frags in by_doc.items():
        try:
            preds.extend(predict_instances(frags, model, vocab))
        except ContractViolation as exc:
            skipped += 1
            print(f"skipped document {example_id}: {exc}", file=sys.stderr)
    write_jsonl(args.out, (p.to_json() for p in preds))
    print(f"wrote {len(preds)} predictions to {args.out}" + (f", skipped {skipped}" if skipped else ""))
    return 0


def _cmd_eval(args) -> int:
    report = evaluate(read_jsonl(args.predictions), read_gold(args.gold))
    print(report.format_table())
    if args.out:
        with whole_file(args.out) as fh:
            json.dump(report.to_json(), fh, indent=2)
    return 0


def _cmd_gradcheck(args) -> int:
    errors = checks.micro_gradcheck_by_param(eps=args.eps)
    for name, worst in errors.items():
        print(f"{name:35s} worst rel err {worst:.3e}")
    err = max(errors.values())
    ok = err < 1e-4
    print(f"max relative gradient error: {err:.3e} ({'PASS' if ok else 'FAIL'} at 1e-4)")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multigrain",
        description="Multi-granularity document modeling for two-grained QA",
    )
    parser.add_argument("--config", help="flat JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override every seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--out", required=True, help="RawExample JSONL output")
    p.add_argument("--gold", required=True, help="gold label JSONL output")
    p.add_argument("--vocab", help="vocabulary file output")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("preprocess", help="raw examples -> training instances")
    p.add_argument("--vocab", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--vocab", required=True)
    p.add_argument("--instances", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--resume", help="checkpoint to resume from")
    p.add_argument("--trace", help="loss trace CSV path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="checkpoint + instances -> predictions")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--instances", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("eval", help="score predictions against gold labels")
    p.add_argument("--predictions", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--out", help="JSON report path")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check on the micro model")
    p.add_argument("--eps", type=float, default=1e-3)
    p.set_defaults(func=_cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - map any failure to exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
