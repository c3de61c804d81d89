"""Command line interface: exit codes and the end-to-end pipeline."""

import argparse
import dataclasses
import json
import math
import re
from pathlib import Path

import pytest

from multigrain import checks, cli
from multigrain.cli import RunConfig, ConfigError, build_parser, main
from multigrain.config import check_fields
from multigrain.encoder import EncoderConfig
from multigrain.preprocess import PreprocessConfig
from multigrain.synthgen import CorpusSpec
from multigrain.train import TrainConfig


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--out", "x.jsonl"])  # --gold missing
    assert exc.value.code == 2


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"no_such_option": 1}))
    code = main(
        ["--config", str(cfg), "synth", "--out", str(tmp_path / "a"), "--gold", str(tmp_path / "b")]
    )
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["5", "null", "[1]", '"d_h"'])
def test_config_that_is_not_an_object_exits_2(text, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code = main(
        ["--config", str(cfg), "synth", "--out", str(tmp_path / "a"), "--gold", str(tmp_path / "b")]
    )
    assert code == 2
    assert f"config {cfg} is not a JSON object" in capsys.readouterr().err


def test_runtime_failure_exits_1(tmp_path, capsys):
    code = main(
        [
            "predict",
            "--checkpoint", str(tmp_path / "missing.ckpt"),
            "--vocab", str(tmp_path / "missing.txt"),
            "--instances", str(tmp_path / "missing.jsonl"),
            "--out", str(tmp_path / "out.jsonl"),
        ]
    )
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_flat_config_routes_keys():
    rc = RunConfig.from_flat({"d_h": 16, "total_steps": 7, "n_docs": 5, "keep_prob": 0.5})
    assert rc.encoder.d_h == 16
    assert rc.train.total_steps == 7
    assert rc.corpus.n_docs == 5
    assert rc.preprocess.keep_prob == 0.5


def test_seed_flag_overrides_sections():
    rc = RunConfig.from_flat({}, seed=42)
    assert rc.train.seed == 42 and rc.corpus.seed == 42 and rc.preprocess.seed == 42


def test_shared_key_lands_in_both_sections():
    rc = RunConfig.from_flat({"seed": 3})
    assert rc.train.seed == 3 and rc.corpus.seed == 3


def test_bad_config_value_raises_config_error():
    with pytest.raises(ConfigError):
        RunConfig.from_flat({"answerable_frac": 2.0})


def test_window_too_small_for_the_stride_names_both_keys():
    """A stride past max_len - 3, the most content a window can hold, is
    refused naming both keys; the largest stride that fits is taken."""
    with pytest.raises(ConfigError, match=r"stride 128 exceeds max_len 64\b"):
        RunConfig.from_flat({"max_len": 64})
    assert RunConfig.from_flat({"max_len": 64, "stride": 61}).preprocess.stride == 61


def refused_on_the_command_line(flat, tmp_path, capsys):
    """`flat` is refused by `from_flat` with a ConfigError naming its first
    key, and `synth`, `preprocess` and `train` exit 2 with the key on
    stderr, before any work starts: no output file is written."""
    key = next(iter(flat))
    named = re.compile(rf"\b{key}\b")
    with pytest.raises(ConfigError, match=named):
        RunConfig.from_flat(flat)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(flat))
    out, gold, ckpt = tmp_path / "raw.jsonl", tmp_path / "gold.jsonl", tmp_path / "model.ckpt"
    inst = tmp_path / "inst.jsonl"
    missing = str(tmp_path / "missing")  # reached only if the config were taken
    for command in (["synth", "--out", str(out), "--gold", str(gold)],
                    ["preprocess", "--vocab", missing, "--input", missing, "--output", str(inst)],
                    ["train", "--vocab", missing, "--instances", missing, "--out", str(ckpt)]):
        assert main(["--config", str(cfg), *command]) == 2, command[0]
        err = capsys.readouterr().err
        assert err.startswith("config error") and named.search(err), err
    assert not any(path.exists() for path in (out, gold, ckpt, inst))


@pytest.mark.parametrize("flat", [
    {"m": 0},
    {"token_clip": -1},
    {"cross_clip": -1},
    {"dropout": 1.5},
    {"dropout": 1.0},
    {"max_answer_tokens": 0},
    {"d_h": 0},
    {"vocab_size": 0},
    {"max_len": 0},
    {"stride": 0},
    {"keep_prob": 2.0},
    {"keep_prob": -0.5},
    {"peak_lr": -1.0},
    {"total_steps": -1},
    {"checkpoint_every": -1},
    {"grad_clip": -0.5},
    # values that were taken, or refused without naming their key
    {"n_layers": 1.5},
    {"d_h": 32.0},
    {"batch_size": 2.5},
    {"max_answer_tokens": True},
    {"seed": 1.5},
    {"n_docs": -5},
    {"table_list_prob": 2.0},
    {"peak_lr": math.nan},
    {"seed": -1},
    {"n_keys": 0},
    {"total_steps": "3"},
    {"par_min": 0},
    # the rules that span fields name their keys
    {"d_h": 10, "m": 4},
    {"d_ff": 32, "d_h": 64},
    {"par_min": 5, "par_max": 4},
    {"sent_max": 1, "sent_min": 2},
    {"tok_min": 9, "tok_max": 8},
    {"answerable_frac": 0.8, "yesno_frac": 0.4},
    {"max_len": 64},  # a window of 61 content tokens cannot advance by the stride 128
    {"stride": 510},
], ids=lambda flat: "{}={}".format(*next(iter(flat.items()))))
def test_out_of_range_config_value_exits_2(flat, tmp_path, capsys):
    """An out-of-range or mistyped value is refused when the config is
    built, before any work starts, naming the key; the CLI exits 2."""
    refused_on_the_command_line(flat, tmp_path, capsys)


CONFIGS = (EncoderConfig, TrainConfig, PreprocessConfig, CorpusSpec)


def declared_refusals():
    """Values each config field's declaration refuses, from the fields
    themselves: a string and null for every key; 1.5 and true for an int
    key; NaN and Infinity for a float key; and the first value past each
    bound (the next int, or the next float)."""
    cases = {}
    for klass in CONFIGS:
        for f in dataclasses.fields(klass):
            integer = f.type == "int"
            step = (lambda v, d: v + d) if integer else (lambda v, d: math.nextafter(v, d * math.inf))
            lo, hi, below = f.metadata["min"], f.metadata["max"], f.metadata["below"]
            bad = ["3", None] + ([1.5, True] if integer else [math.nan, math.inf]) + [step(lo, -1)]
            bad += [step(hi, 1)] * (hi < math.inf) + [below] * (below < math.inf)
            cases.update({f"{f.name}={v!r}": {f.name: v} for v in bad})
    return [pytest.param(flat, id=name) for name, flat in cases.items()]


@pytest.mark.parametrize("flat", declared_refusals())
def test_every_declared_bound_and_type_is_refused(flat, tmp_path, capsys):
    refused_on_the_command_line(flat, tmp_path, capsys)


@pytest.mark.parametrize("klass", CONFIGS, ids=lambda k: k.__name__)
def test_declared_bounds_take_their_edges(klass):
    """Each field takes the value at its lower bound and at its upper one
    (the last float below an open one, 2^80 where there is none), and a
    float field takes an int as it is, unconverted."""
    for f in dataclasses.fields(klass):
        lo, hi, below = f.metadata["min"], f.metadata["max"], f.metadata["below"]
        top = hi if hi < math.inf else math.nextafter(below, 0) if below < math.inf else 2 ** 80
        for value in (lo, top):
            config = klass()
            setattr(config, f.name, value)
            check_fields(config)
    rc = RunConfig.from_flat({"dropout": 0, "peak_lr": 1, "keep_prob": 1, "answerable_frac": 0})
    assert [type(v) for v in (rc.encoder.dropout, rc.train.peak_lr, rc.preprocess.keep_prob,
                              rc.corpus.answerable_frac)] == [int] * 4


def test_subcommand_lists_agree():
    """The subcommands named in the module docstring and in README's
    command block are exactly the parser's."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    parsed = set(sub.choices)
    named = re.search(r"Subcommands: ([^.]+)\.", cli.__doc__).group(1)
    assert {w.strip() for w in named.split(",")} == parsed
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line.*?```sh\n(.*?)```", readme, re.S).group(1)
    assert set(re.findall(r"^multigrain (?:--config \S+ )?(\w+)", block, re.M)) == parsed


def test_end_to_end_pipeline(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "n_docs": 6,
                "total_steps": 3,
                "batch_size": 2,
                "d_h": 8,
                "m": 2,
                "n_layers": 1,
                "d_ff": 16,
                "keep_prob": 1.0,
            }
        )
    )
    raw = tmp_path / "raw.jsonl"
    gold = tmp_path / "gold.jsonl"
    vocab = tmp_path / "vocab.txt"
    inst = tmp_path / "inst.jsonl"
    ckpt = tmp_path / "model.ckpt"
    preds = tmp_path / "preds.jsonl"
    report = tmp_path / "report.json"
    c = str(cfg)

    assert main(["--config", c, "synth", "--out", str(raw), "--gold", str(gold), "--vocab", str(vocab)]) == 0
    assert main(["--config", c, "preprocess", "--vocab", str(vocab), "--input", str(raw), "--output", str(inst)]) == 0
    assert main(["--config", c, "train", "--vocab", str(vocab), "--instances", str(inst), "--out", str(ckpt)]) == 0
    assert main(["predict", "--checkpoint", str(ckpt), "--vocab", str(vocab), "--instances", str(inst), "--out", str(preds)]) == 0
    assert main(["eval", "--predictions", str(preds), "--gold", str(gold), "--out", str(report)]) == 0

    out = capsys.readouterr().out
    assert "long answer" in out and "short answer" in out
    obj = json.loads(report.read_text())
    assert set(obj) == {"long", "short"}
    for line in preds.read_text().splitlines():
        json.loads(line)


def test_gradcheck_reports_each_parameter(monkeypatch, capsys):
    """One line per parameter, in the order given, then the summary; the
    exit code turns on the worst error against 1e-4."""
    calls = []
    for worst, code, verdict in ((9.9e-5, 0, "PASS"), (1e-4, 1, "FAIL")):
        errors = {"emb.token": 1e-7, "layer0.tok.wqkv": worst, "head.type.b": 0.0}
        monkeypatch.setattr(checks, "micro_gradcheck_by_param",
                            lambda eps, errors=errors: calls.append(eps) or errors)
        assert main(["gradcheck", "--eps", "2e-3"]) == code
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines[:-1]] == list(errors)
        assert lines[1].endswith(f"worst rel err {worst:.3e}")
        assert lines[-1] == f"max relative gradient error: {worst:.3e} ({verdict} at 1e-4)"
    assert calls == [2e-3, 2e-3]


def test_predict_skips_document_without_paragraphs(tmp_path, capsys):
    """One document with no paragraphs does not abort `predict`: it is
    named on stderr and every other document still gets a prediction."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_docs": 2, "total_steps": 1, "batch_size": 2, "d_h": 8, "m": 2,
                               "n_layers": 1, "d_ff": 16, "keep_prob": 1.0}))
    raw, gold, vocab = tmp_path / "raw.jsonl", tmp_path / "gold.jsonl", tmp_path / "vocab.txt"
    inst, ckpt, preds = tmp_path / "inst.jsonl", tmp_path / "model.ckpt", tmp_path / "preds.jsonl"
    c = str(cfg)
    assert main(["--config", c, "synth", "--out", str(raw), "--gold", str(gold), "--vocab", str(vocab)]) == 0
    docs = [json.loads(line) for line in raw.read_text().splitlines()]
    empty = dict(docs[0], example_id="no-paragraphs", paragraphs=[], annotations={})
    raw.write_text("".join(json.dumps(d) + "\n" for d in [docs[0], empty, docs[1]]))
    assert main(["--config", c, "preprocess", "--vocab", str(vocab), "--input", str(raw), "--output", str(inst)]) == 0
    assert main(["--config", c, "train", "--vocab", str(vocab), "--instances", str(inst), "--out", str(ckpt)]) == 0
    capsys.readouterr()
    assert main(["predict", "--checkpoint", str(ckpt), "--vocab", str(vocab), "--instances", str(inst),
                 "--out", str(preds)]) == 0
    err = capsys.readouterr().err
    assert "skipped document no-paragraphs" in err
    got = [json.loads(line)["example_id"] for line in preds.read_text().splitlines()]
    assert got == [docs[0]["example_id"], docs[1]["example_id"]]


def micro_files(tmp_path):
    """A vocabulary, a micro-model checkpoint without optimizer state and
    an instance file holding the micro instance."""
    from multigrain.encoder import ModelParams
    from multigrain.preprocess import Vocab, write_instances

    vocab = Vocab.build(f"w{i}" for i in range(12))
    paths = {name: tmp_path / name for name in ("vocab.txt", "model.ckpt", "inst.jsonl")}
    vocab.save(paths["vocab.txt"])
    ModelParams.init(checks.micro_config(vocab_size=len(vocab))).save(paths["model.ckpt"])
    write_instances(paths["inst.jsonl"], [checks.micro_instance()])
    return {name: str(path) for name, path in paths.items()}


def test_predict_refuses_padded_instances(tmp_path, capsys):
    """An instance file in the padded format (lines with a "mask" field)
    stops `predict` with exit 1 and a message naming the field."""
    files = micro_files(tmp_path)
    obj = checks.micro_instance().to_json()
    obj["mask"] = [1] * len(obj["c"])
    (tmp_path / "inst.jsonl").write_text(json.dumps(obj) + "\n")
    code = main(["predict", "--checkpoint", files["model.ckpt"], "--vocab", files["vocab.txt"],
                 "--instances", files["inst.jsonl"], "--out", str(tmp_path / "preds.jsonl")])
    assert code == 1
    assert "'mask'" in capsys.readouterr().err


def test_predict_names_the_line_of_a_cut_instance_file(tmp_path, capsys):
    """An instance file whose third line is cut mid-object stops `predict`
    with exit 1 and a message naming the file and line 3."""
    files = micro_files(tmp_path)
    line = json.dumps(checks.micro_instance().to_json())
    (tmp_path / "inst.jsonl").write_text(f"{line}\n{line}\n{line[:len(line) // 2]}\n{line}\n")
    out = tmp_path / "preds.jsonl"
    code = main(["predict", "--checkpoint", files["model.ckpt"], "--vocab", files["vocab.txt"],
                 "--instances", files["inst.jsonl"], "--out", str(out)])
    assert code == 1
    assert f"{files['inst.jsonl']}, line 3: " in capsys.readouterr().err
    assert not out.exists()


def test_resume_from_params_only_checkpoint_exits_1(tmp_path, capsys):
    """--resume needs the optimizer state; a checkpoint without it is
    named in the error with the first missing array."""
    files = micro_files(tmp_path)
    code = main(["train", "--vocab", files["vocab.txt"], "--instances", files["inst.jsonl"],
                 "--out", str(tmp_path / "next.ckpt"), "--resume", files["model.ckpt"]])
    assert code == 1
    err = capsys.readouterr().err
    assert files["model.ckpt"] in err and "'opt.step' is missing" in err


def duplicate_first_name(header):
    header["params"][1]["name"] = header["params"][0]["name"]
    return header


@pytest.mark.parametrize("extra, change_header, named", [
    ({"opt.step": [-1.0]}, None, "'opt.step'"),
    ({"opt.m.layer0.ffn.w1": [0.0]}, None, "'opt.m.layer0.ffn.w1'"),
    ({}, duplicate_first_name, "'emb.token' more than once"),
])
def test_resume_refuses_malformed_state_exits_1(tmp_path, capsys, extra, change_header, named):
    """--resume refuses a checkpoint whose header lists a name twice, or
    whose Adam state has a moment of the wrong shape or a bad step count:
    exit 1, with the file and the array named."""
    import numpy as np
    from multigrain.encoder import ModelParams
    from multigrain.train import OptimizerState

    files = micro_files(tmp_path)
    path = Path(files["model.ckpt"])
    model, _ = ModelParams.load(path)
    arrays = OptimizerState.init(model).to_arrays()
    model.save(path, extra={**arrays, **{k: np.array(v) for k, v in extra.items()}})
    if change_header:
        magic, header, payload = path.read_bytes().split(b"\n", 2)
        header = json.dumps(change_header(json.loads(header))).encode()
        path.write_bytes(magic + b"\n" + header + b"\n" + payload)
    code = main(["train", "--vocab", files["vocab.txt"], "--instances", files["inst.jsonl"],
                 "--out", str(tmp_path / "next.ckpt"), "--resume", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert str(path) in err and named in err


def tiny_run(tmp_path):
    """The files of a tiny synth, preprocess, train and predict run, and
    the preprocess and predict command lines that wrote them."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_docs": 3, "total_steps": 1, "batch_size": 2, "d_h": 8, "m": 2,
                               "n_layers": 1, "d_ff": 16, "keep_prob": 1.0}))
    f = {name: str(tmp_path / name)
         for name in ("raw.jsonl", "gold.jsonl", "vocab.txt", "inst.jsonl", "model.ckpt", "preds.jsonl")}
    c = ["--config", str(cfg)]
    commands = {
        "preprocess": [*c, "preprocess", "--vocab", f["vocab.txt"], "--input", f["raw.jsonl"],
                       "--output", f["inst.jsonl"]],
        "predict": ["predict", "--checkpoint", f["model.ckpt"], "--vocab", f["vocab.txt"],
                    "--instances", f["inst.jsonl"], "--out", f["preds.jsonl"]],
    }
    assert main([*c, "synth", "--out", f["raw.jsonl"], "--gold", f["gold.jsonl"], "--vocab", f["vocab.txt"]]) == 0
    assert main(commands["preprocess"]) == 0
    assert main([*c, "train", "--vocab", f["vocab.txt"], "--instances", f["inst.jsonl"], "--out", f["model.ckpt"]]) == 0
    assert main(commands["predict"]) == 0
    return commands, f


@pytest.mark.parametrize("command, output", [("preprocess", "inst.jsonl"), ("predict", "preds.jsonl")])
def test_a_write_that_fails_half_way_keeps_the_previous_file(command, output, tmp_path, capsys, monkeypatch):
    """`preprocess` and `predict` write their output beside it and rename
    it over the target only once whole: a write that fails at its second
    record, after the first went to the temporary file, exits 1, leaves the previous
    file byte for byte as it was and no temporary file beside it."""
    from multigrain.heads import DocumentPrediction
    from multigrain.preprocess import TrainingInstance

    commands, files = tiny_run(tmp_path)
    target = Path(files[output])
    before = target.read_bytes()
    assert before.count(b"\n") >= 2
    record = TrainingInstance if command == "preprocess" else DocumentPrediction
    to_json, written = record.to_json, []

    def fails_second(self):
        written.append(Path(f"{target}.tmp").exists())
        if len(written) == 2:
            raise OSError("disk full")
        return to_json(self)

    monkeypatch.setattr(record, "to_json", fails_second)
    capsys.readouterr()
    assert main(commands[command]) == 1
    assert "disk full" in capsys.readouterr().err
    assert written == [True, True]  # the records go to the temporary file
    assert target.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["cfg.json", *files])
