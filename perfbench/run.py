#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the multigrain pipeline.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 40 --trace 0

One single-threaded process drives the package's public API in a closed
loop (see workloads.py) until --seconds have passed, with at least three
rounds. Times are reported at a reference host speed (see speed.py), with
the raw wall times beside them in the table and the report. --trace 0 reports the end-to-end metrics; --trace 1 runs one
untraced reference round, then traced rounds, and reports the per-layer
metrics, the tracing overhead and the layer table. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
A failed output check prints correct=false and exits 1.
"""

import os

# One single-threaded process: BLAS must start no worker threads, and the
# variables only take effect if set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import glob
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import speed
from speed import RefClock
from tracing import Patches, StepProbe, Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_ROUNDS = 3
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# (name, unit); the gated ones are listed in BENCHMARK.json with a bound.
END_TO_END = [
    ("setup_s", "s"),
    ("train_inst_per_s", "1/s"),
    ("train_step_ms.p50", "ms"),
    ("train_step_ms.tail", "ms"),
    ("train_loss_last", "nats"),
    ("predict_docs_per_s", "1/s"),
    ("predict_doc_ms.p50", "ms"),
    ("predict_doc_ms.tail", "ms"),
    ("preprocess_docs_per_s", "1/s"),
    ("eval_s", "s"),
    ("peak_rss_mb", "MB"),
    ("failed_frac", "ratio"),
]
GATED = [
    "setup_s",
    "train_inst_per_s",
    "train_step_ms.p50",
    "train_loss_last",
    "predict_docs_per_s",
    "predict_doc_ms.p50",
    "peak_rss_mb",
]
SUBLAYERS = ("embed", "init", "attn_tok", "attn_sent", "attn_par", "integ", "ffn")
# Counts that must repeat exactly across rounds and runs of one seed.
REPEATED_COUNTS = (
    "tensor.tape_nodes",
    "encoder.attn_cells",
    "encoder.integ_edges",
    "heads.span_pairs",
    "preprocess.fragments_per_doc",
    "docgraph.graph_mb",
    "encoder.ckpt_bytes",
)
PHASES = {"train": "phase.train", "predict": "phase.predict"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# ----------------------------------------------------------------- stamping


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "multigrain").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*.so*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def kernel_quartiles(kernels):
    """Quartiles of the speed kernel's times over a run: how fast the host ran."""
    return [round(q, 4) for q in statistics.quantiles(kernels, n=4)]


def stamp(args):
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ------------------------------------------------------------------ metrics


def tail_percentile(n):
    """Highest ladder percentile with at least ten of n samples beyond it."""
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10:
            return p
    return None


def end_to_end(rounds, ms):
    """Every end-to-end metric over the given rounds, plus the tail details.

    `ms` maps a clock unit id to its time: the reference times (the
    metrics; see speed.py) or the wall times. The rounds of a run do
    identical work, so train step k and document d are timed once per
    round at points spread over the run. A rate counts each unit with its
    median time over the rounds; a p50 or tail pools every sample.
    """
    units = [r.units for r in rounds]

    def pooled(name):
        return [ms[u] for us in units for u in getattr(us, name)]

    def per_unit(name):
        return [statistics.median(ms[u] for u in us) for us in zip(*(getattr(x, name) for x in units))]

    after_steps = statistics.median(ms[us.after_steps] for us in units)
    losses = rounds[0].losses
    values = {
        "setup_s": statistics.median(pooled("setup")) / 1e3,
        "train_inst_per_s": rounds[0].train_instances
        / ((sum(per_unit("steps")) + after_steps) / 1e3),
        "train_step_ms.p50": statistics.median(pooled("steps")),
        "train_loss_last": statistics.fmean(losses[-max(1, len(losses) // 2):]),
        "predict_docs_per_s": rounds[0].n_docs / (sum(per_unit("docs")) / 1e3),
        "predict_doc_ms.p50": statistics.median(pooled("docs")),
        "preprocess_docs_per_s": rounds[0].n_docs / (statistics.median(pooled("preprocess")) / 1e3),
        "eval_s": statistics.median(pooled("eval")) / 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": sum(len(r.typed_failures) + len(r.failed) for r in rounds)
        / sum(r.attempted for r in rounds),
    }
    tails = {}
    for name, samples in (("train_step_ms.tail", pooled("steps")),
                          ("predict_doc_ms.tail", pooled("docs"))):
        p = tail_percentile(len(samples))
        values[name] = float(np.percentile(samples, p)) if p else None
        tails[name] = {"percentile": p, "samples": len(samples)}
    return values, tails


def per_layer(spans, selfs, traced):
    """Per-layer metrics from the spans, self times and counts of traced rounds."""
    self_s = defaultdict(float)
    calls = Counter()
    for span, st in zip(spans, selfs):
        for key in ((span.name, None), (span.name, span.phase)):
            self_s[key] += st
            calls[key] += 1
    counts = Counter()
    for r in traced:
        counts.update(r.counts)

    def per_call_ms(name):
        return 1e3 * self_s[(name, None)] / calls[(name, None)]

    out = {
        "tensor.backward_ms": per_call_ms("tensor.backward"),
        "tensor.tape_nodes": counts["tape_nodes"] / counts["backwards"],
        "tensor.tape_mb": counts["tape_bytes"] / counts["backwards"] / 1e6,
    }
    for phase, root in PHASES.items():
        n_encode = calls[("encoder.encode", root)]
        for sub in SUBLAYERS:
            out[f"encoder.{sub}_ms.{phase}"] = 1e3 * self_s[(f"encoder.{sub}", root)] / n_encode
    out.update({
        "encoder.attn_cells": counts["attn_cells"] / calls[("encoder.encode", None)],
        "encoder.integ_edges": counts["integ_edges"] / counts["integ_calls"],
        "encoder.integ_useful_frac": counts["integ_edges"] / counts["integ_cells"],
        "encoder.ckpt_save_ms": per_call_ms("encoder.ckpt_save"),
        "encoder.ckpt_load_ms": per_call_ms("encoder.ckpt_load"),
        "encoder.ckpt_bytes": traced[0].checkpoint_bytes,
        "docgraph.build_ms": per_call_ms("docgraph.build"),
        "docgraph.nodes": counts["graph_nodes"] / counts["graphs"],
        "docgraph.graph_mb": counts["graph_bytes"] / counts["graphs"] / 1e6,
        "heads.score_ms": per_call_ms("heads.score"),
        "heads.loss_ms": per_call_ms("heads.loss"),
        "heads.select_ms": per_call_ms("heads.select"),
        "heads.span_pairs": counts["span_pairs"] / calls[("heads.select", None)],
        "train.adam_ms": per_call_ms("train.adam"),
        "train.graph_prebuild_s": self_s[("docgraph.build", "phase.train")]
        / calls[("phase.train", None)],
        "preprocess.example_ms": per_call_ms("preprocess.example"),
        "preprocess.jsonl_ms": 1e3 * self_s[("preprocess.jsonl", None)]
        / calls[("phase.preprocess", None)],
        "preprocess.fragments_per_doc": traced[0].fragments / traced[0].n_docs,
        "evaluate.sweep_ms": 1e3 * self_s[("evaluate.sweep", None)] / calls[("phase.eval", None)],
        "evaluate.records": counts["eval_records"] / calls[("phase.eval", None)],
    })
    return out


PER_LAYER_UNITS = {
    "tensor.tape_nodes": "count", "tensor.tape_mb": "MB", "encoder.attn_cells": "count",
    "encoder.integ_edges": "count", "encoder.integ_useful_frac": "ratio",
    "encoder.ckpt_bytes": "bytes", "docgraph.nodes": "count", "docgraph.graph_mb": "MB",
    "heads.span_pairs": "count", "train.graph_prebuild_s": "s",
    "preprocess.fragments_per_doc": "count", "evaluate.records": "count",
}


def layer_table(spans, selfs, wall_s):
    """Self time per span name, largest first, and the attribution check."""
    by_name = defaultdict(lambda: [0, 0.0])
    for span, st in zip(spans, selfs):
        by_name[span.name][0] += 1
        by_name[span.name][1] += st
    rooted = sum(s.end - s.start for s in spans if s.parent is None)
    unattributed = wall_s - rooted
    check = {
        "traced_wall_s": wall_s,
        "self_sum_s": sum(selfs),
        "unattributed_s": unattributed,
        "ok": unattributed >= 0 and abs(sum(selfs) + unattributed - wall_s) <= 1e-9 * max(1.0, wall_s),
    }
    rows = sorted(by_name.items(), key=lambda kv: -kv[1][1])
    return [(name, n, s, s / wall_s) for name, (n, s) in rows], check


# --------------------------------------------------------------------- main


def run_rounds(W, wl, args, workdir, tracer, probe, clock, budget_s, min_rounds):
    """Whole rounds until the next one would not end within budget_s.

    Each round sets its inputs up afresh, repeatedly (see W.repeat), so
    set-up is timed several times per round at points spread over the run.
    Each round starts from a collected heap, so garbage left by one round
    does not raise the next round's memory peak.
    """
    rounds = []
    t0 = time.perf_counter()
    while True:
        gc.collect()
        t_round = time.perf_counter()
        before, first_span = Counter(tracer.counts), len(tracer.spans)
        r = W.RoundResult()
        prep = W.repeat(lambda: W.prepare(wl, args.seed, workdir), clock, r.units.setup)
        W.run_round(prep, tracer, probe, clock, r)
        r.wall_s = time.perf_counter() - t_round
        r.counts = dict(tracer.counts - before)
        r.spans = (first_span, len(tracer.spans))
        rounds.append(r)
        if len(rounds) >= min_rounds and time.perf_counter() - t0 + r.wall_s > budget_s:
            return rounds


def _fmt(v):
    return "n/a" if v is None else f"{v:.6g}"


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "multigrain" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'multigrain'} not found; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import multigrain

    if Path(multigrain.__file__).resolve().parent != (SRC / "multigrain").resolve():
        print(f"error: imported multigrain from {multigrain.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads as W

    if args.workload not in W.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = W.WORKLOADS[args.workload]
    info = stamp(args)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    patches, trace_patches = Patches(), Patches()
    tracer, probe = Tracer(), StepProbe()
    clock = RefClock(tracer)
    try:
        probe.install(patches, W.m_train)
        probe.on_step = lambda k: setattr(tracer, "request", f"step{k}")
        t_start = time.perf_counter()
        if args.trace:
            reference = run_rounds(W, wl, args, workdir, tracer, probe, clock, 0.0, 1)
            W.instrument(tracer, trace_patches)
            tracer.enabled = True
            budget = args.seconds - (time.perf_counter() - t_start)
            measured = run_rounds(W, wl, args, workdir, tracer, probe, clock, budget,
                                  MIN_ROUNDS)
        else:
            reference = []
            measured = run_rounds(W, wl, args, workdir, tracer, probe, clock, args.seconds,
                                  MIN_ROUNDS)
    finally:
        trace_patches.close()
        patches.close()
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = reference + measured
    errors = sorted({e for r in rounds for e in r.errors})
    crashes = [f for r in rounds for f in r.failed]
    if len({r.digest for r in rounds}) != 1:
        errors.append("outputs differ between rounds of one seed"
                      + (" (traced vs untraced)" if args.trace else ""))
    if info["blas_threads"] > info["nproc"]:
        errors.append(f"BLAS uses {info['blas_threads']} threads on {info['nproc']} CPUs")
    if crashes:
        errors.append(f"{len(crashes)} untyped failures, first: {crashes[0]}")

    ref_ms, wall_ms = clock.ref_ms(), clock.wall_ms()
    e2e, tails = end_to_end(measured, ref_ms)
    wall_e2e, _ = end_to_end(measured, wall_ms)
    kernel_q = kernel_quartiles([k for _, k in clock.readings])
    report = {"stamp": info,
              "speed": {"ref_kernel_ms": speed.REF_KERNEL_MS, "window_s": speed.WINDOW_S,
                        "kernel_ms_quartiles": kernel_q},
              "rounds": len(measured), "tails": tails,
              "digest": rounds[0].digest,
              "typed_failures": sum(len(r.typed_failures) for r in measured),
              "end_to_end": e2e, "end_to_end_wall": wall_e2e}
    print(f"# {args.workload} seed={args.seed} trace={args.trace} rounds={len(measured)} "
          f"commit={info['git_commit']} blas={info['blas']} x{info['blas_threads']} "
          f"nproc={info['nproc']} kernel={kernel_q[1]:.3f} ms (ref {speed.REF_KERNEL_MS} ms)")
    print(f"  {'metric':24s} {'at ref speed':>12s} {'wall':>12s}")
    for name, unit in END_TO_END:
        extra = ""
        if name in tails:
            extra = f"  (p{_fmt(tails[name]['percentile'])} of {tails[name]['samples']} samples)"
        print(f"  {name:24s} {_fmt(e2e[name]):>12s} {_fmt(wall_e2e[name]):>12s} {unit}{extra}")

    if args.trace:
        spans, selfs = tracer.spans, self_times(tracer.spans)
        wall = sum(r.wall_s for r in measured)
        table, check = layer_table(spans, selfs, wall)
        if not check["ok"]:
            errors.append("per-layer self times plus unattributed time do not sum to the wall time")
        layers = per_layer(spans, selfs, measured)
        per_round = [per_layer(spans[r.spans[0]:r.spans[1]], selfs[r.spans[0]:r.spans[1]], [r])
                     for r in measured]
        if any(p[k] != per_round[0][k] for p in per_round for k in REPEATED_COUNTS):
            errors.append("named counts differ between rounds of one seed")
        ref_e2e, _ = end_to_end(reference, ref_ms)
        overhead = {k: (None if e2e[k] is None or ref_e2e[k] is None else e2e[k] - ref_e2e[k])
                    for k in e2e}
        report.update({"per_layer": layers, "self_time_check": check,
                       "trace_overhead": overhead, "counts": measured[0].counts})
        print("# layer self time over the traced rounds "
              f"({wall:.3f} s wall, {check['unattributed_s'] * 1e3:.3f} ms unattributed)")
        for name, n, s, share in table:
            print(f"  {name:24s} {n:8d} calls {s * 1e3:12.3f} ms {100 * share:6.2f}%")
        print("# per-layer metrics")
        for name, v in layers.items():
            print(f"  {name:32s} {_fmt(v):>12s} {PER_LAYER_UNITS.get(name, 'ms')}")
        print("# tracing overhead (traced - untraced)")
        for name, unit in END_TO_END:
            print(f"  {name:24s} {_fmt(overhead[name]):>12s} {unit}")
        metrics = {k: {"value": v, "unit": PER_LAYER_UNITS.get(k, "ms")} for k, v in layers.items()}
    else:
        units = dict(END_TO_END)
        metrics = {k: {"value": e2e[k], "unit": units[k]} for k in GATED}

    report["errors"] = errors
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if args.trace:
        tracer.write(OUT / f"{args.workload}-spans.jsonl", info)
    for e in errors:
        print(f"CHECK FAILED: {e}")
    print("report: " + json.dumps(report, separators=(",", ":")))
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": len(crashes),
        "metrics": metrics,
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
