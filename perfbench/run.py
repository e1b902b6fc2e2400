#!/usr/bin/env python3
"""Repository benchmark: builds the library and the workload program from
source, runs one workload, checks its outputs, and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The last line of standard output is one
JSON object {correct, attempted, failed, metrics}: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The
lines above it give each metric's sample count and spread and the run's
provenance. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RECORDS = ROOT / ".bench_build" / "records"
# The simulated clock divides host compute by compute_scale, so the thread
# count is part of every result; it is pinned, and stamped on every row.
THREADS = "1"
PROGRAM_TIMEOUT_S = 175
PLAN_OPS = ("sage/build_q", "sage/extract", "sage/its_sample", "sage/spgemm",
            "ladies/assemble", "ladies/build_q", "ladies/its_sample",
            "ladies/masked_extract", "ladies/spgemm")
COMM_PHASES = ("probability", "extraction", "fetch", "propagation")
SPAN_LAYERS = ("graph", "train", "plan", "nn", "serve", "common")


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src").is_dir():
        fail(f"no library sources at {ROOT / 'src'}; run from a full checkout", 3)
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    with open(log, "w") as f:
        for cmd in (["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", str(BUILD), "-j", jobs]):
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write(log.read_text()[-4000:])
                fail("build failed", 4)
    return BUILD / "perfbench"


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit():
    """HEAD of the checkout's own git repository, or "unknown"."""
    try:
        r = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = r.stdout.split()
    if r.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def med(values):
    return statistics.median(values) if values else 0.0


def end_to_end(raw):
    """{metric: (value, samples)} of the untraced end-to-end metrics."""
    wall = [e["wall_s"] for e in raw["epochs"][1:]]
    sim = [e["sim_s"] for e in raw["epochs"][1:]]
    p50 = [benchlib.percentile(t["latency_ms"], 50) for t in raw["nominal"]]
    p99 = [benchlib.percentile(t["latency_ms"], 99) for t in raw["nominal"]]
    setup = [s["total_s"] for s in raw["setups"]]
    return {
        "epoch_wall_s": (statistics.median(wall), wall),
        "epoch_sim_s": (statistics.median(sim), sim),
        "train_loss": (raw["epochs"][raw["fixed_epochs"] - 1]["loss"], None),
        "setup_s": (statistics.median(setup), setup),
        "peak_rss_mb": (raw["peak_rss_mb"], None),
        "p50_ms": (statistics.median(p50), p50),
        "p99_ms": (statistics.median(p99), p99),
    }


def ladder_p99(raw):
    """Median over trials of the p99 at each ladder rate, in ladder order."""
    trials = {}
    for t in raw["ladder"]:
        trials.setdefault(t["rate"], []).append(benchlib.percentile(t["latency_ms"], 99))
    return [statistics.median(v) for v in trials.values()]


def per_layer(raw):
    """{metric: value} of the traced run's per-layer metrics."""
    warm = raw["epochs"][1:]
    traced, untraced = raw["replays"][1], raw["replays"][0]
    nominal = raw["nominal"]
    peak = raw["roofline"]["gemm_gflops"]
    m = {
        "graph.generate_s": med([s["generate_s"] for s in raw["setups"]]),
        "train.pipeline_ctor_s": med([s["pipeline_ctor_s"] for s in raw["setups"]]),
        "plan.sample_bulk_s": traced["sample_bulk_s"],
        "plan.sampled_edges": traced["sampled_edges"],
        "plan.input_rows": traced["input_rows"],
        "plan.edges_per_s": traced["sampled_edges"] / traced["sample_bulk_s"],
        "train.fetch_s": traced["fetch_s"],
        "train.fetch_bytes": med([e["fetch_bytes"] for e in warm]),
        "train.fetch_rows": med([e["cache_hits"] + e["cache_misses"] + e["cache_local"]
                                 for e in warm]),
        "train.cache_hit_ratio": med([e["cache_hits"]
                                      / max(1, e["cache_hits"] + e["cache_misses"])
                                      for e in warm]),
        "train.overlap_saved_sim_s": med([e["overlap_saved"] for e in warm]),
        "train.stall_sim_s": med([e["stall"] for e in warm]),
        "train.first_epoch_s": raw["epochs"][0]["wall_s"],
        "nn.forward_s": traced["forward_s"],
        "nn.backward_s": traced["backward_s"],
        "nn.optimizer_s": traced["optimizer_s"],
        "nn.gflop": traced["gflop"],
        "nn.pct_peak": (100.0 * traced["gflop"]
                        / (traced["forward_s"] + traced["backward_s"]) / peak),
        "serve.queue_wait_p99_ms": med([t["queue_wait_p99_ms"] for t in nominal]),
        "serve.batch_mean": med([t["batch_mean"] for t in nominal]),
        "serve.busy_frac": med([t["busy_s"] / t["makespan_s"] for t in nominal]),
        "serve.offcpu_frac": med([1.0 - t["busy_s"] / t["wall_busy_s"] for t in nominal]),
        "serve.sample_ms": med([t["sample_ms"] for t in nominal]),
        "serve.gather_ms": med([t["gather_ms"] for t in nominal]),
        "serve.infer_ms": med([t["infer_ms"] for t in nominal]),
        "serve.goodput_rps": benchlib.goodput(raw["ladder"], raw["limit_ms"]),
        "serve.arena_bytes": raw["arena_bytes"],
        "common.gemm_peak_gflops": peak,
        "common.stream_gbps": raw["roofline"]["stream_gbps"],
        "common.trace_overhead_s": traced["wall_s"] - untraced["wall_s"],
    }
    for op in PLAN_OPS:
        name = "plan.op." + op.replace("/", ".") + "_s"
        m[name] = med([e["ops"].get(op, 0.0) for e in warm])
    for phase in COMM_PHASES:
        for field in ("bytes", "msgs", "sim_s"):
            m[f"comm.{phase}.{field}"] = med([e["comm"].get(phase, {}).get(field, 0.0)
                                              for e in warm])
    for i, p99 in enumerate(ladder_p99(raw)):
        m[f"serve.p99_ms.l{i}"] = p99
    selfs = benchlib.self_times(raw["spans"])
    for layer in SPAN_LAYERS:
        m[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    return m


def repeat_keys(raw):
    """Values that must repeat exactly between runs of one seed, traced or
    not, on the same sources."""
    e0 = raw["epochs"][0]
    replay = raw["replays"][0]
    return {
        "train_loss": repr(raw["epochs"][raw["fixed_epochs"] - 1]["loss"]),
        "replay_loss": repr(replay["loss"]),
        "plan.sampled_edges": replay["sampled_edges"],
        "plan.input_rows": replay["input_rows"],
        "train.fetch_bytes": e0["fetch_bytes"],
        **{f"comm.{p}.bytes": c["bytes"] for p, c in sorted(e0["comm"].items())},
    }


def gates(raw, workload, seed, digest):
    """(problems, run index). Compares with earlier runs of this seed on the
    same sources, recorded under .bench_build/records/."""
    problems = []
    losses = [e["loss"] for e in raw["epochs"]] + [r["loss"] for r in raw["replays"]]
    if not all(isinstance(x, float) and math.isfinite(x) for x in losses):
        problems.append("non-finite training loss")
    a, b = raw["replays"]
    for k in ("loss", "sampled_edges", "input_rows", "fetch_bytes"):
        if a[k] != b[k]:
            problems.append(f"replay {k} differs between repeats: {a[k]!r} vs {b[k]!r}")
    if raw["identity_checked"] < 1:
        problems.append("no coalesced request to check against a fresh engine")
    if raw["identity_mismatches"]:
        problems.append(f"{raw['identity_mismatches']} coalesced predictions differ "
                        "from the same request served alone")
    RECORDS.mkdir(parents=True, exist_ok=True)
    path = RECORDS / f"{digest}-{workload}-{seed}.json"
    history = json.loads(path.read_text()) if path.exists() else []
    keys = repeat_keys(raw)
    for earlier in history:
        for k, v in keys.items():
            if earlier.get(k, v) != v:
                problems.append(f"{k} differs from an earlier run of seed {seed}: "
                                f"{earlier[k]!r} vs {v!r}")
    path.write_text(json.dumps(history + [keys]))
    return problems, len(history)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bench_path = ROOT / "BENCHMARK.json"
    if not bench_path.is_file():
        fail(f"missing {bench_path}", 2)
    bench = json.loads(bench_path.read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail(f"workload {args.workload!r} is not declared in BENCHMARK.json", 2)

    binary = build()
    out = BUILD / f"raw-{args.workload}-{args.seed}-{args.trace}.json"
    out.unlink(missing_ok=True)
    env = dict(os.environ, DMS_THREADS=THREADS)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out)]
    try:
        rc = subprocess.run(cmd, env=env, timeout=PROGRAM_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("workload program timed out", 5)
    if rc != 0 or not out.exists():
        fail(f"workload program exited with {rc}", 5)
    raw = json.loads(out.read_text())

    digest = source_digest()
    problems, run_index = gates(raw, args.workload, args.seed, digest)
    prov = dict(raw["provenance"], commit=commit(), source_digest=digest,
                nproc=os.cpu_count(), workload=args.workload, seed=args.seed,
                run_index=run_index, trace=args.trace)
    print("provenance " + json.dumps(prov, sort_keys=True))
    roof = raw["roofline"]
    print(f"roofline: GEMM {roof['gemm_gflops']:.1f} GFLOP/s on {roof['gemm_n']:.0f}^3, "
          f"copy {roof['stream_gbps']:.2f} GB/s (bytes computed from tensor sizes: "
          "read + write of the copied matrix)")
    print("serving arrivals are a discrete-event schedule at fixed rates: "
          "generator lateness 0 s")

    served = raw["nominal"] + raw["ladder"]
    batches = math.ceil(raw["train_rows"] / raw["batch"])
    attempted = int(len(raw["epochs"]) * batches + sum(t["attempted"] for t in served))
    failed = int(sum(t["failed"] for t in served))
    print(f"operations: {attempted} attempted ({len(raw['epochs'])} epochs of {batches} "
          f"minibatches, {len(served)} request traces), {failed} failed, "
          f"fail_frac {failed / attempted:.4g}")

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    metrics = {}
    if args.trace:
        for name, value in per_layer(raw).items():
            metrics[name] = {"value": value, "unit": units[name]}
            print(f"{name:32s} {value:.6g} {units[name]}")
        print(f"tracing overhead (traced minus untraced replay): "
              f"{metrics['common.trace_overhead_s']['value']:.4g} s")
    else:
        for name, (value, samples) in end_to_end(raw).items():
            metrics[name] = {"value": value, "unit": units[name]}
            detail = ""
            if samples:
                q1, q2, q3 = benchlib.quartiles(samples)
                detail = f"n={len(samples)}, quartiles {q1:.4g} / {q2:.4g} / {q3:.4g}"
            print(f"{name:14s} {value:.6g} {units[name]}  {detail}")
        rates = sorted({t["rate"] for t in raw["ladder"]})
        p99s = ladder_p99(raw)
        print(f"goodput {benchlib.goodput(raw['ladder'], raw['limit_ms']):.0f} req/s "
              f"(per-layer serve.goodput_rps); ladder (req/s): "
              f"{', '.join(f'{r:.0f}' for r in rates)}; "
              f"median p99 (ms): {', '.join(f'{p:.3g}' for p in p99s)}; "
              f"limit {raw['limit_ms']} ms")
    for p in problems:
        print(f"GATE FAILED: {p}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    for p in benchlib.check_result(result, bench, args.trace):
        fail(f"malformed result: {p}", 6)
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
