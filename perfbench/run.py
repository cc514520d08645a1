#!/usr/bin/env python3
"""Repository benchmark: builds the workload driver, runs one workload,
checks its outputs and prints its metrics.

    python3 perfbench/run.py --workload train-dtdg --seed 3 --seconds 20 --trace 0

Run from the repository root. The driver is built from the checkout's own
sources (perfbench/CMakeLists.txt pulls in the root project) into
.bench_build, or into $CARGO_TARGET_DIR when that names a directory inside
the checkout. --trace 0 runs the workload untraced and reports the
end-to-end metrics; --trace 1 runs it traced and reports the per-layer
split. Metric names and units come from BENCHMARK.json, their meaning from
perfbench/layers.json.

Standard output ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}. Build or run failures exit non-zero without that line; a failed
output check prints it with "correct": false and exits 1.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in the checkout

import stats  # noqa: E402

DRIVER_TIMEOUT_S = 170
TRAINING = ("train-dtdg",)


TIMED_OP_CLASSES = ("matmul", "elementwise", "activation", "reduction", "fused")
# Disjoint per-layer times that together make up a traced training epoch.
EPOCH_SPLIT = ("tensor.matmul_s", "tensor.elementwise_s", "tensor.activation_s",
               "tensor.reduction_s", "compiler.fused_s", "compiler.agg_replay_s",
               "nn.unattributed_s", "core.update_s", "core.guard_s", "nn.optim_s")


class RunError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


# ---- build ---------------------------------------------------------------


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", "")
    path = os.path.abspath(os.path.join(ROOT, d or ".bench_build"))
    if os.path.commonpath([path, ROOT]) != ROOT or path == ROOT:
        path = os.path.join(ROOT, ".bench_build")
    return path


def build(bdir):
    for need in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            raise RunError("no stgraph sources: %s is missing" % need)
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", bdir, "--target", "perfbench_driver", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(bdir, "perfbench_driver")


def source_stamp():
    """Git commit when the checkout is a repository, and a digest of src/."""
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            p = os.path.join(dirpath, name)
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return commit, h.hexdigest()[:16]


# ---- metrics ---------------------------------------------------------------


def finite_or_inf(values):
    return [math.inf if v is None else v for v in values]


def check_list(raw):
    return [(c["name"], c["ok"], c["detail"]) for c in raw["checks"]]


def train_end_to_end(raw):
    """Training timings rebuilt from their pieces (stats.fastest_pieces):
    each epoch is cut at every step() call into pieces that do the same work
    in every epoch, and the run reports the sum of each piece's fastest
    instance. A set-up is cut the same way: construction, then the pieces of
    its warm-up epoch."""
    L = raw["sequence_length"]
    pieces = stats.fastest_pieces(raw["epoch_pieces_s"])
    epoch = sum(pieces)
    # Piece 0 runs up to the first step; sequence k is pieces 8k+1 .. 8k+8.
    seqs = stats.group_sums(pieces, 1, L)
    tail = max(seqs)
    setup_runs = [[c] + w for c, w in zip(raw["construct_s"], raw["warmup_pieces_s"])]
    setup = sum(stats.fastest_pieces(setup_runs))
    walls = [sum(r) for r in raw["epoch_pieces_s"]]
    q1, q2, q3 = stats.quartiles(walls) if len(walls) > 1 else (walls[0],) * 3
    setup_walls = [sum(r) for r in setup_runs]
    metrics = {
        "setup_s": setup,
        "time_ms": 1e3 * epoch,
        "tail_ms": 1e3 * tail,
        "throughput_per_s": raw["timestamps"] / epoch,
        "peak_device_mib": raw["peak_device_mib"],
    }
    details = [
        "epochs: n=%d cut into %d pieces; fastest pieces sum to %.4f s; whole epochs fastest"
        " %.4f s, quartiles %.4f / %.4f / %.4f s"
        % (len(walls), len(pieces), epoch, min(walls), q1, q2, q3),
        "sequences of %d steps from those pieces: %s s; slowest %.4f s"
        % (L, " ".join("%.4f" % v for v in seqs), tail),
        "setup: n=%d, fastest pieces sum to %.4f s; whole set-ups fastest %.4f s, median %.4f s;"
        " construction alone fastest %.4f s"
        % (len(setup_runs), setup, min(setup_walls), stats.median(setup_walls),
           min(raw["construct_s"])),
        "final_loss %.6f (%s)" % (float.fromhex(raw["final_loss_hex"]), raw["final_loss_hex"]),
    ]
    return metrics, check_list(raw), details


def open_loop_percentiles(raw):
    """Per-cycle open-loop p50 and p99 (us), and whether every cycle had
    enough samples to support p99."""
    p50s, p99s, supported = [], [], True
    for cycle in raw["open_lat_us"]:
        lat = finite_or_inf(cycle)
        supported &= (stats.tail_percentile(len(lat)) or 0) >= 99.0
        p50s.append(stats.percentile(lat, 50))
        p99s.append(stats.percentile(lat, 99))
    return p50s, p99s, supported


def serve_common(raw, cfg):
    """Quantities both serve-mixed modes report, plus the run's checks."""
    p50s, p99s, supported = open_loop_percentiles(raw)
    pooled = [v for c in raw["open_lat_us"] for v in finite_or_inf(c)]
    limit_us = 1e3 * cfg["predict_latency_limit_ms"]
    # Lateness per cycle, from the same best cycle statistic as latency.
    late = raw["late_us"]
    per_cycle = len(late) // len(raw["open_lat_us"])
    late_p99 = min(stats.percentile(late[i:i + per_cycle], 99)
                   for i in range(0, len(late), per_cycle))
    caps = [n / raw["closed_window_s"] for n in raw["closed_ok"]]
    setup_walls = [sum(p) for p in raw["setup_pieces_s"]]
    q = {
        "setup": sum(stats.fastest_pieces(raw["setup_pieces_s"])),
        "p50_us": min(p50s),
        "p99_us": min(p99s),
        "capacity": max(caps),
        "slo_ratio": sum(1 for v in pooled if v <= limit_us) / raw["open_sent"],
        "late_p99_us": late_p99,
        "ingest_p50_ms": stats.median(raw["ingest_ms"]) if raw["ingest_ms"] else 0.0,
    }
    checks = check_list(raw)
    checks.append(("p99_supported", supported,
                   "%d open-loop samples per cycle" % min(len(c) for c in raw["open_lat_us"])))
    checks.append(("open_loop_latency_finite", math.isfinite(q["p99_us"]),
                   "reported cycle p99 %s us" % q["p99_us"]))
    # Latency is timed from the schedule, so a late sender adds its lag to
    # every sample; the server is what fell behind only while that lag is
    # the smaller part of the tail.
    share = cfg["generator_late_share"]
    checks.append(("generator_on_schedule", late_p99 <= share * q["p99_us"],
                   "sender late p99 %.1f us, at most %g of the PREDICT p99 %.1f us"
                   % (late_p99, share, q["p99_us"])))
    details = [
        "open loop: %g PREDICT/s, %d sent, %d cycles; cycle p50 us %s; cycle p99 us %s"
        % (raw["open_loop_rps"], raw["open_sent"], len(p50s),
           " ".join("%.1f" % v for v in p50s), " ".join("%.1f" % v for v in p99s)),
        "slo: %.5f of PREDICTs within %g ms; shed %d, failed %d, timed out %d"
        % (q["slo_ratio"], cfg["predict_latency_limit_ms"], raw["open_shed"],
           raw["open_failed"], raw["timed_out"]),
        "capacity: closed loop, %d outstanding; cycle PREDICT/s %s"
        % (raw["closed_window"], " ".join("%.0f" % c for c in caps)),
        "ingest: %g Hz, %d ingests of a timeline of %d deltas, round trip p50 %.3f ms"
        % (raw["ingest_hz"], raw["ingests"], raw["deltas_available"], q["ingest_p50_ms"]),
        "generator: late p99 %.2f us (best cycle), %.2f us (all)"
        % (late_p99, stats.percentile(late, 99)),
        "setup: n=%d cut into %d pieces; fastest pieces sum to %.4f s;"
        " whole set-ups fastest %.4f s, median %.4f s"
        % (len(setup_walls), len(raw["setup_pieces_s"][0]), q["setup"], min(setup_walls),
           stats.median(setup_walls)),
        "checkpoint: %d epochs, final_loss %s" % (len(raw["losses"]), raw["final_loss_hex"]),
    ]
    return q, checks, details


def clamp_finite(v):
    return v if math.isfinite(v) else sys.float_info.max


def serve_end_to_end(raw, cfg):
    q, checks, details = serve_common(raw, cfg)
    metrics = {
        "setup_s": q["setup"],
        "time_ms": clamp_finite(q["p50_us"] / 1e3),
        "tail_ms": clamp_finite(q["p99_us"] / 1e3),
        "throughput_per_s": q["capacity"],
        "peak_device_mib": raw["peak_device_mib"],
    }
    return metrics, checks, details


def zero_layers(names):
    return {n: 0.0 for n in names}


def common_layers(ops, fusion_hits, fusion_misses, launches, items, cpu_s, wall_s, mem):
    """Per-layer values every workload reads the same way."""
    lookups = fusion_hits + fusion_misses
    return {
        "tensor.matmul_s": ops["matmul"]["s"],
        "tensor.matmul_calls": ops["matmul"]["count"],
        "tensor.matmul_bytes": ops["matmul"]["bytes"],
        "tensor.elementwise_s": ops["elementwise"]["s"],
        "tensor.activation_s": ops["activation"]["s"],
        "tensor.reduction_s": ops["reduction"]["s"],
        "tensor.shape_calls": ops["shape"]["count"],
        "tensor.shape_bytes": ops["shape"]["bytes"],
        "compiler.fused_s": ops["fused"]["s"],
        "compiler.fused_calls": ops["fused"]["count"],
        "compiler.fusion_cache_hit_ratio": fusion_hits / lookups if lookups else 0.0,
        "runtime.launches": launches,
        "runtime.items_per_launch": items / launches if launches else 0.0,
        "runtime.cpu_per_wall": cpu_s / wall_s if wall_s else 0.0,
        "mem.tensor_peak_mib": mem["tensor"],
        "mem.graph_peak_mib": mem["graph"],
        "mem.pma_peak_mib": mem["pma"],
        "mem.scratch_peak_mib": mem["scratch"],
    }


def span_epochs(spans):
    """Per traced epoch (group >= 1): epoch wall seconds and the self
    seconds summed per span name."""
    flat = [(s[0], s[1], s[2], int(s[3])) for s in spans]
    selfs = stats.self_times(flat)
    per = {}
    for (name, begin, end, _), st, s in zip(flat, selfs, spans):
        group = int(s[4])
        if group == 0:
            continue  # warm-up epoch
        e = per.setdefault(group, {"wall": 0.0, "self": {}})
        if name == "epoch":
            e["wall"] = 1e-9 * (end - begin)
        e["self"][name] = e["self"].get(name, 0.0) + 1e-9 * st
    return [per[g] for g in sorted(per)]


def train_layers(raw, spans, cfg, names):
    records = raw["epochs"][1:]
    epochs = span_epochs(spans)
    agg = stats.median(raw["agg_replay_s"])
    rows = []
    for rec, ep in zip(records, epochs):
        selfs = ep["self"]
        fwd = selfs.get("core.forward", 0.0)
        bwd = selfs.get("autograd.backward", 0.0)
        timed = sum(rec["ops_fb"][c]["s"] for c in TIMED_OP_CLASSES)
        bwd_positioning = max(0.0, rec["positioning_s"] - selfs.get("core.begin_forward_step", 0.0))
        hits, misses = rec["prefetch_hits"], rec["prefetch_misses"]
        covered = sum(v for k, v in selfs.items() if "." in k)
        row = zero_layers(names)
        row.update(common_layers(rec["ops_all"], rec["fusion_hits"], rec["fusion_misses"],
                                 rec["launches"], rec["launch_items"], rec["cpu_s"],
                                 rec["wall_s"], raw["mem_peak_mib"]))
        row.update({
            "gpma.position_s": rec["position_s"],
            "gpma.view_s": rec["view_s"],
            "gpma.stall_s": rec["stall_s"],
            "gpma.prefetch_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "core.update_s": rec["positioning_s"],
            "core.forward_s": fwd,
            "core.guard_s": selfs.get("core.guard", 0.0),
            "autograd.backward_s": bwd,
            "nn.optim_s": selfs.get("nn.optim", 0.0),
            "compiler.agg_replay_s": agg,
            "nn.unattributed_s": fwd + bwd - timed - agg - bwd_positioning,
            "trace_coverage_ratio": covered / ep["wall"],
        })
        rows.append(row)
    metrics = {n: stats.median([r[n] for r in rows]) for n in names}
    metrics["nn.final_loss"] = float.fromhex(raw["final_loss_hex"])
    traced_wall = stats.median([e["wall"] for e in epochs])
    # Each traced epoch ran right after an untraced train_epoch() of the
    # same work, so the pairwise ratio cancels host drift.
    metrics["trace_overhead_ratio"] = stats.median(
        [r["wall_s"] / u for r, u in zip(records, raw["ref_epoch_s"])])

    checks = check_list(raw)
    checks.append(("trace_coverage", metrics["trace_coverage_ratio"] >= cfg["min_trace_coverage"],
                   "per-layer self time covers %.4f of the traced epoch (minimum %g)"
                   % (metrics["trace_coverage_ratio"], cfg["min_trace_coverage"])))
    split = {n: metrics[n] for n in EPOCH_SPLIT}
    largest = max(split, key=split.get)
    details = [
        "traced epochs: n=%d, median %.4f s, each paired with an untraced "
        "train_epoch() (median %.4f s)" % (len(rows), traced_wall, stats.median(raw["ref_epoch_s"])),
        "epoch split: " + ", ".join("%s %.1f%%" % (n, 100 * v / traced_wall)
                                    for n, v in sorted(split.items(), key=lambda kv: -kv[1])),
        "largest layer: %s; core.update_s is %.1f%% of the epoch"
        % (largest, 100 * metrics["core.update_s"] / traced_wall),
        "final_loss %s, bit-identical to train_epoch()" % raw["final_loss_hex"],
    ]
    return metrics, checks, details


def window_figures(w, readers):
    """Server-side mean latency (us), batch occupancy and mean reader
    utilization over a set of windows (perfbench/serve.cpp ServerWindow)."""
    return (w["latency_sum_us"] / w["samples"] if w["samples"] else 0.0,
            w["batch_requests"] / w["batches"] if w["batches"] else 0.0,
            w["reader_busy_s"] / (readers * w["wall_s"]) if w["wall_s"] and readers else 0.0)


def serve_layers(raw, cfg, names):
    q, checks, details = serve_common(raw, cfg)
    s = raw["server"]
    g = raw["gpma"]
    pf = g["prefetch_hits"] + g["prefetch_misses"]
    steps = s["cache_hits"] + s["forward_passes"]
    open_mean, open_occ, open_util = window_figures(s["open"], s["readers"])
    burst_mean, burst_occ, burst_util = window_figures(s["burst"], s["readers"])
    client_mean = raw["open_sent_lat_sum_us"] / raw["open_ok"] if raw["open_ok"] else 0.0
    details.append("server windows: open %.2f s, %d samples; burst %.2f s, %d samples; "
                   "client mean from send %.2f us"
                   % (s["open"]["wall_s"], s["open"]["samples"], s["burst"]["wall_s"],
                      s["burst"]["samples"], client_mean))
    metrics = zero_layers(names)
    metrics.update(common_layers(raw["ops"], raw["fusion_hits"], raw["fusion_misses"],
                                 raw["launches"], raw["launch_items"], raw["cpu_s"],
                                 raw["wall_s"], raw["mem_peak_mib"]))
    metrics.update({
        "gpma.position_s": g["position_s"],
        "gpma.view_s": g["view_s"],
        "gpma.stall_s": g["stall_s"],
        "gpma.prefetch_hit_ratio": g["prefetch_hits"] / pf if pf else 0.0,
        "nn.final_loss": float.fromhex(raw["final_loss_hex"]),
        "serve.server_p50_us": s["lifetime_p50_us"],
        "serve.server_p99_us": s["lifetime_p99_us"],
        "serve.server_mean_us": open_mean,
        "serve.batch_occupancy": open_occ,
        "serve.reader_util": open_util,
        "serve.burst_server_mean_us": burst_mean,
        "serve.burst_batch_occupancy": burst_occ,
        "serve.burst_reader_util": burst_util,
        "serve.max_queue_depth": s["lifetime_max_queue_depth"],
        "serve.step_cache_hit_ratio": s["cache_hits"] / steps if steps else 0.0,
        "serve.forward_ms_per_pass":
            1e3 * s["forward_s"] / s["forward_passes"] if s["forward_passes"] else 0.0,
        "serve.ingest_ms_per_delta":
            1e3 * s["ingest_s"] / s["deltas_applied"] if s["deltas_applied"] else 0.0,
        "serve.slo_ratio": q["slo_ratio"],
        "serve.ingest_p50_ms": q["ingest_p50_ms"],
        "net.overhead_mean_us": client_mean - open_mean,
        "net.frames_out": raw["frames_out"],
        "gen.late_p99_us": q["late_p99_us"],
    })
    return metrics, checks, details


# ---- main ------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    cfg = load_json(os.path.join(HERE, "layers.json"))
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in workloads:
        raise RunError("unknown workload %r (have %s)" % (args.workload, ", ".join(workloads)))
    spec = bench["per_layer"] if args.trace else bench["end_to_end"]
    names = [m["name"] for m in spec]

    bdir = build_dir()
    driver = build(bdir)
    runs = os.path.join(bdir, "runs")
    os.makedirs(runs, exist_ok=True)
    raw_path = os.path.join(runs, "raw-%s-trace%d.json" % (args.workload, args.trace))
    trace_path = os.path.join(runs, "trace-%s.json" % args.workload)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", raw_path, "--work-dir", runs]
    if args.trace:
        cmd += ["--trace-out", trace_path]
    started = time.monotonic()
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=DRIVER_TIMEOUT_S)
    if r.returncode != 0:
        raise RunError("driver exited with code %d" % r.returncode)
    raw = load_json(raw_path)

    training = args.workload in TRAINING
    if args.trace and training:
        metrics, checks, details = train_layers(raw, load_json(trace_path)["spans"], cfg, names)
    elif args.trace:
        metrics, checks, details = serve_layers(raw, cfg, names)
    elif training:
        metrics, checks, details = train_end_to_end(raw)
    else:
        metrics, checks, details = serve_end_to_end(raw, cfg)
    if sorted(metrics) != sorted(names):
        raise RunError("metric set differs from BENCHMARK.json: %s"
                       % sorted(set(metrics) ^ set(names)))

    if training:
        attempted, failed = raw["attempted"], raw["failed"]
    else:
        attempted = raw["open_sent"] + raw["closed_sent"] + raw["ingests"]
        failed = (raw["open_shed"] + raw["open_failed"] + raw["closed_shed"]
                  + raw["closed_failed"] + raw["timed_out"] + raw["ingest_failed"])

    commit, digest = source_stamp()
    env = dict(raw["env"])
    env.update({"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                "git_commit": commit, "src_sha256": digest, "trace": args.trace,
                "seconds": args.seconds, "driver_wall_s": round(time.monotonic() - started, 3)})
    print("env: " + json.dumps(env, sort_keys=True))
    for line in details:
        print(line)
    for name, ok, detail in checks:
        print("check %-28s %s  %s" % (name, "ok" if ok else "FAILED", detail))
    units = {m["name"]: m["unit"] for m in spec}
    for name in names:
        print("metric %-34s %.6g %s" % (name, metrics[name], units[name]))
    correct = all(ok for _, ok, _ in checks)
    print(json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RunError, subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        log("perfbench: %s" % e)
        sys.exit(2)
