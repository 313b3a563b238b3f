#!/usr/bin/env python3
"""The repository benchmark: `sarn train` epochs and open-loop `sarn serve`.

    python3 perfbench/run.py --workload train-city --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run builds `sarn` and
perfbench_tool into .bench_build through perfbench/CMakeLists.txt (which
includes the repository's own CMakeLists.txt); later runs reuse the build.
Inputs are generated from --seed under .perfbench_work/; the program only
sees the generated files.

Every workload has a train phase (`sarn train` with default flags plus a fixed
--epochs and --seed, and --metrics-file to observe epochs) and a serve phase
(`sarn serve --snapshot`, driven open-loop by perfbench_tool serve-load), so
every end-to-end metric is measured on every workload; each workload sizes
one phase up as its purpose and keeps the other small (spec.json). Set-up
time and peak memory are those of the primary phase's process. The gated
costs are CPU seconds per epoch and server CPU microseconds per request,
read from /proc while the program runs: on a host shared with other tenants
they stay steady where wall times swing by 2x; wall times and latencies are
printed beside them. Metric names and units come from BENCHMARK.json.

--trace 0 prints the end-to-end metrics. --trace 1 runs both phases the same
way (their engine stats/statsz numbers feed the serve layers) and then the
traced per-layer harness (perfbench_tool layers), which writes a Chrome
trace, and prints the per-layer metrics. The last line of stdout is the
result object; a failed output check prints it with "correct": false and
exits 1; any other failure exits 1 without a result. Notes: NOTES.md.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".perfbench_work")
SARN = os.path.join(BUILD, "sarn", "tools", "sarn")
TOOL = os.path.join(BUILD, "perfbench_tool")
DEADLINE_S = 170.0  # Every run must end within 180 s.
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
CITY = "CD"  # Every generated city is CD-like.
TRAIN_SEED = 42  # `sarn train --seed` on every workload.
FIXED_CITY_SEED = 1  # The serve workloads train one fixed city.
DIM = 64  # Width of generated index rows, as `sarn train` writes by default.
# Serve session lengths at --seconds 10: the warm-up rung, and the fixed low
# rung (all three parts together) and high rung each.
WARMUP_S, FIXED_S = 0.5, 2.4
SERVE_SETUP_REPEATS = 9  # Extra serve launches timed when serving is the workload's purpose.
TINY_SERVE = 0.125  # --size tiny shortens the serve rungs by this factor.

START = time.monotonic()


class CheckFailed(Exception):
    """An output of the program failed a correctness check."""


def remaining():
    left = DEADLINE_S - (time.monotonic() - START)
    if left <= 0:
        raise RuntimeError("run exceeded its time budget")
    return left


def run(args, log, **kwargs):
    """Runs a helper command to completion; raises on a non-zero exit."""
    with open(log, "ab") as out:
        proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=out, timeout=remaining(), **kwargs)
    if proc.returncode != 0:
        raise RuntimeError(f"{os.path.basename(args[0])} {args[1]} exited {proc.returncode} (see {log})")
    return proc.stdout.decode()


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and os.path.isdir(os.path.join(ROOT, "src"))):
        raise RuntimeError("perfbench must run from a checkout of the repository (no CMakeLists.txt/src)")
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "perfbench-build.log")
    jobs = str(os.cpu_count() or 1)
    with open(log, "ab") as out:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=out, stderr=out, check=True, timeout=600)
        subprocess.run(["cmake", "--build", BUILD, "--target", "sarn_cli", "perfbench_tool", "-j", jobs],
                       stdout=out, stderr=out, check=True, timeout=800)


def merged(base, override):
    out = dict(base)
    for key, value in override.items():
        out[key] = merged(out[key], value) if isinstance(value, dict) and isinstance(out.get(key), dict) else value
    return out


def read_epochs(path):
    records = []
    with open(path) as f:
        for line in f:
            record = json.loads(line)
            if record.get("event") == "epoch":
                records.append(record)
    return records


def cpu_seconds(pid):
    """User + system CPU time of a live process, all its threads."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def count_lines(path):
    try:
        with open(path, "rb") as f:
            return f.read().count(b"\n")
    except FileNotFoundError:
        return 0


def watch(proc, path):
    """Waits for `proc`, polling its metrics file.

    Returns (wall time, CPU seconds) as each line of the file first appeared
    (CPU None where that is unknown) and the process's resource usage.
    """
    marks = []
    while True:
        done, status, usage = os.wait4(proc.pid, os.WNOHANG)
        lines = count_lines(path)
        if done:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return marks + [(time.perf_counter(), None)] * (lines - len(marks)), usage
        if lines > len(marks):
            now = time.perf_counter()
            try:
                cpu = cpu_seconds(proc.pid)
            except (OSError, IndexError, ValueError):
                cpu = None
            # Lines that appeared in one poll share a time: their CPU split is unknown.
            marks += [(now, None)] * (lines - len(marks) - 1) + [(now, cpu)]
        if time.monotonic() - START > DEADLINE_S:
            raise RuntimeError("sarn train did not finish in time")
        time.sleep(0.005)


def train_once(work, tag, city, epochs, extra):
    """One `sarn train`; returns (setup seconds, epoch records, CPU seconds of
    each epoch after the first, peak RSS MB)."""
    metrics = os.path.join(work, f"epochs-{tag}.jsonl")
    args = [SARN, "train", "--network", city, "--epochs", str(epochs), "--seed", str(TRAIN_SEED),
            "--metrics-file", metrics] + extra
    with open(os.path.join(work, f"train-{tag}.log"), "wb") as log:
        launched = time.perf_counter()
        proc = subprocess.Popen(args, stdout=log, stderr=log)
        try:
            marks, usage = watch(proc, metrics)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        raise CheckFailed(f"sarn train ({tag}) exited {proc.returncode}")
    records = read_epochs(metrics)
    if not records or len(marks) != len(records):
        raise CheckFailed(f"sarn train ({tag}) wrote {len(records)} epoch records in {len(marks)} lines")
    cpu = [b[1] - a[1] for a, b in zip(marks, marks[1:]) if a[1] is not None and b[1] is not None]
    return marks[0][0] - launched - records[0]["epoch_seconds"], records, cpu, usage.ru_maxrss / 1024.0


def train_phase(work, cfg, city_seed, seconds, corrupt):
    city = os.path.join(work, "train-city.csv")
    segments = int(run([TOOL, "gen-city", "--city", CITY, "--scale", str(cfg["scale"]),
                        "--seed", str(city_seed), "--out", city],
                       os.path.join(work, "tool.log")))
    epochs = max(2, round(cfg["epochs"] * seconds / 10))
    repeat = min(epochs, cfg["repeat_epochs"])
    embeddings = os.path.join(work, "trained.csv")
    setup, records, cpu, rss = train_once(work, "main", city, epochs, ["--embeddings", embeddings])
    if len(records) != epochs:
        raise CheckFailed(f"expected {epochs} epoch records, got {len(records)}")
    losses = [r["loss"] for r in records]
    if not all(isinstance(x, (int, float)) and math.isfinite(x) for x in losses):
        raise CheckFailed(f"non-finite loss in {losses}")
    with open(embeddings) as f:
        rows = [line for line in f if line.strip()]
    if len(rows) != segments or not all(math.isfinite(float(v)) for line in rows for v in line.split(",")):
        raise CheckFailed("trained embeddings are not one finite row per segment")

    # The repeat launch must reproduce the main run's loss and gradient norm
    # series bit for bit (the metrics file prints 9 significant digits, which
    # round-trip a float32 exactly). A repeat of the whole run must also write
    # byte-identical embeddings; a shorter one stops with --stop-after, which
    # keeps the full run's LR schedule.
    repeat_embeddings = os.path.join(work, "repeat.csv")
    extra = ["--embeddings", repeat_embeddings] if repeat == epochs else ["--stop-after", str(repeat)]
    setup_r, records_r, cpu_r, _ = train_once(work, "repeat", city, epochs, extra)
    series = [(r["loss"], r["grad_norm"]) for r in records[:repeat]]
    series_r = [(r["loss"], r["grad_norm"]) for r in records_r]
    if corrupt == "loss":
        series_r[-1] = (series_r[-1][0] * (1.0 + 1e-6), series_r[-1][1])
    if series_r != series:
        raise CheckFailed(f"loss series differs between repeats: {series} vs {series_r}")
    if repeat == epochs:
        with open(embeddings, "rb") as a, open(repeat_embeddings, "rb") as b:
            if a.read() != b.read():
                raise CheckFailed("embeddings differ between repeats")
    if not cpu + cpu_r:
        raise RuntimeError("no epoch's CPU time was observed")
    return {
        "city": city,
        "segments": segments,
        "embeddings": embeddings,
        "setup_s": statistics.median([setup, setup_r]),
        "epoch_s": statistics.median(r["epoch_seconds"] for r in records[1:] + records_r[1:]),
        "epoch_cpu_s": statistics.median(cpu + cpu_r),
        "loss_final": losses[-1],
        "rss_mb": rss,
        "epochs": epochs + repeat,
    }


def serve_phase(work, cfg, seed, scale, setup_repeats, train, corrupt):
    tool_log = os.path.join(work, "tool.log")
    index = cfg["index"]
    network = None
    rows, snapshots = [], []

    def snapshot(rows_csv, name):
        path = os.path.join(work, name)
        args = [SARN, "snapshot", "save", "--embeddings", rows_csv, "--out", path]
        run(args + (["--network", network] if network else []), tool_log)
        return path

    if index == "trained":
        network = train["city"]
        rows = [train["embeddings"]]
        snapshots = [snapshot(rows[0], "a.sarnsnap")]
    else:
        if "scale" in index:
            network = os.path.join(work, "serve-city.csv")
            n = int(run([TOOL, "gen-city", "--city", CITY, "--scale", str(index["scale"]),
                         "--seed", str(seed), "--out", network], tool_log))
        else:
            n = index["rows"]
        for s in range(index.get("snapshots", 1)):
            path = os.path.join(work, f"rows{s}.csv")
            run([TOOL, "gen-rows", "--n", str(n), "--d", str(DIM),
                 "--seed", str(seed * 1000 + s + 1), "--out", path], tool_log)
            rows.append(path)
            snapshots.append(snapshot(path, f"s{s}.sarnsnap"))
    reloads = snapshots[1:] + snapshots[:1] if len(snapshots) > 1 else []
    out = os.path.join(work, "serve-load.json")
    args = [TOOL, "serve-load", "--sarn", SARN, "--snapshot", snapshots[0],
            "--quantized", "1" if cfg["quantized"] else "0",
            "--rows", ",".join(rows + rows[:1] if reloads else rows),
            "--reload-paths", ",".join(reloads),
            "--network", network or "",
            "--share-vector", str(cfg["share_vector"]), "--share-point", str(cfg["share_point"]),
            "--zipf", str(cfg["zipf"]), "--seed", str(seed),
            "--high-rate", str(cfg["high_rate"]),
            "--fixed-s", str(FIXED_S * scale), "--warmup-s", str(WARMUP_S * scale),
            "--search-from", str(cfg["search_from"]), "--search-max", str(cfg["search_max"]),
            "--bisect", str(cfg["bisect"]), "--setup-repeats", str(setup_repeats),
            "--stderr", os.path.join(work, "serve.log"), "--out", out]
    if corrupt in ("reply", "json"):
        args += ["--corrupt", "neighbor" if corrupt == "reply" else "json"]
    run(args, tool_log)
    with open(out) as f:
        result = json.load(f)
    result["snapshot"] = snapshots[0]
    result["network"] = network
    return result


def end_to_end(primary, train, serve):
    main = train if primary == "train" else serve
    return {
        "setup_s": main["setup_s"],
        "train_epoch_cpu_s": train["epoch_cpu_s"],
        "train_loss_final": train["loss_final"],
        "serve_cpu_us_per_req": serve["cpu_us_per_request"],
        "serve_recall_at_10": serve["recall_at_10"],
        "peak_rss_mb": train["rss_mb"] if primary == "train" else serve["peak_rss_mb"],
    }


def per_layer(work, train, serve, quantized):
    out = os.path.join(work, "layers.json")
    trace = os.path.join(work, "trace.json")
    run([TOOL, "layers", "--network", train["city"], "--serve-network", serve["network"] or train["city"],
         "--snapshot", serve["snapshot"], "--quantized", "1" if quantized else "0",
         "--out", out, "--trace-out", trace], os.path.join(work, "tool.log"))
    with open(out) as f:
        values = json.load(f)
    values.update({
        "serve.cache_hit_ratio": serve["cache_hit_ratio"],
        "serve.mean_batch": serve["mean_batch"],
        "serve.stage.queue_p50_ms": serve["queue_p50_ms"],
        "serve.stage.scan_p50_ms": serve["scan_p50_ms"],
        "serve.outside_engine_ms": serve["outside_engine_ms"],
        "snapshot.reload_ms": serve["reload_ms"],
        "loadgen.late_ms_p99": serve["late_p99_ms"],
    })
    return values, trace


def with_units(values, declared):
    """Attaches the units BENCHMARK.json declares; every declared metric must be measured."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke-test size (test_smoke.py)")
    parser.add_argument("--corrupt", choices=("", "reply", "json", "loss"), default="",
                        help="damage one observed output, to prove the checks reject it")
    args = parser.parse_args()

    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)
    if args.workload not in spec["workloads"]:
        raise SystemExit(f"unknown workload {args.workload}")
    workload = spec["workloads"][args.workload]
    if args.size == "tiny":
        workload = merged(workload, workload["tiny"])

    build()
    work = os.path.join(WORK, f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    primary = workload["primary"]
    correct, messages = True, []
    train = serve = None
    try:
        city_seed = args.seed if primary == "train" else FIXED_CITY_SEED
        train = train_phase(work, workload["train"], city_seed, args.seconds, args.corrupt)
        serve_scale = args.seconds / 10 * (TINY_SERVE if args.size == "tiny" else 1.0)
        serve = serve_phase(work, workload["serve"], args.seed, serve_scale,
                            SERVE_SETUP_REPEATS if primary == "serve" else 0, train, args.corrupt)
        if not serve["correct"]:
            correct = False
            messages += serve["messages"]
    except CheckFailed as failure:
        correct = False
        messages.append(str(failure))

    attempted = (train["epochs"] if train else 0) + (serve["queries_sent"] if serve else 0)
    failed = (serve["failed"] if serve else 0) + (0 if correct else 1)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    metrics, trace = {}, None
    if correct and args.trace:
        values, trace = per_layer(work, train, serve, workload["serve"]["quantized"])
        metrics = with_units(values, declared)
    elif correct:
        metrics = with_units(end_to_end(primary, train, serve), declared)

    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:14.6g} {m['unit']}")
    # Printed but not gated: on this shared host their run-to-run spread is
    # wider than any usable regression bound (NOTES.md).
    if train is not None:
        print(f"{'train_epoch_s':34s} {train['epoch_s']:14.6g} s (not gated)")
    if serve is not None:
        print(f"{'serve_max_qps':34s} {serve['max_qps']:14.6g} req/s (not gated)")
        print(f"{'serve_p50_ms.low':34s} {serve['low_p50_ms']:14.6g} ms (not gated)")
        print(f"{'serve_p50_ms.high':34s} {serve['high_p50_ms']:14.6g} ms (not gated)")
        # Any failed or unanswered reply fails the run, so this reads 0
        # whenever metrics are printed.
        print(f"{'serve_error_frac':34s} {serve['failed'] / max(1, serve['queries_sent']):14.6g} 1 (not gated)")
        for rung in ("low", "high"):
            print(f"{'serve_p99_ms.' + rung:34s} {serve[rung + '_p99_ms']:14.6g} ms (not gated; "
                  f"{serve[rung + '_samples']:.0f} samples at the {rung} rung)")
        for rung in serve["rungs"]:
            print(f"rung {rung['name']:7s} {rung['rate']:9.0f} req/s  p50 {rung['p50_ms']:8.3f} ms  "
                  f"p99 {rung['p99_ms']:8.3f} ms  ({rung['samples']:.0f} samples)  "
                  f"{'pass' if rung['pass'] else 'FAIL'}")
        if serve["late_p99_ms"] > 5.0:
            print(f"WARNING: the generator ran late (p99 {serve['late_p99_ms']:.1f} ms on passing rungs); "
                  "this run's latencies are suspect")
    if trace:
        print(f"chrome trace: {os.path.relpath(trace, ROOT)}")
    for message in messages:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    for name in os.listdir(work):  # Keep results, logs and the trace; drop inputs.
        if name.endswith((".csv", ".sarnsnap")):
            os.remove(os.path.join(work, name))
    print(json.dumps({"correct": correct, "attempted": max(1, attempted), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError, KeyError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        sys.exit(1)
