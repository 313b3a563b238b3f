#!/usr/bin/env python3
"""The benchmark's own test: tiny-size runs of every workload.

    python3 perfbench/test_smoke.py

Run from the root of a checkout (it builds like run.py does). It checks that
the printed metric names and units are exactly those of BENCHMARK.json, in
both modes and on every workload; that each output check rejects a damaged
output (a changed neighbour id, a truncated reply line, a changed loss in
the repeat launch); and that a directory holding only BENCHMARK.json and perfbench/ fails
without printing a result. Exits 0 when every case passes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, *extra, cwd=ROOT):
    args = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "10", "--size", "tiny"] + list(extra)
    proc = subprocess.run(args, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for mode, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in bench[key]}
        for workload in bench["workloads"]:
            code, result, err = run(workload["name"], "--trace", str(mode))
            got = {} if result is None else {n: m["unit"] for n, m in result["metrics"].items()}
            expect(code == 0 and result is not None and result["correct"],
                   f"{workload['name']} --trace {mode} runs clean" + ("" if code == 0 else f": {err[-300:]}"))
            expect(got == want, f"{workload['name']} --trace {mode} prints exactly the {key} metrics"
                   + ("" if got == want else f" (missing {sorted(set(want) - set(got))}, "
                                            f"extra {sorted(set(got) - set(want))})"))

    for workload, corrupt in (("train-city", "reply"), ("serve-scan", "reply"),
                              ("serve-hot-reload", "json"), ("train-city", "loss"),
                              ("serve-scan", "loss")):
        code, result, _ = run(workload, "--trace", "0", "--corrupt", corrupt)
        expect(code != 0 and result is not None and not result["correct"],
               f"{workload} rejects a corrupted {corrupt}")

    bare = os.path.join(ROOT, ".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = run("train-city", "--trace", "0", cwd=bare)
    expect(code != 0 and result is None, "a directory without the repository fails without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
