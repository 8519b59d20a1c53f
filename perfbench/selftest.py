#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark; run from the root of a checkout.

    python3 perfbench/selftest.py

1. Smoke: every workload, traced and untraced, prints the full metric set
   named in BENCHMARK.json, with matching units, and passes its checks.
2. Checker: a deliberately corrupted result fails the run (collective and
   training checkers).
3. Determinism: the same seed reproduces every virtual-clock line bit for
   bit; another seed changes the digest.
4. Missing sources: in a directory holding only BENCHMARK.json and the
   benchmark, run.py exits nonzero without printing a result.
Exit code 0 when every test passes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["small-mix", "large-hier", "train-resnet50"]
failures = []


def run(workload, seed, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sets = {0: spec["end_to_end"], 1: spec["per_layer"]}

    for w in WORKLOADS:
        for trace in (0, 1):
            proc = run(w, 7, trace, "--smoke")
            res = result(proc)
            expect(proc.returncode == 0 and res is not None and res["correct"],
                   f"{w} trace={trace} smoke run passes its checks")
            if res is None:
                sys.stderr.write(proc.stderr[-4000:])
                continue
            want = {m["name"]: m["unit"] for m in sets[trace]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, f"{w} trace={trace} prints the full metric set")
            for name in want:
                expect(f" {name} " in proc.stdout,
                       f"{w} trace={trace} prints {name} by name")

    for w in ("small-mix", "train-resnet50"):
        proc = run(w, 7, 0, "--smoke", "--corrupt")
        res = result(proc)
        expect(proc.returncode != 0 and res is not None and not res["correct"]
               and res["failed"] >= 1,
               f"{w} checker catches a corrupted result")

    def virt_lines(proc):
        return [l for l in proc.stdout.splitlines() if " virtual " in l]

    a, b, c = (run("small-mix", s, 0, "--smoke") for s in (11, 11, 12))
    expect(virt_lines(a) and virt_lines(a) == virt_lines(b),
           "same seed reproduces every virtual-clock line")
    expect(virt_lines(a) != virt_lines(c), "another seed changes them")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("small-mix", 1, 0, cwd=bare)
    expect(proc.returncode != 0 and result(proc) is None,
           "without library sources run.py fails and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
