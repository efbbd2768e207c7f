#!/usr/bin/env python3
"""Run the GPUShield benchmark: build, measure, check, report.

    python3 perfbench/run.py [--workload fig14|serve|detect] [--seed N]
                             [--seconds S] [--trace 0|1]

Without --workload all three workloads run in turn. Each workload runs in
its own process, one simulation at a time, at the program's default engine
width. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; with --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer metrics.
Every line before it is the human-readable report. The full result, with
host facts, goes to .bench_out/. The exit code is 0 only when the build
succeeded and every correctness check passed. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("fig14", "serve", "detect")
DEFAULT_SEED = 0xF022
HELD_OUT_SEED = 0xBEEF
RUN_TIMEOUT_S = 170
# Per-layer times measured outside the traced operations (set-up, replays,
# differences), so they have no share of the traced wall.
OUTSIDE_WALL = {"bench.wall_s", "core.bcu_host_s", "compiler.analyze_s",
                "compiler.prove_s", "fuzzgen.corpus_s", "workloads.build_s"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the benchmark binary from source; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(ROOT, target, "release", "perfbench")


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_facts():
    git = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = command_output(["git", "rev-parse", "HEAD"])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "rustc": command_output(["rustc", "--version"]),
        "git_commit": git,
    }


def metric_spec():
    """The metric names and units BENCHMARK.json promises."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")
    return spec["end_to_end"], spec["per_layer"]


def run_workload(binary, workload, args):
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{workload}-seed{args.seed}-trace{args.trace}"
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(out_dir, f"spans-{stem}.tsv")]
    load_before = os.getloadavg()
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{workload}: {e}")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail(f"{workload}: benchmark binary exited with {done.returncode}")
    try:
        doc = json.loads(done.stdout)
    except ValueError:
        fail(f"{workload}: unreadable result")
    doc["host"] = dict(host_facts(), load_before=load_before,
                       load_after=os.getloadavg())
    with open(os.path.join(out_dir, f"result-{stem}.json"), "w") as f:
        json.dump(doc, f, indent=2)
    return doc


def report(doc, spec):
    """Prints one workload's human-readable report."""
    print(f"== {doc['workload']}  seed={doc['seed']}  trace={int(doc['trace'])}"
          f"  seconds={doc['seconds']}  correct={doc['correct']}"
          f"  attempted={doc['attempted']}  failed={doc['failed']}")
    wall = doc["metrics"].get("bench.wall_s", {}).get("value")
    for m in spec:
        v = doc["metrics"][m["name"]]
        share = ""
        if wall and v["unit"] == "s" and m["name"] not in OUTSIDE_WALL:
            share = f"  ({100 * v['value'] / wall:.1f}% of traced wall)"
        print(f"  {m['name']:<30} {v['value']:>16.6g} {v['unit']:<12}"
              f" n={v['samples']}{share}")
    for name, v in doc["extra"].items():
        print(f"  {name:<30} {v['value']:>16.6g} {v['unit']:<12}"
              f" n={v['samples']}")
    for why in doc["failures"]:
        print(f"  FAILED: {why}")
    host = doc["host"]
    print(f"  host: nproc={host['nproc']} load={host['load_before'][0]:.2f}"
          f"->{host['load_after'][0]:.2f} cpu={host['cpu_model']!r}"
          f" rustc={host['rustc']!r} commit={host['git_commit'][:12]}"
          f" config_fingerprint={doc['config_fingerprint']}"
          f" sim_threads={doc['sim_threads']}")


def parse_seed(text):
    """A decimal seed, or hexadecimal with a 0x prefix."""
    if text.lower().startswith("0x"):
        return int(text, 16)
    return int(text)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=parse_seed, default=DEFAULT_SEED,
                   help=f"workload seed (default {DEFAULT_SEED}; held-out "
                        f"seed {HELD_OUT_SEED})")
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    end_to_end, per_layer = metric_spec()
    spec = per_layer if args.trace else end_to_end
    binary = build()
    docs = [run_workload(binary, w, args)
            for w in ([args.workload] if args.workload else WORKLOADS)]
    for doc in docs:
        got = doc["metrics"]
        bad = [m["name"] for m in spec
               if got.get(m["name"], {}).get("unit") != m["unit"]]
        if bad:
            fail(f"{doc['workload']}: metrics missing or in other units: "
                 f"{', '.join(bad)}")
        report(doc, spec)

    prefix = len(docs) > 1
    result = {
        "correct": all(d["correct"] for d in docs),
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "metrics": {
            (f"{d['workload']}.{m['name']}" if prefix else m["name"]): {
                "value": d["metrics"][m["name"]]["value"],
                "unit": d["metrics"][m["name"]]["unit"],
            }
            for d in docs for m in spec
        },
    }
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
