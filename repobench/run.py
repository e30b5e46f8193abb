#!/usr/bin/env python3
"""Repository benchmark: build the simulator and run one workload.

    python3 repobench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds
repobench/ (which compiles ../src) into $CARGO_TARGET_DIR/repobench, or
.bench_build/repobench when that variable is unset; later runs only
rebuild what changed. Build output goes to stderr.

Workloads (see the header comment of each <workload>.cpp):
  fwq_boot             32-node CNK+FWK boot and FWQ on every core
  frontdoor_fairshare  client swarm -> front door -> fair-share scheduler
  mpi_ckpt_io          MPI, function-shipped file I/O, checkpoint/restore

The last line of stdout is one JSON object:
  {"correct": bool, "attempted": int, "failed": int,
   "metrics": {name: {"value": number, "unit": str}}}
With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; names and units come from that file.
`failed` counts operations that failed or were abandoned, plus every
operation of the run when the determinism digest does not repeat or
does not equal the digest pinned for the seed in repobench/expected.json.
A per-layer metric of a layer the workload never calls reads 0; so do
the layer probes that have nothing of the workload to replay. paper_err_pct reads -1 on
frontdoor_fairshare: the repo holds no reference for it (unvalidated).
Model caches start empty at boot in every workload; no warm-up is
excluded, because every simulated run boots a fresh machine.

--quick shrinks every workload (self-test only; its digests are not
pinned). --expect-digest overrides the pinned digest.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "repobench")


def build(out):
    """Configure (once) and build the benchmark binary; returns its path."""
    cache = os.path.join(out, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4", "--target", "repobench"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    exe = os.path.join(out, "repobench")
    if not os.path.exists(exe):
        fail("benchmark binary missing after build")
    return exe


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--expect-digest")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        fail("unknown workload " + args.workload)
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    out = build_dir()
    exe = build(out)

    expect = args.expect_digest
    if expect is None and not args.quick:
        with open(os.path.join(HERE, "expected.json")) as f:
            expect = json.load(f)["digests"].get(args.workload, {}).get(str(args.seed))
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if expect:
        cmd += ["--expect-digest", expect]
    if args.quick:
        cmd.append("--quick")
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=175)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail("benchmark binary failed with code %d" % r.returncode)
    for line in lines[:-1]:
        print(line)
    res = json.loads(lines[-1])
    values = res["values"]
    missing = [m["name"] for m in metrics if m["name"] not in values]
    if missing and not args.trace:
        fail("metrics not produced: " + ", ".join(missing))
    # A layer the workload never calls has no span and no counter.
    for name in missing:
        values[name] = 0
    print(json.dumps({
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }))


if __name__ == "__main__":
    main()
