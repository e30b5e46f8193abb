#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 repobench/selftest.py          # shortened workloads, ~1 min
    python3 repobench/selftest.py --full   # also the pinned seeds, ~3 min

Run from the root of a checkout; it builds through run.py.

Checks:
 1. Every workload, shortened (--quick), untraced and traced: the run
    is correct, and every metric named in BENCHMARK.json and every
    metric the benchmark's definition names (NAMED below) is emitted
    with its unit.
 2. A wrong expected digest makes the run report failure: correct is
    false and every attempted operation counts as failed.
 3. --full: every workload at every seed pinned in expected.json (the
    default seed and a held-out seed not used while the workloads were
    written) runs twice at full size. Both runs pass every output check
    and reproduce the pinned digest, which covers every simulated
    metric, so those repeat exactly.
Exits non-zero on the first failed check.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Every end-to-end and per-layer metric the benchmark was defined with.
NAMED = """
host_mcycles_per_s setup_s peak_rss_mb ops_failed_frac sim_makespan_cycles
paper_err_pct sim_fwq_noise_cnk_pct sim_submit_ack_p50_cycles
sim_submit_ack_p99_cycles sim_job_wait_p99_cycles sim_ckpt_commit_p50_cycles
sim_allreduce_p50_cycles
runtime.construct_s runtime.boot_s runtime.load_s
sim.events sim.events_per_s sim.probe_ns_per_event sim.lane_windows
sim.lane_shared_ops
core.slices core.busy_mcycles l1.accesses l1.miss_ratio l3.accesses
l3.miss_ratio l3.bank_conflicts cache.probe_ns_per_access mmu.tlb_hits
mmu.tlb_misses mmu.probe_ns_per_translate mmu.probe_ns_per_install
collective.packets collective.bytes torus.bytes barrier.completed
mpi.sends mpi.rendezvous mpi.allreduces dcmf.bytes msg.phase_s
fship.requests fship.retransmits fship.eio ciod.requests ciod.bytes_in
ciod.bytes_out ciod.errors io.write_phase_s io.read_phase_s
ckpt.commits ckpt.failures ckpt.restores ckpt.image_bytes ckpt.save_phase_s
ckpt.restore_phase_s ckpt.host_s_per_image
svc.jobs_completed svc.jobs_failed svc.preemptions svc.checkpoint_saves
svc.checkpoint_bytes svc.ras_events svc.drain_s svc.probe_ns_per_checkpoint
hash.probe_ns_per_kib
fd.requests fd.accepted fd.busy_rejects fd.accept_ratio fd.flushes
fd.probe_ns_per_frame
trace_overhead_pct
""".split()


def die(msg):
    print("selftest FAILED: " + msg)
    sys.exit(1)


def run(workload, seed, trace, extra=()):
    cmd = ["python3", os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)] + list(extra)
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        die("%s exited %d" % (" ".join(cmd), r.returncode))
    res = json.loads(lines[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        die("result keys %s" % sorted(res))
    m = re.search(r"digest ([0-9a-f]{16})", r.stdout)
    return res, (m.group(1) if m else None)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name in NAMED:
        if name not in units:
            die("metric %s is not in BENCHMARK.json" % name)
    workloads = [w["name"] for w in spec["workloads"]]

    for w in workloads:
        emitted = {}
        for trace in (0, 1):
            res, _ = run(w, 1, trace, ["--quick"])
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                die("%s trace %d not correct: %s" % (w, trace, res))
            listed = spec["per_layer" if trace else "end_to_end"]
            for m in listed:
                got = res["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"] or \
                        not isinstance(got.get("value"), (int, float)):
                    die("%s trace %d: metric %s missing or without unit" % (w, trace, m["name"]))
            emitted.update(res["metrics"])
        missing = [n for n in NAMED if n not in emitted]
        if missing:
            die("%s does not emit %s" % (w, missing))
        res, _ = run(w, 1, 0, ["--quick", "--expect-digest", "0" * 16])
        if res["correct"] or res["failed"] != res["attempted"]:
            die("%s: a wrong digest did not fail the run: %s" % (w, res))
        print("ok  %-20s metrics emitted with units; wrong digest fails the run" % w)

    if "--full" in sys.argv:
        with open(os.path.join(HERE, "expected.json")) as f:
            pins = json.load(f)["digests"]
        for w in workloads:
            for seed, pin in sorted(pins.get(w, {}).items()):
                for attempt in (1, 2):
                    res, digest = run(w, seed, 0)
                    if not res["correct"] or res["failed"] != 0 or digest != pin:
                        die("%s seed %s run %d: correct=%s digest=%s pinned=%s" %
                            (w, seed, attempt, res["correct"], digest, pin))
                print("ok  %-20s seed %-6s oracles pass, digest %s twice" % (w, seed, pin))
    print("selftest passed")


if __name__ == "__main__":
    main()
