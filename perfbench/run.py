#!/usr/bin/env python3
"""Repository benchmark: build the driver, run one workload, check, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --record [--workload NAME]

The first form builds perfbench_driver from the repository's sources into
.bench_build/perfbench (a no-op once built), runs one workload and prints,
as the last line of standard output, one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones (README.md).

A run counts as failed when its result digest differs from the recorded
reference for its input seed, or when the driver crashes. The benchmark is
also incorrect when a deterministic count (sim.events, the layer counters)
differs from the one recorded for the seed; it then still prints its
result, names the fault on standard error and exits 1.

--self-check runs every workload on reference seed 0 and on the held-out
seed: untraced and traced, and through SweepRunner::run (the driver's
reference mode), each compared with the references. --record rewrites the
references from the current build; only a change that is meant to alter
simulation results may do that, and it must say so.
"""

import argparse
import concurrent.futures
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"
REFERENCE = HERE / "reference"

WORKLOADS = ("paper_pairs", "dense_flows", "mobile_floor", "metro")
# References exist for input seeds 0..REFERENCE_SEEDS-1 and the held-out
# seed; any other --seed selects input seed (seed mod REFERENCE_SEEDS).
REFERENCE_SEEDS = 32
HELD_OUT_SEED = 1000
DRIVER_TIMEOUT_S = 170
# Drivers run side by side when recording. Reference mode times nothing and
# does not pin itself to a CPU, so they do not share one core.
RECORD_WORKERS = 2


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure and build; both are quick no-ops once up to date."""
    for cmd in (["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(BUILD), "-j4"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return DRIVER.is_file()


def load_reference(workload):
    return json.loads((REFERENCE / f"{workload}.json").read_text())["seeds"]


def input_seed(seed, reference):
    return seed if str(seed) in reference else seed % REFERENCE_SEEDS


def run_driver(workload, seed, *args):
    """The driver's JSON output, or None when it failed."""
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed), *args]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} seed {seed}: driver timed out")
        return None
    if proc.returncode != 0:
        log(f"{workload} seed {seed}: driver exited {proc.returncode}")
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        log(f"{workload} seed {seed}: unreadable driver output")
        return None


def failed_runs(digests, expected):
    if len(digests) != len(expected):
        return len(digests)
    return sum(a != b for a, b in zip(digests, expected))


def check(raw, expected):
    """(attempted, failed, faults) for the driver's rounds."""
    rounds = raw["rounds"]
    attempted = sum(len(r["digests"]) for r in rounds)
    failed = sum(failed_runs(r["digests"], expected["digests"])
                 for r in rounds)
    faults = []
    if failed:
        faults.append(f"{failed} of {attempted} runs differ from the reference")
    events = [r["events"] for r in rounds]
    if any(e != expected["events"] for e in events):
        faults.append(f"sim.events per round {events}, "
                      f"recorded {expected['events']}")
    if raw["peak_rss_mb"] <= 0:
        faults.append("peak RSS could not be read")
    for r in rounds:
        if not r["traced"]:
            continue
        if r["counters"] != expected["counters"]:
            keys = sorted(set(r["counters"]) | set(expected["counters"]))
            faults.append("layer counters differ from the recorded ones: " +
                          ", ".join(k for k in keys if r["counters"].get(k) !=
                                    expected["counters"].get(k)))
        # Holds by construction (every dispatch is charged to one class);
        # it guards the loop's mapping of rank classes.
        class_events = sum(c["events"] for c in r["classes"].values())
        if class_events != r["events"]:
            faults.append(f"run.*_events sum to {class_events}, "
                          f"sim.events is {r['events']}")
    return attempted, failed, faults


def reference_faults(ref, expected):
    """Faults of one driver --mode reference output against the record."""
    faults = []
    for name in ("digests", "sweep_digests"):
        n = failed_runs(ref[name], expected["digests"])
        if n:
            faults.append(f"{name}: {n} of {len(ref[name])} runs differ "
                          "from the reference")
    if ref["events"] != expected["events"]:
        faults.append(f"sim.events {ref['events']}, "
                      f"recorded {expected['events']}")
    for name in ("counters", "sweep_counters"):
        if ref[name] != expected["counters"]:
            faults.append(f"{name} differ from the recorded ones")
    return faults


def setup_ref(raw):
    """Per set-up sample: (testbed, draw, world) seconds at reference speed."""
    s = raw["setup"]
    return [(t * k, d * k, w * k) for t, d, w, k in
            zip(s["testbed_s"], s["draw_s"], s["world_s"], s["scale"])]


def metric(value, unit):
    return {"value": value, "unit": unit}


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(raw):
    untraced = [r for r in raw["rounds"] if not r["traced"]]
    return {
        "sim_s_per_wall_s": metric(statistics.median(
            raw["sim_s_per_round"] / r["run_ref_s"] for r in untraced), "s/s"),
        "setup_s": metric(statistics.median(
            sum(sample) for sample in setup_ref(raw)), "s"),
        "peak_rss_mb": metric(raw["peak_rss_mb"], "MB"),
    }


def raw_times(raw):
    """The end-to-end times as the host measured them, unscaled; printed
    beside the result for reading only, not part of the result."""
    untraced = [r for r in raw["rounds"] if not r["traced"]]
    s = raw["setup"]
    return {
        "raw.sim_s_per_wall_s": metric(statistics.median(
            raw["sim_s_per_round"] / r["run_s"] for r in untraced), "s/s"),
        "raw.setup_s": metric(statistics.median(
            sum(t) for t in zip(s["testbed_s"], s["draw_s"], s["world_s"])),
            "s"),
        "rounds": metric(len(untraced), "count"),
    }


def per_layer(raw):
    untraced = [r for r in raw["rounds"] if not r["traced"]]
    traced = [r for r in raw["rounds"] if r["traced"]]
    first = traced[0]
    c = first["counters"]
    events = first["events"]
    untraced_run_s = statistics.median(r["run_ref_s"] for r in untraced)
    traced_run_s = statistics.median(r["run_ref_s"] for r in traced)

    def class_s(name):
        return statistics.median(r["classes"][name]["s"] * r["run_ref_s"] /
                                 r["run_s"] for r in traced)

    def global_share(r):
        total = sum(x["s"] for x in r["classes"].values())
        return ratio(100.0 * r["classes"]["global"]["s"], total)

    m = {
        "sim.events": metric(events, "count"),
        "sim.events_per_sim_s": metric(events / raw["sim_s_per_round"], "1/s"),
        "sim.events_per_wall_s": metric(events / untraced_run_s, "1/s"),
        "sim.queue_depth_hw": metric(
            max(r["queue_depth_hw"] for r in raw["rounds"]), "count"),
    }
    for name in ("local", "delivery"):
        n = first["classes"][name]["events"]
        s = class_s(name)
        m[f"run.{name}_s"] = metric(s, "s")
        m[f"run.{name}_events"] = metric(n, "count")
        m[f"run.{name}_ns_per_event"] = metric(ratio(s * 1e9, n), "ns")
    m["run.global_events"] = metric(first["classes"]["global"]["events"],
                                    "count")
    m["run.global_share"] = metric(
        statistics.median(global_share(r) for r in traced), "%")
    m["run.trace_overhead"] = metric(traced_run_s / untraced_run_s, "ratio")
    m["host.slowdown"] = metric(statistics.median(
        r["run_s"] / r["run_ref_s"] for r in untraced), "ratio")

    locks = (c["phy.rx_ok"] + c["phy.rx_corrupt"] +
             c["phy.collision_captured"] + c["phy.collision_local_tx"])
    defers = c["mac.defer_dst_busy"] + c["mac.defer_conflict_map"]
    m.update({
        "phy.transmits": metric(c["phy.transmits"], "count"),
        "phy.deliveries": metric(c["phy.deliveries"], "count"),
        "phy.fanout": metric(
            ratio(c["phy.deliveries"], c["phy.transmits"]), "ratio"),
        "phy.culled_per_transmit": metric(
            ratio(c["phy.culled_receivers"], c["phy.transmits"]), "ratio"),
        "phy.gain_cache_hit_ratio": metric(
            ratio(c["phy.gain_cache_hits"],
                  c["phy.gain_cache_hits"] + c["phy.gain_cache_misses"]),
            "ratio"),
        "phy.floor_drop_ratio": metric(
            ratio(c["phy.floor_drops"], c["phy.deliveries"]), "ratio"),
        "phy.rx_ok_ratio": metric(ratio(c["phy.rx_ok"], locks), "ratio"),
        "mac.send_decisions": metric(c["mac.send_decisions"], "count"),
        "mac.defer_ratio": metric(
            ratio(defers, c["mac.send_decisions"]), "ratio"),
        "mac.defer_probes_per_decision": metric(
            ratio(c["mac.defer_probes"], c["mac.send_decisions"]), "ratio"),
        "mac.defer_ttl_expiries": metric(c["mac.defer_ttl_expiries"], "count"),
        "mac.defer_occupancy_hw": metric(c["mac.defer_occupancy_hw"], "count"),
        "dyn.moves": metric(c["dyn.moves"], "count"),
        "dyn.incremental_invalidations": metric(
            c["dyn.incremental_invalidations"], "count"),
        "dyn.full_refreshes": metric(c["dyn.full_refreshes"], "count"),
        "dyn.channel_epochs": metric(c["dyn.channel_epochs"], "count"),
    })
    testbed_s, draw_s, world_s = zip(*setup_ref(raw))
    m.update({
        "testbed.build_s": metric(statistics.median(testbed_s), "s"),
        "testbed.stored_links": metric(raw["stored_links"], "count"),
        "scenario.draw_s": metric(statistics.median(draw_s), "s"),
        "world.build_s": metric(statistics.median(world_s), "s"),
    })
    return m


def measure(workload, seed, seconds, trace):
    """Run one workload: (result dict, faults, raw times or {})."""
    reference = load_reference(workload)
    seed_in = input_seed(seed, reference)
    spans = BUILD / "spans" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    spans.parent.mkdir(parents=True, exist_ok=True)
    raw = run_driver(workload, seed_in, "--seconds", str(seconds),
                     "--trace", str(int(trace)), "--spans", str(spans))
    if raw is None:
        return {"correct": False, "attempted": 1, "failed": 1,
                "metrics": {}}, ["driver failed"], {}
    attempted, failed, faults = check(raw, reference[str(seed_in)])
    metrics = per_layer(raw) if trace else end_to_end(raw)
    return ({"correct": not faults, "attempted": attempted, "failed": failed,
             "metrics": metrics}, faults, raw_times(raw))


def record(workloads):
    """Record each seed's digests, sim.events and layer counters. The
    benchmark's chunked loop and SweepRunner::run must agree on all of them,
    or nothing is written."""
    seeds = list(range(REFERENCE_SEEDS)) + [HELD_OUT_SEED]
    for workload in workloads:
        with concurrent.futures.ThreadPoolExecutor(RECORD_WORKERS) as pool:
            refs = list(pool.map(
                lambda s, w=workload: run_driver(w, s, "--mode", "reference"),
                seeds))
        table = {}
        for seed, ref in zip(seeds, refs):
            if ref is None:
                return 1
            if (ref["digests"] != ref["sweep_digests"] or
                    ref["counters"] != ref["sweep_counters"]):
                log(f"{workload} seed {seed}: the benchmark's loop and "
                    "SweepRunner::run disagree; nothing recorded")
                return 1
            table[str(seed)] = {"digests": ref["digests"],
                                "events": ref["events"],
                                "counters": ref["counters"]}
        path = REFERENCE / f"{workload}.json"
        path.write_text(json.dumps({"workload": workload, "seeds": table},
                                   indent=0) + "\n")
        log(f"recorded {len(table)} seeds to {path.relative_to(ROOT)}")
    return 0


def self_check():
    ok = True
    for workload in WORKLOADS:
        reference = load_reference(workload)
        for seed in (0, HELD_OUT_SEED):
            result, faults, _ = measure(workload, seed, 0, True)
            ref = run_driver(workload, seed, "--mode", "reference")
            faults += (["reference mode failed"] if ref is None else
                       reference_faults(ref, reference[str(seed)]))
            status = "FAILED" if faults else "ok"
            print(f"{workload:13s} seed {seed:5d}: {status} "
                  f"({result['attempted']} runs, {result['failed']} failed; "
                  "SweepRunner::run checked)")
            for fault in faults:
                log(f"{workload} seed {seed}: {fault}")
            ok = ok and not faults
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (args.self_check or args.record or args.workload):
        ap.error("one of --workload, --self-check, --record is required")

    if not build():
        log("build failed")
        return 1
    if args.record:
        return record([args.workload] if args.workload else WORKLOADS)
    if args.self_check:
        return self_check()

    result, faults, raw = measure(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    for fault in faults:
        log(f"{args.workload} seed {args.seed}: {fault}")
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    for name, m in raw.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}  (info)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
