"""FIRST simulator benchmark: host cost per simulated request, simulated
service quality, and a per-layer ledger.

Run from the root of a checkout::

    python3 perfbench/run.py --workload steady_chat --seed 1 --seconds 25 --trace 0

``--trace 0`` repeats the workload, each repetition in a fresh interpreter,
until ``--seconds`` have passed, and reports the end-to-end metrics: the
medians of the host metrics, and the simulated metrics, which every
repetition of one seed must reproduce exactly.  ``host_us_per_request`` is
the CPU time of the traffic phase per request sent, and ``setup_s`` the CPU
time from interpreter start to the first traffic request, both rescaled to a
fixed machine speed (see ``clock.py``).

``--trace 1`` makes one untraced run, cProfile runs at full and at half
length and a tracemalloc run at half length, and reports the per-layer
ledger (see ``ledger.py``).

Each repetition checks the program's outputs.  A failed check prints
``"correct": false`` and exits with code 1.

Inputs, sizes, seeds and SLO limits are in ``workloads.json``.
"""

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import ledger

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIG = json.loads((HERE / "workloads.json").read_text())
LAYERS = ledger.LAYERS + ("other", "total")
# Simulated metrics and their units; they repeat exactly for one seed.
SIM_UNITS = {
    "sim_latency_p50_s": "sim_s",
    "sim_latency_p99_s": "sim_s",
    "sim_ttft_p50_s": "sim_s",
    "sim_ttft_p99_s": "sim_s",
    "sim_itl_p50_s": "sim_s",
    "sim_itl_p99_s": "sim_s",
    "sim_output_tok_per_s": "tok/sim_s",
    "sim_slo_attainment": "ratio",
    "sim_gpu_hours": "gpu_h",
    "success_rate": "ratio",
}
# Per-layer counters read from public attributes, and their units.
COUNT_UNITS = {
    "faas.relay_peak_queued": "count",
    "auth.cache_hit_ratio": "ratio",
    "autoscale.launches": "count",
    "cluster.job_wait_s_max": "sim_s",
    "federation.route_selects_per_req": "count/req",
    "placement.rebuilds_per_req": "count/req",
    "placement.reads_per_req": "count/req",
}
# Every repetition ends before this many seconds after start, or the run fails.
DEADLINE_S = 170.0
START = time.monotonic()


class Failed(Exception):
    """A repetition failed or its outputs disagree with another's."""


def repetition(workload, seed, mode="timed", scale=1.0):
    """Run one repetition in a fresh interpreter and return its report."""
    cmd = [sys.executable, str(HERE / "scenario.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--scale", repr(scale)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, START + DEADLINE_S - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise Failed(f"{workload} ({mode}) exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def git_commit():
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def same_simulation(reports):
    """Every repetition of one seed must simulate exactly the same run."""
    first = reports[0]
    for other in reports[1:]:
        if other["sim_digest"] != first["sim_digest"]:
            raise Failed(f"sim_digest differs between repetitions of one seed: "
                         f"{first['sim_digest']} vs {other['sim_digest']}")
        if other["sim"] != first["sim"]:
            raise Failed("simulated metrics differ between repetitions of one seed")


def timed(workload, seed, seconds):
    reports = []
    start = time.perf_counter()
    while not reports or time.perf_counter() - start < seconds:
        reports.append(repetition(workload, seed))
    same_simulation(reports)
    metrics = {
        "host_us_per_request": (statistics.median(r["host_us_per_request"] for r in reports),
                                "us"),
        "setup_s": (statistics.median(r["setup_s"] for r in reports), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reports), "MiB"),
    }
    for name, unit in SIM_UNITS.items():
        metrics[name] = (reports[0]["sim"][name], unit)
    return reports, metrics


def traced(workload, seed):
    base = repetition(workload, seed)
    full = repetition(workload, seed, mode="profile")
    half = repetition(workload, seed, mode="profile", scale=0.5)
    # tracemalloc slows the run about sevenfold, so it measures the half
    # length; retained bytes are reported per request either way.
    memory = repetition(workload, seed, mode="memory", scale=0.5)
    same_simulation([base, full])
    same_simulation([half, memory])
    n_full = full["phases"]["traffic"]["sent"]
    n_half = half["phases"]["traffic"]["sent"]
    for report in (full, half):
        layers = report["layers"]
        layers["total"] = {key: sum(layers[name][key] for name in LAYERS[:-1])
                           for key in ("calls", "self_s")}
    memory["layers"]["total"] = {
        "retained_bytes": sum(memory["layers"][name]["retained_bytes"]
                              for name in LAYERS[:-1])}
    metrics = {}
    for name in LAYERS:
        calls = full["layers"][name]["calls"] / n_full
        half_calls = half["layers"][name]["calls"] / n_half
        metrics[f"{name}.calls_per_req"] = (calls, "calls/req")
        metrics[f"{name}.self_us_per_req"] = (
            full["layers"][name]["self_s"] * 1e6 / n_full, "us/req")
        metrics[f"{name}.calls_growth"] = (calls / half_calls if half_calls else 0.0, "ratio")
        metrics[f"{name}.retained_bytes_per_req"] = (
            memory["layers"][name]["retained_bytes"] / n_half, "B/req")
    metrics["sim.events_per_req"] = (full["layers"]["sim"]["events"] / n_full, "events/req")
    metrics["serving.preempted"] = (full["layers"]["serving"]["preempted"], "count")
    metrics["serving.peak_batch_size"] = (full["layers"]["serving"]["peak_batch_size"],
                                          "count")
    for name, unit in COUNT_UNITS.items():
        metrics[name] = (full["counts"][name], unit)
    metrics["tracing_overhead_ratio"] = (full["cpu_s"] / base["cpu_s"], "ratio")
    return [base, full, half, memory], metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CONFIG["workloads"]))
    parser.add_argument("--seed", type=int, default=CONFIG["default_seed"])
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    # Bytecode is compiled before any clock starts, so no repetition pays it.
    compileall.compile_dir(str(SRC / "repro"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)

    try:
        if args.trace:
            reports, metrics = traced(args.workload, args.seed)
        else:
            reports, metrics = timed(args.workload, args.seed, args.seconds)
    except (Failed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    phases = reports[0]["phases"]
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "repetitions": len(reports),
        "traffic_wall_s_median": statistics.median(
            r["host_s"] for r in reports if r["mode"] == "timed"),
        "traffic_cpu_s_median": statistics.median(
            r["cpu_s"] for r in reports if r["mode"] == "timed"),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "sim_digest": reports[0]["sim_digest"],
        "warmup": phases["warmup"],
        "traffic": phases["traffic"],
        # Open loop in simulated time: every send equals its due time, checked.
        "generator_lateness_s": 0.0,
    }
    print("provenance " + json.dumps(provenance))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>16.6g} {unit}")
    attempted = sum(r["phases"]["traffic"]["sent"] for r in reports)
    failed = sum(r["phases"]["traffic"]["failed"] for r in reports)
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
