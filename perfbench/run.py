"""The repository's benchmark: one command, four workloads.

    python3 perfbench/run.py --workload fleet_diurnal_50k --seed 1 \\
        --seconds 10 --trace 0

With ``--trace 0`` it starts :data:`SAMPLES` fresh worker processes one
after another (``worker.py``), each setting the workload up from the seed
and timing passes for its share of ``--seconds``, and prints every
end-to-end metric of ``BENCHMARK.json``: the median over the samples, or
for the metrics in :data:`MEAN_METRICS` their mean.
Times are CPU seconds at a reference host speed: each pass is scaled by
:data:`PROBE_REF_S` over the mean time of the host-speed probe
(``worker.probe``) sampled during it, and each set-up by the same ratio
over all of its worker's passes.
With ``--trace 1`` one worker alternates untraced and traced passes and the
per-layer metrics are printed instead.  Every pass's outputs are checked.
The last line of standard output is the JSON result.

``--profile`` runs the cProfile cross-check instead: one workload's
cProfile module roll-up next to its traced per-layer split, flagging any
module or layer above :data:`PROFILE_FLAG_PCT` in one that the other does
not name (exit code 1 when anything is flagged).
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fleet_diurnal_50k", "chat_kv_traced", "disagg_flash_faults",
             "compile_sim")
# Fresh processes per --trace 0 run: each gives one set-up, peak-RSS and
# kept-memory sample, and its passes feed the pass-time median.
SAMPLES = 4
# Every worker must finish this long after run.py started, so a hung
# program fails the run well inside its time limit.
RUN_LIMIT_S = 170.0
PROFILE_FLAG_PCT = 5.0
# Seconds of ``worker.probe()`` on the reference host (a quiet 2-vCPU KVM
# guest of an Intel Xeon, Python 3.11): on that host a scaled time equals
# the CPU time measured.
PROBE_REF_S = 0.00145
# One thread per worker, and one hash seed, so no run differs from another
# in how many threads share the CPU or in which order sets iterate.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
# A run holds only a few passes; their mean is steadier than their median.
MEAN_METRICS = {"pass_cpu_s"}
COUNT_UNITS = {"kv.prefix_hit_rate": "fraction",
               "engine.batch_p50": "requests", "sim.cycles": "cycles"}


class WorkerError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, seconds: float, mode: str,
               deadline: float) -> dict:
    """Run one worker; returns its JSON result."""
    command = [sys.executable, str(HERE / "worker.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--mode", mode]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               cwd=ROOT, env={**os.environ, **WORKER_ENV})
    try:
        if not select.select([process.stdout], [], [],
                             max(deadline - perf_counter(), 0.0))[0]:
            raise WorkerError(f"{workload} worker never got ready")
        ready = process.stdout.readline()
        output, _ = process.communicate(
            timeout=max(deadline - perf_counter(), 0.0))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{workload} worker timed out")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    lines = output.strip().splitlines()
    if process.returncode != 0 or ready.strip() != "READY" or not lines:
        raise WorkerError(f"{workload} worker exited with "
                          f"{process.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    setups, passes, probes, peaks, kept = [], [], [], [], []
    attempted = failed = 0
    problems = []
    remaining = seconds
    for sample in range(SAMPLES):
        # Each worker gets an equal share of the time still left, so a
        # pass that does not divide the share evenly is made up later.
        share = max(remaining, 0.0) / (SAMPLES - sample)
        result = run_worker(workload, seed, share, "measure", deadline)
        remaining -= result["measured_s"]
        probes += result["probe_s"]
        passes += [cpu * PROBE_REF_S / probe for cpu, probe
                   in zip(result["pass_cpu_s"], result["probe_s"])]
        setups.append(result["setup_cpu_s"] * PROBE_REF_S
                      / statistics.fmean(result["probe_s"]))
        peaks.append(result["peak_rss_kb"] / 1024.0)
        kept.append(result["kept_kb_per_op"])
        attempted += result["attempted"]
        failed += result["failed"]
        problems += result["problems"]
    metrics = {
        "setup_s": (setups, "s"),
        "pass_cpu_s": (passes, "s"),
        "peak_rss_mb": (peaks, "MB"),
        "kept_kb_per_op": (kept, "KB"),
        "ok_ratio": ([(attempted - failed) / attempted], "fraction"),
    }
    print(f"host probe: mean {1e3 * statistics.fmean(probes):.4g} ms over "
          f"{len(probes)} passes, {1e3 * PROBE_REF_S:.4g} ms on the "
          "reference host")
    return metrics, attempted, failed, problems, result["pinned"]


def per_layer(workload: str, seed: int, seconds: float, deadline: float):
    result = run_worker(workload, seed, seconds, "trace", deadline)
    untraced = statistics.median(result["untraced_walls"])
    traced = statistics.median(result["traced_walls"])
    metrics = {name: ([value], COUNT_UNITS.get(name, "count"))
               for name, value in result["counts"].items()}
    layer_pct = {layer: [split[layer] for split in result["splits"]]
                 for layer in result["splits"][0]}
    for layer, values in layer_pct.items():
        metrics[f"{layer}_pct"] = (values, "%")
    metrics["workload_gen_s"] = ([result["workload_gen_s"]], "s")
    metrics["trace.wall_s"] = (result["traced_walls"], "s")
    metrics["trace.overhead_pct"] = ([100.0 * (traced / untraced - 1.0)],
                                     "%")
    return (metrics, result["attempted"], result["failed"],
            result["problems"], result["pinned"])


def profile_check(workload: str, seed: int, seconds: float,
                  deadline: float) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import layers

    result = run_worker(workload, seed, seconds, "profile", deadline)
    split, modules = result["split"], result["modules"]
    traced = {group: sum(split[layer] for layer in members)
              for group, (members, _prefixes) in layers.GROUPS.items()}
    profiled: dict = {}
    flags = []
    print(f"cProfile module roll-up vs traced split, {workload} seed {seed}")
    print(f"{'module':40} {'cProfile %':>10}  group")
    for module, pct in sorted(modules.items(), key=lambda item: -item[1]):
        group = layers.module_group(module)
        if group is not None:
            profiled[group] = profiled.get(group, 0.0) + pct
        if pct >= 0.5:
            print(f"{module:40} {pct:10.2f}  {group or '-'}")
        if pct > PROFILE_FLAG_PCT and (group is None or traced[group] <= 0):
            flags.append(f"module {module}: {pct:.1f}% in cProfile, "
                         f"not named by the traced split")
    print(f"\n{'group':40} {'traced %':>10} {'cProfile %':>10}")
    for group, pct in sorted(traced.items(), key=lambda item: -item[1]):
        if pct <= 0 and group not in profiled:
            continue
        print(f"{group:40} {pct:10.2f} {profiled.get(group, 0.0):10.2f}")
        if pct > PROFILE_FLAG_PCT and profiled.get(group, 0.0) <= 0:
            flags.append(f"group {group}: {pct:.1f}% traced, none of its "
                         f"modules in cProfile")
    print(f"{'unattributed':40} {split['unattributed']:10.2f}")
    for flag in flags:
        print("FLAG:", flag)
    print(json.dumps({"workload": workload, "seed": seed, "flags": flags,
                      "traced": traced, "modules": modules}))
    return 1 if flags else 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true",
                        help="run the cProfile cross-check instead")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    deadline = perf_counter() + RUN_LIMIT_S
    try:
        if args.profile:
            return profile_check(args.workload, args.seed, args.seconds,
                                 deadline)
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed, problems, pinned = measure(
            args.workload, args.seed, args.seconds, deadline)
    except WorkerError as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1

    checked = "outputs pinned" if pinned else "not pinned: invariants only"
    print(f"{args.workload} seed {args.seed} ({checked})")
    print(f"{'metric':34} {'value':>14} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'n':>4}  unit")
    payload = {}
    for name, (values, unit) in metrics.items():
        q1, median, q3 = quartiles(values)
        value = statistics.fmean(values) if name in MEAN_METRICS else median
        print(f"{name:34} {value:14.6g} {median:14.6g} {q1:14.6g} "
              f"{q3:14.6g} {len(values):4d}  {unit}")
        payload[name] = {"value": value, "unit": unit}
    for problem in problems:
        print("CHECK FAILED:", problem)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": payload}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
