"""End-to-end benchmark of ``repro run`` on three named workloads.

Run one workload from the repository root::

    python3 e2ebench/run.py --workload population-search --seed 1 --seconds 50 --trace 0

``--trace 0`` runs a short untimed warm-up, then the workload as a fixed
number of plain ``repro run`` processes, one at a time (``workloads.runs``:
as many as fit in ``--seconds`` on a 2-core host), and reports the
end-to-end metrics.
``--trace 1`` runs it once plain and once traced at the same seed and
reports the per-layer metrics.  ``--workload all`` runs every workload.
The last line of standard output is one JSON object; a detailed record
(effective config, source digest, raw samples, layer table) is written to
``.e2ebench/results/``.  See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from child import LAYERS, UNATTRIBUTED, WORKER_OPS  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".e2ebench")
#: an invocation that has not finished its runs this long after it started
#: kills its child and fails
DEADLINE_S = 170.0
#: on the serial workloads, the largest share of P1+P2 wall left outside
#: every layer row before the layer table counts as wrong
MAX_UNATTRIBUTED_SHARE = 0.05
#: sub-seed stride: sub-run ``i`` of seed ``s`` runs ``repro run --seed s + i*STRIDE``
STRIDE = 1_000_003
#: duration of ``host_probe`` on the reference host: end-to-end times are
#: reported at the host speed on which the probe takes this long
PROBE_REF_S = 0.25
PHASES = ("warmup", "search", "retrain", "evaluate")
NN_OPS = (
    "conv2d", "conv_bn_relu", "max_pool2d", "avg_pool2d", "adaptive_avg_pool2d",
    "linear", "relu", "cross_entropy", "batchnorm2d",
)

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "search_samples_per_s": "1/s",
    "round_p50_s": "s",
    "round_p80_s": "s",
    "peak_rss_mb": "MB",
}


# ----------------------------------------------------------------------
# One child run
# ----------------------------------------------------------------------
def run_child(workload, seed, work_dir, mode, short=False, extra_argv=(), declare=None,
              timeout_s=DEADLINE_S, src=SRC):
    """Launch one ``repro run`` of the ``repro`` package under ``src``,
    under the probe; returns its measurements.

    ``extra_argv`` is appended to the workload's flags (a later flag wins)
    and ``declare`` updates the fields the workload sets.
    """
    os.makedirs(work_dir, exist_ok=True)
    argv, declared = workloads.build(
        workload, seed, work_dir, traced=mode == "trace", short=short
    )
    argv += list(extra_argv)
    declared.update(declare or {})
    out_path = os.path.join(work_dir, "result.json")
    if os.path.exists(out_path):
        os.remove(out_path)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = src
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--out", out_path, "--mode", mode, "--src", src, "--",
    ] + argv
    with open(os.path.join(work_dir, "stdout.txt"), "wb") as stdout, open(
        os.path.join(work_dir, "stderr.txt"), "wb"
    ) as stderr:
        launch = time.monotonic()
        proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=stdout, stderr=stderr,
            start_new_session=True,
        )
        status, rusage, timed_out, end = _wait(proc, timeout_s)
    result = {}
    if os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as handle:
            result = json.load(handle)
    result.update(
        workload=workload,
        seed=seed,
        mode=mode,
        argv=argv,
        declared=declared,
        launch=launch,
        wall_s=end - launch,
        exit_status=status,
        timed_out=timed_out,
        peak_rss_mb=rusage.ru_maxrss / 1024.0,
    )
    result["checks"] = check_run(result)
    return result


def _wait(proc, timeout_s):
    """Reap ``proc`` with ``wait4`` (peak RSS of it and its reaped
    descendants) and note when it ended; on timeout kill its whole process
    group.  Anything left in the group afterwards is stopped too."""
    deadline = time.monotonic() + timeout_s
    timed_out = False
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            break
        if time.monotonic() > deadline:
            timed_out = True
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # the child exited between the two checks
            _, status, rusage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.005)
    end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc)
    return proc.returncode, rusage, timed_out, end


def _kill_group(proc):
    """Stop anything the run left behind in its session (e.g. daemons)
    and wait until the group is gone."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.01)


def check_run(result):
    """Output checks for one run; returns ``{name: passed}``.

    The effective config must equal what ``repro run`` with no flags gives
    in the measured code, updated with the fields the workload declares.
    """
    config = result.get("config") or {}
    declared = {**(result.get("defaults") or {}), **result["declared"]}
    rounds = result.get("rounds") or []
    expected_rounds = declared.get("warmup_rounds", 0) + declared.get("search_rounds", 0)
    genotype = result.get("genotype") or {}
    edges = result.get("num_edges")
    accuracy = result.get("test_accuracy")
    mismatched = sorted(k for k, v in declared.items() if config.get(k) != v)
    if mismatched:
        result["config_mismatch"] = {k: [declared[k], config.get(k)] for k in mismatched}
    return {
        "exit_zero": result["exit_status"] == 0 and not result.get("error"),
        "config_as_declared": bool(config) and not mismatched,
        "all_rounds_completed": len(rounds) == expected_rounds
        and all(r[2] is not None for r in rounds),
        "genotype_edges": edges is not None
        and len(genotype.get("normal", ())) == edges
        and len(genotype.get("reduce", ())) == edges,
        "accuracy_in_unit_interval": isinstance(accuracy, float)
        and math.isfinite(accuracy)
        and 0.0 <= accuracy <= 1.0,
    }


def outcome(result):
    return {"genotype": result.get("genotype"), "test_accuracy": result.get("test_accuracy")}


# ----------------------------------------------------------------------
# End-to-end metrics (--trace 0)
# ----------------------------------------------------------------------
def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def host_probe():
    """Time a fixed kernel with the local step's mix of small numpy ops and
    interpreter work.  Its duration tracks the speed the shared host gives
    this process, which drifts by up to 1.7x over minutes."""
    rng = np.random.default_rng(0)
    a, b = rng.random((64, 72)), rng.random((72, 64))
    x = rng.random((4, 8, 10, 10))
    start = time.perf_counter()
    for _ in range(12_000):
        a @ b
        (np.maximum(x, 0.0) * 1.5).sum(axis=(0, 2, 3))
        {i: i * 2 for i in range(50)}
    return time.perf_counter() - start


def end_to_end(runs, normalize=True):
    """End-to-end metrics over an invocation's runs.

    With ``normalize`` every time of a run is divided by the run's
    ``host_factor`` (the host probes around it over ``PROBE_REF_S``), so
    the times read as on the reference host.  Round percentiles and
    throughput pool every run's rounds.  ``wall_s`` is the mean over runs,
    not the median: the host's speed switches between a fast and a slow
    state for seconds at a time, and a median of a few runs jumps between
    the two.
    """
    rounds, samples, search_wall, setups, walls = [], 0, 0.0, [], []
    for run in runs:
        stamps = [r for r in run.get("rounds") or [] if r[2] is not None]
        if not stamps:
            continue
        factor = run["host_factor"] if normalize else 1.0
        rounds += [(end - start) / factor for _, start, end in stamps]
        samples += run.get("samples", 0)
        search_wall += (stamps[-1][2] - stamps[0][1]) / factor
        setups.append((stamps[0][1] - run["launch"]) / factor)
        walls.append(run["wall_s"] / factor)
    if not rounds:
        return {}
    return {
        "wall_s": statistics.fmean(walls),
        "setup_s": statistics.median(setups),
        "search_samples_per_s": samples / search_wall,
        "round_p50_s": percentile(rounds, 0.5),
        "round_p80_s": percentile(rounds, 0.8),
        "peak_rss_mb": max(run["peak_rss_mb"] for run in runs),
        "_rounds": len(rounds),
        "_runs": len(runs),
    }


# ----------------------------------------------------------------------
# Per-layer metrics (--trace 1)
# ----------------------------------------------------------------------
def layer_rows():
    """Every self-time row, in ``LAYERS`` order, plus the local-step rows."""
    rows = []
    for row in [r for _, _, r in LAYERS] + [
        "participant.build_s", "participant.pack_s", "participant.step_other_s", UNATTRIBUTED,
    ]:
        if row not in rows:
            rows.append(row)
    return rows


def per_layer(traced, plain):
    """Per-layer metrics from one traced run, and the checks of the layer
    table: ``{name: passed}``."""
    trace = traced["trace"]
    self_s = trace["self_s"]
    inclusive = trace["inclusive"]
    calls = trace["calls"]
    rows = {row: 0.0 for row in layer_rows()}
    for table in self_s.values():
        for row, value in table.items():
            rows[row] = rows.get(row, 0.0) + value
    walls = {p: sum(inclusive.get("phase." + p, [])) for p in PHASES}

    # The sum identity, per phase and over the phases' rounds (main thread).
    sums = {}
    for phase in PHASES:
        in_round = sum(self_s.get(phase + "/True", {}).values())
        other = sum(self_s.get(phase + "/False", {}).values())
        sums[phase] = {"wall_s": walls[phase], "rows_s": in_round + other,
                       "round_rows_s": in_round}
    round_walls = sum(inclusive.get("round.run", [])) + sum(inclusive.get("round.hook", []))
    round_rows = sum(s["round_rows_s"] for s in sums.values())
    unattributed = {
        p: sum(self_s.get(f"{p}/{r}", {}).get(UNATTRIBUTED, 0.0) for r in ("True", "False"))
        for p in PHASES
    }
    search_wall = walls["warmup"] + walls["search"]
    tail_wall = walls["retrain"] + walls["evaluate"]
    sums_hold = all(
        abs(s["rows_s"] - s["wall_s"]) <= 1e-6 + 1e-9 * s["wall_s"] for s in sums.values()
    ) and abs(round_rows - round_walls) <= 1e-6 + 1e-9 * round_walls

    # Local steps that ran in socket daemons: their spans and op profile.
    workers = trace.get("worker_tasks") or []
    span_sum = {}
    op_time, op_calls = {}, {}
    forward_outside_ops = 0.0
    for task in workers:
        task_ops = 0.0
        for op, _shape, count, total in task["ops"]:
            stem = WORKER_OPS.get(op)
            if stem is not None:
                op_time[stem] = op_time.get(stem, 0.0) + total
                op_calls[stem] = op_calls.get(stem, 0) + count
                task_ops += total
        task_spans = {}
        for name, _start, duration in task["spans"]:
            task_spans[name] = task_spans.get(name, 0.0) + duration
            span_sum[name] = span_sum.get(name, 0.0) + duration
        forward_outside_ops += task_spans.get("forward", 0.0) - task_ops
    local_steps = list(inclusive.get("participant.local_step", [])) + [
        t["busy_s"] for t in workers
    ]
    captures = trace["tape"]["captures"] + sum(t["tape"].get("captured", 0) for t in workers)
    replays = trace["tape"]["replays"] + sum(t["tape"].get("replayed", 0) for t in workers)
    transport_rounds = trace.get("transport_rounds") or []
    tasks = traced.get("tasks", 0)
    # Every completed task is timed once, in process or from its worker spans
    # (a worker span lost from the telemetry ring buffer would show here).
    sums_hold = sums_hold and len(local_steps) == tasks - traced.get("failed_tasks", 0)
    share_p1p2 = (
        (unattributed["warmup"] + unattributed["search"]) / search_wall if search_wall else 0.0
    )
    checks = {"sums_hold": sums_hold}
    if traced["declared"].get("backend") != "socket":
        # Glue outside every layer row stays small where all work is in process.
        checks["unattributed_share_p1p2_within_max"] = share_p1p2 <= MAX_UNATTRIBUTED_SHARE

    m = {}
    for phase in PHASES:
        m[f"core.{phase}_s"] = (walls[phase], "s")
    m["core.unattributed_s"] = (sum(unattributed.values()), "s")
    m["core.unattributed_share_p1p2"] = (share_p1p2, "ratio")
    m["core.unattributed_share_p3p4"] = (
        (unattributed["retrain"] + unattributed["evaluate"]) / tail_wall if tail_wall else 0.0,
        "ratio",
    )
    m["core.rounds"] = (len(inclusive.get("round.run", [])), "count")
    materialized = trace.get("materialized") or []
    m["population.begin_round_s"] = (rows["population.begin_round_s"], "s")
    m["population.materialize_s"] = (rows["population.materialize_s"], "s")
    m["population.materialized_per_round"] = (
        statistics.fmean(materialized) if materialized else 0.0, "count")
    m["population.registered"] = (trace.get("registered", 0), "count")
    m["controller.sample_mask_s"] = (rows["controller.sample_mask_s"], "s")
    m["controller.alpha_step_s"] = (rows["controller.alpha_step_s"], "s")
    m["controller.distinct_mask_share"] = (
        trace["distinct_masks"] / trace["sampled_masks"] if trace["sampled_masks"] else 0.0,
        "ratio",
    )
    m["search_space.submodel_state_s"] = (rows["search_space.submodel_state_s"], "s")
    m["search_space.forward_s"] = (rows["search_space.forward_s"] + forward_outside_ops, "s")
    m["participant.build_s"] = (
        rows["participant.build_s"] + span_sum.get("build", 0.0) + span_sum.get("deserialize", 0.0),
        "s",
    )
    m["network.assign_s"] = (rows["network.assign_s"], "s")
    m["backend.run_tasks_s"] = (rows["backend.run_tasks_s"], "s")
    m["backend.failed_task_share"] = (traced.get("failed_tasks", 0) / tasks if tasks else 0.0, "ratio")
    for row in ("encode_task_s", "decode_update_s", "request_s", "first_contact_s"):
        m["transport." + row] = (rows["transport." + row], "s")
    m["transport.wire_s"] = (sum(t["wire_s"] for t in workers), "s")
    m["transport.bytes_sent_per_round"] = (
        statistics.fmean(r[0] for r in transport_rounds) if transport_rounds else 0.0, "bytes")
    m["transport.bytes_received_per_round"] = (
        statistics.fmean(r[1] for r in transport_rounds) if transport_rounds else 0.0, "bytes")
    m["participant.local_step_s"] = (statistics.median(local_steps) if local_steps else 0.0, "s")
    m["participant.forward_s"] = (
        sum(inclusive.get("participant.forward", [])) + span_sum.get("forward", 0.0), "s")
    m["participant.backward_s"] = (
        sum(inclusive.get("participant.backward", [])) + span_sum.get("backward", 0.0), "s")
    m["participant.pack_s"] = (rows["participant.pack_s"] + span_sum.get("pack", 0.0), "s")
    m["participant.step_other_s"] = (rows["participant.step_other_s"], "s")
    m["participant.tasks"] = (len(local_steps), "count")
    for op in NN_OPS:
        row = f"nn.{op}.fwd_s"
        m[row] = (rows[row] + op_time.get(op, 0.0), "s")
        m[f"nn.{op}.calls"] = (calls.get(row, 0) + op_calls.get(op, 0), "count")
    m["nn.backward_s"] = (rows["nn.backward_s"] + span_sum.get("backward", 0.0), "s")
    m["nn.sgd_step_s"] = (rows["nn.sgd_step_s"], "s")
    m["nn.clip_grad_norm_s"] = (rows["nn.clip_grad_norm_s"], "s")
    m["nn.tape.captures"] = (captures, "count")
    m["nn.tape.replays"] = (replays, "count")
    m["nn.tape.hit_rate"] = (replays / (captures + replays) if captures + replays else 0.0, "ratio")
    for row in ("server.apply_arrivals_s", "validation.validate_s", "compensation.theta_s",
                "compensation.alpha_s", "memory.save_round_s", "checkpoint.save_s",
                "fedavg.round_s", "evaluation.evaluate_s"):
        m[row] = (rows[row], "s")
    m["server.stale_used"] = (traced.get("stale_used", 0), "count")
    m["server.stale_dropped"] = (traced.get("stale_dropped", 0), "count")
    sizes = trace.get("checkpoint_bytes") or []
    m["checkpoint.bytes"] = (statistics.fmean(sizes) if sizes else 0.0, "bytes")
    m["fedavg.rounds"] = (calls.get("fedavg.round_s", 0), "count")
    m["telemetry.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")

    detail = {
        "sums": sums,
        "round_walls_s": round_walls,
        "round_rows_s": round_rows,
        "unattributed_s": unattributed,
        "self_s": self_s,
        "worker_spans_s": span_sum,
    }
    return m, checks, detail


# ----------------------------------------------------------------------
# One invocation
# ----------------------------------------------------------------------
def source_identity():
    sha = None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def bench_workload(workload, seed, seconds, trace, work_root):
    start = time.monotonic()
    if trace:
        plan = [(seed, "plain", "probe", False), (seed, "traced", "trace", False)]
    else:
        # A short untimed run first warms the page cache, the bytecode
        # cache and the CPU before the timed runs.
        plan = [(seed, "warmup", "probe", True)] + [
            (seed + STRIDE * i, f"run{i}", "probe", False)
            for i in range(workloads.runs(workload, seconds))
        ]
    runs, probes = [], []
    for sub_seed, directory, mode, short in plan:
        left = start + DEADLINE_S - time.monotonic()
        if left <= 0:
            break
        runs.append(run_child(workload, sub_seed, os.path.join(work_root, directory), mode,
                              short=short, timeout_s=left))
        if not trace:
            probes.append(host_probe())
        if not all(runs[-1]["checks"].values()):
            break
    correct = len(runs) == len(plan) and all(all(run["checks"].values()) for run in runs)
    warmup = None
    if not trace and runs:
        warmup = runs.pop(0)
        for i, run in enumerate(runs):
            # The probes taken just before and just after the run.
            run["host_factor"] = (probes[i] + probes[i + 1]) / 2 / PROBE_REF_S

    attempted = failed = 0
    for run in runs:
        ok = all(run["checks"].values())
        planned = run.get("tasks", 0)
        if not planned:
            declared = run["declared"]
            cohort = declared.get("cohort_size", declared.get("num_participants", 4))
            planned = cohort * (declared.get("warmup_rounds", 0) + declared.get("search_rounds", 0))
        attempted += planned
        failed += run.get("failed_tasks", 0) if ok else planned
    record = {"workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
              "source": source_identity(), "warmup": warmup, "runs": runs}

    if trace:
        metrics = {}
        if len(runs) == 2:
            plain, traced = runs
            same = outcome(plain) == outcome(traced)
            record["traced_equals_plain"] = same
            correct = correct and same
        if correct and "trace" in traced:
            metrics, checks, detail = per_layer(traced, plain)
            record["layers"] = detail
            record["layer_checks"] = checks
            correct = correct and all(checks.values())
        else:
            correct = False
        units = {name: unit for name, (_, unit) in metrics.items()}
        values = {name: value for name, (value, _) in metrics.items()}
    else:
        values = end_to_end(runs)
        record["rounds_measured"] = values.pop("_rounds", 0)
        record["runs_measured"] = values.pop("_runs", 0)
        record["host_probes_s"] = probes
        record["raw_metrics"] = {k: v for k, v in end_to_end(runs, normalize=False).items()
                                 if not k.startswith("_")}
        units = END_TO_END
        correct = correct and bool(values)
    record["metrics"] = values
    record["correct"] = correct
    record["attempted"], record["failed"] = attempted, failed
    return record, units


def print_report(record, units):
    title = f"{record['workload']} seed={record['seed']} trace={record['trace']}"
    print(f"## {title}")
    if not record["trace"]:
        share = record["failed"] / record["attempted"] if record["attempted"] else 0.0
        print(f"runs={record.get('runs_measured')} rounds={record.get('rounds_measured')} "
              f"failed_task_share={share:.4f} ({record['failed']}/{record['attempted']} tasks)")
    raw = record.get("raw_metrics") or {}
    if raw:
        print("host factor per run: " + " ".join(
            f"{run['host_factor']:.3f}" for run in record["runs"]))
    for name, value in record["metrics"].items():
        line = f"{name:40s} {value:14.6g} {units.get(name, '')}"
        print(line + (f"  (as measured: {raw[name]:.6g})" if name in raw else ""))
    layers = record.get("layers")
    if layers:
        print("phase      wall_s   rows_s   unattributed_s  share")
        for phase, entry in layers["sums"].items():
            wall = entry["wall_s"]
            un = layers["unattributed_s"][phase]
            print(f"{phase:9s} {wall:8.3f} {entry['rows_s']:8.3f} {un:12.4f}  "
                  f"{(un / wall if wall else 0.0):6.2%}")
    checked = ([record["warmup"]] if record.get("warmup") else []) + record["runs"]
    for run in checked:
        failed = [name for name, ok in run["checks"].items() if not ok]
        if failed:
            print(f"FAILED checks {failed} (seed {run['seed']}, mode {run['mode']}): "
                  f"{run.get('error') or ''} {run.get('config_mismatch') or ''}")
    failed = [name for name, ok in (record.get("layer_checks") or {}).items() if not ok]
    if failed:
        print(f"FAILED layer checks {failed}")


def result_line(record, units):
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in record["metrics"].items()
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__main__.py")):
        print(f"error: no repro sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else [args.workload]
    work_root = os.path.join(OUT, f"work-{os.getpid()}")
    lines = {}
    try:
        for name in names:
            record, units = bench_workload(
                name, args.seed, args.seconds, bool(args.trace), os.path.join(work_root, name)
            )
            os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
            path = os.path.join(OUT, "results", f"{name}-seed{args.seed}-trace{args.trace}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(record, handle, indent=1, default=str)
            print_report(record, units)
            lines[name] = result_line(record, units)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    if len(names) == 1:
        print(json.dumps(lines[names[0]]))
    else:
        print(json.dumps(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
