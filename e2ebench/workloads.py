"""The three named workloads, generated from the benchmark seed.

Each workload is one ``repro run`` command line plus the config and plan
JSON files it reads.  Only the workload's own fields are written; every
other field, the engine settings included, keeps the default of the code
being measured.  The child environment carries no ``REPRO_*`` variable,
and the child checks every field of the effective config against those
defaults plus the fields declared here.
"""

from __future__ import annotations

import json
import os

#: the staleness mix ``repro run --staleness severe`` selects
SEVERE = [0.3, 0.4, 0.2, 0.1]

#: Why each workload was chosen is stated in README.md and BENCHMARK.json.
NAMES = ("population-search", "socket-fixed", "retrain-heavy")

#: Nominal wall seconds of one run on a 2-core host.  An invocation makes
#: ``runs(name, seconds)`` runs: a number fixed by ``--seconds``, never by
#: how fast the runs go, so every build measures the same sub-seeds.
RUN_BUDGET_S = {"population-search": 6.5, "socket-fixed": 9.5, "retrain-heavy": 5.5}


def runs(name, seconds):
    return max(1, int(seconds // RUN_BUDGET_S[name]))


def build(name, seed, work_dir, traced=False, short=False):
    """Write the workload's input files under ``work_dir``.

    Returns ``(argv, declared)``: the ``repro run`` arguments and the
    config fields the workload sets.  ``short`` gives a few-round variant
    for the self-tests.
    """
    os.makedirs(work_dir, exist_ok=True)
    config = {}
    declared = {"seed": seed}
    if name == "population-search":
        churn = {
            "join_rate": 2.0,
            "departure_prob": 0.002,
            "dropout_prob": 0.02,
            "dropout_rounds_min": 1,
            "dropout_rounds_max": 3,
            "seed": seed,
        }
        churn_path = _write(work_dir, "churn.json", churn)
        population, cohort, search = (200, 4, 4) if short else (2000, 8, 40)
        argv = [
            "--population", str(population), "--cohort-size", str(cohort),
            "--staleness", "severe", "--search-rounds", str(search),
            "--churn-plan", churn_path,
        ]
        config.update(backend="serial", fl_retrain_rounds=3)
        declared.update(
            population=population, cohort_size=cohort, staleness_mix=SEVERE,
            search_rounds=search, churn_plan=churn_path,
        )
    elif name == "socket-fixed":
        checkpoint = os.path.join(work_dir, "search.ckpt")
        search = 4 if short else 40
        argv = [
            "--backend", "socket", "--workers", "2", "--participants", "8",
            "--search-rounds", str(search), "--staleness", "severe",
            "--mobility", "bus", "car",
            "--checkpoint", checkpoint, "--checkpoint-every", "10",
        ]
        config.update(fl_retrain_rounds=3)
        declared.update(
            backend="socket", num_workers=2, num_participants=8,
            search_rounds=search, staleness_mix=SEVERE,
            mobility_modes=["bus", "car"], checkpoint_path=checkpoint,
            checkpoint_every=10,
        )
    elif name == "retrain-heavy":
        search = 4 if short else 40
        argv = ["--participants", "4", "--search-rounds", str(search)]
        config.update(backend="serial", staleness_mix=None, fl_retrain_rounds=15)
        declared.update(num_participants=4, search_rounds=search)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    config["warmup_rounds"] = 10
    if short:
        config.update(warmup_rounds=2, fl_retrain_rounds=2)
    if traced and declared.get("backend", config.get("backend")) == "socket":
        # Local steps run in the daemons: read their spans and op profile.
        argv += ["--tracing", "--trace-ops"]
        declared.update(tracing_enabled=True, trace_ops=True)
    config_path = _write(work_dir, "config.json", config)
    declared.update(config)
    return ["run", "--config", config_path, "--seed", str(seed)] + argv, declared


def _write(work_dir, name, payload):
    path = os.path.join(work_dir, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    return path
