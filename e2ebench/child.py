"""In-process probe for one ``repro run``: times phases and rounds, and in
traced mode splits the wall time across the program's layers.

Usage (``run.py`` builds this command line)::

    python3 e2ebench/child.py --out result.json --mode probe|trace -- run <repro run flags>

The probe patches the public functions of each layer at the module where
they are called, then calls ``repro.__main__.main``.  Every wrapper only
reads the clock and forwards its arguments, so a probed run computes the
same bits as a plain one.

``probe`` mode stamps only phase and round boundaries and counts the
local-step tasks of each round: a few clock reads per round.  ``trace``
mode also wraps every layer listed in ``LAYERS``; each wrapper records its
*self* time (its duration minus that of the wrapped calls it made), so the
rows of one phase plus its ``unattributed`` glue add up to the phase wall.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import os
import sys
import threading
import time
from collections import defaultdict

#: (module, attribute path, row).  Module-level functions are patched in
#: the module that *calls* them; methods are patched on their class.
LAYERS = [
    ("repro.population.manager", "PopulationManager.begin_round", "population.begin_round_s"),
    ("repro.population.manager", "PopulationManager.materialize_cohort", "population.materialize_s"),
    ("repro.controller.policy", "ArchitecturePolicy.sample_mask", "controller.sample_mask_s"),
    ("repro.controller.reinforce", "AlphaOptimizer.step", "controller.alpha_step_s"),
    ("repro.search_space.supernet", "Supernet.submodel_state", "search_space.submodel_state_s"),
    ("repro.search_space.supernet", "Supernet.forward", "search_space.forward_s"),
    ("repro.federated.server", "round_transmission", "network.assign_s"),
    ("repro.federated.executor", "SerialBackend.run_tasks", "backend.run_tasks_s"),
    ("repro.transport.backend", "SocketBackend.run_tasks", "backend.run_tasks_s"),
    ("repro.transport.backend", "spawn_local_worker", "transport.first_contact_s"),
    ("repro.transport.backend", "SocketBackend._register", "transport.first_contact_s"),
    ("repro.transport.codec", "encode_task", "transport.encode_task_s"),
    ("repro.transport.codec", "decode_update", "transport.decode_update_s"),
    ("repro.transport.protocol", "FrameConnection.request", "transport.request_s"),
    ("repro.federated.server", "FederatedSearchServer._apply_arrivals", "server.apply_arrivals_s"),
    ("repro.federated.server", "FederatedSearchServer._ingest_arrival", "server.apply_arrivals_s"),
    ("repro.federated.validation", "UpdateValidator.validate", "validation.validate_s"),
    ("repro.federated.server", "compensate_weight_gradients", "compensation.theta_s"),
    ("repro.federated.server", "compensate_alpha_gradient", "compensation.alpha_s"),
    ("repro.federated.memory", "MemoryPools.save_round", "memory.save_round_s"),
    ("repro.core.pipeline", "save_search_state", "checkpoint.save_s"),
    ("repro.federated.fedavg", "FedAvgTrainer.run_round", "fedavg.round_s"),
    ("repro.federated.fedavg", "evaluate_accuracy", "evaluation.evaluate_s"),
    ("repro.core.phases", "evaluate_accuracy", "evaluation.evaluate_s"),
    ("repro.nn.modules", "Conv2d.forward", "nn.conv2d.fwd_s"),
    ("repro.nn.modules", "BatchNorm2d.forward", "nn.batchnorm2d.fwd_s"),
    ("repro.nn.modules", "ReLU.forward", "nn.relu.fwd_s"),
    ("repro.nn.modules", "MaxPool2d.forward", "nn.max_pool2d.fwd_s"),
    ("repro.nn.modules", "AvgPool2d.forward", "nn.avg_pool2d.fwd_s"),
    ("repro.nn.modules", "GlobalAvgPool.forward", "nn.adaptive_avg_pool2d.fwd_s"),
    ("repro.nn.modules", "Linear.forward", "nn.linear.fwd_s"),
    ("repro.nn.functional", "cross_entropy", "nn.cross_entropy.fwd_s"),
    ("repro.nn.functional", "conv_bn_relu", "nn.conv_bn_relu.fwd_s"),
    ("repro.nn.tensor", "Tensor.backward", "nn.backward_s"),
    ("repro.nn.optim", "SGD.step", "nn.sgd_step_s"),
    ("repro.nn", "clip_grad_norm", "nn.clip_grad_norm_s"),
]

#: Worker-side op-profile keys (leaf module classes) -> nn op row stem.
WORKER_OPS = {
    "Conv2d": "conv2d",
    "BatchNorm2d": "batchnorm2d",
    "ReLU": "relu",
    "MaxPool2d": "max_pool2d",
    "AvgPool2d": "avg_pool2d",
    "GlobalAvgPool": "adaptive_avg_pool2d",
    "Linear": "linear",
}

#: Rows whose self time is glue of the phase/round loop, not a layer.
UNATTRIBUTED = "core.unattributed_s"

#: The local-step phases ``run_local_step`` brackets with ``null_span``;
#: build and pack contain no wrapped call, so their self time is their
#: whole duration.
LOCAL_STEP_ROWS = {
    "build": "participant.build_s",
    "forward": "participant.step_other_s",
    "backward": "participant.step_other_s",
    "pack": "participant.pack_s",
}


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


def _patch(module_name, path, make_wrapper):
    owner, name = _resolve(module_name, path)
    setattr(owner, name, make_wrapper(getattr(owner, name)))


class Tracer:
    """Per-thread span stacks accumulating self time per (key, row).

    The key of a main-thread span is ``(phase, in_round)``; spans on other
    threads (the socket backend's dispatch threads) overlap the main
    thread's wait and are kept apart under the key ``("helper", False)``.
    """

    def __init__(self):
        self.local = threading.local()
        self.lock = threading.Lock()
        self.main = threading.get_ident()
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(list)
        self.phase = "outside"
        self.in_round = False

    @contextlib.contextmanager
    def span(self, row, inclusive_key=None):
        """Time the block; charge its self time to ``row`` and, with an
        ``inclusive_key``, record its whole duration under that key."""
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        frame = [time.perf_counter(), 0.0]
        stack.append(frame)
        try:
            yield
        finally:
            duration = time.perf_counter() - frame[0]
            stack.pop()
            if stack:
                stack[-1][1] += duration
            if threading.get_ident() == self.main:
                key = (self.phase, self.in_round)
            else:
                key = ("helper", False)
            with self.lock:
                self.self_s[key, row] += duration - frame[1]
                self.calls[row] += 1
                if inclusive_key is not None:
                    self.inclusive[inclusive_key].append(duration)

    def wrap(self, fn, row, inclusive_key=None, observe=None):
        """``fn`` timed by :meth:`span`; ``observe(result, args)`` runs
        after the span closes."""
        def wrapper(*args, **kwargs):
            with self.span(row, inclusive_key):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


class Probe:
    """Phase/round stamps, task counters and (in trace mode) the tracer."""

    def __init__(self, trace):
        self.tracer = Tracer() if trace else None
        self.phases = []  # [name, start, end] on time.monotonic()
        self.rounds = []  # [phase, start, end]
        self.tasks = self.failed = self.samples = 0
        self.masks = []
        self.materialized = []
        self.checkpoint_bytes = []
        self.defaults = None
        self.config = None
        self.pipeline = None
        self.report = None

    def _span(self, row, inclusive_key, phase=None, in_round=None):
        """A tracer span in trace mode (setting the tracer's phase or
        round flag first), nothing in probe mode."""
        tracer = self.tracer
        if tracer is None:
            return contextlib.nullcontext()
        if phase is not None:
            tracer.phase = phase
        if in_round is not None:
            tracer.in_round = in_round
        return tracer.span(row, inclusive_key)

    def _leave(self, phase=None, in_round=None):
        if self.tracer is not None:
            if phase is not None:
                self.tracer.phase = phase
            if in_round is not None:
                self.tracer.in_round = in_round

    # -- phase and round boundaries ------------------------------------
    def _phase_wrapper(self, name, fn, loop):
        probe = self

        def wrapper(*args, **kwargs):
            if loop and kwargs.get("on_round") is not None:
                kwargs["on_round"] = probe._hook_wrapper(kwargs["on_round"])
            entry = [name, time.monotonic(), None]
            probe.phases.append(entry)
            try:
                with probe._span(UNATTRIBUTED, "phase." + name, phase=name):
                    return fn(*args, **kwargs)
            finally:
                probe._leave(phase="outside")
                entry[2] = time.monotonic()

        return wrapper

    def _round_wrapper(self, fn):
        probe = self

        def wrapper(server):
            phase = probe.phases[-1][0] if probe.phases else "outside"
            probe.rounds.append([phase, time.monotonic(), None])
            try:
                with probe._span(UNATTRIBUTED, "round.run", in_round=True):
                    return fn(server)
            finally:
                probe._leave(in_round=False)

        return wrapper

    def _hook_wrapper(self, hook):
        probe = self

        def wrapper(result):
            try:
                with probe._span(UNATTRIBUTED, "round.hook", in_round=True):
                    return hook(result)
            finally:
                probe._leave(in_round=False)
                probe.rounds[-1][2] = time.monotonic()

        return wrapper

    def _tasks_wrapper(self, fn):
        probe = self

        def wrapper(backend, tasks):
            results = fn(backend, tasks)
            probe.tasks += len(tasks)
            for result in results:
                if result.ok:
                    probe.samples += result.update.num_samples
                else:
                    probe.failed += 1
            return results

        return wrapper

    # -- installation ---------------------------------------------------
    def install(self):
        import repro.__main__ as cli
        import repro.core.pipeline as pipeline
        import repro.federated.server as server
        import repro.federated.executor as executor

        probe = self
        original_config = cli.config_from_args
        # What ``repro run`` with no flags resolves to in the measured
        # code: the baseline every field not set by the workload must keep.
        self.defaults = original_config(cli.build_main_parser().parse_args(["run"])).to_dict()

        def config_from_args(args):
            config = original_config(args)
            probe.config = config
            return config

        cli.config_from_args = config_from_args

        original_run = pipeline.FederatedModelSearch.run

        def run(pipeline_self, *args, **kwargs):
            probe.pipeline = pipeline_self
            probe.report = original_run(pipeline_self, *args, **kwargs)
            return probe.report

        pipeline.FederatedModelSearch.run = run
        # Wrapped first so that, in trace mode, the tracer's run_tasks
        # span sits outside the counter and times it too.
        for module in (executor, importlib.import_module("repro.transport.backend")):
            cls = module.SerialBackend if module is executor else module.SocketBackend
            cls.run_tasks = self._tasks_wrapper(cls.run_tasks)
        for name, attr, loop in (
            ("warmup", "run_warmup", True),
            ("search", "run_search", True),
            ("retrain", "retrain_federated", False),
            ("retrain", "retrain_centralized", False),
            ("evaluate", "evaluate", False),
        ):
            setattr(pipeline, attr, self._phase_wrapper(name, getattr(pipeline, attr), loop))
        server.FederatedSearchServer.run_round = self._round_wrapper(
            server.FederatedSearchServer.run_round
        )
        if self.tracer is not None:
            self._install_layers()

    def _install_layers(self):
        import repro.federated.participant as participant

        tracer = self.tracer
        observers = {
            "ArchitecturePolicy.sample_mask":
                lambda mask, _: self.masks.append((mask.normal, mask.reduce)),
            "PopulationManager.materialize_cohort":
                lambda cohort, _: self.materialized.append(len(cohort)),
            # save_search_state(server, path, ...)
            "save_search_state":
                lambda _, args: self.checkpoint_bytes.append(os.path.getsize(args[1])),
        }
        for module_name, path, row in LAYERS:
            _patch(module_name, path, lambda fn, row=row, path=path: tracer.wrap(
                fn, row, observe=observers.get(path)))
        _patch(
            "repro.federated.participant",
            "run_local_step",
            lambda fn: tracer.wrap(fn, "participant.step_other_s", "participant.local_step"),
        )
        participant.null_span = lambda name: tracer.span(
            LOCAL_STEP_ROWS.get(name, "participant.step_other_s"), "participant." + name
        )

    # -- result ---------------------------------------------------------
    def result(self, rc, error):
        out = {
            "rc": rc,
            "error": error,
            "phases": self.phases,
            "rounds": self.rounds,
            "tasks": self.tasks,
            "failed_tasks": self.failed,
            "samples": self.samples,
            "defaults": self.defaults,
            "config": None if self.config is None else self.config.to_dict(),
        }
        if self.config is not None:
            out["num_edges"] = self.config.supernet_config().num_edges
        report = self.report
        if report is not None:
            out["genotype"] = {
                "normal": list(report.genotype.normal),
                "reduce": list(report.genotype.reduce),
            }
            accuracy = float(report.test_accuracy)
            out["test_accuracy"] = accuracy if math.isfinite(accuracy) else None
            rounds = list(report.warmup_results) + list(report.search_results)
            out["stale_used"] = sum(r.num_stale_used for r in rounds)
            out["stale_dropped"] = sum(r.num_dropped for r in rounds)
        if self.tracer is not None:
            out["trace"] = self._trace_result()
        return out

    def _trace_result(self):
        tracer = self.tracer
        table = defaultdict(dict)
        for (key, row), value in tracer.self_s.items():
            table["%s/%s" % key][row] = table["%s/%s" % key].get(row, 0.0) + value
        import repro.nn as nn

        trace = {
            "self_s": dict(table),
            "calls": dict(tracer.calls),
            "inclusive": dict(tracer.inclusive),
            "distinct_masks": len(set(self.masks)),
            "sampled_masks": len(self.masks),
            "materialized": self.materialized,
            "checkpoint_bytes": self.checkpoint_bytes,
            "tape": nn.tape.stats().snapshot(),
        }
        pipeline = self.pipeline
        if pipeline is not None:
            if pipeline.population is not None:
                trace["registered"] = pipeline.population.registry.counts()["registered"]
            events = pipeline.telemetry.events()
            trace["transport_rounds"] = [
                [e.get("bytes_sent", 0), e.get("bytes_received", 0)]
                for e in events
                if e.get("event") == "transport.round"
            ]
            trace["worker_tasks"] = [
                {
                    "busy_s": e.get("busy_s", 0.0),
                    "wire_s": e.get("wire_s", 0.0),
                    "spans": e.get("spans", []),
                    "ops": e.get("ops", []),
                    "tape": e.get("tape", {}),
                }
                for e in events
                if e.get("event") == "trace.task"
            ]
        return trace


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--mode", choices=("probe", "trace"), required=True)
    parser.add_argument("--src", required=True, help="directory holding the repro package")
    parser.add_argument("repro_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    repro_args = args.repro_args[1:] if args.repro_args[:1] == ["--"] else args.repro_args
    sys.path.insert(0, args.src)
    probe = Probe(trace=args.mode == "trace")
    rc, error = 1, None
    try:
        probe.install()
        import repro.__main__ as cli

        rc = cli.main(repro_args)
    except Exception as exc:  # recorded; run.py counts the run as failed
        error = "%s: %s" % (type(exc).__name__, exc)
    finally:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(probe.result(rc, error), handle)
    return rc if error is None else 1


if __name__ == "__main__":
    sys.exit(main())
