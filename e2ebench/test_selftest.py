"""Self-tests of the benchmark: the bit-identity contracts it relies on.

Run from the repository root with ``python3 -m pytest e2ebench``.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def _passed(result):
    return all(result["checks"].values())


def test_socket_matches_serial(tmp_path):
    socket = run.run_child("socket-fixed", 3, str(tmp_path / "socket"), "probe", short=True)
    serial = run.run_child(
        "socket-fixed", 3, str(tmp_path / "serial"), "probe", short=True,
        extra_argv=["--backend", "serial"], declare={"backend": "serial"},
    )
    assert _passed(socket), socket["checks"]
    assert _passed(serial), serial["checks"]
    assert run.outcome(socket) == run.outcome(serial)


def test_traced_population_matches_plain(tmp_path):
    plain = run.run_child("population-search", 5, str(tmp_path / "plain"), "probe", short=True)
    traced = run.run_child("population-search", 5, str(tmp_path / "traced"), "trace", short=True)
    assert _passed(plain) and _passed(traced)
    assert run.outcome(plain) == run.outcome(traced)
    metrics, checks, _ = run.per_layer(traced, plain)
    assert checks == {"sums_hold": True, "unattributed_share_p1p2_within_max": True}
    assert metrics["core.unattributed_share_p1p2"][0] <= run.MAX_UNATTRIBUTED_SHARE
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    assert [m["name"] for m in declared["per_layer"]] == list(metrics)
    assert [m["name"] for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert metrics["population.materialized_per_round"][0] > 0
    assert metrics["participant.tasks"][0] == traced["tasks"]


def test_changed_default_is_measured(tmp_path):
    # A later change that turns the tape on by default: the benchmark runs
    # the measured code's defaults, so it runs with the tape and says so.
    src = tmp_path / "src"
    shutil.copytree(run.SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    config_py = src / "repro" / "core" / "config.py"
    text, count = re.subn(r"^(\s+tape_compile: bool = ).*$", r"\1True",
                          config_py.read_text(), flags=re.M)
    assert count == 1
    config_py.write_text(text)
    result = run.run_child("retrain-heavy", 2, str(tmp_path / "tape"), "trace", short=True,
                           src=str(src))
    assert _passed(result), result["checks"]
    assert result["defaults"]["tape_compile"] is True
    assert result["config"]["tape_compile"] is True
    assert result["trace"]["tape"]["captures"] > 0


def test_undeclared_config_change_is_caught(tmp_path):
    result = run.run_child(
        "retrain-heavy", 2, str(tmp_path / "leak"), "probe", short=True,
        extra_argv=["--param-arena"],
    )
    assert result["checks"]["exit_zero"]
    assert not result["checks"]["config_as_declared"]
    assert result["config_mismatch"] == {"param_arena": [False, True]}


@pytest.mark.parametrize("trace", ["0", "1"])
def test_without_sources_exits_nonzero(tmp_path, trace):
    shutil.copytree(HERE, tmp_path / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "retrain-heavy", "--seed", "1",
         "--seconds", "1", "--trace", trace],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)


def test_times_are_normalized_by_host_factor():
    stamps = [["warmup", 10.0 + 0.1 * i, 10.1 + 0.1 * i] for i in range(50)]
    run_ = {"rounds": stamps, "launch": 9.5, "wall_s": 6.0, "samples": 800,
            "peak_rss_mb": 70.0, "host_factor": 2.0}
    raw = run.end_to_end([run_], normalize=False)
    scaled = run.end_to_end([run_])
    for name in ("wall_s", "setup_s", "round_p50_s", "round_p80_s"):
        assert scaled[name] == pytest.approx(raw[name] / 2.0)
    assert scaled["search_samples_per_s"] == pytest.approx(raw["search_samples_per_s"] * 2.0)
    assert scaled["peak_rss_mb"] == raw["peak_rss_mb"]
