"""Tests of the benchmark itself: every check rejects a corrupted output,
and the traced run attributes stall probes to the workload that makes them.

    python3 -m pytest benchmark/test_benchmark.py -q
"""

import csv
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def op(workload, name, tmp_path, seed=0):
    ops = workloads.build(workload, seed, tmp_path / "inputs")
    return next(o for o in ops if o.name == name)


def edit_json(path, fn):
    doc = json.loads(path.read_text())
    fn(doc)
    path.write_text(json.dumps(doc))


def edit_csv(path, fn):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    fn(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@pytest.fixture(scope="module")
def c01_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("c01")
    o = op("single-c01", "c01-3", tmp)
    return o, o.run(tmp / "out")


@pytest.fixture
def c01_copy(c01_run, tmp_path):
    o, out = c01_run
    shutil.copytree(out["dir"], tmp_path / "copy")
    return o, {**out, "dir": tmp_path / "copy"}


def test_c01_output_passes(c01_run):
    o, out = c01_run
    assert o.check(out) == []


def flip_label(rows):
    rows[1][-1] = str(-int(rows[1][-1]))


def shift_last_loss(rows):
    rows[-1][1] = repr(float(rows[-1][1]) * (1.0 + 1e-6))


def raise_second_row(rows):
    rows[2][1] = repr(float(rows[1][1]) * (1.0 + 1e-6))


@pytest.mark.parametrize("name, corrupt", [
    ("flipped prediction", lambda d: edit_csv(d / "train" / "dataset.csv", flip_label)),
    ("objective off by 1e-6", lambda d: edit_csv(d / "train" / "trajectory.csv",
                                                 shift_last_loss)),
    ("rising trajectory row", lambda d: edit_csv(d / "train" / "trajectory.csv",
                                                 raise_second_row)),
    ("certify verdict", lambda d: edit_json(d / "certify" / "report.json",
                                            lambda r: r.update(verdict="margin-failure"))),
    ("no zero block", lambda d: edit_json(d / "train" / "checkpoint.json", lambda c: c.update(
        params=[1e-30 if v == 0.0 else v for v in c["params"]]))),
])
def test_c01_check_rejects(c01_copy, name, corrupt):
    o, out = c01_copy
    corrupt(out["dir"])
    assert o.check(out), name


def test_changed_artifact_byte_fails_the_round(c01_run, tmp_path):
    o, out = c01_run
    calls = []

    def replay(dest):
        shutil.copytree(out["dir"], dest)
        if calls:
            path = dest / "train" / "checkpoint.json"
            data = bytearray(path.read_bytes())
            data[-3] = ord("1") if data[-3] != ord("1") else ord("2")
            path.write_bytes(bytes(data))
        calls.append(dest)
        return {**out, "dir": dest}

    runner = run.Runner([workloads.Operation("replay", replay, lambda r: [], o.fingerprint)],
                        tmp_path)
    times = {"replay": []}
    runner.round([0], times, "r0")
    assert runner.failed == 0
    runner.round([0], times, "r1")
    assert (runner.attempted, runner.failed, runner.bad) == (2, 1, 1)
    assert "differ" in runner.log[0] and len(times["replay"]) == 1


@pytest.fixture(scope="module")
def deep_descent_op(tmp_path_factory):
    return op("deep-descent", "c09-0", tmp_path_factory.mktemp("deep"))


def test_deep_descent_output_passes_and_rejects_corruptions(deep_descent_op):
    out = deep_descent_op.run(None)
    assert deep_descent_op.check(out) == []

    rows = list(out["rows"])
    rows[-1] = (rows[-1][0], rows[-1][1] * (1.0 + 1e-6), *rows[-1][2:])
    assert deep_descent_op.check({**out, "rows": rows})

    assert deep_descent_op.check({**out, "verdict": "margin-failure"})

    net = out["net"]
    bent = type(net)(tuple(1.001 * v for v in net.filters), net.a, net.W, net.b, net.slope)
    assert any("balance" in p for p in deep_descent_op.check({**out, "net": bent}))


def test_kink_output_ends_in_a_named_status(tmp_path):
    o = op("deep-kink", "c09-5", tmp_path)
    out = o.run(None)
    assert out["rows"][-1][4] == "stalled"
    assert o.check(out) == []
    out["rows"][-1] = (*out["rows"][-1][:4], "gave-up")
    assert o.check(out)


@pytest.mark.parametrize("name, corrupt", [
    ("lemma2-n8-m9", lambda d: edit_json(d / "report.json",
                                         lambda r: r.update(min_max_sigma=0.0))),
    ("lemma2-n8-m8", lambda d: edit_json(d / "report.json",
                                         lambda r: r.update(adversarial_max_sigma=1e-3))),
    ("coercivity", lambda d: edit_json(d / "report.json", lambda r: r.update(violations=1))),
    ("counterexample", lambda d: edit_json(d / "checkpoint.json",
                                           lambda c: c["params"].__setitem__(0, 1.01 * c["params"][0]))),
    ("counterexample", lambda d: edit_csv(d / "dataset.csv", flip_label)),
])
def test_landscape_checks_reject(tmp_path, name, corrupt):
    o = op("landscape-mc", name, tmp_path)
    out = o.run(tmp_path / "out")
    assert o.check(out) == []
    corrupt(out["dir"])
    assert o.check(out)


def traced(o, out_dir=None):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        out = o.run(out_dir)
    finally:
        tracer.uninstall()
    return tracer, out


def test_trace_counts_stall_probes_on_kink_only(tmp_path, deep_descent_op):
    kink = op("deep-kink", "c09-5", tmp_path)
    tracer, out = traced(kink)
    m = tracing.layer_metrics(tracer, 1.0, 1.0, 0)
    assert m["optimize.stall.calls"] == workloads.KINK_STALL_TRIES
    assert m["optimize.stall.evals"] > 0 and m["optimize.stall.s"] > 0.0
    assert m["optimize.iters"] == out["rows"][-1][0]

    tracer, _ = traced(deep_descent_op)
    m = tracing.layer_metrics(tracer, 1.0, 1.0, 0)
    assert m["optimize.stall.calls"] == m["optimize.stall.evals"] == 0
    assert m["optimize.stall.s"] == 0.0
    assert m["objective.value.calls"] > 0 and m["landscape.certify.s"] > 0.0


def test_trace_measures_cli_overhead_and_restores_the_program(tmp_path):
    from requland import cli, optimize

    original = optimize.train
    o = op("single-c01", "c01-3", tmp_path)
    tracer, _ = traced(o, tmp_path / "out")
    m = tracing.layer_metrics(tracer, 1.0, 1.0, checks.tree_bytes(tmp_path / "out"))
    assert 0.0 < m["cli.overhead.s"] < sum(s[5] - s[4] for s in tracer.spans if s[3] == "cli.main")
    assert m["cli.artifact_bytes"] > 0 and m["optimize.train.s"] > 0.0
    assert optimize.train is original and cli.train is original


def test_absent_target_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("optimize.gone", "requland.optimize", "_no_such_phase", None),))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["requland.optimize._no_such_phase"]
    assert set(tracing.layer_metrics(tracer, 1.0, 1.0, 0)) == {n for n, _, _ in tracing.METRICS}


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "single-c01", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_reference_seconds_follow_host_speed():
    ref = hostspeed.REFERENCE_SECONDS
    assert hostspeed.to_ref(2.0, [ref, ref]) == pytest.approx(2.0)
    # Half of the time at half speed: the work is 1.5 s on the reference host.
    assert hostspeed.to_ref(2.0, [ref, 2 * ref]) == pytest.approx(1.5)


def test_gauge_samples_while_work_runs_and_restores_the_handler():
    gauge = hostspeed.Gauge()
    handler = signal.getsignal(signal.SIGALRM)
    with gauge.running():
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            pass
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(gauge.samples) >= 4 and gauge.spent > 0
    assert gauge.sample(0.2).wall == pytest.approx(0.2 - gauge.spent)
    assert gauge.sample(0.2, same_thread=False).wall == 0.2
