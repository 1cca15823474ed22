import argparse
import csv
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from requland import cli
from requland.cli import PROBE_DEFAULTS, UsageError, _make_loss, _merge_config, _probe_coercivity, main
from requland.datasets import gen_random
from requland.landscape import MC_BLOCK, CertificateReport
from requland.models import SingleLayerReQUNet, load_net, save_net
from requland.objective import FlatObjective, ObjectiveConfig, coercivity_lower_bound
from requland.optimize import init_deep, init_single, sample_lambda


def strict_json(path):
    """Parse a report as a strict parser would: NaN and Infinity are errors."""
    def refuse(constant):
        raise ValueError(f"{path}: {constant} is not JSON")
    return json.loads(Path(path).read_text(), parse_constant=refuse)


def run(*argv):
    """The CLI in-process; every report.json it writes must be strict JSON."""
    argv = [str(a) for a in argv]
    code = main(argv)
    if "--out" in argv[:-1]:
        for report in Path(argv[argv.index("--out") + 1]).rglob("report.json"):
            strict_json(report)
    return code


FAST_TRAIN = ["--m", "7", "--seed", "1", "--out"]  # pairs with a generator config


@pytest.fixture(scope="module")
def train_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "t1"
    cfgfile = out.parent / "train.yaml"
    cfgfile.write_text("generator: {kind: random, n: 6, d: 2, seed: 0}\n")
    code = run("train", "--config", cfgfile, *FAST_TRAIN, out)
    return code, out, cfgfile


def test_train_writes_certified_artifacts(train_run):
    code, out, _ = train_run
    assert code == 0
    for name in ("config.yaml", "dataset.csv", "trajectory.csv", "checkpoint.json", "report.json"):
        assert (out / name).is_file()
    report = CertificateReport.load(out / "report.json")
    assert report.verdict == "ok"
    assert report.training_error == 0.0
    with open(out / "trajectory.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iter", "loss", "grad_norm", "param_norm", "status"]
    assert rows[-1][4] == "converged"


def test_train_resolved_config_is_a_reproducible_fixpoint(train_run, tmp_path):
    _, out, _ = train_run
    resolved = yaml.safe_load((out / "config.yaml").read_text())
    assert isinstance(resolved["lam"], list) and len(resolved["lam"]) == 7
    assert resolved["generator"]["kind"] == "random"  # defaults were materialized
    again = tmp_path / "t2"
    assert run("train", "--config", out / "config.yaml", "--out", again) == 0
    for name in ("config.yaml", "dataset.csv", "trajectory.csv", "checkpoint.json", "report.json"):
        assert (out / name).read_bytes() == (again / name).read_bytes()


def test_certify_checkpoint_against_its_run(train_run, tmp_path):
    _, out, _ = train_run
    assert run("certify", "--checkpoint", out / "checkpoint.json",
               "--config", out / "config.yaml") == 0
    # The saved CSV round-trips at full precision, so the report agrees too.
    rep_out = tmp_path / "rep"
    assert run("certify", "--checkpoint", out / "checkpoint.json",
               "--config", out / "config.yaml", "--dataset", out / "dataset.csv",
               "--out", rep_out) == 0
    report = CertificateReport.load(rep_out / "report.json")
    assert report.verdict == "ok"


def test_certify_zero_network_reports_every_block_inactive(tmp_path):
    m = 5
    ckpt = tmp_path / "zero.json"
    save_net(SingleLayerReQUNet(np.zeros(m), np.zeros((m, 2)), np.zeros(m)), ckpt)
    cfgfile = tmp_path / "c.yaml"
    cfgfile.write_text(
        "generator: {kind: random, n: 6, d: 2, seed: 0}\n"
        f"lam: {[0.01] * m}\n"
    )
    out = tmp_path / "rep"
    code = run("certify", "--checkpoint", ckpt, "--config", cfgfile, "--out", out)
    assert code == 2  # the zero net misclassifies everything
    report = CertificateReport.load(out / "report.json")
    assert report.inactive == list(range(m))
    assert report.training_error == 1.0


def test_certify_corrupt_checkpoint_is_a_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("definitely not a checkpoint")
    assert run("certify", "--checkpoint", bad, "--dataset", "whatever.csv") == 1


CORRUPT_SHAPES = {  # raised OverflowError, MemoryError, or loaded as m = 2
    "m-overflows": '"m": 1e400, "width": 2, "params": [0, 0, 0, 0]',
    "float-shapes-too-large": '"m": 1e11, "width": 1e11, "params": [0, 0, 0]',
    "int-shapes-too-large": '"m": 100000000000, "width": 100000000000, "params": [0, 0, 0]',
    "fractional-m": '"m": 2.5, "width": 2, "params": [0, 0, 0, 0, 0, 0, 0, 0]',
    "boolean-m": '"m": true, "width": 2, "params": [0, 0, 0, 0]',
    "zero-width": '"m": 1, "width": 0, "params": [0, 0]',
    "filter-count-too-large": '"kind": "deep_conv", "m": 1, "width": 2, "num_filters": '
                              '100000000000, "filter_size": 2, "slope": 0.1, "params": [0, 0, 0, 0]',
}


@pytest.mark.parametrize("fields", list(CORRUPT_SHAPES.values()), ids=list(CORRUPT_SHAPES))
def test_corrupt_checkpoint_shapes_are_value_errors_naming_the_file(fields, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    head = '"format": "requland-checkpoint", "version": 1, '
    bad.write_text("{" + head + ('' if '"kind"' in fields else '"kind": "single_requ", ') + fields + "}")
    with pytest.raises(ValueError, match="bad.json: corrupt checkpoint"):
        load_net(bad)
    capsys.readouterr()
    assert run("certify", "--checkpoint", bad, "--dataset", "whatever.csv") == 1
    assert f"{bad}: corrupt checkpoint" in capsys.readouterr().err


def test_dataset_without_feature_columns_is_a_usage_error(tmp_path, capsys):
    data = tmp_path / "y_only.csv"
    data.write_text("y\n1\n-1\n1\n")
    assert run("train", "--dataset", data, "--out", tmp_path / "out") == 1
    assert "at least one feature column" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_malformed_dataset_error_names_the_file_and_line(tmp_path, capsys):
    data = tmp_path / "bad.csv"
    # A blank first line ended train with an IndexError traceback, exit 3.
    for text, where in [("x1,y\n0.0,1\nabc,-1\n", ":3: "), ("x1,y\n0.0,1\ninf,-1\n", ": "),
                        ("\nx1,y\n0.0,1\n1.0,-1\n", ": expected header")]:
        data.write_text(text)
        assert run("train", "--dataset", data, "--out", tmp_path / "out") == 1
        assert f"{data}{where}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_certify_needs_some_dataset(train_run, tmp_path):
    _, out, _ = train_run
    ckpt = out / "checkpoint.json"
    cfgfile = tmp_path / "τ.yaml"
    cfgfile.write_text("lam: [0.01, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01]\n")
    assert run("certify", "--checkpoint", ckpt, "--config", cfgfile) == 1


def test_train_missing_dataset_file(tmp_path):
    assert run("train", "--out", tmp_path / "x", "--dataset", tmp_path / "nope.csv") == 1


def test_train_rejects_unknown_config_key(tmp_path):
    cfgfile = tmp_path / "bad.yaml"
    cfgfile.write_text("not_a_real_knob: 3\n")
    assert run("train", "--out", tmp_path / "x", "--config", cfgfile) == 1


def test_config_that_is_not_text_is_a_usage_error(tmp_path, capsys):
    # Only OSError and YAMLError were caught: the decode error of the
    # text-mode read ended the CLI with a traceback and exit 3.
    cfgfile = tmp_path / "bytes.yaml"
    cfgfile.write_bytes(b"\xff\xfe: 1\n")
    out = tmp_path / "o"
    assert run("train", "--config", cfgfile, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("requland: error:") and "Traceback" not in err
    assert not out.exists()


def test_train_rejects_non_mapping_config(tmp_path):
    cfgfile = tmp_path / "list.yaml"
    cfgfile.write_text("- 1\n- 2\n")
    assert run("train", "--out", tmp_path / "x", "--config", cfgfile) == 1


def test_counterexample_then_warm_start_train_fails_certification(tmp_path):
    ce = tmp_path / "ce"
    assert run("counterexample", "--out", ce, "--n", "10", "--m", "2",
               "--seed", "3", "--mode", "generalized", "--trials", "200") == 0
    ce_report = strict_json(ce / "report.json")
    assert ce_report["training_error"] == pytest.approx(0.8)
    assert ce_report["grad_norm"] < 1e-6
    assert ce_report["min_loss_delta"] >= 0.0

    warm = tmp_path / "warm.yaml"
    warm.write_text(yaml.safe_dump({
        "dataset": str(ce / "dataset.csv"),
        "init_checkpoint": str(ce / "checkpoint.json"),
        "m": 2,
        "lam": ce_report["lam"],
        "grad_tol": 1e-6,
    }))
    out = tmp_path / "warm_run"
    assert run("train", "--config", warm, "--out", out) == 2
    report = strict_json(out / "report.json")
    assert report["verdict"] == "bad-lambda-suspect"
    assert report["training_error"] >= 0.8


def test_counterexample_exact_mode(tmp_path):
    out = tmp_path / "ce4"
    assert run("counterexample", "--out", out, "--n", "4", "--m", "2",
               "--trials", "200") == 0
    report = strict_json(out / "report.json")
    assert report["training_error"] == 0.5
    assert report["pass"] is True
    assert "non_finite" not in report  # only a non-finite statistic adds it
    assert (out / "dataset.csv").is_file() and (out / "checkpoint.json").is_file()


def test_counterexample_is_critical_to_rounding(tmp_path):
    # Each neuron comes from the subproblem's closed form; the golden-section
    # search it replaced left grad_norm at 1.46e-8 on this case.
    out = tmp_path / "ce"
    assert run("counterexample", "--n", "10", "--m", "3", "--mode", "generalized",
               "--seed", "1", "--out", out) == 0
    assert strict_json(out / "report.json")["grad_norm"] < 1e-12


@pytest.mark.parametrize(
    "kind,trials",
    [("coercivity", 50), ("lemma2", 50), ("lidskii", 300),
     ("overdetermined", 50), ("conv-rank", 100), ("injectivity", 5)],
)
def test_probe_kinds_pass(kind, trials, tmp_path):
    out = tmp_path / kind
    assert run("probe", kind, "--trials", trials, "--seed", "1", "--out", out) == 0
    report = strict_json(out / "report.json")
    assert report["kind"] == kind
    assert report["pass"] is True
    assert report["trials"] == trials


def test_probe_reports_square_case_adversarial_sigma(tmp_path):
    cfgfile = tmp_path / "p.yaml"
    cfgfile.write_text("n: 5\nm: 5\n")
    out = tmp_path / "rep"
    with pytest.warns(UserWarning):
        code = run("probe", "lemma2", "--config", cfgfile, "--trials", "30",
                   "--seed", "0", "--out", out)
    assert code == 0  # random trials still avoid the measure-zero singular set
    report = strict_json(out / "report.json")
    assert report["adversarial_max_sigma"] < 1e-10  # crafted (z, A) defeats every M_j


@pytest.mark.parametrize("trials", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ["probe", "coercivity"],
    ["probe", "lemma2"],
    ["counterexample", "--n", "10", "--m", "3", "--mode", "generalized"],
])
def test_monte_carlo_commands_reject_trials_below_one(argv, trials, tmp_path, capsys):
    # Over no trials the coercivity probe printed PASS worst_margin=inf,
    # counterexample wrote "min_loss_delta": Infinity (not valid JSON) and
    # passed, and lemma2 failed on an empty min().
    out = tmp_path / "out"
    assert run(*argv, "--trials", trials, "--out", out) == 1
    assert "config key trials:" in capsys.readouterr().err
    assert not out.exists()


def serial_coercivity_oracle(cfg):
    """probe coercivity with one draw row and one FlatObjective.value call
    per trial: its report and each trial's value, in trial order.  Trial t
    is row t % MC_BLOCK of the whole block drawn from
    SeedSequence((seed, t // MC_BLOCK))."""
    seed = int(cfg["seed"])
    ds = gen_random(int(cfg["n"]), int(cfg["d"]), seed=seed)
    m = int(cfg["m"])
    lam = sample_lambda(m, float(cfg["lambda0"]), seed=seed)
    fob = FlatObjective(init_single(m, ds.d, seed=0), ds,
                        ObjectiveConfig(loss=_make_loss(cfg), lam=lam))
    lam_min, slack = float(np.min(lam)), float(cfg["slack"])
    block, log_max = MC_BLOCK, np.log10(float(cfg["norm_max"]))
    worst, violations, non_finite, values = np.inf, 0, 0, []
    for t in range(int(cfg["trials"])):
        rng = np.random.default_rng(np.random.SeedSequence((seed, t // block)))
        u = rng.standard_normal((block, fob.layout.size))[t % block]
        radius = 10.0 ** rng.uniform(-2.0, log_max, block)[t % block]
        values.append(fob.value(radius * u / np.linalg.norm(u)))
        floor = coercivity_lower_bound(radius, lam_min, m)
        margin = values[-1] - floor
        if np.isnan(margin):
            non_finite += 1
        else:
            worst = min(worst, margin)
        if values[-1] < floor - slack * (1.0 + abs(floor)):
            violations += 1
    report = {"violations": violations, "worst_margin": float(worst),
              "pass": violations == 0 and non_finite == 0}
    if non_finite:
        report["non_finite_trials"] = non_finite
    return report, np.array(values)


def coercivity_trials(monkeypatch, cfg):
    """_probe_coercivity's report and each trial's value, in trial order."""
    seen = []
    values = FlatObjective.values
    with monkeypatch.context() as mp:
        mp.setattr(FlatObjective, "values",
                   lambda self, thetas: seen.append(values(self, thetas)) or seen[-1])
        report = _probe_coercivity(dict(cfg))
    return report, np.concatenate(seen)


@pytest.mark.parametrize("loss", ["logistic", "hinge"])
def test_probe_coercivity_matches_serial_oracle(loss, monkeypatch):
    # Trial counts around one block.  A slack of -12 raises the bar above
    # about half of the trials, so the violation count is compared too.
    for trials in (MC_BLOCK - 1, MC_BLOCK, MC_BLOCK + 1):
        for seed, slack in ((0, 1e-9), (2, -12.0)):
            cfg = {**PROBE_DEFAULTS["coercivity"], "loss": loss, "trials": trials,
                   "seed": seed, "slack": slack}
            got, per_trial = coercivity_trials(monkeypatch, cfg)
            want, want_per_trial = serial_coercivity_oracle(cfg)
            assert np.array_equal(per_trial, want_per_trial)  # every trial, in order
            assert got == want
            assert (0 < got["violations"] < trials) == (slack < 0)


@pytest.mark.parametrize("zeros", [(0.0, -0.0), (-0.0, 0.0)])
def test_probe_coercivity_scores_a_block_as_a_trial_loop_would(zeros, monkeypatch):
    # Forged values over a zero floor: worst_margin is the first least
    # margin, so of two zeros the earlier one's sign wins, within a block
    # and against a later block; NaN margins are skipped and counted, and a
    # block of NaN alone leaves worst_margin as it was.  A slack of -1.5
    # makes every value below 1.5 a violation.
    first, second = zeros
    blocks = [np.r_[5.0, first, second, np.nan, np.full(MC_BLOCK - 4, 2.0)],
              np.r_[second, np.nan, 1.0, np.full(MC_BLOCK - 3, 7.0)],
              np.full(3, np.nan)]
    feed = iter(blocks)
    monkeypatch.setattr(cli, "coercivity_lower_bounds", lambda radii, lam_min, m: [0.0] * len(radii))
    monkeypatch.setattr(FlatObjective, "values", lambda self, thetas: next(feed))
    cfg = {**PROBE_DEFAULTS["coercivity"], "trials": 2 * MC_BLOCK + 3, "slack": -1.5}
    got = _probe_coercivity(cfg)
    worst, violations, non_finite = np.inf, 0, 0
    for value in np.concatenate(blocks):  # the trial loop it replaced
        margin = value - 0.0
        worst = min(worst, margin)  # a NaN margin leaves worst as it was
        non_finite += bool(np.isnan(margin))
        violations += bool(value < 0.0 - cfg["slack"] * (1.0 + abs(0.0)))
    assert (violations, non_finite) == (4, 5)
    assert got == {"violations": violations, "worst_margin": worst, "pass": False,
                   "non_finite_trials": non_finite}
    assert math.copysign(1.0, got["worst_margin"]) == math.copysign(1.0, first)


def test_probe_coercivity_fails_on_overflowed_trials(monkeypatch):
    # At norm_max 1e150, 636 trials have a non-finite objective (629 NaN,
    # 7 inf).  632 margins are NaN: the NaN values and 3 inf values above
    # an inf floor.  min() skipped them and the probe passed with
    # worst_margin 7.603; an inf value above a finite floor is a true pass.
    cfg = {**PROBE_DEFAULTS["coercivity"], "norm_max": 1e150, "trials": 2000, "seed": 0}
    with np.errstate(all="ignore"):
        got, per_trial = coercivity_trials(monkeypatch, cfg)
        want, want_per_trial = serial_coercivity_oracle(cfg)
    assert np.array_equal(per_trial, want_per_trial, equal_nan=True)
    assert got == want
    assert got["non_finite_trials"] == 632 and got["pass"] is False
    assert np.sum(~np.isfinite(per_trial)) == 636


def test_probe_coercivity_overflowed_trials_raise_no_warnings(tmp_path, capsys):
    # The same run through the CLI printed nine numpy RuntimeWarnings; its
    # overflowed trials are counted in the report instead.
    cfgfile = tmp_path / "c.yaml"
    cfgfile.write_text("norm_max: 1.0e+150\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("probe", "coercivity", "--config", cfgfile, "--trials", "2000",
                   "--seed", "0", "--out", tmp_path / "p") == 2
    assert capsys.readouterr().err == ""
    report = strict_json(tmp_path / "p" / "report.json")
    assert report["non_finite_trials"] == 632 and report["pass"] is False


def test_train_from_an_overflowing_checkpoint_raises_no_warnings(tmp_path, capsys):
    # A deep warm start with a 1e30 head overflows the data term at once.
    # The run ends as it did (not critical, exit 2), but numpy also printed
    # five RuntimeWarnings from the objective's evaluations.
    ckpt = tmp_path / "big.json"
    save_net(init_deep(3, 2, 2, 11, seed=0, scale=1e30), ckpt)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("train", "--init-checkpoint", ckpt, "--lambda0", "0.1",
                   "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err == ""


def test_probe_coercivity_trials_are_a_prefix_of_a_longer_run(monkeypatch):
    # Trial t depends only on (seed, t): every block is drawn whole.
    cfg = {**PROBE_DEFAULTS["coercivity"], "seed": 3}
    _, short = coercivity_trials(monkeypatch, {**cfg, "trials": 300})
    _, long = coercivity_trials(monkeypatch, {**cfg, "trials": 4000})
    assert len(short) == 300 and len(long) == 4000
    assert np.array_equal(short, long[:300])


def test_demo_path_csv(tmp_path):
    out = tmp_path / "dp"
    assert run("demo-path", "--out", out, "--num-steps", "500") == 0
    with open(out / "path.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "param_norm", "loss", "reg_loss", "floor"]
    assert len(rows) == 501
    assert float(rows[-1][0]) == 500.0


def test_sweep_transition_and_determinism(tmp_path):
    out = tmp_path / "sw"
    assert run("sweep", "--out", out, "--n", "6", "--d", "2",
               "--m-values", "5,6,7,8", "--seeds", "1,1") == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    for row in rows:
        if int(row["m"]) >= int(row["n"]) + 1:
            assert float(row["error"]) == 0.0
            assert row["certified"] == "1"
    # Repeated seed: cells are pure functions of (m, n, seed).
    for i in range(0, 8, 2):
        assert rows[i] == rows[i + 1]
    keys = [(int(r["n"]), int(r["m"]), int(r["seed"])) for r in rows]
    assert keys == sorted(keys)


@pytest.mark.parametrize("n", [1, 2])
def test_sweep_default_grid_starts_at_m_1(n, tmp_path):
    # The grid m in {n-2, ..., n+3} held m = -1 or 0 here, and the sweep
    # stopped on it before any cell ran.
    out = tmp_path / "sw"
    assert run("sweep", "--out", out, "--n", str(n)) == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(int(r["m"]), int(r["n"])) for r in rows] == [(m, n) for m in range(1, n + 4)]


@pytest.mark.parametrize("args,config,named", [
    (["--n", "4", "--seeds", ""], "", "config key seeds: expected seeds of at least 0, one or more, got []"),
    (["--n", "4", "--m-values", ""], "", "config key m_values: expected a list of one or more, got []"),
    (["--n", "4"], "m_values: []", "config key m_values: expected a list of one or more, got []"),
    ([], "n_values: []", "config key n_values: expected a list of one or more, got []"),
], ids=["seeds-flag", "m-values-flag", "m_values-config", "n_values-config"])
def test_sweep_empty_grid_is_a_usage_error(args, config, named, tmp_path, capsys):
    # An empty grid ran no cell, wrote a sweep.csv holding only its header
    # and exited 0 with "wrote 0 rows".
    cfg = tmp_path / "grid.yaml"
    cfg.write_text(config + "\n")
    out = tmp_path / "sw0"
    assert run("sweep", "--config", cfg, "--out", out, *args) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_usage_errors_and_help():
    assert run("nosuchcommand") == 1
    assert main([]) == 1
    assert run("--help") == 0
    assert run("train") == 1  # --out is required


def test_module_entry_point(tmp_path):
    out = tmp_path / "dp"
    proc = subprocess.run(
        [sys.executable, "-m", "requland", "demo-path", "--out", str(out), "--num-steps", "50"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "demo-path: PASS" in proc.stdout


def test_module_entry_point_exits_3_on_a_defect(tmp_path):
    # An exception main lets through is a defect: the entry point prints its
    # traceback and exits 3, not 1, the code of a usage error.
    inject = (
        "import runpy, sys\n"
        "from requland import cli\n"
        "cli.train = None\n"
        "sys.argv[1:] = ['train', '--m', '7', '--seed', '1', '--out', sys.argv[1]]\n"
        "runpy.run_module('requland', run_name='__main__')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", inject, str(tmp_path / "out")], capture_output=True, text=True
    )
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" in proc.stderr and "TypeError" in proc.stderr


def test_import_loads_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, requland, requland.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_non_finite_statistic_is_written_as_strict_json(tmp_path):
    # At this radius every trial value overflows and perturbation_stability
    # returns NaN; the report used to carry a bare NaN that strict parsers
    # reject.
    out = tmp_path / "ce"
    with np.errstate(over="ignore", invalid="ignore"):
        code = run("counterexample", "--n", "10", "--m", "3", "--mode", "generalized",
                   "--radius", "1e120", "--trials", "50", "--out", out)
    assert code == 2
    report = strict_json(out / "report.json")
    assert report["min_loss_delta"] is None
    assert report["non_finite"] == {"min_loss_delta": "nan"}
    assert report["pass"] is False


@pytest.mark.parametrize("target,argv", [
    ("train", ["train", "--m", "7", "--seed", "1"]),
    ("perturbation_stability", ["counterexample", "--n", "4", "--m", "2", "--trials", "10"]),
])
def test_internal_value_error_is_not_a_usage_error(target, argv, tmp_path, monkeypatch):
    # A ValueError raised past the user's inputs is a defect: it surfaces
    # with its traceback instead of exiting 1 as a usage error.
    def defect(*args, **kwargs):
        raise ValueError("injected defect")

    monkeypatch.setattr(cli, target, defect)
    with pytest.raises(ValueError, match="injected defect"):
        run(*argv, "--out", tmp_path / "out")


def test_library_rejections_of_user_values_are_usage_errors(train_run, tmp_path, capsys):
    _, out, cfgfile = train_run  # a 7-neuron net trained on d = 2 data
    other = tmp_path / "d3.yaml"
    other.write_text("generator: {kind: random, n: 6, d: 3, seed: 0}\n")
    assert run("certify", "--checkpoint", out / "checkpoint.json", "--config", other) == 1
    assert "input length" in capsys.readouterr().err
    assert run("train", "--config", cfgfile, "--init-checkpoint",
               out / "checkpoint.json", "--m", "5", "--out", tmp_path / "w") == 1
    assert "neurons" in capsys.readouterr().err
    small = tmp_path / "n0.yaml"
    small.write_text("n: 0\n")
    assert run("probe", "lemma2", "--config", small, "--out", tmp_path / "p") == 1
    assert "n >= 1" in capsys.readouterr().err
    small.write_text("d_max: 0\n")
    assert run("probe", "lidskii", "--config", small) == 1


BAD_PROBE_VALUES = {"seed": "seed: abc", "trials": "trials: abc", "m-list": "m: [1]",
                    "seed-null": "seed: null", "trials-null": "trials: null",
                    "trials-true": "trials: true", "norm_max-small": "norm_max: 0.001",
                    "norm_max-negative": "norm_max: -1"}


@pytest.mark.parametrize("kind,key", [
    (kind, key) for kind in sorted(PROBE_DEFAULTS) for key in BAD_PROBE_VALUES
    if BAD_PROBE_VALUES[key].split(":")[0] in PROBE_DEFAULTS[kind]
])
def test_bad_config_value_is_a_usage_error_for_every_probe(kind, key, tmp_path, capsys):
    # lidskii and conv-rank converted their seed, and every probe its trial
    # count, outside the usage-error scope: a ValueError traceback, not
    # "requland: error:".  A list or a null where an integer belongs raised
    # TypeError, a defect's exit code 3; trials: true ran one trial.
    # coercivity drew its radii from uniform(-2, log10(norm_max)), which
    # raised ValueError or OverflowError for norm_max <= 1e-2 (exit 3).
    bad = tmp_path / "bad.yaml"
    text = BAD_PROBE_VALUES[key]
    bad.write_text(text + "\n")
    assert run("probe", kind, "--config", bad) == 1
    err = capsys.readouterr().err
    assert err.startswith("requland: error:") and text.split(":")[0] in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text", ["trials: 2.7", "seed: 1.5"])
@pytest.mark.parametrize("kind", sorted(PROBE_DEFAULTS))
def test_non_integral_config_integer_is_a_usage_error(kind, text, tmp_path, capsys):
    # int() used to truncate: trials 2.7 ran 2 trials, exited 0 and reported 2.7.
    bad = tmp_path / "bad.yaml"
    bad.write_text(text + "\n")
    out = tmp_path / "out"
    assert run("probe", kind, "--config", bad, "--out", out) == 1
    assert "expected an integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,text,named", [
    ("train", "m: 2.5", "expected an integer"),
    ("counterexample", "n: 2.5", "expected an integer"),
    ("demo-path", "num_steps: 2.5", "expected an integer"),
    ("sweep", "n_values: 10", "n_values"),
    ("sweep", "seeds: 0", "seeds"),
    ("sweep", "m_values: 9", "m_values"),
    ("sweep", "d: 2.5", "d: expected an integer"),
    ("sweep", "d: [3]", "config key d:"),
    ("train", "certify_tol: abc", "certify_tol"),
    ("counterexample", "radius: [1]", "radius"),
    ("demo-path", "num_steps: [3]", "num_steps"),
    ("probe lemma2", 'adversarial: "no"', "adversarial"),
    ("sweep", "d: 0", "d >= 1"),
    ("sweep", "lambda0: -1", "lambda0 must be positive"),
    ("counterexample", "lam: [5.0e-324, 0.1]", "underflows to 0"),
    ("probe lemma2", "m: 0", "m must be >= 1, got 0"),
    ("probe injectivity", "l: 0", "l must be >= 1"),
    ("train", "arch: deep\nl: 0", "l must be >= 1"),
    ("probe overdetermined", "n: -1", "needs n >= 1"),
    ("probe overdetermined", "n: 0", "needs n >= 1"),
    ("sweep", "m_values: [0]", "m must be >= 1, got 0"),
    ("probe lidskii", "d_max: 0", "config key d_max: expected at least 1"),
    ("probe conv-rank", "s_max: 0", "config key s_max: expected at least 1"),
    ("probe conv-rank", "dz_max: 0", "config key dz_max: expected at least 1"),
    ("probe lidskii", "trials: 1\nd_max: 4097", "d_max: expected at least 1 and at most 4096"),
    ("probe lidskii", "d_max: 100000000000000000000", "config key d_max: expected at least 1 and"),
    ("probe conv-rank", "trials: 1\ns_max: 4097", "s_max: expected at least 1 and at most 4096"),
    ("probe conv-rank", "trials: 1\ndz_max: 4097", "dz_max: expected at least 1 and at most 4096"),
    ("probe injectivity", "s: 0", "config key s: expected at least 1"),
    ("train", "s: 0", "config key s: expected at least 1"),
    ("train", "seed: -1", "config key seed: expected at least 0"),
    ("train", "generator: {kind: random, seed: -1}", "config key generator.seed:"),
    ("sweep", "seeds: [0, -1]", "config key seeds: expected seeds of at least 0"),
    ("train", "certify_tol: 0", "config key certify_tol:"),
    ("train", "certify_grad_tol: .inf", "config key certify_grad_tol:"),
    ("train", "arch: bogus", "config key arch: expected single or deep"),
    ("counterexample", "mode: bogus", "config key mode:"),
    ("counterexample", "radius: .nan", "config key radius:"),
    ("probe coercivity", "loss: bogus", "config key loss:"),
    ("train", "grad_tol: -1", "config key grad_tol: expected a positive finite number"),
    ("train", "grad_tol: .nan", "config key grad_tol:"),
    ("train", "max_iter: -5", "config key max_iter: expected at least 0"),
    ("sweep", "grad_tol: -1", "config key grad_tol:"),
    ("sweep", "max_iter: -5", "config key max_iter:"),
])
def test_bad_config_is_a_usage_error_and_leaves_no_artifact_directory(
    command, text, named, tmp_path, capsys
):
    # train and counterexample created --out before converting their config
    # and left it empty; sweep took a scalar where a list belongs for a
    # defect (TypeError, exit 3).  sweep converted d per cell, after creating
    # --out; train passed certify_tol unconverted to certify after training
    # and writing four artifacts; a list where a number belongs raised
    # TypeError; lemma2 read the string "no" as true.  sweep ran gen_random
    # and sample_lambda per cell after creating --out, so d: 0 and
    # lambda0: -1 left it behind.  A subnormal lam made counterexample claim
    # lam_j / s^2 was too large where lam_j ln 2 / s^2 had underflowed.
    # lemma2 at m: 0 and injectivity at l: 0 failed inside the library
    # (exit 3), and deep train at l: 0 blamed the input length;
    # overdetermined at n: -1 exited 3, and at n: 0 passed over no equations.
    # sweep's default grid at n = 1 started at m = -1, which sample_lambda
    # handed to numpy: "negative dimensions are not allowed"; an explicit
    # m below 1 is still refused.  lidskii at d_max: 0 and conv-rank at
    # s_max: 0 or dz_max: 0 printed numpy's "low >= high"; lidskii at
    # d_max: 1e20 printed "high is out of bounds for int64", which names no
    # key, and a d_max, s_max or dz_max above 4096 that fits in int64 asked
    # numpy for matrices of that size.  injectivity
    # at s: 0 blamed the filter shapes.  train at certify_tol: 0 trained,
    # then reported a contradiction; a negative seed was numpy's unnamed
    # "expected non-negative integer"; an unknown mode blamed no key, and
    # an unknown arch or loss was only caught where the run first read it.
    # train and sweep at grad_tol: -1 or nan spent every iteration of
    # max_iter and exited 0, and at max_iter: -5 trained no iteration.
    bad = tmp_path / "bad.yaml"
    bad.write_text(text + "\n")
    out = tmp_path / "out"
    assert run(*command.split(), "--config", bad, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("requland: error:") and named in err
    assert not out.exists()


def test_failed_certify_writes_the_resolved_coefficients(train_run, tmp_path):
    # A failed certificate used to write the configured lam: null, while a
    # certified run lists the coefficients it used.
    _, out, cfgfile = train_run
    rep = tmp_path / "rep"
    assert run("certify", "--checkpoint", out / "checkpoint.json", "--config", cfgfile,
               "--seed", "1", "--certify-grad-tol", "1e-30", "--out", rep) == 2
    assert strict_json(rep / "report.json")["verdict"] == "not-critical"
    trained = yaml.safe_load((out / "config.yaml").read_text())
    assert yaml.safe_load((rep / "config.yaml").read_text())["lam"] == trained["lam"]


def _flag_dests(command):
    """The config keys a command takes as flags."""
    return set(cli.COMMANDS[command][3])


def test_every_flag_lands_in_the_written_config_under_its_dest(train_run, tmp_path):
    _, run_dir, cfgfile = train_run  # a 7-neuron net trained on d = 2 data
    dataset, ckpt = str(run_dir / "dataset.csv"), str(run_dir / "checkpoint.json")
    cases = {  # command: (argv, the written value of each flag's dest)
        "train": (
            ["train", "--dataset", dataset, "--arch", "single", "--m", "7", "--seed", "4",
             "--loss", "hinge", "--lambda0", "0.01", "--lam-c", "0.5", "--grad-tol", "1e-3",
             "--max-iter", "5", "--init-checkpoint", ckpt],
            {"dataset": dataset, "arch": "single", "m": 7, "seed": 4, "loss": "hinge",
             "lambda0": 0.01, "lam_c": 0.5, "grad_tol": 1e-3, "max_iter": 5,
             "init_checkpoint": ckpt},
        ),
        "certify": (
            ["certify", "--checkpoint", ckpt, "--dataset", dataset, "--seed", "4",
             "--loss", "logistic", "--lambda0", "0.01", "--lam-c", "0.5",
             "--certify-tol", "1e-3", "--certify-grad-tol", "1e-30"],
            {"dataset": dataset, "seed": 4, "loss": "logistic", "lambda0": 0.01,
             "lam_c": 0.5, "certify_tol": 1e-3, "certify_grad_tol": 1e-30},
        ),
        "probe": (["probe", "lidskii", "--trials", "3", "--seed", "5"], {"trials": 3, "seed": 5}),
        "counterexample": (
            ["counterexample", "--n", "4", "--m", "2", "--seed", "1", "--mode", "exact",
             "--trials", "7", "--radius", "2e-3"],
            {"n": 4, "m": 2, "seed": 1, "mode": "exact", "trials": 7, "radius": 2e-3},
        ),
        "demo-path": (["demo-path", "--num-steps", "20", "--lam", "0.3"],
                      {"num_steps": 20, "lam": 0.3}),
        "sweep": (
            ["sweep", "--n", "5", "--seeds", "0,1", "--m-values", "9,10", "--d", "2",
             "--grad-tol", "1e-3", "--max-iter", "5"],
            {"n_values": [5], "seeds": [0, 1], "m_values": [9, 10], "d": 2,
             "grad_tol": 1e-3, "max_iter": 5},
        ),
    }
    for command, (argv, want) in cases.items():
        assert _flag_dests(command) <= set(want), command  # every flag is exercised
        out = tmp_path / command
        assert run(*argv, "--out", out) in (0, 2), command
        written = yaml.safe_load((out / "config.yaml").read_text())
        assert {key: written[key] for key in want} == want, command


CONFIG_TABLES = {"train": cli.TRAIN_DEFAULTS, "counterexample": cli.COUNTEREXAMPLE_DEFAULTS,
                 "demo-path": cli.DEMO_PATH_DEFAULTS, "sweep": cli.SWEEP_DEFAULTS,
                 **{f"probe {kind}": table for kind, table in PROBE_DEFAULTS.items()}}
# The type of each key whose default (null or "auto") does not give it.
UNTYPED_TYPES = {"dataset": str, "init_checkpoint": str, "mode": str, "generator": dict,
                 "certify_tol": float, "d": int, "lam": list, "m_values": list, "lambda0": float}
EDGE_VALUES = st.sampled_from([None, 10**400, "1e-7", "2", "2.5", "nan", "no", "auto", "random",
                               "quadratic", "repelling"])
YAML_VALUES = EDGE_VALUES | st.recursive(
    EDGE_VALUES | st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["kind", "n", "d", "seed", "num_positive", "mode"]) | st.text(max_size=4),
        inner, max_size=4),
    max_leaves=8,
)


def assert_typed(key, got, default):
    """got has the type of default, or of UNTYPED_TYPES where the default is
    null or "auto"; list items are integers (lam's are floats); null only
    where the default is null."""
    if default is None and got is None:
        return
    if default == "auto" and got == "auto":
        return
    want = UNTYPED_TYPES[key] if default in (None, "auto") else type(default)
    assert type(got) is want, (key, got)
    if want is list:
        assert all(type(v) is (float if key == "lam" else int) for v in got), (key, got)
    if key == "generator":
        kind_defaults = cli.GENERATOR_DEFAULTS[got["kind"]]
        assert set(got) == set(kind_defaults)
        for sub, value in got.items():
            assert_typed(sub, value, kind_defaults[sub])


@settings(max_examples=400, deadline=None)
@given(where=st.sampled_from([(t, k) for t in CONFIG_TABLES for k in CONFIG_TABLES[t]]),
       value=YAML_VALUES)
def test_config_value_takes_its_defaults_type_or_is_a_usage_error_naming_its_key(
    tmp_path_factory, where, value
):
    table, key = where
    path = tmp_path_factory.getbasetemp() / "property.yaml"
    path.write_text(yaml.safe_dump({key: value}))
    try:
        cfg = _merge_config(CONFIG_TABLES[table], argparse.Namespace(config=str(path)))
    except UsageError as exc:
        assert key in str(exc)
        return
    assert value is not None or CONFIG_TABLES[table][key] is None  # null only where the default is
    assert_typed(key, cfg[key], CONFIG_TABLES[table][key])


@pytest.mark.parametrize("case", ["counterexample", "warm-start train"])
def test_negative_seed_is_a_usage_error_before_out_exists(case, train_run, tmp_path, capsys):
    # With lam given and no fresh initialization, nothing read the seed
    # before --out existed: perturbation_stability and train's SeedSequence
    # then raised numpy's "expected non-negative integer" (exit 3).
    _, run_dir, _ = train_run  # a 7-neuron net
    lam = yaml.safe_load((run_dir / "config.yaml").read_text())["lam"]
    cfgfile = tmp_path / "lam.yaml"
    out = tmp_path / "out"
    if case == "counterexample":
        cfgfile.write_text("lam: [0.2, 0.3]\n")
        argv = ["counterexample", "--n", "4", "--m", "2"]
    else:
        cfgfile.write_text(yaml.safe_dump({"lam": lam}))
        argv = ["train", "--dataset", run_dir / "dataset.csv", "--m", "7",
                "--init-checkpoint", run_dir / "checkpoint.json"]
    assert len(lam) == 7
    assert run(*argv, "--seed", "-1", "--config", cfgfile, "--out", out) == 1
    assert "config key seed:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,text", [
    ("--certify-tol", "0"), ("--certify-tol", "-1"), ("--certify-tol", "nan"),
    ("--certify-tol", "inf"), ("--certify-grad-tol", "inf"),
])
def test_certificate_tolerance_out_of_range_is_a_usage_error(flag, text, train_run, tmp_path,
                                                             capsys):
    # On a certified point, certify_tol at 0, -1 or nan reported a
    # contradiction, the verdict reserved for defects, and at inf
    # bad-lambda-suspect; certify_grad_tol at inf took a budget-exhausted
    # point for a critical one.
    _, run_dir, cfgfile = train_run
    rep = tmp_path / "rep"
    assert run("certify", "--checkpoint", run_dir / "checkpoint.json", "--config", cfgfile,
               "--seed", "1", flag, text, "--out", rep) == 1
    assert f"config key {flag[2:].replace('-', '_')}:" in capsys.readouterr().err
    assert not rep.exists()


def test_counterexample_at_radius_zero_is_a_usage_error(tmp_path, capsys):
    # Every probe point was the base point: min_loss_delta=0, PASS, exit 0.
    out = tmp_path / "out"
    assert run("counterexample", "--n", "4", "--m", "2", "--radius", "0", "--out", out) == 1
    assert "config key radius:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_help_exits_0_for_every_command(command, capsys):
    assert main([command, "--help"]) == 0
    text = capsys.readouterr().out
    assert text.startswith(f"usage: requland {command}")
    named = {"train": ["single | deep", "logistic | hinge", '"auto"'],
             "certify": ["logistic | hinge", '"auto"'],
             "counterexample": ["auto | exact | generalized"]}
    for choice in named.get(command, []):
        assert choice in text


COMMAND_DEFAULTS = {"train": cli.TRAIN_DEFAULTS, "certify": cli.TRAIN_DEFAULTS,
                    "counterexample": cli.COUNTEREXAMPLE_DEFAULTS,
                    "demo-path": cli.DEMO_PATH_DEFAULTS, "sweep": cli.SWEEP_DEFAULTS,
                    **{f"probe {kind}": table for kind, table in PROBE_DEFAULTS.items()}}
FLAG_CASES = [(f"probe {kind}" if command == "probe" else command, key)
              for command, entry in cli.COMMANDS.items()
              for kind in (sorted(PROBE_DEFAULTS) if command == "probe" else [None])
              for key in entry[3]]
FLAG_TEXTS = ["7", "2.5", "-1", "0", "nan", "inf", "1e400", "1e-3", "auto", "deep", "hinge",
              "exact", ""]


def _resolved(defaults, args, key):
    """_merge_config's config, or its UsageError's text, which names key."""
    try:
        return repr(_merge_config(defaults, args))  # repr: nan equals nan
    except UsageError as exc:
        assert key in str(exc)
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(FLAG_CASES), text=st.sampled_from(FLAG_TEXTS))
def test_a_flag_resolves_like_a_config_entry_holding_its_text(tmp_path_factory, case, text):
    command, key = case
    required = ["--checkpoint", "c"] if command == "certify" else []
    argv = [*command.split(), *required, "--out", "o", "--" + key.replace("_", "-"), text]
    defaults = COMMAND_DEFAULTS[command]
    path = tmp_path_factory.getbasetemp() / "flag.yaml"
    path.write_text(yaml.safe_dump({key: text}))
    from_flag = _resolved(defaults, cli.build_parser().parse_args(argv), key)
    assert from_flag == _resolved(defaults, argparse.Namespace(config=str(path)), key)
