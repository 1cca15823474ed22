import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from requland import cli
from requland.cli import PROBE_DEFAULTS, _make_loss, _probe_coercivity, main
from requland.datasets import gen_random
from requland.landscape import MC_BLOCK, CertificateReport
from requland.models import SingleLayerReQUNet, save_net
from requland.objective import FlatObjective, ObjectiveConfig, coercivity_lower_bound
from requland.optimize import init_single, sample_lambda


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
    assert "--trials" in capsys.readouterr().err
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
    worst, violations, values = np.inf, 0, []
    for t in range(int(cfg["trials"])):
        rng = np.random.default_rng(np.random.SeedSequence((seed, t // block)))
        u = rng.standard_normal((block, fob.layout.size))[t % block]
        radius = 10.0 ** rng.uniform(-2.0, log_max, block)[t % block]
        values.append(fob.value(radius * u / np.linalg.norm(u)))
        floor = coercivity_lower_bound(radius, lam_min, m)
        worst = min(worst, values[-1] - floor)
        if values[-1] < floor - slack * (1.0 + abs(floor)):
            violations += 1
    report = {"violations": violations, "worst_margin": float(worst), "pass": violations == 0}
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


def test_sweep_empty_grid_writes_header_only(tmp_path):
    out = tmp_path / "sw0"
    assert run("sweep", "--out", out, "--n", "6", "--m-values", "", "--seeds", "0") == 0
    assert (out / "sweep.csv").read_bytes() == b"m,n,seed,lambda0,error,certified\r\n"


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


@pytest.mark.parametrize("key", ["seed", "trials"])
@pytest.mark.parametrize("kind", sorted(PROBE_DEFAULTS))
def test_bad_config_value_is_a_usage_error_for_every_probe(kind, key, tmp_path, capsys):
    # lidskii and conv-rank converted their seed, and every probe its trial
    # count, outside the usage-error scope: a ValueError traceback, not
    # "requland: error:".
    bad = tmp_path / "bad.yaml"
    bad.write_text(f"{key}: abc\n")
    assert run("probe", kind, "--config", bad) == 1
    err = capsys.readouterr().err
    assert err.startswith("requland: error:")
    assert "Traceback" not in err
