"""The four workloads: their inputs, their operations and each one's check.

Inputs are made in `build` (the set-up the benchmark times as setup_s);
each Operation.run does only the program's work and returns what its check
needs.  Library entry points are always looked up as module attributes at
call time, so the traced run can wrap them from outside.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import warnings
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import yaml

from requland import cli, datasets, landscape, objective, optimize

import checks

WORKLOADS = ("single-c01", "deep-descent", "deep-kink", "landscape-mc")

C01_SEEDS = tuple(range(20))  # gen_random(10, 3, 1000 + s), m = 11
# The c09 seeds that converge, less 4 and 8: those two take 18k and 24k
# iterations, three quarters of the set's time, and with them a round lasts
# 14-17 s, too long to repeat within a run.
C09_CONVERGING = (0, 1, 3, 6, 7, 9)  # gen_random(3, 4, 2000 + s), m = 25
KINK_SEEDS = (2, 5)  # the two c09 seeds that end "stalled"
# A full run of either seed makes 100 stall tries in 40-50 s, each try
# followed by about 800 descent iterations.  Four tries keep that mix in an
# operation of about two seconds, short enough to repeat within a run.
KINK_STALL_TRIES = 4

LEMMA2_SIZES = (  # (n, m, trials); n = 8 exceeds the default n = 5
    (5, 6, 4000),
    (8, 9, 3000),
    (8, 8, 3000),
)
COERCIVITY_TRIALS = 16000
COUNTEREXAMPLE = {"n": 10, "m": 3, "trials": 20000}


@dataclass
class Operation:
    name: str
    run: Callable[[Path], dict]
    check: Callable[[dict], list]
    fingerprint: Callable[[dict], str]


def call_cli(argv) -> int:
    """requland's command line, in-process, with its console output captured."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return cli.main([str(a) for a in argv])


def _dir_digest(out: dict) -> str:
    return checks.tree_digest(out["dir"])


def _write_yaml(doc: dict, path: Path) -> Path:
    path.write_text(yaml.safe_dump(doc, sort_keys=True))
    return path


# ---------------------------------------------------------------------------
# single-c01: `requland train` then `requland certify`, one pair per seed

def _c01_run(config: Path, out: Path) -> dict:
    rc_train = call_cli(["train", "--config", config, "--out", out / "train"])
    rc_certify = call_cli([
        "certify", "--checkpoint", out / "train" / "checkpoint.json",
        "--config", out / "train" / "config.yaml", "--out", out / "certify",
    ])
    return {"dir": out, "rc": (rc_train, rc_certify)}


def _c01_check(out: dict) -> list:
    return checks.single_run_problems(out["dir"] / "train", out["dir"] / "certify", out["rc"])


def _single_c01(inputs: Path) -> list:
    ops = []
    for s in C01_SEEDS:
        config = _write_yaml({
            "generator": {"kind": "random", "n": 10, "d": 3, "seed": 1000 + s},
            "arch": "single", "m": 11, "seed": s, "grad_tol": 1e-7, "max_iter": 200_000,
        }, inputs / f"c01-{s}.yaml")
        ops.append(Operation(f"c01-{s}", partial(_c01_run, config), _c01_check,
                             _dir_digest))
    return ops


# ---------------------------------------------------------------------------
# deep-descent and deep-kink: the c09 configuration through the library API

def _deep_run(seed: int, ds, stall_tries: int | None, out: Path) -> dict:
    lam0 = optimize.estimate_lambda0(ds, objective.logistic(), seed=seed)
    cfg = objective.ObjectiveConfig(
        objective.logistic(), optimize.sample_lambda(25, lam0, seed=seed), lam_c=1.0
    )
    opts = optimize.TrainOptions(grad_tol=1e-8, max_iter=200_000, seed=seed)
    if stall_tries is not None:
        opts.max_stall_escapes = stall_tries
    net0 = optimize.init_deep(4, 2, 2, 25, seed=seed, slope=0.1)
    net, traj = optimize.train(net0, ds, cfg, opts)
    result = {"net": net, "rows": list(traj.rows), "X": ds.X, "y": ds.y,
              "lam": cfg.lam, "lam_c": cfg.lam_c}
    if stall_tries is None:
        balance = landscape.deep_balance_check(net, cfg, tol=1e-4)
        result.update(
            verdict=landscape.certify(net, ds, cfg).verdict,
            balance_passed=balance.passed,
            balance_case=balance.case,
            injective=landscape.hidden_injectivity_check(net, ds)[0],
        )
    return result


def _deep_digest(out: dict) -> str:
    h = hashlib.sha256(checks.Params.from_net(out["net"]).flat().tobytes())
    h.update(repr(out["rows"]).encode())
    return h.hexdigest()


def _deep(seeds, stall_tries) -> list:
    ops = []
    for s in seeds:
        ds = datasets.gen_random(3, 4, seed=2000 + s)
        check = partial(checks.deep_run_problems, converged=stall_tries is None)
        ops.append(Operation(f"c09-{s}", partial(_deep_run, s, ds, stall_tries), check,
                             _deep_digest))
    return ops


# ---------------------------------------------------------------------------
# landscape-mc: Monte-Carlo probes and the bad-minimum construction

def _cli_run(argv, out: Path) -> dict:
    return {"dir": out, "rc": call_cli([*argv, "--out", out])}


def _landscape_mc(inputs: Path, seed: int) -> list:
    ops = []
    for n, m, trials in LEMMA2_SIZES:
        config = _write_yaml({"n": n, "d": 3, "m": m}, inputs / f"lemma2-n{n}-m{m}.yaml")
        argv = ["probe", "lemma2", "--config", config, "--trials", trials, "--seed", seed]
        check = lambda out, m=m, n=n: checks.lemma2_problems(out["dir"], out["rc"], m, n)
        if m == n:
            # The closed form needs the probe's data and coefficients; they
            # are inputs, so they are drawn here, outside the timed work.
            X = datasets.gen_random(n, 3, seed=seed).X
            lam = optimize.sample_lambda(m, 1e-2, seed=seed)
            check = lambda out, c=check, X=X, lam=lam: (
                c(out) + checks.square_case_problems(out["dir"], X, lam))
        ops.append(Operation(f"lemma2-n{n}-m{m}", partial(_cli_run, argv), check,
                             _dir_digest))
    argv = ["probe", "coercivity", "--trials", COERCIVITY_TRIALS, "--seed", seed]
    ops.append(Operation(
        "coercivity", partial(_cli_run, argv),
        lambda out: checks.coercivity_problems(out["dir"], out["rc"], COERCIVITY_TRIALS),
        _dir_digest))
    ce = COUNTEREXAMPLE
    argv = ["counterexample", "--n", ce["n"], "--m", ce["m"], "--mode", "generalized",
            "--trials", ce["trials"], "--seed", seed]
    ops.append(Operation(
        "counterexample", partial(_cli_run, argv),
        lambda out: checks.counterexample_problems(out["dir"], out["rc"]),
        _dir_digest))
    return ops


def build(name: str, seed: int, inputs: Path) -> list:
    """The workload's operations, with every input made and written."""
    inputs.mkdir(parents=True, exist_ok=True)
    if name == "single-c01":
        return _single_c01(inputs)
    if name == "deep-descent":
        return _deep(C09_CONVERGING, None)
    if name == "deep-kink":
        return _deep(KINK_SEEDS, KINK_STALL_TRIES)
    if name == "landscape-mc":
        return _landscape_mc(inputs, seed)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
