"""Experiment harness: every operation as a reproducible command.

Commands: train, certify, probe, counterexample, demo-path, sweep.  Each
takes an optional YAML config (nested key-value); command-line flags
override config values.  Every artifact directory receives the exact
resolved config next to the outputs, and nothing written depends on wall
time, so re-running a config reproduces its artifacts bit for bit.

Exit codes are a stable contract for CI: 0 when the run certifies or the
probe passes, 2 when a certificate or probed property fails, 1 on usage
or I/O errors.  A library ValueError is a usage error only where it rejects
a value the user supplied; elsewhere it is a defect and shows its traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import sys
from pathlib import Path

import numpy as np
import yaml

from .constructions import build_bad_local_min
from .datasets import gen_mutually_repelling, gen_quadratically_separable, gen_random, load_csv, save_csv
from .landscape import (
    MC_BLOCK,
    CertificateContradiction,
    NotCriticalError,
    certificate_matrices_zA,
    certificate_matrix_adversarial,
    certificate_matrix_monte_carlo,
    certify,
    hidden_injectivity_check,
    overdetermined_no_solution,
    perturbation_stability,
    write_json,
)
from .models import DeepConvNet, load_net, save_net
from .numkit import conv_matrix, frobenius, min_singular_value, min_singular_values, row_dots, sym_eigvals
from .objective import (
    FlatObjective,
    ObjectiveConfig,
    coercivity_lower_bound,
    gradient,
    logistic,
    smooth_hinge,
    training_error,
)
from .optimize import (
    TrainOptions,
    decreasing_path_demo,
    estimate_lambda0,
    init_deep,
    init_single,
    sample_lambda,
    save_path_csv,
    train,
)


class UsageError(Exception):
    """Bad arguments, configs, or input files; mapped to exit code 1."""


@contextlib.contextmanager
def _user_input():
    """Library checks on values the user supplied report as usage errors."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from None


# ---------------------------------------------------------------------------
# config plumbing

TRAIN_DEFAULTS = {
    "dataset": None,  # CSV path; exclusive with generator
    "generator": None,  # {"kind": random|quadratic|repelling, ...}
    "arch": "single",  # single | deep
    "m": 11,
    "s": 2,  # deep only: filter size,
    "l": 2,  # number of layers (l-1 convolutions),
    "slope": 0.1,  # and leaky slope
    "loss": "logistic",  # logistic | hinge
    "hinge_p": 3,
    "lambda0": "auto",  # scale for sampled coefficients; "auto" estimates it
    "lam": None,  # explicit coefficient list wins over lambda0
    "lam_c": 0.0,
    "seed": 0,  # initialization, coefficient sampling, and trainer
    "init_checkpoint": None,  # warm start from a saved network
    "grad_tol": 1e-7,
    "max_iter": 200_000,
    "certify_tol": None,  # default 0.1 * min(lam)
    "certify_grad_tol": 1e-5,
}

GENERATOR_KEYS = {
    "random": {"kind", "n", "d", "seed"},
    "quadratic": {"kind", "n", "d", "seed"},
    "repelling": {"kind", "n", "num_positive", "mode", "d"},
}

PROBE_DEFAULTS = {
    "coercivity": {
        "trials": 1000, "seed": 0, "n": 10, "d": 3, "m": 11,
        "lambda0": 1e-2, "loss": "logistic", "hinge_p": 3,
        "norm_max": 1e3, "slack": 1e-9,
    },
    "lemma2": {
        "trials": 1000, "seed": 0, "n": 5, "d": 3, "m": 6,
        "lambda0": 1e-2, "adversarial": True,
    },
    "lidskii": {"trials": 10_000, "seed": 0, "d_max": 20, "slack": 1e-10},
    "overdetermined": {"trials": 200, "seed": 0, "n": 5, "m": 6, "floor": 1e-10},
    "conv-rank": {"trials": 1000, "seed": 0, "s_max": 8, "dz_max": 32},
    "injectivity": {
        "trials": 100, "seed": 0, "n": 5, "d": 4, "s": 2, "l": 2,
        "m": 25, "slope": 0.1,
    },
}

COUNTEREXAMPLE_DEFAULTS = {
    "n": 4, "m": 2, "seed": 0, "mode": "auto", "d": None,
    "lam": None,  # default: uniform draws inside (0.05, 0.45)
    "trials": 1000, "radius": 1e-3,
}

DEMO_PATH_DEFAULTS = {"num_steps": 10_000, "lam": 0.1}

SWEEP_DEFAULTS = {
    "n_values": [10],
    "m_values": None,  # default grid per n: m in {n-2, ..., n+3}
    "seeds": [0],
    "d": 3,
    "loss": "logistic",
    "hinge_p": 3,
    "lambda0": "auto",
    "grad_tol": 1e-7,
    "max_iter": 200_000,
}


def _load_config_file(path) -> dict:
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}") from None
    except yaml.YAMLError as exc:
        raise UsageError(f"{path}: invalid YAML: {exc}") from None
    if doc is None:
        return {}
    if not isinstance(doc, dict):
        raise UsageError(f"{path}: config must be a mapping")
    return doc


def _merge_config(defaults: dict, args, flag_keys) -> dict:
    """defaults <- config file <- explicitly given flags, rejecting unknowns."""
    cfg = dict(defaults)
    file_cfg = _load_config_file(args.config) if getattr(args, "config", None) else {}
    for key, value in file_cfg.items():
        if key not in defaults:
            raise UsageError(f"unknown config key {key!r}")
        cfg[key] = value
    for key in flag_keys:
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            cfg[key] = value
    return cfg


def _prepare_outdir(path) -> Path:
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory: {exc}") from None
    return out


def _write_yaml(doc: dict, path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=True, default_flow_style=False)


def _make_loss(cfg: dict):
    kind = cfg.get("loss", "logistic")
    if kind == "logistic":
        return logistic()
    if kind == "hinge":
        return smooth_hinge(int(cfg.get("hinge_p", 3)))
    raise UsageError(f"unknown loss {kind!r} (expected logistic or hinge)")


def _build_dataset(cfg: dict):
    """Load or generate the dataset; normalizes cfg["generator"] in place so
    the resolved config written next to the artifacts fully pins the data."""
    if cfg.get("dataset"):
        try:
            return load_csv(cfg["dataset"])
        except OSError as exc:
            raise UsageError(f"cannot read dataset: {exc}") from None
    gen = dict(cfg.get("generator") or {"kind": "random"})
    kind = gen.setdefault("kind", "random")
    if kind not in GENERATOR_KEYS:
        raise UsageError(f"unknown generator kind {kind!r}")
    unknown = set(gen) - GENERATOR_KEYS[kind]
    if unknown:
        raise UsageError(f"generator keys {sorted(unknown)} not valid for kind {kind!r}")
    if kind == "random":
        gen = {"kind": kind, "n": int(gen.get("n", 10)), "d": int(gen.get("d", 3)),
               "seed": int(gen.get("seed", 0))}
        ds = gen_random(gen["n"], gen["d"], seed=gen["seed"])
    elif kind == "quadratic":
        gen = {"kind": kind, "n": int(gen.get("n", 10)), "d": int(gen.get("d", 3)),
               "seed": int(gen.get("seed", 0))}
        ds, _ = gen_quadratically_separable(gen["n"], gen["d"], seed=gen["seed"])
    else:
        d = gen.get("d")
        gen = {"kind": kind, "n": int(gen.get("n", 4)),
               "num_positive": int(gen.get("num_positive", 1)),
               "mode": gen.get("mode", "auto"), "d": None if d is None else int(d)}
        ds = gen_mutually_repelling(
            gen["n"], num_positive=gen["num_positive"], mode=gen["mode"], d=gen["d"]
        )
    cfg["generator"] = gen
    return ds


def _check_trials(cfg: dict) -> None:
    """A Monte-Carlo check over no trials would pass vacuously."""
    with _user_input():
        trials = int(cfg["trials"])
    if trials < 1:
        raise UsageError(f"--trials must be at least 1, got {cfg['trials']}")


def _check_input_dim(net, ds) -> None:
    if (net.input_dim if isinstance(net, DeepConvNet) else net.d) != ds.d:
        raise UsageError(f"the network's input length does not match the dataset's d={ds.d}")


def _resolve_coefficients(cfg: dict, ds, loss, m: int):
    """Returns (lambda0 or None, lam array); explicit lam wins over lambda0."""
    if cfg.get("lam") is not None:
        lam = np.asarray(cfg["lam"], dtype=float)
        if lam.shape != (m,):
            raise UsageError(f"lam must list {m} coefficients, got {lam.size}")
        return None, lam
    lambda0 = cfg.get("lambda0", "auto")
    if lambda0 == "auto":
        lambda0 = estimate_lambda0(ds, loss, seed=int(cfg.get("seed", 0)))
    lambda0 = float(lambda0)
    return lambda0, sample_lambda(m, lambda0, seed=int(cfg.get("seed", 0)))


# ---------------------------------------------------------------------------
# commands

def cmd_train(args) -> int:
    cfg = _merge_config(
        TRAIN_DEFAULTS, args,
        ["dataset", "arch", "m", "seed", "lambda0", "lam_c", "grad_tol",
         "max_iter", "init_checkpoint", "loss"],
    )
    out = _prepare_outdir(args.out)
    with _user_input():
        ds = _build_dataset(cfg)
        loss = _make_loss(cfg)
        m = int(cfg["m"])
        lambda0, lam = _resolve_coefficients(cfg, ds, loss, m)
        ocfg = ObjectiveConfig(loss=loss, lam=lam, lam_c=float(cfg["lam_c"]))

        if cfg["init_checkpoint"]:
            net0 = load_net(cfg["init_checkpoint"])
        elif cfg["arch"] == "single":
            net0 = init_single(m, ds.d, seed=int(cfg["seed"]))
        elif cfg["arch"] == "deep":
            net0 = init_deep(
                ds.d, int(cfg["s"]), int(cfg["l"]), m,
                seed=int(cfg["seed"]), slope=float(cfg["slope"]),
            )
        else:
            raise UsageError(f"unknown arch {cfg['arch']!r} (expected single or deep)")

        ocfg.check_m(net0)
        _check_input_dim(net0, ds)
        opts = TrainOptions(
            grad_tol=float(cfg["grad_tol"]), max_iter=int(cfg["max_iter"]), seed=int(cfg["seed"])
        )
        certify_grad_tol = float(cfg["certify_grad_tol"])
    net, traj = train(net0, ds, ocfg, opts)

    resolved = dict(cfg)
    resolved["lam"] = [float(v) for v in lam]
    if lambda0 is not None:  # explicit lam leaves the configured value alone
        resolved["lambda0"] = lambda0
    _write_yaml(resolved, out / "config.yaml")
    save_csv(ds, out / "dataset.csv")
    traj.save_csv(out / "trajectory.csv")
    save_net(net, out / "checkpoint.json")

    head = f"train: {traj.status} after {traj.n_iter} iterations;"
    try:
        report = certify(net, ds, ocfg, tol=cfg["certify_tol"], grad_tol=certify_grad_tol)
    except (NotCriticalError, CertificateContradiction) as exc:
        verdict = "not-critical" if isinstance(exc, NotCriticalError) else "contradiction"
        write_json(
            {"verdict": verdict, "detail": str(exc), "terminal_status": traj.status,
             "training_error": training_error(net, ds)},
            out / "report.json",
        )
        print(f"{head} {verdict}: {exc}")
        return 2
    report.save(out / "report.json")
    print(f"{head} {report.one_line()}")
    return 0 if report.verdict == "ok" else 2


def cmd_certify(args) -> int:
    cfg = _merge_config(
        TRAIN_DEFAULTS, args,
        ["dataset", "seed", "lambda0", "lam_c", "certify_tol", "certify_grad_tol", "loss"],
    )
    with _user_input():
        net = load_net(args.checkpoint)
        if cfg["dataset"] is None and cfg["generator"] is None:
            raise UsageError("certify needs --dataset or a generator in the config")
        ds = _build_dataset(cfg)
        loss = _make_loss(cfg)
        _, lam = _resolve_coefficients(cfg, ds, loss, net.m)
        ocfg = ObjectiveConfig(loss=loss, lam=lam, lam_c=float(cfg["lam_c"]))
        _check_input_dim(net, ds)
        certify_grad_tol = float(cfg["certify_grad_tol"])

    out = _prepare_outdir(args.out) if args.out else None
    try:
        report = certify(net, ds, ocfg, tol=cfg["certify_tol"], grad_tol=certify_grad_tol)
    except (NotCriticalError, CertificateContradiction) as exc:
        verdict = "not-critical" if isinstance(exc, NotCriticalError) else "contradiction"
        if out:
            _write_yaml(dict(cfg), out / "config.yaml")
            write_json({"verdict": verdict, "detail": str(exc)}, out / "report.json")
        print(f"certify: {verdict}: {exc}")
        return 2
    if out:
        resolved = dict(cfg)
        resolved["lam"] = [float(v) for v in lam]
        _write_yaml(resolved, out / "config.yaml")
        report.save(out / "report.json")
    print(f"certify: {report.one_line()}")
    return 0 if report.verdict == "ok" else 2


def _probe_coercivity(cfg: dict) -> dict:
    """Count sampled single-layer points whose objective falls below the
    cubic coercivity floor, at log-uniform norms in [1e-2, norm_max].

    Block b of MC_BLOCK trials draws from SeedSequence((seed, b)), always
    whole: directions u from standard_normal((MC_BLOCK, size)), then the
    radii's exponents from uniform(-2, log10(norm_max), MC_BLOCK).  The block
    size thus fixes the report, and fewer trials give a prefix of more.
    Each block is evaluated as one stack at radius * u / ||u||; the floor,
    the worst margin and the violations are taken in trial order.
    """
    with _user_input():
        seed = int(cfg["seed"])
        ds = gen_random(int(cfg["n"]), int(cfg["d"]), seed=seed)
        loss = _make_loss(cfg)
        m = int(cfg["m"])
        lam = sample_lambda(m, float(cfg["lambda0"]), seed=seed)
        ocfg = ObjectiveConfig(loss=loss, lam=lam)
        fob = FlatObjective(init_single(m, ds.d, seed=0), ds, ocfg)
        slack = float(cfg["slack"])
        log_max = np.log10(float(cfg["norm_max"]))
    size = fob.layout.size
    lam_min = float(np.min(lam))
    trials = int(cfg["trials"])
    worst = np.inf
    violations = 0
    for b, start in enumerate(range(0, trials, MC_BLOCK)):
        rng = np.random.default_rng(np.random.SeedSequence((seed, b)))
        U = rng.standard_normal((MC_BLOCK, size))[: trials - start]
        # Python-float powers: numpy's vectorized power differs in the last bit.
        radii = [10.0 ** x for x in rng.uniform(-2.0, log_max, MC_BLOCK)[: len(U)].tolist()]
        thetas = np.array(radii)[:, None] * U / np.sqrt(row_dots(U))[:, None]
        for radius, value in zip(radii, fob.values(thetas)):
            floor = coercivity_lower_bound(radius, lam_min, m)
            worst = min(worst, value - floor)
            if value < floor - slack * (1.0 + abs(floor)):
                violations += 1
    return {"violations": violations, "worst_margin": float(worst), "pass": violations == 0}


def _probe_lemma2(cfg: dict) -> dict:
    with _user_input():
        ds = gen_random(int(cfg["n"]), int(cfg["d"]), seed=int(cfg["seed"]))
        m = int(cfg["m"])
        lam = sample_lambda(m, float(cfg["lambda0"]), seed=int(cfg["seed"]))
    minmax = certificate_matrix_monte_carlo(
        ds, m, lam, trials=int(cfg["trials"]), seed=int(cfg["seed"])
    )
    result = {"min_max_sigma": float(minmax), "pass": minmax > 0.0}
    if cfg["adversarial"] and m == ds.n:
        z, A = certificate_matrix_adversarial(ds, lam)
        sigma = min_singular_values(certificate_matrices_zA(ds, z, A, lam))
        result["adversarial_max_sigma"] = float(np.max(sigma))
    return result


def _probe_lidskii(cfg: dict) -> dict:
    with _user_input():
        rng = np.random.default_rng(int(cfg["seed"]))
        slack = float(cfg["slack"])
        d_max = int(cfg["d_max"])
    worst = -np.inf
    violations = 0
    for _ in range(int(cfg["trials"])):
        with _user_input():  # the size bound comes from the config
            d = int(rng.integers(1, d_max + 1))
        A = rng.standard_normal((d, d))
        B = rng.standard_normal((d, d))
        A = 0.5 * (A + A.T)
        B = 0.5 * (B + B.T)
        gap = float(np.linalg.norm(sym_eigvals(A) - sym_eigvals(B))) - frobenius(A - B)
        worst = max(worst, gap)
        if gap > slack:
            violations += 1
    return {"violations": violations, "worst_gap": float(worst), "pass": violations == 0}


def _probe_overdetermined(cfg: dict) -> dict:
    with _user_input():
        n, m = int(cfg["n"]), int(cfg["m"])
        rng = np.random.default_rng(int(cfg["seed"]))
        floor = float(cfg["floor"])
    if m < n + 1:
        raise UsageError(f"overdetermined probe needs m >= n+1, got n={n} m={m}")
    smallest = np.inf
    for _ in range(int(cfg["trials"])):
        A = rng.standard_normal((n, m))
        # lam comes from the same stream as A, after it: reusing the seed for
        # a fresh generator would hand back A's own first row as lam.
        smallest = min(smallest, overdetermined_no_solution(A, lam=rng.standard_normal(m)))
    return {"min_residual": float(smallest), "pass": smallest > floor}


def _probe_conv_rank(cfg: dict) -> dict:
    with _user_input():
        rng = np.random.default_rng(int(cfg["seed"]))
        s_max, dz_max = int(cfg["s_max"]), int(cfg["dz_max"])
    smallest = np.inf
    for _ in range(int(cfg["trials"])):
        with _user_input():  # the size bounds come from the config
            s = int(rng.integers(1, s_max + 1))
            d_z = int(rng.integers(1, dz_max + 1))
        v = rng.standard_normal(s)
        smallest = min(smallest, min_singular_value(conv_matrix(v, d_z)))
    return {"min_sigma": float(smallest), "pass": smallest > 0.0}


def _probe_injectivity(cfg: dict) -> dict:
    failures = 0
    for t in range(int(cfg["trials"])):
        with _user_input():  # each trial builds its net and data from the config
            net = init_deep(
                int(cfg["d"]), int(cfg["s"]), int(cfg["l"]), int(cfg["m"]),
                seed=int(cfg["seed"]) + t, slope=float(cfg["slope"]),
            )
            ds = gen_random(int(cfg["n"]), int(cfg["d"]), seed=int(cfg["seed"]) + t)
        ok, _ = hidden_injectivity_check(net, ds)
        if not ok:
            failures += 1
    return {"failures": failures, "pass": failures == 0}


PROBE_RUNNERS = {
    "coercivity": _probe_coercivity,
    "lemma2": _probe_lemma2,
    "lidskii": _probe_lidskii,
    "overdetermined": _probe_overdetermined,
    "conv-rank": _probe_conv_rank,
    "injectivity": _probe_injectivity,
}


def cmd_probe(args) -> int:
    defaults = PROBE_DEFAULTS[args.kind]
    cfg = _merge_config(defaults, args, ["trials", "seed"])
    _check_trials(cfg)
    result = PROBE_RUNNERS[args.kind](cfg)
    report = {"kind": args.kind, **{k: cfg[k] for k in sorted(cfg)}, **result}
    if args.out:
        out = _prepare_outdir(args.out)
        _write_yaml(dict(cfg), out / "config.yaml")
        write_json(report, out / "report.json")
    stats = " ".join(
        f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
        for k, v in result.items() if k != "pass"
    )
    print(f"probe {args.kind}: {'PASS' if result['pass'] else 'FAIL'} {stats}")
    return 0 if result["pass"] else 2


def cmd_counterexample(args) -> int:
    cfg = _merge_config(
        COUNTEREXAMPLE_DEFAULTS, args, ["n", "m", "seed", "mode", "trials", "radius"]
    )
    _check_trials(cfg)
    out = _prepare_outdir(args.out)
    with _user_input():
        n, m = int(cfg["n"]), int(cfg["m"])
        if cfg["lam"] is not None:
            lam = np.asarray(cfg["lam"], dtype=float)
        else:
            lam = np.random.default_rng(int(cfg["seed"])).uniform(0.05, 0.45, size=m)
        ds, net, ocfg = build_bad_local_min(
            n, m, lam, seed=int(cfg["seed"]), mode=cfg["mode"],
            d=None if cfg["d"] is None else int(cfg["d"]),
        )
        radius, trials, seed = float(cfg["radius"]), int(cfg["trials"]), int(cfg["seed"])

    err = training_error(net, ds)
    expected = 1.0 - m / n
    gn = float(np.linalg.norm(gradient(net, ds, ocfg)))
    min_delta = perturbation_stability(net, ds, ocfg, radius=radius, trials=trials, seed=seed)
    ok = gn < 1e-6 and abs(err - expected) < 1e-12 and min_delta >= 0.0

    resolved = dict(cfg)
    resolved["lam"] = [float(v) for v in lam]
    _write_yaml(resolved, out / "config.yaml")
    save_csv(ds, out / "dataset.csv")
    save_net(net, out / "checkpoint.json")
    write_json(
        {"n": n, "m": m, "lam": [float(v) for v in lam], "training_error": err,
         "expected_error": expected, "grad_norm": gn, "min_loss_delta": float(min_delta),
         "trials": trials, "radius": radius, "pass": ok},
        out / "report.json",
    )
    print(
        f"counterexample: {'PASS' if ok else 'FAIL'} error={err:.4f} "
        f"(expected {expected:.4f}) grad={gn:.3e} min_loss_delta={min_delta:.3e}"
    )
    return 0 if ok else 2


def cmd_demo_path(args) -> int:
    cfg = _merge_config(DEMO_PATH_DEFAULTS, args, ["num_steps", "lam"])
    out = _prepare_outdir(args.out)
    with _user_input():
        table = decreasing_path_demo(int(cfg["num_steps"]), lam=float(cfg["lam"]))
    _write_yaml(dict(cfg), out / "config.yaml")
    save_path_csv(table, out / "path.csv")
    ok = bool(np.all(np.diff(table["loss"]) < 0.0)) and bool(
        np.all(table["reg_loss"] >= table["floor"])
    )
    print(
        f"demo-path: {'PASS' if ok else 'FAIL'} k={int(table['k'][-1])} "
        f"loss={table['loss'][-1]:.6f} norm={table['param_norm'][-1]:.2f} "
        f"reg_loss={table['reg_loss'][-1]:.6g}"
    )
    return 0 if ok else 2


def _sweep_cell(n: int, m: int, seed: int, cfg: dict):
    with _user_input():
        loss = _make_loss(cfg)
        ds = gen_random(n, int(cfg["d"]), seed=seed)
        lambda0 = cfg["lambda0"]
        if lambda0 == "auto":
            lambda0 = estimate_lambda0(ds, loss, seed=seed)
        lam = sample_lambda(m, float(lambda0), seed=seed)
        ocfg = ObjectiveConfig(loss=loss, lam=lam)
        opts = TrainOptions(grad_tol=float(cfg["grad_tol"]), max_iter=int(cfg["max_iter"]),
                            seed=seed)
    net, _ = train(init_single(m, ds.d, seed=seed), ds, ocfg, opts)
    err = training_error(net, ds)
    try:
        certified = int(certify(net, ds, ocfg).verdict == "ok")
    except (NotCriticalError, CertificateContradiction):
        certified = 0
    return m, n, seed, float(lambda0), err, certified


def cmd_sweep(args) -> int:
    cfg = _merge_config(SWEEP_DEFAULTS, args, ["d", "grad_tol", "max_iter"])
    if args.n is not None:
        cfg["n_values"] = [int(args.n)]
    if args.m_values is not None:
        cfg["m_values"] = _parse_int_list(args.m_values)
    if args.seeds is not None:
        cfg["seeds"] = _parse_int_list(args.seeds)
    out = _prepare_outdir(args.out)

    cells = []
    for n in cfg["n_values"]:
        ms = cfg["m_values"] if cfg["m_values"] is not None else range(n - 2, n + 4)
        for m in ms:
            for seed in cfg["seeds"]:
                cells.append((int(n), int(m), int(seed)))

    rows = [_sweep_cell(*c, cfg) for c in cells]
    rows.sort(key=lambda r: (r[1], r[0], r[2]))

    resolved = dict(cfg)
    resolved["n_values"] = [int(v) for v in cfg["n_values"]]
    resolved["m_values"] = None if cfg["m_values"] is None else [int(v) for v in cfg["m_values"]]
    resolved["seeds"] = [int(v) for v in cfg["seeds"]]
    _write_yaml(resolved, out / "config.yaml")
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "n", "seed", "lambda0", "error", "certified"])
        for m, n, seed, lambda0, err, certified in rows:
            writer.writerow([m, n, seed, f"{lambda0:.17g}", f"{err:.17g}", certified])
    print(f"sweep: wrote {len(rows)} rows to {out / 'sweep.csv'}")
    return 0


# ---------------------------------------------------------------------------
# parser

def _parse_int_list(text: str):
    try:
        return [int(part) for part in str(text).split(",") if part.strip() != ""]
    except ValueError:
        raise UsageError(f"expected a comma-separated integer list, got {text!r}") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1 here
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> _Parser:
    """The one parser of the process: parse_args keeps no state between calls."""
    parser = _Parser(prog="requland", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", parents=[], help="train a network and certify the terminal point")
    p.add_argument("--config", help="YAML config; flags override its values")
    p.add_argument("--out", required=True, help="artifact directory")
    p.add_argument("--dataset", help="dataset CSV (default: generator from config)")
    p.add_argument("--arch", choices=["single", "deep"])
    p.add_argument("--m", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--loss", choices=["logistic", "hinge"])
    p.add_argument("--lambda0", help='coefficient scale, or "auto"')
    p.add_argument("--lam-c", type=float, dest="lam_c")
    p.add_argument("--grad-tol", type=float, dest="grad_tol")
    p.add_argument("--max-iter", type=int, dest="max_iter")
    p.add_argument("--init-checkpoint", dest="init_checkpoint", help="warm-start network")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("certify", help="audit a checkpoint against a dataset")
    p.add_argument("--config")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset")
    p.add_argument("--out", help="optional artifact directory")
    p.add_argument("--seed", type=int)
    p.add_argument("--loss", choices=["logistic", "hinge"])
    p.add_argument("--lambda0")
    p.add_argument("--lam-c", type=float, dest="lam_c")
    p.add_argument("--certify-tol", type=float, dest="certify_tol")
    p.add_argument("--certify-grad-tol", type=float, dest="certify_grad_tol")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("probe", help="aggregate randomized checks of one landscape property")
    p.add_argument("kind", choices=sorted(PROBE_RUNNERS))
    p.add_argument("--config")
    p.add_argument("--out")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("counterexample", help="build and verify a bad local minimum")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--mode", choices=["auto", "exact", "generalized"])
    p.add_argument("--trials", type=int)
    p.add_argument("--radius", type=float)
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("demo-path", help="tabulate the decreasing path to infinity")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--num-steps", type=int, dest="num_steps")
    p.add_argument("--lam", type=float)
    p.set_defaults(func=cmd_demo_path)

    p = sub.add_parser("sweep", help="phase diagram over (m, n, seed) cells")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, help="single dataset size (overrides n_values)")
    p.add_argument("--m-values", dest="m_values", help="comma-separated widths")
    p.add_argument("--seeds", help="comma-separated seeds")
    p.add_argument("--d", type=int)
    p.add_argument("--grad-tol", type=float, dest="grad_tol")
    p.add_argument("--max-iter", type=int, dest="max_iter")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UsageError, OSError) as exc:
        print(f"requland: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
