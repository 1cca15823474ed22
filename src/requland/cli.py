"""Experiment harness: every operation as a reproducible command.

Commands: train, certify, probe, counterexample, demo-path, sweep.  Each
takes an optional YAML config (nested key-value); a command-line flag
overrides the config key named by its dest.  A value takes the type of its
key's default (a generator's keys, of their kind's defaults), and null is
allowed only where the default is null; a value that does not convert is a
usage error naming its key, raised before any artifact directory exists.
Every artifact directory receives the exact resolved config next to the
outputs, and nothing written depends on wall time, so re-running a config
reproduces its artifacts bit for bit.

Exit codes are a stable contract for CI: 0 when the run certifies or the
probe passes, 2 when a certificate or probed property fails, 1 on usage
or I/O errors, 3 on a defect.  A library ValueError is a usage error only
where it rejects a value the user supplied; elsewhere it is a defect: main
lets it propagate, and the process entry point prints its traceback and
exits 3.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
import traceback
from pathlib import Path

import numpy as np
import yaml

from .constructions import build_bad_local_min
from .datasets import gen_mutually_repelling, gen_quadratically_separable, gen_random, load_csv, save_csv, write_csv
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
from .models import load_net, save_net
from .numkit import conv_matrix, frobenius, min_singular_value, row_dots, sym_eigvals, sym_min_singular_values
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


# libyaml's loader and dumper where PyYAML was built with it: the same
# documents and the same text, about a seventh of the time per config.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_YAML_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


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
# config plumbing: each value is converted once, by the type of its default

def _exact(kind):
    def check(value):
        if not isinstance(value, kind):
            raise ValueError(f"expected a {kind.__name__}, got {value!r}")
        return value
    return check


def _int(value) -> int:
    """int() would truncate 2.7 to 2 and read true as 1; the run would not
    match its config."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _float(value) -> float:
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _list_of(convert):
    return lambda value: [convert(v) for v in _exact(list)(value)]


_str = _exact(str)
BY_DEFAULT_TYPE = {int: _int, float: _float, bool: _exact(bool), str: _str, list: _list_of(_int)}

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

GENERATOR_DEFAULTS = {
    "random": {"kind": "random", "n": 10, "d": 3, "seed": 0},
    "quadratic": {"kind": "quadratic", "n": 10, "d": 3, "seed": 0},
    "repelling": {"kind": "repelling", "n": 4, "num_positive": 1, "mode": "auto", "d": None},
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
            doc = yaml.load(fh, Loader=_YAML_LOADER)
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}") from None
    except yaml.YAMLError as exc:
        raise UsageError(f"{path}: invalid YAML: {exc}") from None
    if doc is None:
        return {}
    if not isinstance(doc, dict):
        raise UsageError(f"{path}: config must be a mapping")
    return doc


def _generator(value) -> dict:
    """A generator mapping, typed and completed from its kind's defaults."""
    kind = _str(_exact(dict)(value).get("kind", "random"))
    if kind not in GENERATOR_DEFAULTS:
        raise ValueError(f"unknown kind {kind!r} (expected {', '.join(GENERATOR_DEFAULTS)})")
    return _typed(GENERATOR_DEFAULTS[kind], value, "generator.")


UNTYPED = {  # the keys whose default (None or "auto") does not give their type
    "dataset": _str, "init_checkpoint": _str, "mode": _str, "generator": _generator,
    "certify_tol": _float, "d": _int, "lam": _list_of(_float), "m_values": _list_of(_int),
    "lambda0": lambda value: value if value == "auto" else _float(value),
}


def _typed(defaults: dict, doc: dict, prefix: str = "") -> dict:
    """defaults overridden by doc, each given value converted by the type of
    its default; null is kept only where the default is null.  An unknown
    key or a value that does not convert is a UsageError naming the key."""
    cfg = dict(defaults)
    for key, value in doc.items():
        if key not in defaults:
            raise UsageError(f"unknown config key {prefix + str(key)!r}")
        default = defaults[key]
        if value is None and default is None:
            continue
        try:
            convert = UNTYPED[key] if default in (None, "auto") else BY_DEFAULT_TYPE[type(default)]
            cfg[key] = convert(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise UsageError(f"config key {prefix}{key}: {exc}") from None
    return cfg


def _merge_config(defaults: dict, args) -> dict:
    """defaults <- config file <- explicitly given flags, typed by _typed
    before any command creates its artifact directory.  A flag whose dest is
    a config key overrides that key."""
    doc = _load_config_file(args.config) if args.config else {}
    doc.update((k, v) for k, v in vars(args).items() if k in defaults and v is not None)
    cfg = _typed(defaults, doc)
    if cfg.get("trials", 1) < 1:  # a Monte-Carlo check over no trials passes vacuously
        raise UsageError(f"--trials must be at least 1, got {cfg['trials']}")
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
        yaml.dump(doc, fh, Dumper=_YAML_DUMPER, sort_keys=True, default_flow_style=False)


def _make_loss(cfg: dict):
    if cfg["loss"] == "logistic":
        return logistic()
    if cfg["loss"] == "hinge":
        return smooth_hinge(cfg["hinge_p"])
    raise UsageError(f"unknown loss {cfg['loss']!r} (expected logistic or hinge)")


def _build_dataset(cfg: dict):
    """Load or generate the dataset; with neither given, sets cfg["generator"]
    to the default one so the resolved config written next to the artifacts
    fully pins the data."""
    if cfg["dataset"]:
        try:
            return load_csv(cfg["dataset"])
        except OSError as exc:
            raise UsageError(f"cannot read dataset: {exc}") from None
    gen = cfg["generator"] = cfg["generator"] or dict(GENERATOR_DEFAULTS["random"])
    if gen["kind"] == "repelling":
        return gen_mutually_repelling(
            gen["n"], num_positive=gen["num_positive"], mode=gen["mode"], d=gen["d"]
        )
    if gen["kind"] == "quadratic":
        return gen_quadratically_separable(gen["n"], gen["d"], seed=gen["seed"])[0]
    return gen_random(gen["n"], gen["d"], seed=gen["seed"])


def _check_input_dim(net, ds) -> None:
    if net.input_dim != ds.d:
        raise UsageError(f"the network's input length does not match the dataset's d={ds.d}")


def _resolve_coefficients(cfg: dict, ds, loss, m: int, seed: int):
    """Returns (lambda0 or None, lam array); explicit lam wins over lambda0."""
    if cfg.get("lam") is not None:
        lam = np.asarray(cfg["lam"], dtype=float)
        if lam.shape != (m,):
            raise UsageError(f"lam must list {m} coefficients, got {lam.size}")
        return None, lam
    lambda0 = cfg["lambda0"]
    if lambda0 == "auto":
        lambda0 = float(estimate_lambda0(ds, loss, seed=seed))
    return lambda0, sample_lambda(m, lambda0, seed=seed)


def _certify_and_report(net, ds, ocfg, cfg: dict, out, head: str, traj=None) -> int:
    """Certify net and print head with the outcome; given out, write there the
    resolved config (cfg with the coefficient list) and report.json, which for
    a failed certificate of a training run also says where the run ended."""
    if out:
        _write_yaml({**cfg, "lam": [float(v) for v in ocfg.lam]}, out / "config.yaml")
    try:
        report = certify(net, ds, ocfg, tol=cfg["certify_tol"], grad_tol=cfg["certify_grad_tol"])
    except (NotCriticalError, CertificateContradiction) as exc:
        verdict = "not-critical" if isinstance(exc, NotCriticalError) else "contradiction"
        if out:
            doc = {"verdict": verdict, "detail": str(exc)}
            if traj is not None:
                doc.update(terminal_status=traj.status, training_error=training_error(net, ds))
            write_json(doc, out / "report.json")
        print(f"{head} {verdict}: {exc}")
        return 2
    if out:
        report.save(out / "report.json")
    print(f"{head} {report.one_line()}")
    return 0 if report.verdict == "ok" else 2


# ---------------------------------------------------------------------------
# commands

def cmd_train(args) -> int:
    cfg = _merge_config(TRAIN_DEFAULTS, args)
    with _user_input():
        ds = _build_dataset(cfg)
        loss = _make_loss(cfg)
        m, seed = cfg["m"], cfg["seed"]
        lambda0, lam = _resolve_coefficients(cfg, ds, loss, m, seed)
        ocfg = ObjectiveConfig(loss=loss, lam=lam, lam_c=cfg["lam_c"])

        if cfg["init_checkpoint"]:
            net0 = load_net(cfg["init_checkpoint"])
        elif cfg["arch"] == "single":
            net0 = init_single(m, ds.d, seed=seed)
        elif cfg["arch"] == "deep":
            net0 = init_deep(ds.d, cfg["s"], cfg["l"], m, seed=seed, slope=cfg["slope"])
        else:
            raise UsageError(f"unknown arch {cfg['arch']!r} (expected single or deep)")

        ocfg.check_m(net0)
        _check_input_dim(net0, ds)
    out = _prepare_outdir(args.out)
    opts = TrainOptions(grad_tol=cfg["grad_tol"], max_iter=cfg["max_iter"], seed=seed)
    net, traj = train(net0, ds, ocfg, opts)

    save_csv(ds, out / "dataset.csv")
    traj.save_csv(out / "trajectory.csv")
    save_net(net, out / "checkpoint.json")
    if lambda0 is not None:  # explicit lam leaves the configured value alone
        cfg["lambda0"] = lambda0
    head = f"train: {traj.status} after {traj.n_iter} iterations;"
    return _certify_and_report(net, ds, ocfg, cfg, out, head, traj)


def cmd_certify(args) -> int:
    cfg = _merge_config(TRAIN_DEFAULTS, args)
    with _user_input():
        net = load_net(args.checkpoint)
        if cfg["dataset"] is None and cfg["generator"] is None:
            raise UsageError("certify needs --dataset or a generator in the config")
        ds = _build_dataset(cfg)
        loss = _make_loss(cfg)
        _, lam = _resolve_coefficients(cfg, ds, loss, net.m, cfg["seed"])
        ocfg = ObjectiveConfig(loss=loss, lam=lam, lam_c=cfg["lam_c"])
        _check_input_dim(net, ds)
    out = _prepare_outdir(args.out) if args.out else None
    return _certify_and_report(net, ds, ocfg, cfg, out, "certify:")


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
    seed, m, trials, slack = cfg["seed"], cfg["m"], cfg["trials"], cfg["slack"]
    if not (np.isfinite(cfg["norm_max"]) and cfg["norm_max"] > 1e-2):
        raise UsageError(f"config key norm_max: expected a finite norm above 1e-2, "
                         f"the smallest sampled one, got {cfg['norm_max']}")
    with _user_input():
        ds = gen_random(cfg["n"], cfg["d"], seed=seed)
        lam = sample_lambda(m, cfg["lambda0"], seed=seed)
        fob = FlatObjective(init_single(m, ds.d, seed=0), ds,
                            ObjectiveConfig(loss=_make_loss(cfg), lam=lam))
    log_max = np.log10(cfg["norm_max"])
    size = fob.layout.size
    lam_min = float(np.min(lam))
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
    m = cfg["m"]
    with _user_input():
        ds = gen_random(cfg["n"], cfg["d"], seed=cfg["seed"])
        lam = sample_lambda(m, cfg["lambda0"], seed=cfg["seed"])
    minmax = certificate_matrix_monte_carlo(ds, m, lam, trials=cfg["trials"], seed=cfg["seed"])
    result = {"min_max_sigma": float(minmax), "pass": minmax > 0.0}
    if cfg["adversarial"] and m == ds.n:
        z, A = certificate_matrix_adversarial(ds, lam)
        sigma = sym_min_singular_values(certificate_matrices_zA(ds, z, A, lam))
        result["adversarial_max_sigma"] = float(np.max(sigma))
    return result


def _probe_lidskii(cfg: dict) -> dict:
    with _user_input():
        rng = np.random.default_rng(cfg["seed"])
    worst = -np.inf
    violations = 0
    for _ in range(cfg["trials"]):
        with _user_input():  # the size bound comes from the config
            d = int(rng.integers(1, cfg["d_max"] + 1))
        A = rng.standard_normal((d, d))
        B = rng.standard_normal((d, d))
        A = 0.5 * (A + A.T)
        B = 0.5 * (B + B.T)
        gap = float(np.linalg.norm(sym_eigvals(A) - sym_eigvals(B))) - frobenius(A - B)
        worst = max(worst, gap)
        if gap > cfg["slack"]:
            violations += 1
    return {"violations": violations, "worst_gap": float(worst), "pass": violations == 0}


def _probe_overdetermined(cfg: dict) -> dict:
    n, m = cfg["n"], cfg["m"]
    if m < n + 1:
        raise UsageError(f"overdetermined probe needs m >= n+1, got n={n} m={m}")
    with _user_input():
        rng = np.random.default_rng(cfg["seed"])
    smallest = np.inf
    for _ in range(cfg["trials"]):
        A = rng.standard_normal((n, m))
        # lam comes from the same stream as A, after it: reusing the seed for
        # a fresh generator would hand back A's own first row as lam.
        smallest = min(smallest, overdetermined_no_solution(A, lam=rng.standard_normal(m)))
    return {"min_residual": float(smallest), "pass": smallest > cfg["floor"]}


def _probe_conv_rank(cfg: dict) -> dict:
    with _user_input():
        rng = np.random.default_rng(cfg["seed"])
    smallest = np.inf
    for _ in range(cfg["trials"]):
        with _user_input():  # the size bounds come from the config
            s = int(rng.integers(1, cfg["s_max"] + 1))
            d_z = int(rng.integers(1, cfg["dz_max"] + 1))
        v = rng.standard_normal(s)
        smallest = min(smallest, min_singular_value(conv_matrix(v, d_z)))
    return {"min_sigma": float(smallest), "pass": smallest > 0.0}


def _probe_injectivity(cfg: dict) -> dict:
    failures = 0
    for t in range(cfg["trials"]):
        with _user_input():  # each trial builds its net and data from the config
            net = init_deep(cfg["d"], cfg["s"], cfg["l"], cfg["m"], seed=cfg["seed"] + t,
                            slope=cfg["slope"])
            ds = gen_random(cfg["n"], cfg["d"], seed=cfg["seed"] + t)
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
    cfg = _merge_config(defaults, args)
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
    cfg = _merge_config(COUNTEREXAMPLE_DEFAULTS, args)
    n, m, seed, radius, trials = (cfg[k] for k in ("n", "m", "seed", "radius", "trials"))
    with _user_input():
        if cfg["lam"] is not None:
            lam = np.asarray(cfg["lam"], dtype=float)
        else:
            lam = np.random.default_rng(seed).uniform(0.05, 0.45, size=m)
        ds, net, ocfg = build_bad_local_min(n, m, lam, seed=seed, mode=cfg["mode"], d=cfg["d"])
    out = _prepare_outdir(args.out)

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
    cfg = _merge_config(DEMO_PATH_DEFAULTS, args)
    with _user_input():
        table = decreasing_path_demo(cfg["num_steps"], lam=cfg["lam"])
    out = _prepare_outdir(args.out)
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


def _sweep_setup(n: int, m: int, seed: int, cfg: dict, loss):
    """A cell's dataset, lambda0 and objective: the library checks of the
    user's values, which every cell passes before the sweep makes --out."""
    ds = gen_random(n, cfg["d"], seed=seed)
    lambda0, lam = _resolve_coefficients(cfg, ds, loss, m, seed)
    return ds, lambda0, ObjectiveConfig(loss=loss, lam=lam)


def _sweep_cell(n: int, m: int, seed: int, cfg: dict, ds, lambda0, ocfg):
    opts = TrainOptions(grad_tol=cfg["grad_tol"], max_iter=cfg["max_iter"], seed=seed)
    net, _ = train(init_single(m, ds.d, seed=seed), ds, ocfg, opts)
    err = training_error(net, ds)
    try:
        certified = int(certify(net, ds, ocfg).verdict == "ok")
    except (NotCriticalError, CertificateContradiction):
        certified = 0
    return m, n, seed, lambda0, err, certified


def cmd_sweep(args) -> int:
    cfg = _merge_config(SWEEP_DEFAULTS, args)
    if args.n is not None:
        cfg["n_values"] = [args.n]
    cells = [
        (n, m, seed)
        for n in cfg["n_values"]
        for m in (range(n - 2, n + 4) if cfg["m_values"] is None else cfg["m_values"])
        for seed in cfg["seeds"]
    ]
    with _user_input():
        loss = _make_loss(cfg)
        setups = [_sweep_setup(*c, cfg, loss) for c in cells]
    out = _prepare_outdir(args.out)
    rows = [_sweep_cell(*c, cfg, *s) for c, s in zip(cells, setups)]
    rows.sort(key=lambda r: (r[1], r[0], r[2]))

    _write_yaml(cfg, out / "config.yaml")
    write_csv(out / "sweep.csv", ["m", "n", "seed", "lambda0", "error", "certified"], rows)
    print(f"sweep: wrote {len(rows)} rows to {out / 'sweep.csv'}")
    return 0


# ---------------------------------------------------------------------------
# parser

def _parse_int_list(text: str):
    try:
        return [int(part) for part in str(text).split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated integer list, got {text!r}"
        ) from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1 here
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> _Parser:
    """The one parser of the process: parse_args keeps no state between calls."""
    parser = _Parser(prog="requland", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a network and certify the terminal point")
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
    p.add_argument("--m-values", dest="m_values", type=_parse_int_list,
                   help="comma-separated widths")
    p.add_argument("--seeds", type=_parse_int_list, help="comma-separated seeds")
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


def entry(argv=None) -> int:
    """The process entry point, of the requland script and python -m
    requland: main's exit code, or 3 after the traceback of an exception
    that main let through, so that a defect is not read as a usage error."""
    try:
        return main(argv)
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    raise SystemExit(entry())
