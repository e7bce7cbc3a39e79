"""Batch experiment runner behind the ``adsh`` entry point.

One subcommand per experiment id:

    attack, dp-median, pmw, threshold, subspace, ifpc-local, ifpc-pauli,
    povm-concentration, pauli-bell

Shared flags: --seed, --trials, --out, --config, --threads. Config files are
flat ``key = value`` lines (``#`` comments allowed) over the MechanismConfig
fields and the extra keys the experiment's ``EXPERIMENTS`` row lists; any
other key is an error. Each of those keys may also be set through an
environment variable with the ``ADSH_`` prefix (``ADSH_EPSILON=0.2``), and
--seed/--trials/--threads win over both. Each run writes
``<out>/<id>.csv`` (RFC-4180) and ``<out>/<id>_summary.json`` with means,
stds and a pass/fail verdict against the embedded thresholds; every data row
carries (seed, build, config_hash) so outputs are self-describing. Reruns
with the same seed and config are byte-identical.

Exit codes: 0 success, 1 an embedded acceptance threshold was missed,
2 bad experiment id / config / paths.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from .attack import GRID_FIELDS, attack_experiment
from .core import (DenseState, MechanismConfig, PauliString, RankOneProjector,
                   expectation, spawn_rngs, write_csv)
from .errors import AcceptanceFailure, ConfigError, Halted, MalformedCsv
from .ifpc import EmpiricalMeanMechanism, run_local_attack, run_pauli_attack
from .mechanisms import (DpMedianSession, PmwSession, adaptive_pauli_mechanism)
from .shadows import (collect_povm_snapshots, povm_tail_bound,
                      shadow_norm_bound, snapshot_values)
from .subspace import (ExactTeacher, run_single_rank, single_rank_mistake_cap)
from .threshold_search import SparseVectorSession

ENV_PREFIX = "ADSH_"

# config key -> caster for every MechanismConfig field except the seed (a
# flag); experiment-specific extra keys are listed in each EXPERIMENTS row
_CFG_FIELDS = {f.name: type(f.default)
               for f in dataclasses.fields(MechanismConfig) if f.name != "seed"}

DEFAULT_TRIALS = 20

CONCENTRATION_TAUS = (0.25, 0.5, 1.0)


# ---------------------------------------------------------------------------
# spec assembly
# ---------------------------------------------------------------------------

@dataclass
class ExperimentSpec:
    """A fully resolved run request: id, knobs, output, seeding."""

    experiment: str
    cfg: MechanismConfig
    out_dir: Path
    seed: int = 0
    trials: int = DEFAULT_TRIALS
    threads: int = 1
    extras: dict = field(default_factory=dict)


def load_config(path) -> dict[str, str]:
    """Flat key=value file; '#' starts a comment; blank lines are skipped."""
    out: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        out[key] = value
    return out


def _apply_env(conf: dict, environ: dict, keys) -> None:
    for key in keys:
        env_key = ENV_PREFIX + key.upper()
        if env_key in environ:
            conf[key] = environ[env_key]


def build_spec(experiment: str, seed: int, trials: int, out: str,
               config_path: Optional[str], threads: int,
               environ: Optional[dict] = None) -> ExperimentSpec:
    if experiment not in EXPERIMENT_IDS:
        raise ConfigError(f"unknown experiment id {experiment!r}; "
                          f"choose from {', '.join(EXPERIMENT_IDS)}")
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if threads < 1:
        raise ConfigError("threads must be >= 1")
    exp = EXPERIMENTS[experiment]
    conf: dict = dict(exp.defaults)
    if config_path is not None:
        conf.update(load_config(config_path))
    if environ is None:
        import os
        environ = os.environ
    _apply_env(conf, environ, [*_CFG_FIELDS, *exp.extras])

    cfg_kwargs: dict = {"seed": seed}
    extras: dict = {}
    for key, value in conf.items():
        if key in _CFG_FIELDS:
            try:
                cfg_kwargs[key] = _CFG_FIELDS[key](value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"config key {key}={value!r}: {exc}") from exc
        elif key in exp.extras:
            extras[key] = value
        else:
            raise ConfigError(
                f"config key {key!r} is not read by {experiment}")
    try:
        cfg = MechanismConfig(**cfg_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    out_dir = Path(out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output path {out} not writable: {exc}") from exc
    return ExperimentSpec(experiment=experiment, cfg=cfg, out_dir=out_dir,
                          seed=seed, trials=trials, threads=threads,
                          extras=extras)


def build_id() -> str:
    """git-describe-style build identifier, with a static fallback."""
    try:
        root = Path(__file__).resolve().parents[2]
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=root, capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    try:
        from importlib.metadata import version
        return f"artifact-{version('artifact')}"
    except Exception:
        return "artifact-unknown"


def config_hash(spec: ExperimentSpec) -> str:
    items = {k: v for k, v in dataclasses.asdict(spec.cfg).items()
             if k != "seed"}
    items.update(spec.extras)
    items["experiment"] = spec.experiment
    items["trials"] = spec.trials
    blob = ";".join(f"{k}={items[k]}" for k in sorted(items))
    return hashlib.sha1(blob.encode()).hexdigest()[:10]


# ---------------------------------------------------------------------------
# shared state/stream builders
# ---------------------------------------------------------------------------

def _haar_unit(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def _heavy_state(d: int, rng: np.random.Generator,
                 weights=(0.4, 0.25, 0.15, 0.1)) -> DenseState:
    """Random density with a few dominant eigenvalues (rest spread flat)."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(g)
    lam = np.full(d, (1.0 - sum(weights)) / max(d - len(weights), 1))
    lam[:len(weights)] = weights
    rho = (q * lam) @ q.conj().T
    return DenseState(0.5 * (rho + rho.conj().T))


# ---------------------------------------------------------------------------
# experiments: a row producer and a scorer returning (metrics, passed) each
# ---------------------------------------------------------------------------

def _per_trial(one: Callable) -> Callable:
    """Row producer running one(spec, trial_index, rng) -> rows on each trial
    of a deterministic per-trial rng tree, concatenated in trial order."""

    def rows(spec: ExperimentSpec) -> list[dict]:
        rngs = spawn_rngs(spec.seed, spec.trials)
        with ThreadPoolExecutor(max_workers=spec.threads) as pool:
            results = pool.map(lambda t: one(spec, t, rngs[t]),
                               range(spec.trials))
            return [r for out in results for r in out]

    return rows


def _attack_grid(spec: ExperimentSpec) -> list[dict]:
    try:
        grid = [int(x) for x in spec.extras["m_grid"].split(",")]
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad m_grid: {exc}") from exc
    # one row per (M, mode) over spec.trials runs, from the grid's own streams
    return attack_experiment(spec.cfg.N, grid, spec.trials, spec.seed)


def _score_attack(spec: ExperimentSpec, rows: list[dict]):
    adaptive = [r for r in rows if r["mode"] == "adaptive"]
    nonadaptive = [r for r in rows if r["mode"] == "nonadaptive"]
    gap = adaptive[-1]["error_mean"] - nonadaptive[-1]["error_mean"]
    worst_nonadaptive = max(r["error_mean"] for r in nonadaptive)
    metrics = {
        "adaptive_error_at_max_M": adaptive[-1]["error_mean"],
        "nonadaptive_error_max": worst_nonadaptive,
        "final_gap": gap,
    }
    return metrics, gap > 0.0 and worst_nonadaptive <= 0.3


def _within_tolerance(tolerance: Callable[[ExperimentSpec], float],
                      label: str) -> Callable:
    """Scorer: pass when >= 95% of trials keep every answer's error within
    tolerance(spec); reports that fraction as ``trials_within_<label>``."""

    def score(spec: ExperimentSpec, rows: list[dict]):
        tol = tolerance(spec)
        trial_ok: dict[int, bool] = {}
        for r in rows:
            ok = trial_ok.get(r["trial"], True)
            trial_ok[r["trial"]] = ok and r["error"] <= tol
        frac = float(np.mean(list(trial_ok.values())))
        errors = [r["error"] for r in rows]
        metrics = {"max_error": max(errors), f"trials_within_{label}": frac}
        if label == "epsilon":   # dp-median reports its mean error instead
            metrics["mean_error"] = float(np.mean(errors))
        else:
            metrics["tolerance"] = tol
        return metrics, frac >= 0.95

    return score


@_per_trial
def _dp_median_trial(spec: ExperimentSpec, trial: int, rng: np.random.Generator):
    cfg = spec.cfg
    d = 2 ** cfg.m_bits
    gamma = float(spec.extras["gamma"]) if "gamma" in spec.extras else None
    state = _heavy_state(d, rng)
    ds = collect_povm_snapshots(state, cfg.N, rng)
    session = DpMedianSession(ds, cfg, rng=rng, gamma=gamma)
    out = []
    for k in range(cfg.M):
        obs = RankOneProjector(_haar_unit(d, rng))
        answer = session.query(obs)
        truth = expectation(state, obs)
        out.append({"trial": trial, "query": k, "answer": answer,
                    "truth": truth, "error": abs(answer - truth)})
    return out


@_per_trial
def _pmw_trial(spec: ExperimentSpec, trial: int, rng: np.random.Generator):
    cfg = spec.cfg
    U = 2 ** cfg.m_bits
    # skewed universe histogram: squared-exponential weights
    raw = np.exp(-2.0 * rng.exponential(size=U))
    hist = raw / raw.sum()
    session = PmwSession(hist, cfg.N, cfg, rng=rng)
    out = []
    prev_sign = 1.0
    for k in range(cfg.M):
        values = rng.choice([-1.0, 1.0], size=U)
        if k % 3 == 2:
            values = values * prev_sign  # fold previous answer back in
        answer = session.query(values)
        truth = float(hist @ values)
        prev_sign = 1.0 if answer >= truth else -1.0
        out.append({"trial": trial, "query": k, "answer": answer,
                    "truth": truth, "error": abs(answer - truth)})
    return out


@_per_trial
def _threshold_trial(spec: ExperimentSpec, trial: int, rng: np.random.Generator):
    cfg = spec.cfg
    truths = rng.uniform(0.0, 1.0, size=cfg.d_users)
    session = SparseVectorSession(cfg.epsilon, cfg.delta, cfg.ell, cfg.M, rng)
    violations = 0
    asked = 0
    for _ in range(cfg.M):
        value = float(truths[rng.integers(cfg.d_users)])
        theta = float(np.clip(value + rng.uniform(-cfg.epsilon, cfg.epsilon),
                              0.0, 1.0))
        try:
            answer = session.ask(value, theta)
        except Halted:
            break
        asked += 1
        if answer == "No" and value <= theta - cfg.epsilon:
            violations += 1
        if answer == "Yes" and value >= theta + cfg.epsilon:
            violations += 1
    return [{"trial": trial, "asked": asked, "violations": violations,
             "no_count": session.no_count}]


def _score_threshold(spec: ExperimentSpec, rows: list[dict]):
    total = sum(r["violations"] for r in rows)
    metrics = {
        "total_violations": total,
        "mean_asked": float(np.mean([r["asked"] for r in rows])),
    }
    return metrics, total == 0


@_per_trial
def _subspace_trial(spec: ExperimentSpec, trial: int, rng: np.random.Generator):
    cfg = spec.cfg
    d = 2 ** cfg.m_bits
    state = _heavy_state(d, rng)
    lam, vecs = np.linalg.eigh(state.matrix)
    order = np.argsort(lam)[::-1]
    queries = []
    for k in range(cfg.M):
        if k % 3 == 0:
            v = vecs[:, order[k % 4]]
        else:
            base = vecs[:, order[rng.integers(4)]]
            noise = _haar_unit(d, rng)
            v = 0.9 * base + math.sqrt(1 - 0.81) * noise
            v = v / np.linalg.norm(v)
        queries.append(RankOneProjector(v))
    teacher = ExactTeacher(state, cfg.epsilon)
    run = run_single_rank(state, queries, cfg, teacher, rng=rng)
    errs = [abs(r.answer - r.truth) for r in run.transcript.rounds]
    return [{"trial": trial, "mistakes": run.ledger.mistake_count,
             "max_error": max(errs), "k_final": run.subspace.k}]


def _score_subspace(spec: ExperimentSpec, rows: list[dict]):
    cap = single_rank_mistake_cap(spec.cfg.epsilon)
    worst = max(r["max_error"] for r in rows)
    most = max(r["mistakes"] for r in rows)
    metrics = {"mistake_cap": cap, "max_mistakes": most, "max_error": worst}
    return metrics, most <= cap and worst <= spec.cfg.epsilon


@_per_trial
def _ifpc_trial(spec: ExperimentSpec, trial: int, rng: np.random.Generator):
    variant = (run_local_attack if spec.experiment == "ifpc-local"
               else run_pauli_attack)
    res = variant(EmpiricalMeanMechanism(), spec.cfg.N, spec.cfg.M, rng)
    return [{"trial": trial, "forced": int(res.forced_error),
             "forced_round": -1 if res.forced_round is None
             else res.forced_round,
             "max_error": res.max_error, "theta": res.state.theta,
             "psi": res.state.psi,
             "accused_count": len(res.state.accused)}]


def _score_ifpc(spec: ExperimentSpec, rows: list[dict]):
    frac = float(np.mean([r["forced"] for r in rows]))
    metrics = {
        "forced_fraction": frac,
        "mean_theta": float(np.mean([r["theta"] for r in rows])),
        "max_psi": max(r["psi"] for r in rows),
    }
    return metrics, frac >= 0.9


@_per_trial
def _povm_concentration_trial(spec: ExperimentSpec, trial: int,
                              rng: np.random.Generator):
    d = 2 ** spec.cfg.m_bits
    state = _heavy_state(d, rng)
    obs = RankOneProjector(_haar_unit(d, rng))
    B = shadow_norm_bound(obs, "povm")
    ds = collect_povm_snapshots(state, spec.cfg.N, rng)
    centered = snapshot_values(ds, obs) - expectation(state, obs)
    out = []
    for tau in CONCENTRATION_TAUS:
        tail = float(np.mean(np.abs(centered) >= tau))
        out.append({"trial": trial, "tau": tau, "tail": tail,
                    "bound": povm_tail_bound(tau, B)})
    return out


def _score_povm_concentration(spec: ExperimentSpec, rows: list[dict]):
    # pool across trials per tau: the bound is on the underlying probability
    ok = True
    metrics = {}
    for tau in CONCENTRATION_TAUS:
        tails = [r["tail"] for r in rows if r["tau"] == tau]
        bound = next(r["bound"] for r in rows if r["tau"] == tau)
        metrics[f"tail_{tau}"] = float(np.mean(tails))
        ok = ok and float(np.mean(tails)) <= bound
    return metrics, ok


@_per_trial
def _pauli_bell_trial(spec: ExperimentSpec, trial: int,
                      rng: np.random.Generator):
    cfg = spec.cfg
    n = cfg.m_bits
    letters = "IXYZ"
    state = _heavy_state(2 ** n, rng)
    queries = []
    while len(queries) < cfg.M:
        s = "".join(letters[i] for i in rng.integers(0, 4, size=n))
        if s != "I" * n:
            queries.append(PauliString(s))
    answers = adaptive_pauli_mechanism(state, queries, cfg, rng)
    out = []
    for k, (P, a) in enumerate(zip(queries, answers)):
        truth = expectation(state, P)
        out.append({"trial": trial, "query": k, "pauli": P.symbols,
                    "answer": a, "truth": truth, "error": abs(a - truth)})
    return out


class Experiment(NamedTuple):
    """One ``adsh`` experiment: config defaults (anything unlisted falls back
    to MechanismConfig), the row producer, the CSV columns ahead of (seed,
    build, config_hash), the scorer returning (metrics, passed), and the
    extra config keys beyond MechanismConfig that the experiment reads."""

    defaults: dict
    rows: Callable[[ExperimentSpec], list]
    fields: list
    score: Callable
    extras: tuple


_ANSWER_FIELDS = ["trial", "query", "answer", "truth", "error"]
_IFPC_FIELDS = ["trial", "forced", "forced_round", "max_error", "theta", "psi",
                "accused_count"]
_TOLERANCE_SCORE = _within_tolerance(
    lambda spec: float(spec.extras.get("tolerance", spec.cfg.epsilon)),
    "tolerance")

EXPERIMENTS: dict[str, Experiment] = {
    "attack": Experiment(
        {"N": 10_000, "m_grid": "100,200,400,800,1600,3200,6400,10000"},
        _attack_grid, GRID_FIELDS, _score_attack, ("m_grid",)),
    "dp-median": Experiment(
        {"N": 8192, "M": 16, "epsilon": 0.3, "K": 256, "m_bits": 3},
        _dp_median_trial, _ANSWER_FIELDS,
        _within_tolerance(lambda spec: spec.cfg.epsilon, "epsilon"),
        ("gamma",)),
    "pmw": Experiment(
        {"N": 32768, "M": 200, "epsilon": 0.5, "delta": 0.05, "ell": 20000,
         "m_bits": 8, "tolerance": 0.1},
        _pmw_trial, _ANSWER_FIELDS, _TOLERANCE_SCORE, ("tolerance",)),
    "threshold": Experiment(
        {"d_users": 8, "M": 200, "epsilon": 0.3, "ell": 10, "delta": 0.05},
        _threshold_trial, ["trial", "asked", "violations", "no_count"],
        _score_threshold, ()),
    "subspace": Experiment(
        {"m_bits": 4, "M": 64, "epsilon": 0.3},
        _subspace_trial, ["trial", "mistakes", "max_error", "k_final"],
        _score_subspace, ()),
    "ifpc-local": Experiment({"N": 5, "M": 625}, _ifpc_trial, _IFPC_FIELDS,
                             _score_ifpc, ()),
    "ifpc-pauli": Experiment({"N": 5, "M": 625}, _ifpc_trial, _IFPC_FIELDS,
                             _score_ifpc, ()),
    "povm-concentration": Experiment(
        {"m_bits": 3, "N": 20000},
        _povm_concentration_trial, ["trial", "tau", "tail", "bound"],
        _score_povm_concentration, ()),
    "pauli-bell": Experiment(
        {"m_bits": 3, "N": 100_000, "M": 100, "epsilon": 0.15},
        _pauli_bell_trial,
        ["trial", "query", "pauli", "answer", "truth", "error"],
        _TOLERANCE_SCORE, ("tolerance",)),
}

EXPERIMENT_IDS = tuple(EXPERIMENTS)
DEFAULT_CONFIGS = {exp_id: exp.defaults for exp_id, exp in EXPERIMENTS.items()}


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def run(spec: ExperimentSpec) -> int:
    """Execute one experiment spec; writes CSV + summary, returns exit code.

    Raises AcceptanceFailure (after writing both artifacts) when the
    embedded threshold is missed, ConfigError on a bad spec.
    """
    exp = EXPERIMENTS.get(spec.experiment)
    if exp is None:
        raise ConfigError(f"unknown experiment id {spec.experiment!r}")
    build = build_id()
    chash = config_hash(spec)
    rows = exp.rows(spec)
    metrics, passed = exp.score(spec, rows)
    for row in rows:
        row.setdefault("seed", spec.seed)
        row["build"] = build
        row["config_hash"] = chash
    out_fields = list(exp.fields)
    for extra_col in ("seed", "build", "config_hash"):
        if extra_col not in out_fields:
            out_fields.append(extra_col)
    csv_path = spec.out_dir / f"{spec.experiment}.csv"
    write_csv(csv_path, out_fields, rows)

    summary = {
        "experiment": spec.experiment,
        "seed": spec.seed,
        "trials": spec.trials,
        "build": build,
        "config_hash": chash,
        "config": {k: v for k, v in dataclasses.asdict(spec.cfg).items()},
        "extras": spec.extras,
        "metrics": metrics,
        "pass": bool(passed),
    }
    summary_path = spec.out_dir / f"{spec.experiment}_summary.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True)
                            + "\n")
    if not passed:
        raise AcceptanceFailure(
            f"{spec.experiment}: embedded threshold missed; see {summary_path}")
    return 0


# ---------------------------------------------------------------------------
# plot-data export
# ---------------------------------------------------------------------------

_METADATA_COLUMNS = {"seed", "build", "config_hash", "runs", "N", "trials"}
_STAT_RENAMES = {"error_mean": "mean", "error_std": "std"}


def emit_plot_data(csv_path, out_path=None) -> list[dict]:
    """Reshape an experiment CSV into plain long-format plotting rows.

    Row-preserving: renames error_mean/error_std to mean/std and drops
    metadata columns (seed, build, ...) that are constant across the file.
    Tables already in long form come back unchanged.
    """
    try:
        with open(csv_path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise MalformedCsv(f"{csv_path}: no header row")
            rows = list(reader)
    except OSError as exc:
        raise MalformedCsv(f"cannot read {csv_path}: {exc}") from exc
    if not rows:
        raise MalformedCsv(f"{csv_path}: no data rows")
    drop = {col for col in reader.fieldnames
            if col in _METADATA_COLUMNS
            and len({r[col] for r in rows}) == 1}
    out_fields = [_STAT_RENAMES.get(col, col)
                  for col in reader.fieldnames if col not in drop]
    out_rows = [{_STAT_RENAMES.get(col, col): row[col]
                 for col in reader.fieldnames if col not in drop}
                for row in rows]
    if out_path is not None:
        write_csv(out_path, out_fields, out_rows)
    return out_rows


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adsh",
        description="Seeded experiment runner; writes CSV + summary JSON.",
        epilog=f"Config keys: {', '.join(_CFG_FIELDS)}; extra keys: "
               + "; ".join(f"{exp_id} {', '.join(exp.extras)}"
                           for exp_id, exp in EXPERIMENTS.items() if exp.extras)
               + f". Each can be overridden via {ENV_PREFIX}<KEY>.")
    sub = parser.add_subparsers(dest="experiment", required=True,
                                metavar="{" + ",".join(EXPERIMENT_IDS) + "}")
    for exp_id in EXPERIMENT_IDS:
        p = sub.add_parser(exp_id)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
        p.add_argument("--out", default="results")
        p.add_argument("--config", default=None)
        p.add_argument("--threads", type=int, default=1)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = build_spec(args.experiment, args.seed, args.trials, args.out,
                          args.config, args.threads)
        return run(spec)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AcceptanceFailure as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
