"""Command-line entry point: parse config, run one experiment, write its files.

``_EXPERIMENTS`` maps each experiment to how it builds its result table and
run payloads from the config, the header of its plot file
``plot_<experiment>.dat``, how it takes the plot rows from the table and
payloads, and the ``Config`` fields its builder reads; any other field given
by a flag or in the config file is a usage error.  ``_run_experiment`` reads
that entry and writes ``results.csv`` (and ``results.json``), the plot file
and one ``run_<hash>.json`` per run.
The exit code is read from those payloads alone: 2 when an audit in some
run's ``totals.audits`` did not pass, else 3 when some run's
``totals.unverified`` is non-empty (a comparator's solve raised or did not
converge, or an online step did not converge), else 0; 1 on usage or I/O
errors.  Every output file is written atomically (temp file plus rename).
Diagnostics go to stderr, gated by the OBD_LOG variable (off | info | debug).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
from dataclasses import asdict, dataclass, fields
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .algorithms import (
    DualConfig, DualOBD, Greedy, OGD, OMD, PrimalConfig, PrimalOBD,
    SetProjectionResponder, StaticPlay, choose_beta, choose_eta,
)
from .costs import InstanceSpec, generate_instance
from .geometry import euclidean_map
from .harness import (
    ResultTable, atomic_write_text, experiment_audit_suite, experiment_cr_vs_dim,
    experiment_lower_bound, experiment_regret_sweep, mirror_grad_bound, report_row,
    run,
)

log = logging.getLogger("obd")

EXPERIMENTS = ("cr_vs_dim", "regret_sweep", "lower_bound", "audit_suite", "single_run")
ALGORITHMS = ("primal_obd", "dual_obd", "ogd", "omd", "greedy", "static_play",
              "projection")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# each declared ``Config`` field type: the values it takes, and their name
_FIELD_TYPES = {
    "int": (_is_int, "an integer"),
    "float": (lambda v: _is_int(v) or isinstance(v, float), "a number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "tuple": (lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v)),
              "a list of integers"),
}


@dataclass
class Config:
    """Validated experiment configuration; unknown JSON keys are rejected."""

    experiment: str = "cr_vs_dim"
    family: str = "quadratic"
    dims: tuple = (2, 4, 8, 16)
    d: int = 2
    T: int = 50
    trials: int = 10
    seed: int = 0
    cond: float = 10.0
    diameter: float = 10.0
    tracking_norm: str = "l2"
    tracking_scale: float = 1.0
    switching_norm: str = "l2"
    feasible_kind: str = "whole"
    feasible_radius: float = 0.0
    algo: str = "primal_obd"
    beta: Optional[float] = None
    alpha: Optional[float] = None
    eta: Optional[float] = None
    level_tol: Optional[float] = None
    out: str = "obd_results"
    format: str = "csv"
    jobs: int = 1

    def __post_init__(self):
        for f in fields(self):
            value, optional = getattr(self, f.name), f.type.startswith("Optional[")
            if value is None and optional:
                continue
            kind = f.type[len("Optional["):-1] if optional else f.type
            takes, name = _FIELD_TYPES[kind]
            if not takes(value):
                raise ValueError(f"field {f.name!r} must be {name}"
                                 f"{' or null' if optional else ''}, got {value!r}")
            if kind == "float":
                setattr(self, f.name, float(value))
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"field 'experiment' must be one of {EXPERIMENTS}, "
                             f"got {self.experiment!r}")
        if self.algo not in ALGORITHMS:
            raise ValueError(f"field 'algo' must be one of {ALGORITHMS}, "
                             f"got {self.algo!r}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"field 'format' must be csv or json, got {self.format!r}")
        if self.trials < 1:
            raise ValueError("field 'trials' must be >= 1")
        if self.jobs < 1:
            raise ValueError("field 'jobs' must be >= 1")
        self.dims = tuple(self.dims)
        if any(v < 1 for v in self.dims):
            raise ValueError("field 'dims' must contain positive integers")

    def to_dict(self) -> dict:
        out = asdict(self)
        out["dims"] = list(self.dims)
        return out

    @staticmethod
    def from_dict(data: dict) -> "Config":
        known = {f.name for f in fields(Config)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return Config(**data)


class _StderrHandler(logging.StreamHandler):
    """Writes to the current sys.stderr, so one handler serves every call."""

    def __init__(self):
        logging.Handler.__init__(self)

    @property
    def stream(self):
        return sys.stderr


_HANDLER = _StderrHandler()
_HANDLER.setFormatter(logging.Formatter("obd %(levelname)s: %(message)s"))
_LEVELS = {"info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    """Print ``obd`` log lines on stderr at the level OBD_LOG names.

    The handler is installed once per process; later calls only reset the
    levels.  With OBD_LOG off (the default) the handler prints nothing.
    """
    level = _LEVELS.get(os.environ.get("OBD_LOG", "off").lower())
    if _HANDLER not in log.handlers:
        log.addHandler(_HANDLER)
    log.setLevel(level or logging.NOTSET)
    _HANDLER.setLevel(level or logging.CRITICAL + 1)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="obd",
        description="Balanced-descent benchmarks for online optimization "
                    "with switching costs.")
    p.add_argument("--version", action="version", version=f"obd {__version__}")
    p.add_argument("--config", help="JSON config file (flags override its fields)")
    p.add_argument("--experiment", choices=EXPERIMENTS)
    p.add_argument("--family", choices=("quadratic", "norm_tracking", "composite",
                                        "hyperplane_chase"))
    p.add_argument("--dims", help="comma-separated dimensions, e.g. 2,4,8,16")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--T", type=int, dest="T")
    p.add_argument("--d", type=int)
    p.add_argument("--algo", choices=ALGORITHMS)
    p.add_argument("--beta", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--cond", type=float)
    p.add_argument("--diameter", type=float)
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--jobs", type=int)
    return p


def _merge_config(args: argparse.Namespace) -> Config:
    data: dict = {}
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("field 'config' must hold a JSON object")
    flags = {name: val for name, val in vars(args).items()
             if val is not None and name != "config"}
    if "dims" in flags:
        try:
            flags["dims"] = [int(v) for v in flags["dims"].split(",")]
        except ValueError:
            raise ValueError(f"field 'dims' must be comma-separated integers, "
                             f"got {flags['dims']!r}") from None
    cfg = Config.from_dict({**data, **flags})
    unread = (set(data) | set(flags)) - {"experiment", "out", "format"} \
        - set(_EXPERIMENTS[cfg.experiment][3].split())
    if unread:
        raise ValueError(f"experiment {cfg.experiment!r} does not read "
                         f"{sorted(unread)}")
    return cfg


def _write_report_dict(cfg: Config, payload_dict: dict) -> None:
    payload = json.dumps(payload_dict, sort_keys=True)
    digest = hashlib.sha256(payload.encode()).hexdigest()[:12]
    atomic_write_text(os.path.join(cfg.out, f"run_{digest}.json"), payload)


def _dim_stats(table: ResultTable, column: str, top: str) -> list[tuple]:
    """Plot rows (d, mean, min of ``column``, max of ``top``) per d, over the
    rows whose ``column`` is set (blank: the comparator raised)."""
    rows = [r for r in table.rows if r[column] != ""]
    stats = []
    for d in sorted(set(r["d"] for r in rows)):
        values = [r[column] for r in rows if r["d"] == d]
        stats.append((d, float(np.mean(values)), min(values),
                      max(r[top] for r in rows if r["d"] == d)))
    return stats


def _exit_status(payloads: Sequence[dict]) -> int:
    """2 when a run's audit failed, else 3 when a run lists an unverified
    comparator or step, else 0; read from each payload's ``totals``."""
    totals = [p["totals"] for p in payloads]
    if any(not a["passed"] for t in totals for a in t["audits"]):
        return 2
    return 3 if any(t["unverified"] for t in totals) else 0


def _build_algorithm(cfg: Config, instance):
    emap = euclidean_map()
    kw = {"level_tol": cfg.level_tol} if cfg.level_tol else {}
    if cfg.algo == "primal_obd":
        if cfg.beta is not None:
            beta = cfg.beta
        elif cfg.alpha is not None:
            beta = choose_beta(cfg.alpha).beta
        else:
            beta = 0.5
        return PrimalOBD(PrimalConfig(beta=beta, mirror_map=emap, **kw))
    if cfg.algo == "dual_obd":
        if cfg.eta is not None:
            eta = cfg.eta
        else:
            G = mirror_grad_bound(emap, instance.feasible)
            D = instance.feasible.diameter(instance.switching_norm)
            if not (math.isfinite(G) and math.isfinite(D)):
                raise ValueError(
                    "field 'eta' required: the feasible set is unbounded, so the "
                    "regret-optimal eta cannot be derived")
            eta = choose_eta(G, D, 1.0, instance.T).eta
        return DualOBD(DualConfig(eta=eta, mirror_map=emap, **kw))
    return {"ogd": OGD, "omd": lambda: OMD(emap), "greedy": Greedy,
            "static_play": StaticPlay,
            "projection": lambda: SetProjectionResponder(emap)}[cfg.algo]()


def _single_run(cfg: Config) -> tuple[ResultTable, list[dict]]:
    spec = InstanceSpec(d=cfg.d, T=cfg.T, family=cfg.family, seed=cfg.seed,
                        cond=cfg.cond, diameter=cfg.diameter,
                        tracking_norm=cfg.tracking_norm,
                        tracking_scale=cfg.tracking_scale,
                        switching_norm=cfg.switching_norm,
                        feasible_kind=cfg.feasible_kind,
                        feasible_radius=cfg.feasible_radius)
    instance = generate_instance(spec)
    algorithm = _build_algorithm(cfg, instance)
    comparators = () if instance.adaptive else ("opt", "static")
    report = run(algorithm, instance, comparators=comparators)
    return ResultTable([report_row(report, 0)]), [report.to_dict()]


_EXPERIMENTS = {
    "cr_vs_dim": (
        lambda cfg: experiment_cr_vs_dim(
            cfg.family, cfg.dims, cfg.trials, cfg.seed,
            beta=cfg.beta if cfg.beta is not None else 0.5, T=cfg.T,
            cond=cfg.cond, diameter=cfg.diameter,
            tracking_scale=cfg.tracking_scale, jobs=cfg.jobs),
        "d mean_cr min_cr max_cr",
        lambda table, payloads: _dim_stats(table, "cr", "cr"),
        "family dims trials seed beta T cond diameter tracking_scale jobs"),
    "regret_sweep": (
        lambda cfg: experiment_regret_sweep(cfg.dims, cfg.trials, cfg.seed, T=cfg.T,
                                            diameter=cfg.diameter, jobs=cfg.jobs),
        "d mean_regret min_regret max_bound",
        lambda table, payloads: _dim_stats(table, "regret_L", "bound"),
        "dims trials seed T diameter jobs"),
    "lower_bound": (
        lambda cfg: experiment_lower_bound(cfg.dims),
        "d online_cost offline_cost ratio",
        lambda table, payloads: [(r["d"], r["total_cost"], r["opt_cost"], r["cr"])
                                 for r in table.rows],
        "dims"),
    "audit_suite": (
        lambda cfg: experiment_audit_suite(cfg.seed, cfg.trials, cfg.dims, cfg.T,
                                           jobs=cfg.jobs),
        "case cr bound worst_residual",
        lambda table, payloads: [
            (r["trial"], r["cr"], r["bound"], r["audit_worst_residual"])
            for r in table.rows if r["cr"] != ""],
        "seed trials dims T jobs"),
    "single_run": (
        _single_run,
        "t hit move",
        lambda table, payloads: [(s["t"], s["hit"], s["move"])
                                 for s in payloads[0]["steps"]],
        "d T family seed cond diameter tracking_norm tracking_scale switching_norm "
        "feasible_kind feasible_radius algo beta alpha eta level_tol"),
}


def _run_experiment(cfg: Config) -> list[dict]:
    """Run ``cfg.experiment``, write its files, return its run payloads."""
    build, header, plot_rows, _ = _EXPERIMENTS[cfg.experiment]
    table, payloads = build(cfg)
    path = os.path.join(cfg.out, "results.csv")
    if cfg.format == "json":
        atomic_write_text(os.path.join(cfg.out, "results.json"),
                          json.dumps(table.sorted().rows, sort_keys=True))
    table.write_csv(path)
    log.info("wrote %s", path)
    lines = [f"# {header}"] + [" ".join(repr(float(v)) for v in row)
                               for row in plot_rows(table, payloads)]
    atomic_write_text(os.path.join(cfg.out, f"plot_{cfg.experiment}.dat"),
                      "\n".join(lines) + "\n")
    for payload in payloads:
        _write_report_dict(cfg, payload)
    return payloads


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments, run the selected experiment, return the exit code."""
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help / --version / usage errors
        return int(exc.code or 0)
    try:
        cfg = _merge_config(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"obd: config error: {exc}", file=sys.stderr)
        return 1
    try:
        return _exit_status(_run_experiment(cfg))
    except (ValueError, OSError) as exc:
        print(f"obd: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())
