"""Config-driven experiment runner: the A-H configuration matrix, seeded
multi-run execution with per-run artifact directories, exact small-sample
Wilcoxon testing, and plot data. The cross-run summary is one table,
`summary.csv`: a row per config with the mean and 95 % CI half-width of each
per-run number (`run_values`) over the config's runs.

Experiment JSON schema. Every key names a field of `ExperimentSpec`, every
`market` key a field of `market.MarketConfig`, every `market.agent_roster`
entry's key a field of `AgentSpec` and every `market.demand_params` key a
field of `DemandParams` (see `market.from_fields`); any other key is a
ConfigError (exit code 1):

    {
      "config_id": "A".."H" | "custom",      default "custom"
      "n_runs": 8,
      "roster_params": {"<kind>": {...}},   a matrix letter's params per agent kind
      "market": {"agent_roster": [...], "clusters": [1, 2, 3, 5, 10], ...}
    }

A matrix letter builds its roster unless `market.agent_roster` is given;
"custom" requires `market.agent_roster`, and `roster_params` goes only with
a letter's roster.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import json
import math
import os
import time
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator

import numpy as np

from . import __version__
from .demand import ParametricDemandModel, elasticity_sweep, price_multipliers, sweep_reference
from .environment import HISTORY_HEADER, PricingAgentBase, run_episode, write_history_csv
from .market import (
    AGENT_KINDS,
    AgentSpec,
    ConfigError,
    EpisodeLog,
    JsonFields,
    MarketConfig,
    from_fields,
    make_default_portfolio,
)
from .metrics import MetricsReport, compute_report
from .rule_agents import DIVERSE_STRATEGIES, RuleAgent, RuleStrategy

CONFIG_MATRIX = {
    "A": ["rule"] * 4,
    "B": ["maddpg"] * 4,
    "C": ["madqn"] * 4,
    "D": ["maddpg", "maddpg", "madqn", "madqn"],
    "E": ["madqn", "rule", "rule", "rule"],
    "F": ["qmix"] * 4,
    "G": ["maddpg", "rule", "rule", "rule"],
    "H": ["maddpg", "maddpg", "qmix", "qmix"],
}

MARL_ONLY_CONFIGS = ("B", "C", "F")  # mixed configs are excluded from paired testing

DESK_EPISODES = 3
DESK_WEEKS = 20
DESK_RUNS = 2
FULL_EPISODES = 30
FULL_WEEKS = 104
FULL_RUNS = 8


def roster_for_config(config_id: str, shared_params: dict | None = None) -> list[AgentSpec]:
    """Expand a matrix letter into the 4-agent roster it denotes."""
    if config_id not in CONFIG_MATRIX:
        raise ConfigError(f"unknown config_id {config_id!r} (expected A..H or custom)")
    kinds = CONFIG_MATRIX[config_id]
    shared = shared_params or {}
    if not isinstance(shared, dict) or not all(isinstance(p, dict) for p in shared.values()):
        raise ConfigError("roster_params must map agent kinds to params objects")
    unknown = sorted(shared.keys() - AGENT_KINDS.keys())
    if unknown:
        raise ConfigError(f"unknown roster_params kinds {unknown}; accepted: {list(AGENT_KINDS)}")
    roster = []
    rule_cycle = list(DIVERSE_STRATEGIES)
    rule_i = 0
    for idx, kind in enumerate(kinds):
        params = dict(shared.get(kind, {}))
        if kind == "rule":
            params.setdefault("strategy", rule_cycle[rule_i % len(rule_cycle)])
            rule_i += 1
        roster.append(AgentSpec(agent_id=f"{kind}-{idx}", agent_kind=kind, params=params))
    return roster


@dataclass(frozen=True)
class ExperimentSpec(JsonFields):
    """`n_runs` seeded runs of `market`, checked when built, roster params included."""

    config_id: str
    market: MarketConfig
    n_runs: int = 8

    def __post_init__(self):
        if self.config_id != "custom" and self.config_id not in CONFIG_MATRIX:
            raise ConfigError(f"unknown config_id {self.config_id!r}")
        if not self.n_runs >= 1:
            raise ConfigError("n_runs must be >= 1")
        roster_settings(self.market.agent_roster, self.market.max_weekly_change)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        if not isinstance(d, dict) or not isinstance(d.get("market", {}), dict):
            raise ConfigError("an experiment and its market must be JSON objects")
        d = dict(d)
        config_id = d.setdefault("config_id", "custom")
        roster_params = d.pop("roster_params", None)
        market = d["market"] = dict(d.get("market", {}))
        if "agent_roster" in market:
            if roster_params is not None:
                raise ConfigError("roster_params sets a matrix letter's roster; "
                                  "market.agent_roster entries carry their own params")
        elif config_id == "custom":
            raise ConfigError("custom experiments must define market.agent_roster")
        else:
            market["agent_roster"] = roster_for_config(config_id, roster_params)
        return from_fields(cls, d)

    @classmethod
    def from_file(cls, path) -> "ExperimentSpec":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def desk_spec(config_id: str, seed: int = 12345, **market_overrides) -> ExperimentSpec:
    """Small, fast experiment preset used by tests and CI."""
    market_dict = {
        "weeks_per_episode": DESK_WEEKS,
        "episodes": DESK_EPISODES,
        "seed": seed,
        **market_overrides,
    }
    return ExperimentSpec.from_dict(
        {"config_id": config_id, "n_runs": DESK_RUNS, "market": market_dict}
    )


@dataclass
class RunManifest(JsonFields):
    run_id: str
    seed: int
    config_hash: str
    created_at: str
    completed_at: str
    artifacts: dict[str, str]
    version: str
    config: dict = field(default_factory=dict)
    # wall seconds of each phase of the run, by name (see `execute_run`)
    timings: dict[str, float] = field(default_factory=dict)


def config_hash(config_dict: dict) -> str:
    return hashlib.sha256(
        json.dumps(config_dict, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def kind_class(kind: str, role: str) -> type:
    """The `role` ("settings" or "learner") class of an agent kind, from
    its `AGENT_KINDS` module, which the first call for the kind imports: a
    run loads only the learners it builds, and a rule-only run never loads
    `nn`."""
    entry = AGENT_KINDS[kind]
    return getattr(importlib.import_module(entry["module"], __package__), entry[role])


def roster_settings(roster: list[AgentSpec], max_weekly_change: float) -> dict:
    """Each roster entry's settings by agent id: its kind's settings class,
    whose fields are the keys of its `params`, checked when built. A MADDPG
    or QMIX team trains under one set, so its members' `params` must agree,
    and a rule agent's `response_step` must not exceed the market's weekly
    cap. Any bad key or value, or a team whose members' `params` differ,
    raises ConfigError."""
    for kind in ("maddpg", "qmix"):
        team = [s for s in roster if s.agent_kind == kind]
        differ = [s.agent_id for s in team if s.params != team[0].params]
        if differ:
            raise ConfigError(
                f"a {kind} team trains under one params dict, but {differ} differ from "
                f"{team[0].agent_id}'s"
            )
    settings = {
        s.agent_id: from_fields(
            kind_class(s.agent_kind, "settings"), s.params, f"{s.agent_kind} params"
        )
        for s in roster
    }
    for aid, s in settings.items():
        if isinstance(s, RuleStrategy) and s.response_step > max_weekly_change:
            raise ConfigError(f"{aid}: response_step {s.response_step} must not exceed "
                              f"max_weekly_change {max_weekly_change}")
    return settings


def build_agents(config: MarketConfig) -> list[PricingAgentBase]:
    """Instantiate the roster: one learner team per (kind, settings) group,
    in roster order, and a `TeamMember` per learning agent. MADDPG and QMIX
    teams have one settings object each (see `roster_settings`); MADQN agents
    form one team per distinct `DqnHyper`."""
    settings = roster_settings(config.agent_roster, config.max_weekly_change)
    portfolio = make_default_portfolio(config.clusters, config.seed)
    n = len(portfolio)
    built: dict[str, PricingAgentBase] = {}
    teams: dict[tuple, list[str]] = {}
    for spec in config.agent_roster:
        aid, kind = spec.agent_id, spec.agent_kind
        if kind == "rule":
            built[aid] = RuleAgent(aid, portfolio, config, settings[aid])
        else:
            teams.setdefault((kind, settings[aid]), []).append(aid)
    for (kind, hyper), ids in teams.items():
        from .marl.common import TeamMember, state_dim  # the learner stack, on first use

        learner = kind_class(kind, "learner")(config, hyper, ids, state_dim(n), n)
        built.update((aid, TeamMember(aid, portfolio, config, learner)) for aid in ids)
    return [built[spec.agent_id] for spec in config.agent_roster]


def simulate(config: MarketConfig, agents: list[PricingAgentBase]) -> Iterator[EpisodeLog]:
    """The config's episode logs, `agents` pricing against the run's demand
    oracle, yielded one at a time as each ends: the one place that picks the
    oracle and runs a market's episodes. Nothing runs until the first episode
    is read, and the generator keeps no episode once it has yielded it."""
    model = ParametricDemandModel(config.demand_params)
    for ep in range(config.episodes):
        yield run_episode(config, agents, model, ep)


def execute_run(
    spec: ExperimentSpec, run_index: int, output_dir
) -> tuple[RunManifest, MetricsReport]:
    """One isolated simulation run: seeded, simulated, measured, persisted.

    Each episode is folded into the report and appended to the history as it
    ends, then dropped. The rows go to `history.csv.partial`, renamed to
    `history.csv` once the report is done, so a run that raises leaves no
    `history.csv`."""
    started = datetime.now(timezone.utc).isoformat()
    run_config = replace(spec.market, seed=spec.market.seed + run_index)
    run_id = f"{spec.config_id}-seed{run_config.seed}-run{run_index:02d}"
    out = Path(output_dir)
    run_dir = out / run_id
    run_dir.mkdir(parents=True, exist_ok=True)

    # each phase's wall seconds, summed over the episodes; a learner builds its
    # critics, target nets and mixer at its first learn step, inside simulate
    phases = ("build_agents", "simulate", "compute_report", "history_csv", "metrics_json")
    timings = dict.fromkeys(phases, 0.0)
    clock = time.perf_counter()

    def lap(phase: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        timings[phase] += now - clock
        clock = now

    def written(episodes, fh):
        """Each episode as it ends; its rows are appended to `fh` once the
        report has folded it and let go of the episode before."""
        for ep_idx, log in enumerate(episodes, start=1):
            lap("simulate")
            yield log
            lap("compute_report")
            write_history_csv(fh, ep_idx, log)
            lap("history_csv")
        lap("simulate")  # the stream's end, which frees the agents

    agents = build_agents(run_config)
    lap("build_agents")
    episodes = simulate(run_config, agents)
    # the report and the artifacts read only the episode logs: the stream
    # alone holds the agents, so their nets, buffers and replay are freed as
    # soon as the last episode ends
    del agents
    partial = run_dir / "history.csv.partial"
    with open(partial, "wb") as fh:
        fh.write(HISTORY_HEADER)
        report = compute_report(written(episodes, fh))
        lap("compute_report")
    os.replace(partial, run_dir / "history.csv")
    lap("history_csv")
    with open(run_dir / "metrics.json", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report.to_json() + "\n")
    lap("metrics_json")
    artifacts = {
        "history_csv": str(run_dir / "history.csv"),
        "metrics_json": str(run_dir / "metrics.json"),
    }

    # to_dict is the JSON form (int keys as strings): the hash is the one of the
    # config that manifest.json reads back
    config_dict = {"config_id": spec.config_id, "market": run_config.to_dict()}
    manifest = RunManifest(
        run_id=run_id,
        seed=run_config.seed,
        config_hash=config_hash(config_dict),
        created_at=started,
        completed_at=datetime.now(timezone.utc).isoformat(),
        artifacts=artifacts,
        version=__version__,
        config=config_dict,
        timings=timings,
    )
    with open(run_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest.to_dict(), fh, indent=2, sort_keys=True)
    return manifest, report


def run_experiment(
    spec: ExperimentSpec, output_dir, jobs: int = 1
) -> list[tuple[RunManifest, MetricsReport]]:
    """Execute n_runs independent runs (seeds = base + index); return all results."""
    return run_experiments([spec], output_dir, jobs)[0]


def run_experiments(
    specs: list[ExperimentSpec], output_dir, jobs: int = 1
) -> list[list[tuple[RunManifest, MetricsReport]]]:
    """Execute every run of every spec, each into `output_dir/<run_id>/`; return
    each spec's results in run order.

    At `jobs` > 1 all the runs go to one process pool of at most `jobs`
    workers, and never more workers than runs. The specs' run ids must differ:
    a matrix letter starts each of its run ids.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    probe = out / ".write-probe"
    try:
        probe.touch()
        probe.unlink()
    except OSError as exc:
        raise OSError(f"output directory {out} is not writable: {exc}") from exc

    tasks = [(spec, i) for spec in specs for i in range(spec.n_runs)]
    workers = min(jobs, len(tasks))
    if workers <= 1:
        results = [execute_run(spec, i, out) for spec, i in tasks]
    else:
        import concurrent.futures

        # every run is single-threaded, so one job per CPU fills the machine
        specs_in, runs = zip(*tasks)
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(execute_run, specs_in, runs, [out] * len(tasks)))
    ordered = iter(results)
    return [[next(ordered) for _ in range(spec.n_runs)] for spec in specs]


# -- statistics --------------------------------------------------------------


@dataclass(frozen=True)
class WilcoxonResult:
    w_statistic: float
    p_value: float
    n_effective: int
    flags: tuple[str, ...] = ()


def wilcoxon_signed_rank(paired_a, paired_b) -> WilcoxonResult:
    """Exact two-sided signed-rank test over all 2^n sign assignments.

    Zero differences are dropped. Ties get midranks. The p-value is exact:
    the rank-sum distribution is expanded by dynamic programming, which
    enumerates the same space as all 2^n assignments. A NaN or infinite
    value in either sample raises ValueError: it has no rank.
    """
    a = np.asarray(paired_a, dtype=float)
    b = np.asarray(paired_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("paired samples must be equal-length 1-D sequences")
    for name, sample in (("a", a), ("b", b)):
        bad = np.flatnonzero(~np.isfinite(sample))
        if bad.size:
            raise ValueError(f"sample {name} has a non-finite value {sample[bad[0]]} at pair {bad[0]}")
    diffs = a - b
    diffs = diffs[diffs != 0]
    n = len(diffs)
    if n == 0:
        return WilcoxonResult(
            w_statistic=float("nan"), p_value=float("nan"), n_effective=0,
            flags=("all-differences-zero",),
        )
    if n > 25:
        raise ValueError(f"exact enumeration supports n <= 25, got {n}")

    # a run of `count` equal |differences| ending at rank c shares the midrank c - (count - 1) / 2
    _, inverse, counts = np.unique(np.abs(diffs), return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2)[inverse]

    w_plus = float(ranks[diffs > 0].sum())
    w_minus = float(ranks[diffs < 0].sum())

    doubled = [int(round(2 * r)) for r in ranks]
    max_sum = sum(doubled)
    counts = np.zeros(max_sum + 1, dtype=float)
    counts[0] = 1.0
    for r in doubled:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[: max_sum + 1 - r]
        counts = counts + shifted
    total = 2.0**n
    w2 = int(round(2 * w_plus))
    cdf = counts[: w2 + 1].sum() / total
    sf = counts[w2:].sum() / total
    p = float(min(1.0, 2.0 * min(cdf, sf)))
    return WilcoxonResult(
        w_statistic=min(w_plus, w_minus), p_value=p, n_effective=n
    )


def wilcoxon_vs_baseline(
    reports_by_config: dict[str, list[MetricsReport]], baseline: str = "A"
) -> dict[str, WilcoxonResult]:
    """Paired signed-rank tests of each homogeneous MARL config against the
    all-rule baseline.

    Pairs are seed-matched runs: each config's reports are in run order (run
    i has seed base + i, one base for all configs), and run i of a config
    meets run i of the baseline, each scored by its `run_values` mean return,
    the summary's per-run number. So n = n_runs, and 8 runs can reach
    p = 2/2⁸ ≈ 0.0078. Mixed configs are excluded: their runs mix agent
    kinds. A config whose run count differs from the baseline's raises
    ValueError.
    """
    if baseline not in reports_by_config:
        return {}
    base = [run_values(r)["mean_return"] for r in reports_by_config[baseline]]
    results = {}
    for cid in MARL_ONLY_CONFIGS:
        if cid in reports_by_config:
            runs = [run_values(r)["mean_return"] for r in reports_by_config[cid]]
            if len(runs) != len(base):
                raise ValueError(f"config {cid} has {len(runs)} runs and {baseline} "
                                 f"{len(base)}: seed-matched pairs need equal run counts")
            results[cid] = wilcoxon_signed_rank(runs, base)
    return results


# -- the cross-run summary and plot data -------------------------------------

# the `AgentMetrics` fields and the `MetricsReport` fields in the summary
AGENT_COLUMNS = (
    "adjustment_magnitude", "adjustment_frequency", "price_cv", "price_volatility_std",
)
MARKET_COLUMNS = (
    "jain_index", "market_share_volatility_pp", "nash_proximity",
)


def run_values(report: MetricsReport) -> dict[str, float]:
    """One run's numbers, in summary column order: its mean return, each
    `AGENT_COLUMNS` metric as the mean over its agents, then its
    `MARKET_COLUMNS` metrics."""
    agents = report.agents.values()
    values = {"mean_return": float(report.mean_return())}
    values.update((key, float(np.mean([getattr(a, key) for a in agents]))) for key in AGENT_COLUMNS)
    values.update((key, getattr(report, key)) for key in MARKET_COLUMNS)
    return values


def summarize(reports_by_config: dict[str, list[MetricsReport]]) -> list[dict]:
    """The cross-run summary: one row per config, sorted by id, holding
    `config_id`, `n_runs`, then for each `run_values` key the mean over the
    runs as `<key>` and its 95 % CI half-width as `<key>_ci` (see
    `confidence_interval`; 0 for one run). When A's mean return is positive,
    every row ends with `delta_vs_A_pct`, its mean return relative to A's."""
    rows = []
    for cid, reports in sorted(reports_by_config.items()):
        runs = [run_values(r) for r in reports]
        row = {"config_id": cid, "n_runs": len(runs)}
        for key in runs[0]:
            row[key], row[f"{key}_ci"] = confidence_interval([v[key] for v in runs])
        rows.append(row)
    baseline = next((row["mean_return"] for row in rows if row["config_id"] == "A"), None)
    if baseline and baseline > 0:
        for row in rows:
            row["delta_vs_A_pct"] = 100.0 * (row["mean_return"] - baseline) / baseline
    return rows


def write_summary_csv(rows: list[dict], out_dir) -> str:
    """Write `summarize`'s rows to `out_dir/summary.csv`, floats to six
    places, and return its path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "summary.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: f"{v:.6f}" if isinstance(v, float) else v for k, v in row.items()})
    return str(path)


# Two-sided 95 % Student-t quantiles t(0.975, df) for df = 1..30; beyond, z = 1.96.
T_975 = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
)


def confidence_interval(values) -> tuple[float, float]:
    """Mean and 95 % CI half-width over run means: Student-t with n - 1
    degrees of freedom on the sample std (ddof=1); 0 for a single run."""
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    n = len(arr)
    if n < 2:
        return mean, 0.0
    quantile = T_975[n - 2] if n - 1 <= len(T_975) else 1.96
    return mean, quantile * float(arr.std(ddof=1)) / math.sqrt(n)


def emit_plotdata(reports_by_config: dict[str, list[MetricsReport]], out_dir) -> list[str]:
    """The plot data: `final_market_share.csv`, each agent's final-week share
    per config, with its CI over the runs. (`pricebench elasticity` writes the
    demand sweep's.)"""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "final_market_share.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["config_id", "agent_id", "mean_share", "ci_halfwidth", "n_runs", "flag"])
        for cid, reports in sorted(reports_by_config.items()):
            agent_ids = sorted(reports[0].final_market_share)
            for aid in agent_ids:
                values = [r.final_market_share[aid] for r in reports]
                mean, half = confidence_interval(values)
                flag = "single-run" if len(values) < 2 else ""
                writer.writerow(
                    [cid, aid, f"{mean:.6f}", f"{half:.6f}", len(values), flag]
                )
    return [str(path)]


def write_sweep_csv(demand_params, path) -> str:
    """Counterfactual price sweep of the reference model (one row per multiplier)."""
    model, query = sweep_reference(demand_params)
    scales = price_multipliers()
    prices, demands = elasticity_sweep(model, query, scales)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["multiplier", "price", "expected_demand"])
        for s, p, q in zip(scales, prices, demands):
            writer.writerow([f"{s:.6f}", f"{p:.6f}", f"{q:.6f}"])
    return str(path)
