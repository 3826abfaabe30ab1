"""Config-driven experiment runner: the A-H configuration matrix, seeded
multi-run execution with per-run artifact directories, exact small-sample
Wilcoxon testing, and summary/plot-data emission.

Experiment JSON schema. Every key names a field of `ExperimentSpec`, every
`market` key a field of `market.MarketConfig`, every `market.agent_roster`
entry's key a field of `AgentSpec` and every `market.demand_params` key a
field of `DemandParams` (see `market.from_fields`); any other key is a
ConfigError (exit code 1):

    {
      "config_id": "A".."H" | "custom",      default "custom"
      "n_runs": 8,
      "checkpoint_every": 0,
      "roster_params": {"<kind>": {...}},   a matrix letter's params per agent kind
      "market": {"agent_roster": [...], "clusters": [1, 2, 3, 5, 10], ...}
    }

A matrix letter builds its roster unless `market.agent_roster` is given;
"custom" requires `market.agent_roster`, and `roster_params` goes only with
a letter's roster.
"""

from __future__ import annotations

import concurrent.futures
import csv
import hashlib
import json
import logging
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, nn
from .demand import ParametricDemandModel, elasticity_sweep, neutral_query, price_multipliers
from .environment import PricingAgentBase, run_episode, write_history_csv
from .market import (
    AgentSpec,
    ConfigError,
    JsonFields,
    MarketConfig,
    ProductSpec,
    from_fields,
    make_default_portfolio,
)
from .marl import (
    DqnHyper,
    MaddpgHyper,
    MadqnAgent,
    QmixHyper,
    build_maddpg_team,
    build_qmix_team,
)
from .marl.common import parse_hyper
from .metrics import MetricsReport, compute_report
from .rule_agents import DIVERSE_STRATEGIES, RuleAgent, RuleStrategy

log = logging.getLogger(__name__)

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
    unknown = sorted(shared.keys() - set(AgentSpec.KNOWN_KINDS))
    if unknown:
        raise ConfigError(
            f"unknown roster_params kinds {unknown}; accepted: {list(AgentSpec.KNOWN_KINDS)}"
        )
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


@dataclass
class ExperimentSpec(JsonFields):
    config_id: str
    market: MarketConfig
    n_runs: int = 8
    checkpoint_every: int = 0

    def validate(self) -> "ExperimentSpec":
        if self.config_id != "custom" and self.config_id not in CONFIG_MATRIX:
            raise ConfigError(f"unknown config_id {self.config_id!r}")
        if self.n_runs < 1:
            raise ConfigError("n_runs must be >= 1")
        if self.checkpoint_every < 0:
            raise ConfigError("checkpoint_every must be >= 0 (0 disables checkpoints)")
        self.market.validate()
        roster_settings(self.market.agent_roster)
        return self

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
        return from_fields(cls, d).validate()

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


def config_hash(config_dict: dict) -> str:
    return hashlib.sha256(
        json.dumps(config_dict, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def rule_strategy(params: dict) -> RuleStrategy:
    """A rule agent's strategy from its roster `params`: `strategy` names the
    kind, and each other key a RuleStrategy field."""
    settings = {k: v for k, v in params.items() if k != "strategy"}
    return from_fields(RuleStrategy, settings, "rule params (besides 'strategy')",
                       kind=params.get("strategy", "static_markup"))


SETTINGS_BY_KIND = {
    "rule": rule_strategy,
    "madqn": lambda params: parse_hyper(DqnHyper, params, "epsilon"),
    "maddpg": lambda params: parse_hyper(MaddpgHyper, params, "noise"),
    "qmix": lambda params: parse_hyper(QmixHyper, params, "epsilon"),
}


def roster_settings(roster: list[AgentSpec]) -> dict:
    """Each roster entry's settings by agent id, parsed from its `params`: a
    RuleStrategy or the learner's hyper-parameters. A MADDPG or QMIX team
    trains under one set, so its members' `params` must agree. Any bad key
    or a team whose members' `params` differ raises ConfigError."""
    for kind in ("maddpg", "qmix"):
        team = [s for s in roster if s.agent_kind == kind]
        differ = [s.agent_id for s in team if s.params != team[0].params]
        if differ:
            raise ConfigError(
                f"a {kind} team trains under one params dict, but {differ} differ from "
                f"{team[0].agent_id}'s"
            )
    return {s.agent_id: SETTINGS_BY_KIND[s.agent_kind](s.params) for s in roster}


def build_agents(config: MarketConfig) -> list[PricingAgentBase]:
    """Instantiate the roster. Team-based kinds share one coordinator per config."""
    settings = roster_settings(config.agent_roster)
    portfolio = make_default_portfolio(config.clusters, config.seed)
    by_kind: dict[str, list[str]] = {}
    for spec in config.agent_roster:
        by_kind.setdefault(spec.agent_kind, []).append(spec.agent_id)

    built: dict[str, PricingAgentBase] = {}
    for aid in by_kind.get("rule", []):
        built[aid] = RuleAgent(aid, portfolio, config, settings[aid])
    for aid in by_kind.get("madqn", []):
        built[aid] = MadqnAgent(aid, portfolio, config, settings[aid])
    for kind, build_team in (("maddpg", build_maddpg_team), ("qmix", build_qmix_team)):
        ids = by_kind.get(kind)
        if ids:
            team = build_team(ids, portfolio, config, settings[ids[0]])
            built.update({a.agent_id: a for a in team})
    return [built[spec.agent_id] for spec in config.agent_roster]


def execute_run(
    spec: ExperimentSpec, run_index: int, output_dir
) -> tuple[RunManifest, MetricsReport]:
    """One isolated simulation run: seeded, simulated, measured, persisted."""
    started = datetime.now(timezone.utc).isoformat()
    run_config = spec.market.copy_with(seed=spec.market.seed + run_index).validate()
    run_id = f"{spec.config_id}-seed{run_config.seed}-run{run_index:02d}"
    out = Path(output_dir)
    run_dir = out / run_id
    run_dir.mkdir(parents=True, exist_ok=True)

    agents = build_agents(run_config)
    model = ParametricDemandModel(run_config.demand_params)
    episodes = []
    for ep in range(run_config.episodes):
        episodes.append(run_episode(run_config, agents, model, ep))
        if spec.checkpoint_every and (ep + 1) % spec.checkpoint_every == 0:
            # every learner's online nets, each one's `flat` keyed <agent_id>.<role>
            nets = {f"{a.agent_id}.{role}": net.flat for a in agents for role, net in a.nets.items()}
            np.savez(run_dir / f"ep{ep + 1}.npz", **nets)
    # the report and the artifacts read only the episode records: free the
    # agents' nets, buffers and replay before the history CSV is built
    del agents
    report = compute_report(episodes)

    write_history_csv(episodes, run_dir / "history.csv")
    with open(run_dir / "metrics.json", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report.to_json() + "\n")
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
    )
    with open(run_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest.to_dict(), fh, indent=2, sort_keys=True)
    return manifest, report


def _execute_run_payload(payload: tuple[dict, int, str]) -> tuple[dict, dict]:
    spec_dict, run_index, output_dir = payload
    spec = ExperimentSpec.from_dict(spec_dict)
    manifest, report = execute_run(spec, run_index, output_dir)
    return manifest.to_dict(), report.to_dict()


def run_experiment(
    spec: ExperimentSpec, output_dir, jobs: int = 1
) -> list[tuple[RunManifest, MetricsReport]]:
    """Execute n_runs independent runs (seeds = base + index); return all results."""
    spec.validate()
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

    results: list[tuple[RunManifest, MetricsReport]] = []
    if jobs <= 1:
        for i in range(spec.n_runs):
            results.append(execute_run(spec, i, out))
    else:
        payloads = [(spec.to_dict(), i, str(out)) for i in range(spec.n_runs)]
        # the jobs fill the CPUs, so no job splits its passes over a second thread
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=jobs, initializer=nn.use_one_thread
        ) as pool:
            for manifest_d, report_d in pool.map(_execute_run_payload, payloads):
                results.append(
                    (RunManifest.from_dict(manifest_d), MetricsReport.from_dict(report_d))
                )
    return results


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
    enumerates the same space as all 2^n assignments.
    """
    a = np.asarray(paired_a, dtype=float)
    b = np.asarray(paired_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("paired samples must be equal-length 1-D sequences")
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

    abs_diffs = np.abs(diffs)
    order = np.argsort(abs_diffs, kind="stable")
    ranks = np.empty(n)
    sorted_abs = abs_diffs[order]
    i = 0
    rank_pos = 1
    while i < n:
        j = i
        while j + 1 < n and sorted_abs[j + 1] == sorted_abs[i]:
            j += 1
        midrank = (rank_pos + (rank_pos + (j - i))) / 2.0
        for k in range(i, j + 1):
            ranks[order[k]] = midrank
        rank_pos += j - i + 1
        i = j + 1

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
    p = min(1.0, 2.0 * min(cdf, sf))
    return WilcoxonResult(
        w_statistic=min(w_plus, w_minus), p_value=p, n_effective=n
    )


def wilcoxon_vs_baseline(
    reports_by_config: dict[str, list[MetricsReport]], baseline: str = "A"
) -> dict[str, WilcoxonResult]:
    """Paired signed-rank tests of each homogeneous MARL config against the
    all-rule baseline.

    Pairs are per agent slot: each agent's mean return averaged over runs,
    matched against the same slot in the baseline (n = roster size). Mixed
    configs are excluded: their per-slot returns mix agent kinds and are not
    comparable pairs.
    """
    if baseline not in reports_by_config:
        return {}

    def slot_means(reports: list[MetricsReport]) -> list[float]:
        ids = sorted(reports[0].agents)
        return [float(np.mean([r.agents[a].mean_return for r in reports])) for a in ids]

    base = slot_means(reports_by_config[baseline])
    results = {}
    for cid in MARL_ONLY_CONFIGS:
        if cid in reports_by_config:
            results[cid] = wilcoxon_signed_rank(slot_means(reports_by_config[cid]), base)
    return results


# -- summaries and plot data --------------------------------------------------


def _mean_std(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std())


def summarize(reports_by_config: dict[str, list[MetricsReport]]) -> dict[str, list[dict]]:
    """Cross-run tables: returns vs the all-rule baseline, adaptability, dynamics."""
    per_config = {
        cid: _mean_std([np.mean([a.mean_return for a in r.agents.values()]) for r in reports])
        for cid, reports in reports_by_config.items()
    }
    baseline = per_config.get("A", (None,))[0]
    returns_rows = []
    for cid in sorted(per_config):
        mean, std = per_config[cid]
        row = {"config_id": cid, "mean_return": mean, "std_return": std}
        if baseline and baseline > 0:
            row["delta_vs_A_pct"] = 100.0 * (mean - baseline) / baseline
        returns_rows.append(row)

    adaptability_rows = []
    for cid, reports in sorted(reports_by_config.items()):
        mags, freqs, stabs, vols = [], [], [], []
        for r in reports:
            for a in r.agents.values():
                mags.append(a.adjustment_magnitude)
                freqs.append(a.adjustment_frequency)
                stabs.append(a.price_stability)
                vols.append(a.price_cv)
        adaptability_rows.append(
            {
                "config_id": cid,
                "adjustment_magnitude": float(np.mean(mags)),
                "adjustment_frequency": float(np.mean(freqs)),
                "price_stability": float(np.mean(stabs)),
                "price_volatility": float(np.mean(vols)),
            }
        )

    dynamics_rows = []
    for cid, reports in sorted(reports_by_config.items()):
        jain_m, jain_s = _mean_std([r.jain_index for r in reports])
        mv_m, mv_s = _mean_std([r.market_share_volatility_pp for r in reports])
        dynamics_rows.append(
            {
                "config_id": cid,
                "jain_mean": jain_m,
                "jain_std": jain_s,
                "market_volatility_pp_mean": mv_m,
                "market_volatility_pp_std": mv_s,
                "nash_proximity": float(np.mean([r.nash_proximity for r in reports])),
                "price_convergence": float(np.mean([r.price_convergence for r in reports])),
                "mean_optimality_gap": float(np.mean([r.mean_optimality_gap for r in reports])),
                "welfare_fairness": float(np.mean([r.welfare_fairness for r in reports])),
            }
        )
    return {
        "returns": returns_rows,
        "adaptability": adaptability_rows,
        "dynamics": dynamics_rows,
    }


def write_summary_csvs(tables: dict[str, list[dict]], out_dir) -> list[str]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, rows in tables.items():
        if not rows:
            continue
        path = out / f"summary_{name}.csv"
        fieldnames = list(rows[0].keys())
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fieldnames)
            writer.writeheader()
            for row in rows:
                writer.writerow({k: _fmt(v) for k, v in row.items()})
        written.append(str(path))
    return written


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.6f}"
    return v


def confidence_interval(values, z: float = 1.96) -> tuple[float, float]:
    """Normal-approximation CI half-width over run means (sample std, ddof=1)."""
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    if len(arr) < 2:
        return mean, 0.0
    half = z * float(arr.std(ddof=1)) / math.sqrt(len(arr))
    return mean, half


def emit_plotdata(
    reports_by_config: dict[str, list[MetricsReport]],
    out_dir,
    demand_params=None,
) -> list[str]:
    """Per-figure CSVs: final-episode shares with CI, and the demand sweep."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

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
    written.append(str(path))

    if demand_params is not None:
        path = out / "price_demand_curve.csv"
        written.append(str(write_sweep_csv(demand_params, path)))
    return written


def write_sweep_csv(demand_params, path) -> str:
    """Counterfactual price sweep of the reference model (one row per multiplier)."""
    spec = ProductSpec(
        product_id="sweep", cluster_id=0, initial_price=10.0, unit_cost=6.0, baseline_demand=100.0
    )
    params = demand_params.with_clusters([0])
    model = ParametricDemandModel(params)
    query = neutral_query(spec)
    scales = price_multipliers()
    prices, demands = elasticity_sweep(model, query, scales)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["multiplier", "price", "expected_demand"])
        for s, p, q in zip(scales, prices, demands):
            writer.writerow([f"{s:.6f}", f"{p:.6f}", f"{q:.6f}"])
    return str(path)
