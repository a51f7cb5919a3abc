"""Command-line entry point: configuration ingestion, the experiment
campaigns, and report emission.

Campaigns write into one directory per campaign, files named
<campaign>-<seed>.<ext>. Outputs are byte-reproducible for identical
(config, seeds): reports carry no wall-clock state.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Optional

from .configs import (
    ConfigError,
    EcosystemConfig,
    config_from_dict,
    contest_scaling_config,
    load_experiment_file,
    sweep_config,
    veto_demo,
    veto_demo_boundary,
    worked_example,
)
from .chain import block_log_entry
from .costmodel import GasCost, GasTable, PriceModel, min_viable_price, simulated_cost_report, transfer_cost
from .ecosystem import Ecosystem, RunReport, run, wallet_keypair

CAMPAIGNS = ("run", "sweep-validity", "contest-scaling", "cost-report", "veto-demo")

DEFAULT_VALIDITY_POINTS = tuple(range(10, 71, 5))
DEFAULT_N_VALUES = (4, 16, 64)


@dataclass(frozen=True)
class ExperimentSpec:
    campaign: str
    config: dict
    out_dir: Path
    seeds: tuple[int, ...]
    reps: int
    jitter: Optional[float] = None
    round_observer_cost: bool = True
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.campaign not in CAMPAIGNS:
            raise ConfigError(f"unknown campaign {self.campaign!r}; choose from {CAMPAIGNS}")
        if self.reps < 1:
            raise ConfigError("reps must be >= 1")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")


def _map_points(fn, points: list, jobs: int) -> Iterable:
    """Run campaign points sequentially or on a bounded worker pool; results
    come back in point order either way, so outputs stay byte-reproducible."""
    if jobs == 1 or len(points) <= 1:
        return [fn(p) for p in points]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, points))


def _ecosystem_config(spec: ExperimentSpec, default: EcosystemConfig) -> EcosystemConfig:
    raw = spec.config.get("ecosystem")
    cfg = config_from_dict(raw) if raw else default
    if spec.jitter is not None:
        cfg = replace(cfg, jitter=spec.jitter)
    return cfg


def _write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def _gas_table(spec: ExperimentSpec) -> GasTable:
    raw = spec.config.get("cost", {}).get("gas")
    if not raw:
        return GasTable()
    kinds = {}
    for kind, entry in raw.items():
        kinds[kind] = GasCost(float(entry["mean_kgas"]), float(entry.get("std_kgas", 0.0)))
    return GasTable(**kinds)


def _price_model(spec: ExperimentSpec) -> PriceModel:
    raw = spec.config.get("cost", {}).get("price")
    if not raw:
        return PriceModel()
    return PriceModel(
        gas_price_gwei=float(raw.get("gas_price_gwei", 10.0)),
        ether_usd=float(raw.get("ether_usd", 115.71)),
    )


def cmd_run(spec: ExperimentSpec) -> dict:
    """Single-ecosystem runs: report JSON, ledger CSV, and per-chain snapshots
    per seed; optionally a JSONL block log (one line per block)."""
    out = spec.out_dir / "run"
    base = _ecosystem_config(spec, worked_example())
    block_log = bool(spec.config.get("block_log", False))
    outputs, errors = [], []
    for seed in spec.seeds:
        eco = Ecosystem(base.with_seed(seed))
        report = eco.run()
        outputs.append(str(_write(out / f"run-{seed}.json", report.to_json())))
        outputs.append(str(_write(out / f"run-{seed}.csv", report.ledger_csv())))
        snapshots = json.dumps(report.chains, sort_keys=True, indent=2) + "\n"
        outputs.append(str(_write(out / f"run-{seed}.chains.json", snapshots)))
        if block_log:
            lines = [
                json.dumps(block_log_entry(chain.chain_id, block), sort_keys=True)
                for chain in eco.chains
                for block in chain.blocks
            ]
            outputs.append(str(_write(out / f"run-{seed}.blocks.jsonl", "\n".join(lines) + "\n")))
        if report.consistency:
            errors.append(
                {"seed": seed, "error": "inconsistent final balances", "detail": report.consistency}
            )
    return {"campaign": "run", "outputs": outputs, "errors": errors}


def _sweep_point(point: tuple) -> tuple:
    ecosystem_dict, validity, seed, jitter = point
    if ecosystem_dict:
        cfg = replace(config_from_dict(ecosystem_dict), validity_length=validity, seed=seed)
    else:
        cfg = sweep_config(validity=validity, seed=seed)
    if jitter is not None:
        cfg = replace(cfg, jitter=jitter)
    report = run(cfg)
    return validity, seed, report.stats["transfers_corrupted"], report.consistency


def cmd_sweep_validity(spec: ExperimentSpec) -> dict:
    """Corrupted-transfer counts over the validity-period grid, one CSV per
    seed plus an aggregated summary."""
    out = spec.out_dir / "sweep-validity"
    sweep_conf = spec.config.get("sweep", {})
    points = tuple(int(v) for v in sweep_conf.get("validity_points", DEFAULT_VALIDITY_POINTS))
    ecosystem_dict = spec.config.get("ecosystem")
    jobs = [
        (ecosystem_dict, validity, seed, spec.jitter)
        for seed in spec.seeds
        for validity in points
    ]
    results = _map_points(_sweep_point, jobs, spec.jobs)

    outputs, errors = [], []
    summary: dict[int, list[int]] = {v: [] for v in points}
    per_seed: dict[int, list[str]] = {seed: ["validity_seconds,corrupted"] for seed in spec.seeds}
    for validity, seed, corrupted, consistency in results:
        summary[validity].append(corrupted)
        per_seed[seed].append(f"{validity},{corrupted}")
        if consistency:
            errors.append(
                {
                    "seed": seed,
                    "validity": validity,
                    "error": "inconsistent final balances after resync",
                    "detail": consistency,
                }
            )
    for seed in spec.seeds:
        outputs.append(
            str(_write(out / f"sweep-validity-{seed}.csv", "\n".join(per_seed[seed]) + "\n"))
        )
    agg = ["validity_seconds,mean_corrupted,total_corrupted,seeds"]
    for validity in points:
        counts = summary[validity]
        agg.append(
            f"{validity},{sum(counts) / len(counts):.2f},{sum(counts)},{len(counts)}"
        )
    outputs.append(str(_write(out / "sweep-validity-summary.csv", "\n".join(agg) + "\n")))
    return {"campaign": "sweep-validity", "outputs": outputs, "errors": errors}


def _scaling_point(point: tuple) -> tuple:
    n, seed = point
    report = run(contest_scaling_config(n, seed=seed))
    per_chain = list(report.transfers[0]["contest_counts"].values())
    return n, seed, per_chain


def cmd_contest_scaling(spec: ExperimentSpec) -> dict:
    """Confirmed contests per chain for each observer count, against the
    harmonic-number expectation and the log2 bound."""
    out = spec.out_dir / "contest-scaling"
    scaling = spec.config.get("scaling", {})
    n_values = tuple(int(n) for n in scaling.get("n_values", DEFAULT_N_VALUES))
    runs = int(scaling.get("runs", max(len(spec.seeds), spec.reps)))
    base_seed = spec.seeds[0]
    points = [(n, base_seed + k) for n in n_values for k in range(runs)]
    results = _map_points(_scaling_point, points, spec.jobs)

    outputs, errors = [], []
    counts: dict[int, list[float]] = {n: [] for n in n_values}
    for n, seed, per_chain in results:
        if len(set(per_chain)) != 1:
            errors.append({"n": n, "seed": seed, "error": "contest counts differ across chains"})
        counts[n].append(per_chain[0])
    lines = ["n,runs,mean_contests_per_chain,std_error,harmonic_number,log2_n"]
    for n in n_values:
        mean = statistics.mean(counts[n])
        se = statistics.stdev(counts[n]) / math.sqrt(len(counts[n])) if len(counts[n]) > 1 else 0.0
        harmonic = sum(1 / k for k in range(1, n + 1))
        log2n = math.log2(n) if n > 1 else 0.0
        lines.append(f"{n},{runs},{mean:.6f},{se:.6f},{harmonic:.6f},{log2n:.6f}")
    outputs.append(
        str(_write(out / f"contest-scaling-{base_seed}.csv", "\n".join(lines) + "\n"))
    )
    return {"campaign": "contest-scaling", "outputs": outputs, "errors": errors}


def cmd_cost_and_incentive(spec: ExperimentSpec) -> dict:
    """Analytical per-role costs and token-price thresholds; joins in empirical
    counts when a run report is supplied."""
    out = spec.out_dir / "cost-report"
    cost_conf = spec.config.get("cost", {})
    m = int(cost_conf.get("m", 10))
    n = int(cost_conf.get("n", 10))
    n_grid = tuple(cost_conf.get("n_grid", (10, 100, 1000)))
    reward = int(cost_conf.get("reward", 1))
    gas = _gas_table(spec)
    price = _price_model(spec)
    errors: list[dict] = []

    cost = transfer_cost(m, n, gas, price)
    thresholds = {}
    for grid_n in n_grid:
        if grid_n < 2:
            errors.append({"n": grid_n, "error": "incentive threshold needs n >= 2"})
            continue
        thresholds[str(grid_n)] = min_viable_price(
            int(grid_n), m=m, reward=reward, gas=gas, price=price,
            round_observer_cost=spec.round_observer_cost,
        )
    payload = {
        "chains": m,
        "observers": n,
        "reward": reward,
        "round_observer_cost": spec.round_observer_cost,
        "transfer_cost": {
            "receiver_kgas": cost.receiver_kgas,
            "receiver_usd": cost.receiver_usd,
            "observer_kgas": cost.observer_kgas,
            "observer_usd": cost.observer_usd,
            "sender_usd": cost.sender_usd,
            "expected_posting_observers": cost.expected_posting_observers,
        },
        "min_viable_price_usd": thresholds,
    }
    run_report_path = cost_conf.get("run_report")
    if run_report_path:
        run_data = json.loads(Path(run_report_path).read_text())
        payload["simulated"] = simulated_cost_report(run_data, gas, price)

    outputs = [str(_write(out / "cost-report.json", json.dumps(payload, sort_keys=True, indent=2) + "\n"))]
    table = [
        f"{'role':<10} {'kGas':>10} {'USD':>10}",
        f"{'receiver':<10} {cost.receiver_kgas:>10.1f} {cost.receiver_usd:>10.2f}",
        f"{'observer':<10} {cost.observer_kgas:>10.1f} {cost.observer_usd:>10.2f}",
        f"{'sender':<10} {0.0:>10.1f} {0.0:>10.2f}",
        "",
        f"{'n':>6} {'min viable token price (USD)':>30}",
    ]
    for grid_n, value in thresholds.items():
        table.append(f"{grid_n:>6} {value:>30.2f}")
    outputs.append(str(_write(out / "cost-report.txt", "\n".join(table) + "\n")))
    return {"campaign": "cost-report", "outputs": outputs, "errors": errors}


def cmd_veto_demo(spec: ExperimentSpec) -> dict:
    """Scripted double-spend scenarios: standard, partial-finalization
    boundary, and a conflict-free control."""
    out = spec.out_dir / "veto-demo"
    outputs, errors = [], []
    for seed in spec.seeds:
        scenarios = {
            "double_spend": run(veto_demo(seed)),
            "boundary": run(veto_demo_boundary(seed)),
            "control": run(worked_example(seed)),
        }
        payload = {}
        for label, report in scenarios.items():
            payload[label] = _veto_summary(report)
            for issue in _veto_assertions(label, report):
                errors.append({"seed": seed, "scenario": label, "error": issue})
        outputs.append(
            str(_write(out / f"veto-demo-{seed}.json", json.dumps(payload, sort_keys=True, indent=2) + "\n"))
        )
    return {"campaign": "veto-demo", "outputs": outputs, "errors": errors}


def _veto_summary(report: RunReport) -> dict:
    addr_to_name = {
        wallet_keypair(report.seed, name).public_key.hex(): name
        for name in report.config["wallets"]
    }
    balances_by_name: dict[str, list[int]] = {}
    for snap in report.chains:
        for addr, value in snap["balances"].items():
            balances_by_name.setdefault(addr_to_name.get(addr, addr), []).append(value)
    return {
        "balances": {name: values for name, values in sorted(balances_by_name.items())},
        "burned_per_chain": [snap["burned"] for snap in report.chains],
        "vetoes": report.vetoes,
        "transfers": [
            {
                "sender": t["sender"],
                "recipient": t["recipient"],
                "executed_chains": t["executed_chains"],
                "vetoed_chains": t["vetoed_chains"],
                "corrupted": t["corrupted"],
            }
            for t in report.transfers
        ],
        "consistency": report.consistency,
        "stats": report.stats,
    }


def _veto_assertions(label: str, report: RunReport) -> list[str]:
    issues = []
    if report.consistency:
        issues.append("final balances inconsistent across chains")
    if label in ("double_spend", "boundary"):
        if not report.vetoes:
            issues.append("no veto contest recorded")
        for row in report.vetoes:
            if not row["consistent_winner"]:
                issues.append("veto winners differ across chains")
    if label == "control":
        if report.vetoes:
            issues.append("control scenario unexpectedly triggered the veto path")
        if report.stats["transfers_executed"] != len(report.transfers):
            issues.append("control transfer did not complete")
    return issues


_HANDLERS = {
    "run": cmd_run,
    "sweep-validity": cmd_sweep_validity,
    "contest-scaling": cmd_contest_scaling,
    "cost-report": cmd_cost_and_incentive,
    "veto-demo": cmd_veto_demo,
}


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad seed list {text!r}") from err


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panchain",
        description="Experiment campaigns for the pan-blockchain transfer simulator.",
    )
    parser.add_argument("--campaign", required=True, choices=CAMPAIGNS)
    parser.add_argument("--config", type=Path, default=None, help="experiment JSON file")
    parser.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    parser.add_argument("--seeds", type=_parse_seeds, default=(0,), help="comma-separated seed list")
    parser.add_argument("--reps", type=int, default=1, help="repetitions per campaign point")
    parser.add_argument("--jobs", type=int, default=1, help="campaign-point worker pool size")
    parser.add_argument("--jitter", type=float, default=None, help="block-time jitter fraction override")
    parser.add_argument(
        "--round-observer-cost",
        type=_parse_bool,
        default=True,
        metavar="BOOL",
        help="round the observer cost to cents before solving the incentive threshold",
    )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_experiment_file(args.config) if args.config else {}
        spec = ExperimentSpec(
            campaign=args.campaign,
            config=config,
            out_dir=args.out,
            seeds=args.seeds,
            reps=args.reps,
            jitter=args.jitter,
            round_observer_cost=args.round_observer_cost,
            jobs=args.jobs,
        )
        result = _HANDLERS[spec.campaign](spec)
    except ConfigError as err:
        print(json.dumps({"status": "error", "error": str(err)}), file=sys.stderr)
        return 2
    status = "ok" if not result["errors"] else "failed"
    print(json.dumps({"status": status, **result}, sort_keys=True))
    return 0 if status == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
