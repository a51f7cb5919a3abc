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
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Optional, TextIO

from .configs import (
    ConfigError,
    EcosystemConfig,
    config_from_dict,
    contest_scaling_config,
    load_experiment_file,
    read,
    sweep_config,
    veto_demo,
    veto_demo_boundary,
    worked_example,
)
from .chain import block_log
from .costmodel import GasTable, PriceModel, min_viable_price, simulated_cost_report, transfer_cost
from .ecosystem import Ecosystem, run
from .report import RunReport, dumps, wallet_name


def _no_duplicates(values: tuple, name: str) -> None:
    # A repeated point would run twice and its summary row would count it twice.
    if len(set(values)) != len(values):
        raise ConfigError(f"{name} lists a value more than once: {list(values)}")


@dataclass(frozen=True)
class SweepSection:
    validity_points: tuple[int, ...] = tuple(range(10, 71, 5))

    def __post_init__(self) -> None:
        # Checked whichever campaign runs; the sweep also checks each
        # point's whole config before it runs any.
        if not all(1 <= v < 2**63 for v in self.validity_points):
            raise ConfigError("validity_points must be at least 1 second and below 2^63")
        _no_duplicates(self.validity_points, "validity_points")


@dataclass(frozen=True)
class ScalingSection:
    n_values: tuple[int, ...] = (4, 16, 64)
    runs: Optional[int] = None  # None: one run per seed; else seeds[0] + k for k < runs

    def __post_init__(self) -> None:
        if self.runs is not None and self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if min(self.n_values, default=0) < 0:
            raise ConfigError("n_values must be non-negative observer counts")
        _no_duplicates(self.n_values, "n_values")


@dataclass(frozen=True)
class CostSection:
    m: int = 10
    n: int = 10
    n_grid: tuple[int, ...] = (10, 100, 1000)
    reward: int = 1
    gas: GasTable = GasTable()
    price: PriceModel = PriceModel()

    def __post_init__(self) -> None:
        if min(self.m, self.n, self.reward) < 1:
            raise ConfigError("m, n and reward must be >= 1")


@dataclass(frozen=True)
class ExperimentFile:
    """An experiment file. Its ecosystem section is read by config_from_dict;
    None (absent, null or {}) means each campaign's own preset."""

    ecosystem: Optional[EcosystemConfig] = None
    sweep: SweepSection = SweepSection()
    scaling: ScalingSection = ScalingSection()
    cost: CostSection = CostSection()
    block_log: bool = False


@dataclass(frozen=True)
class ExperimentSpec:
    campaign: str
    config: dict  # the experiment file's JSON object
    out_dir: Path
    seeds: tuple[int, ...]
    jobs: int = 1
    sections: ExperimentFile = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.campaign not in CAMPAIGNS:
            raise ConfigError(f"unknown campaign {self.campaign!r}; choose from {CAMPAIGNS}")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        _no_duplicates(self.seeds, "--seeds")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        raw = dict(self.config)
        ecosystem = raw.pop("ecosystem", None)
        ecosystem = None if ecosystem in (None, {}) else config_from_dict(ecosystem)
        object.__setattr__(self, "sections", read(ExperimentFile, raw, "config", ecosystem=ecosystem))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_points(fn, points: list, jobs: int) -> Iterable:
    """Run campaign points sequentially or on a worker pool no larger than
    the jobs asked for, the points, or the CPUs this process may use (a
    forked pool starts every worker at once); results come back in point
    order either way, so outputs stay byte-reproducible."""
    workers = min(jobs, len(points), _usable_cpus())
    if workers <= 1:
        return [fn(p) for p in points]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, points))


def _campaign_dir(path: Path) -> Path:
    """Make a campaign's output directory before any of its points runs."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"--out: cannot make {path}: {err}") from err
    return path


def _open_output(path: Path) -> TextIO:
    """Open one output file for writing as UTF-8; one that cannot be opened
    (say, a directory stands at its path) is a ConfigError naming it."""
    try:
        return path.open("w", encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"--out: cannot write {path}: {err}") from err


def _write(path: Path, text: str) -> Path:
    with _open_output(path) as file:
        file.write(text)
    return path


def cmd_run(spec: ExperimentSpec) -> dict:
    """Single-ecosystem runs: report JSON, ledger CSV, and per-chain snapshots
    per seed; optionally a JSONL block log (one line per block). A run's
    ecosystem is freed before its files are written; its chains are kept
    only for the block log, and they and its report are freed before the
    next run starts."""
    out = _campaign_dir(spec.out_dir / "run")
    base = spec.sections.ecosystem or worked_example()
    outputs, errors = [], []
    for seed in spec.seeds:
        eco = Ecosystem(replace(base, seed=seed))
        report = eco.run()
        chains = eco.chains if spec.sections.block_log else ()
        del eco
        report_path = _write(out / f"run-{seed}.json", report.to_json())
        chains_path = out / f"run-{seed}.chains.json"
        with _open_output(chains_path) as file:
            report.chains_json(file)
        ledger_path = _write(out / f"run-{seed}.csv", report.ledger_csv())
        outputs += [str(report_path), str(ledger_path), str(chains_path)]
        if spec.sections.block_log:
            log_path = out / f"run-{seed}.blocks.jsonl"
            with _open_output(log_path) as file:
                for chain in chains:
                    for entry in block_log(chain):
                        file.write(json.dumps(entry, sort_keys=True) + "\n")
            outputs.append(str(log_path))
        if report.consistency:
            errors.append(
                {"seed": seed, "error": "inconsistent final balances", "detail": report.consistency}
            )
        del report, chains
    return {"campaign": "run", "outputs": outputs, "errors": errors}


def _sweep_point(point: tuple) -> tuple:
    config, seed = point
    report = run(replace(config, seed=seed))
    return config.validity_length, seed, report.stats["transfers_corrupted"], report.consistency


def cmd_sweep_validity(spec: ExperimentSpec) -> dict:
    """Corrupted-transfer counts over the validity-period grid, one CSV per
    seed plus an aggregated summary. Every point's config is checked before
    the campaign's directory is made."""
    points = spec.sections.sweep.validity_points
    base = spec.sections.ecosystem or sweep_config()
    try:
        configs = [replace(base, validity_length=validity) for validity in points]
    except ConfigError as err:
        raise ConfigError(f"sweep.validity_points: {err}") from err
    out = _campaign_dir(spec.out_dir / "sweep-validity")
    jobs = [(config, seed) for seed in spec.seeds for config in configs]
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
    n, base, seed = point
    report = run(replace(base, seed=seed))
    per_chain = list(report.transfers[0]["contest_counts"].values())
    return n, seed, per_chain


def _std_error(counts: list[int]) -> float:
    """The standard error of the mean of two or more ``counts``: the exact
    sample variance over the number of counts, then one correctly rounded
    square root, an integer root of at least 55 bits with a sticky last bit
    (round to odd), which scaling back to a float rounds once."""
    runs = len(counts)
    num, den = runs * sum(c * c for c in counts) - sum(counts) ** 2, runs * runs * (runs - 1)
    k = max(0, (112 - num.bit_length() + den.bit_length()) // 2)
    root = math.isqrt((num << 2 * k) // den)
    return (root | (root * root * den != num << 2 * k)) / (1 << k)


def cmd_contest_scaling(spec: ExperimentSpec) -> dict:
    """Confirmed contests per chain for each observer count, against the
    harmonic-number expectation and the log2 bound."""
    n_values = spec.sections.scaling.n_values
    runs = spec.sections.scaling.runs
    base_seed = spec.seeds[0]
    seeds = spec.seeds if runs is None else [base_seed + k for k in range(runs)]
    try:
        bases = {n: contest_scaling_config(n) for n in n_values}
    except ConfigError as err:
        raise ConfigError(f"scaling.n_values: {err}") from err
    out = _campaign_dir(spec.out_dir / "contest-scaling")
    points = [(n, bases[n], seed) for n in n_values for seed in seeds]
    results = _map_points(_scaling_point, points, spec.jobs)

    outputs, errors = [], []
    counts: dict[int, list[int]] = {n: [] for n in n_values}
    for n, seed, per_chain in results:
        if len(set(per_chain)) != 1:
            errors.append({"n": n, "seed": seed, "error": "contest counts differ across chains"})
        counts[n].append(per_chain[0])
    lines = ["n,runs,mean_contests_per_chain,std_error,harmonic_number,log2_n"]
    for n in n_values:
        mean = sum(counts[n]) / len(counts[n])
        se = _std_error(counts[n]) if len(counts[n]) > 1 else 0.0
        harmonic = float(sum(Fraction(1, k) for k in range(1, n + 1)))
        log2n = math.log2(n) if n > 1 else 0.0
        lines.append(f"{n},{len(seeds)},{mean:.6f},{se:.6f},{harmonic:.6f},{log2n:.6f}")
    outputs.append(
        str(_write(out / f"contest-scaling-{base_seed}.csv", "\n".join(lines) + "\n"))
    )
    return {"campaign": "contest-scaling", "outputs": outputs, "errors": errors}


def cmd_cost_and_incentive(spec: ExperimentSpec) -> dict:
    """Analytical per-role costs and token-price thresholds, and the priced
    transactions of the ``run`` campaign's run at the first seed. Analytic
    figures are found finite before anything runs, all before any write."""
    conf = spec.sections.cost
    errors = [{"n": n, "error": "incentive threshold needs n >= 2"} for n in conf.n_grid if n < 2]
    # Float arithmetic raises OverflowError on an integer too large to
    # convert, and dumps a ValueError on an infinity or a NaN.
    overflow = "config.cost: counts or prices so large that a cost overflows"
    try:
        cost = transfer_cost(conf.m, conf.n, conf.gas, conf.price)
        thresholds = {
            str(n): min_viable_price(n, conf.m, conf.reward, conf.gas, conf.price)
            for n in conf.n_grid if n >= 2
        }
        payload = {
            "chains": conf.m,
            "observers": conf.n,
            "reward": conf.reward,
            "round_observer_cost": True,
            "transfer_cost": asdict(cost),
            "min_viable_price_usd": thresholds,
        }
        dumps(payload)
    except (OverflowError, ValueError) as err:
        raise ConfigError(overflow) from err

    out = _campaign_dir(spec.out_dir / "cost-report")
    report = run(replace(spec.sections.ecosystem or worked_example(), seed=spec.seeds[0]))
    try:
        payload["simulated"] = simulated_cost_report(
            report.tx_counts, report.stats["transfers_executed"], conf.gas, conf.price
        )
        text = dumps(payload)
    except (OverflowError, ValueError) as err:
        raise ConfigError(overflow) from err
    outputs = [str(_write(out / "cost-report.json", text))]
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
    scenarios = {"double_spend": veto_demo(), "boundary": veto_demo_boundary(), "control": worked_example()}
    out = _campaign_dir(spec.out_dir / "veto-demo")
    outputs, errors = [], []
    for seed in spec.seeds:
        payload = {}
        for label, config in scenarios.items():
            eco = Ecosystem(replace(config, seed=seed))
            report = eco.run()
            payload[label] = _veto_summary(report, eco)
            for issue in _veto_assertions(label, report):
                errors.append({"seed": seed, "scenario": label, "error": issue})
        outputs.append(str(_write(out / f"veto-demo-{seed}.json", dumps(payload))))
    return {"campaign": "veto-demo", "outputs": outputs, "errors": errors}


def _veto_summary(report: RunReport, eco: Ecosystem) -> dict:
    balances_by_name: dict[str, list[int]] = {}
    for chain in eco.chains:
        for wallet, value in sorted(chain.state.balances.items()):
            balances_by_name.setdefault(wallet_name(eco.names, wallet), []).append(value)
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
CAMPAIGNS = tuple(_HANDLERS)


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
    parser.add_argument("--jobs", type=int, default=1, help="campaign-point worker pool size")
    return parser


# A refusal names its field and rule first; what follows can echo a whole
# input, so main writes at most this many characters of it.
ERROR_CHARS = 500


def _bounded(message: str) -> str:
    cut = len(message) - ERROR_CHARS
    return message if cut <= 0 else f"{message[:ERROR_CHARS]}... ({cut} more characters cut)"


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
            jobs=args.jobs,
        )
        result = _HANDLERS[spec.campaign](spec)
    except ConfigError as err:
        print(json.dumps({"status": "error", "error": _bounded(str(err))}), file=sys.stderr)
        return 2
    status = "ok" if not result["errors"] else "failed"
    print(json.dumps({"status": status, **result}, sort_keys=True))
    return 0 if status == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
