import gc
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from panchain import cli
from panchain.cli import (
    ExperimentSpec,
    cmd_contest_scaling,
    cmd_cost_and_incentive,
    cmd_run,
    cmd_sweep_validity,
    cmd_veto_demo,
    main,
)
from panchain.configs import ConfigError, EcosystemConfig, WalletSpec
from panchain.costmodel import TransferCost
from panchain.ecosystem import Ecosystem
from panchain.report import RunReport

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).resolve().parent.parent


def spec_for(campaign, out_dir, config=None, seeds=(0,), **kw):
    return ExperimentSpec(
        campaign=campaign, config=config or {}, out_dir=Path(out_dir), seeds=tuple(seeds), **kw,
    )


def test_cmd_run_matches_golden_snapshot(tmp_path):
    result = cmd_run(spec_for("run", tmp_path))
    assert result["errors"] == []
    produced = (tmp_path / "run" / "run-0.chains.json").read_text()
    assert produced == (GOLDEN / "worked-example-chains.json").read_text()
    ledger = (tmp_path / "run" / "run-0.csv").read_text()
    assert ledger == (GOLDEN / "worked-example-ledger.csv").read_text()


def test_cmd_run_block_log(tmp_path):
    result = cmd_run(spec_for("run", tmp_path, config={"block_log": True}))
    assert result["errors"] == []
    lines = (tmp_path / "run" / "run-0.blocks.jsonl").read_text().splitlines()
    entries = [json.loads(line) for line in lines]
    assert {e["chain_id"] for e in entries} == {0, 1, 2}
    kinds = [tx["kind"] for e in entries for tx in e["txs"]]
    assert kinds.count("claim") == 1 and kinds.count("contest") == 9


@pytest.mark.parametrize("block_log", [False, True])
def test_run_frees_each_ecosystem_before_writing_its_files(tmp_path, monkeypatch, block_log):
    # With the cyclic collector off, only reference counts can free a run's
    # ecosystem before its report is written.
    made, freed = [], []
    init, to_json = Ecosystem.__init__, RunReport.to_json

    def keep(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(weakref.ref(self))

    def write(self):
        freed.append(made[-1]() is None)
        return to_json(self)

    monkeypatch.setattr(Ecosystem, "__init__", keep)
    monkeypatch.setattr(RunReport, "to_json", write)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"block_log": block_log}))
    gc.disable()
    try:
        code = main(["--campaign", "run", "--config", str(path), "--out", str(tmp_path), "--seeds", "0,1"])
    finally:
        gc.enable()
    assert code == 0 and freed == [True, True]
    for seed in (0, 1):
        assert (tmp_path / "run" / f"run-{seed}.blocks.jsonl").exists() == block_log


@pytest.mark.parametrize("block_log", [False, True])
def test_run_frees_each_report_before_the_next_run(tmp_path, monkeypatch, block_log):
    reports, freed = [], []
    run = Ecosystem.run

    def keep(self):
        freed.extend(ref() is None for ref in reports)
        report = run(self)
        reports.append(weakref.ref(report))
        return report

    monkeypatch.setattr(Ecosystem, "run", keep)
    gc.disable()
    try:
        cmd_run(spec_for("run", tmp_path, config={"block_log": block_log}, seeds=(0, 1, 2)))
    finally:
        gc.enable()
    assert len(reports) == 3 and freed == [True, True, True]


def test_cmd_run_duration_zero_empty_ledger(tmp_path):
    config = {"ecosystem": {"chains": 2, "wallets": {"a": 10}, "duration": 0}}
    result = cmd_run(spec_for("run", tmp_path, config=config))
    assert result["errors"] == []
    ledger = (tmp_path / "run" / "run-0.csv").read_text().splitlines()
    assert len(ledger) == 1  # header only


def test_cmd_run_reproducible_bytes(tmp_path):
    cmd_run(spec_for("run", tmp_path / "a", seeds=(7,)))
    cmd_run(spec_for("run", tmp_path / "b", seeds=(7,)))
    for name in ("run-7.json", "run-7.csv", "run-7.chains.json"):
        assert (tmp_path / "a" / "run" / name).read_bytes() == (
            tmp_path / "b" / "run" / name
        ).read_bytes()


def test_cmd_sweep_zero_clients_all_zero(tmp_path):
    config = {
        "ecosystem": {"chains": 3, "wallets": {"a": 100}, "observers": 2, "duration": 120},
        "sweep": {"validity_points": [10, 20, 30]},
    }
    result = cmd_sweep_validity(spec_for("sweep-validity", tmp_path, config=config))
    assert result["errors"] == []
    rows = (tmp_path / "sweep-validity" / "sweep-validity-0.csv").read_text().splitlines()[1:]
    assert [r.split(",")[1] for r in rows] == ["0", "0", "0"]


def test_jittered_sweep_ends_consistent_at_its_corrupting_points(tmp_path, capsys):
    # At jitter 0.3 these points corrupt transfers; each run must still end
    # with the chains agreeing, or the campaign exits 1.
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "ecosystem": {"clients": 10, "observers": 5, "jitter": 0.3},
        "sweep": {"validity_points": [15, 20, 22, 25]},
    }))
    argv = ["--campaign", "sweep-validity", "--config", str(config), "--out", str(tmp_path),
            "--seeds", "0,1,2,3"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["errors"] == []
    summary = (tmp_path / "sweep-validity" / "sweep-validity-summary.csv").read_text().splitlines()
    assert all(int(row.split(",")[2]) > 0 for row in summary[1:3])  # 15 and 20 s corrupt


def test_sweep_worker_pool_outputs_identical(tmp_path):
    config = {
        "ecosystem": {"chains": 3, "wallets": {"a": 100}, "clients": 2, "observers": 2,
                      "duration": 200},
        "sweep": {"validity_points": [20, 30]},
    }
    cmd_sweep_validity(spec_for("sweep-validity", tmp_path / "seq", config=config, seeds=(0, 1)))
    cmd_sweep_validity(
        spec_for("sweep-validity", tmp_path / "par", config=config, seeds=(0, 1), jobs=3)
    )
    seq = sorted((tmp_path / "seq").rglob("*.csv"))
    par = sorted((tmp_path / "par").rglob("*.csv"))
    assert [p.name for p in seq] == [p.name for p in par]
    assert all(a.read_bytes() == b.read_bytes() for a, b in zip(seq, par))

    # Contest-scaling points carry their base config to the workers.
    config = {"scaling": {"n_values": [1, 3, 5], "runs": 2}}
    for jobs, name in ((1, "scaling-seq"), (3, "scaling-par")):
        cmd_contest_scaling(spec_for("contest-scaling", tmp_path / name, config=config, jobs=jobs))
    seq, par = ((tmp_path / name / "contest-scaling" / "contest-scaling-0.csv").read_bytes()
                for name in ("scaling-seq", "scaling-par"))
    assert seq == par


def test_worker_pool_is_no_larger_than_the_campaign(tmp_path, monkeypatch):
    # A real pool forks every worker up front, so this fake only records the
    # size asked for and maps in-process.
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"scaling": {"n_values": [1, 3], "runs": 2}}))
    argv = ["--campaign", "contest-scaling", "--config", str(config)]
    # The pool is the smallest of the jobs, the points and the usable CPUs.
    for cpus, jobs, expected in ((64, 64, [4]), (3, 64, [3]), (64, 2, [2]), (1, 64, [])):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        sizes.clear()
        assert main([*argv, "--jobs", str(jobs), "--out", str(tmp_path / f"out-{cpus}-{jobs}")]) == 0
        assert sizes == expected


def test_usable_cpus_is_the_affinity_set_else_the_cpu_count(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7})
        assert cli._usable_cpus() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert cli._usable_cpus() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._usable_cpus() == 1


def test_cmd_contest_scaling_csv_shape(tmp_path):
    config = {"scaling": {"n_values": [1, 4], "runs": 20}}
    result = cmd_contest_scaling(spec_for("contest-scaling", tmp_path, config=config))
    assert result["errors"] == []
    lines = (tmp_path / "contest-scaling" / "contest-scaling-0.csv").read_text().splitlines()
    assert lines[0] == "n,runs,mean_contests_per_chain,std_error,harmonic_number,log2_n"
    n1 = lines[1].split(",")
    assert n1[0] == "1" and float(n1[2]) == 1.0  # a sole observer always posts
    n4 = lines[2].split(",")
    assert n4[0] == "4" and 1.0 <= float(n4[2]) <= 4.0


def test_contest_scaling_runs_exactly_the_given_seeds_when_runs_is_unset(tmp_path):
    def mean_contests(name, seeds):
        cmd_contest_scaling(spec_for("contest-scaling", tmp_path / name, config=config, seeds=seeds))
        csv = (tmp_path / name / "contest-scaling" / f"contest-scaling-{seeds[0]}.csv").read_text()
        row = csv.splitlines()[1].split(",")
        return csv, int(row[1]), float(row[2])

    config = {"scaling": {"n_values": [6]}}
    csv_37, runs_37, mean_37 = mean_contests("3-7", (3, 7))
    csv_34, _, _ = mean_contests("3-4", (3, 4))
    _, _, mean_3 = mean_contests("3", (3,))
    _, _, mean_7 = mean_contests("7", (7,))
    assert csv_37 != csv_34
    assert runs_37 == 2
    assert mean_37 == pytest.approx((mean_3 + mean_7) / 2, abs=1e-6)
    # With runs set, the seeds run on from the first one given.
    config = {"scaling": {"n_values": [6], "runs": 2}}
    assert mean_contests("3-7-runs", (3, 7))[0] == mean_contests("3-4-runs", (3, 4))[0] == csv_34


def test_cmd_cost_report_values(tmp_path):
    result = cmd_cost_and_incentive(spec_for("cost-report", tmp_path))
    assert result["errors"] == []
    payload = json.loads((tmp_path / "cost-report" / "cost-report.json").read_text())
    assert payload["transfer_cost"]["receiver_usd"] == pytest.approx(0.59, abs=0.005)
    assert payload["transfer_cost"]["observer_usd"] == pytest.approx(0.94, abs=0.005)
    assert payload["min_viable_price_usd"]["10"] == pytest.approx(2.83, abs=0.01)
    assert payload["min_viable_price_usd"]["100"] == pytest.approx(14.15, abs=0.01)
    assert payload["min_viable_price_usd"]["1000"] == pytest.approx(94.32, abs=0.01)
    # The block is the TransferCost record, field for field.
    assert sorted(payload["transfer_cost"]) == sorted(f.name for f in fields(TransferCost))


def test_cmd_cost_report_zero_ether(tmp_path):
    config = {"cost": {"price": {"ether_usd": 0.0}}}
    result = cmd_cost_and_incentive(spec_for("cost-report", tmp_path, config=config))
    payload = json.loads((tmp_path / "cost-report" / "cost-report.json").read_text())
    assert payload["transfer_cost"]["receiver_usd"] == 0.0
    assert all(v == 0.0 for v in payload["min_viable_price_usd"].values())


def test_cmd_cost_report_prices_the_worked_example_run(tmp_path):
    # With no ecosystem section the priced run is the worked example's: one
    # claim, a finalize on each of its three chains and three contests on each.
    cmd_cost_and_incentive(spec_for("cost-report", tmp_path))
    payload = json.loads((tmp_path / "cost-report" / "cost-report.json").read_text())
    counts = payload["simulated"]["tx_counts"]
    assert (counts["claim"], counts["finalize"], counts["contest"]) == (1, 3, 9)


def test_cmd_incentive_rejects_small_n(tmp_path):
    config = {"cost": {"n_grid": [1, 10]}}
    result = cmd_cost_and_incentive(spec_for("cost-report", tmp_path, config=config))
    assert result["errors"] and result["errors"][0]["n"] == 1


def test_cmd_veto_demo_assertions(tmp_path):
    result = cmd_veto_demo(spec_for("veto-demo", tmp_path))
    assert result["errors"] == []
    payload = json.loads((tmp_path / "veto-demo" / "veto-demo-0.json").read_text())
    demo = payload["double_spend"]
    assert demo["balances"]["mallory"] == [0, 0, 0]
    assert demo["burned_per_chain"] == [9, 9, 9]
    assert all(not t["executed_chains"] for t in demo["transfers"])
    winners = {c["winner"] for row in demo["vetoes"] for c in row["chains"].values()}
    assert len(winners) == 1
    boundary = payload["boundary"]
    assert boundary["balances"]["mallory"] == [0, 0, 0]
    assert boundary["burned_per_chain"] == [0, 0, 0]  # burn equals the reward paid out
    control = payload["control"]
    assert control["vetoes"] == []
    assert control["stats"]["transfers_executed"] == 1


def test_main_exit_codes(tmp_path, capsys):
    rc = main(["--campaign", "cost-report", "--out", str(tmp_path)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "ok"

    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    rc = main(["--campaign", "run", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad.json:1:" in err  # line:column diagnostics


def test_main_failure_summary_is_machine_readable(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"cost": {"n_grid": [1]}}))
    rc = main(["--campaign", "cost-report", "--config", str(config), "--out", str(tmp_path)])
    assert rc == 1
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "failed" and out["errors"]


def test_a_run_whose_resync_cannot_pay_exits_1_with_its_files_written(tmp_path, capsys):
    # No watchdog: each chain executes its own leg of m's double spend, and
    # neither chain can pay the other leg, so both resyncs move nothing.
    leg = {"at": 1.0, "t0": 1, "t1": 30}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"ecosystem": {
        "chains": 2, "observers": 0, "duration": 60.0, "wallets": {"m": 100, "a": 0, "b": 0},
        "script": [{"kind": "double_spend", "sender": "m", "legs": [
            {**leg, "recipient": "a", "amount": 71, "chain": 0}, {**leg, "recipient": "b", "amount": 83, "chain": 1}]}],
    }}))
    assert main(["--campaign", "run", "--config", str(config), "--out", str(tmp_path)]) == 1
    assert json.loads(capsys.readouterr().out)["status"] == "failed"
    report = json.loads((tmp_path / "run" / "run-0.json").read_text())
    assert sorted(row["name"] for row in report["consistency"]) == ["a", "b", "m"]
    assert [event["settled_chains"] for event in report["resync_events"]] == [[], []]
    assert (tmp_path / "run" / "run-0.chains.json").exists() and (tmp_path / "run" / "run-0.csv").exists()


def _report(**fields):
    # A minimal run report: no chains, transfers or vetoes unless given.
    empty = dict(config={}, chains=[], transfers=[], vetoes=[], consistency=[], resync_events=[],
                 tx_counts={}, tx_counts_ok={}, stats={"transfers_executed": 0})
    return RunReport(**{**empty, **fields})


@pytest.mark.parametrize(
    "label, report, failure",
    [
        ("control", _report(consistency=[{"wallet": "00"}]), "final balances inconsistent across chains"),
        ("double_spend", _report(), "no veto contest recorded"),
        ("boundary", _report(vetoes=[{"consistent_winner": False}]), "veto winners differ across chains"),
        ("control", _report(vetoes=[{"consistent_winner": True}]),
         "control scenario unexpectedly triggered the veto path"),
        ("control", _report(transfers=[{}]), "control transfer did not complete"),
    ],
    ids=["inconsistent", "no-veto", "split-veto-winners", "control-vetoed", "control-incomplete"],
)
def test_veto_assertions_name_each_failure(label, report, failure):
    assert cli._veto_assertions(label, report) == [failure]


def _failed_errors(capsys, tmp_path, campaign, config):
    # The campaign's summary through main at --jobs 1, so stubs reach every point.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    argv = ["--campaign", campaign, "--config", str(path), "--out", str(tmp_path / "out"), "--jobs", "1"]
    assert main(argv) == 1
    summary = json.loads(capsys.readouterr().out)
    assert summary["status"] == "failed"
    return summary["errors"]


def test_sweep_point_with_inconsistent_balances_is_an_error_row(tmp_path, capsys, monkeypatch):
    detail = [{"name": "a", "balances": [1, 2]}]
    monkeypatch.setattr(cli, "run", lambda config: _report(stats={"transfers_corrupted": 0}, consistency=detail))
    errors = _failed_errors(capsys, tmp_path, "sweep-validity", {"sweep": {"validity_points": [30]}})
    assert errors == [{"seed": 0, "validity": 30, "error": "inconsistent final balances after resync",
                       "detail": detail}]


def test_contest_counts_that_differ_across_chains_are_an_error_row(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run", lambda config: _report(transfers=[{"contest_counts": {"0": 1, "1": 2}}]))
    errors = _failed_errors(capsys, tmp_path, "contest-scaling", {"scaling": {"n_values": [2], "runs": 1}})
    assert errors == [{"n": 2, "seed": 0, "error": "contest counts differ across chains"}]


def test_veto_demo_scenario_issue_is_an_error_row(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_veto_assertions", lambda label, report: ["boom"] if label == "boundary" else [])
    errors = _failed_errors(capsys, tmp_path, "veto-demo", {})
    assert errors == [{"seed": 0, "scenario": "boundary", "error": "boom"}]


def test_readme_documents_every_flag():
    # The Flags paragraph names each option build_parser accepts, and no other.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    paragraph = readme[readme.index("Flags: "):].split("\n\n")[0]
    documented = set(re.findall(r"`(--[a-z-]+)", paragraph))
    options = {opt for action in cli.build_parser()._actions for opt in action.option_strings}
    assert documented == options - {"-h", "--help"}


def test_bad_campaign_rejected(tmp_path):
    with pytest.raises(ConfigError):
        spec_for("nonsense", tmp_path)


def test_config_validation_error_paths(tmp_path):
    with pytest.raises(ConfigError):
        from panchain.configs import config_from_dict

        config_from_dict({"chains": 0})
    with pytest.raises(ConfigError):
        from panchain.configs import config_from_dict

        config_from_dict({"wallets": {"a": -5}})
    with pytest.raises(ConfigError):
        from panchain.configs import config_from_dict

        config_from_dict({"unknown_field": 1})


def _leg(**fields):
    return {"at": 1.0, "recipient": "b", "amount": 20, "t0": 1, "t1": 61, "chain": 0, **fields}


def _script(**action):
    # One scripted action by wallet a: a one-leg transfer to b unless overridden.
    return {"ecosystem": {"wallets": {"a": 30, "b": 0}, "script": [{"sender": "a", "legs": [_leg()], **action}]}}


def _one_leg_script(**fields):
    return _script(legs=[_leg(**fields)])


_OVERFLOW = "so large that a cost overflows"


@pytest.mark.parametrize(
    "campaign, config, argv, message",
    [
        ("run", {"ecosystem": {"observation": {"mode": "staggered", "bogus": 1}}}, [], "fields: ['bogus']"),
        ("run", {"ecosystem": {"chains": "3"}}, [], "chains must be an integer"),
        ("run", {"ecosystem": {"wallets": {"a": 10}, "script": [
            {"kind": "double_spend", "sender": "a", "legs": [{"at": 1.0}]}]}}, [], "legs[0] is missing fields"),
        ("sweep-validity", {"sweep": {"validity_points": "x"}}, [], "validity_points must be a list"),
        ("cost-report", {"cost": {"gas": {"claim": {"std_kgas": 1.0}}}}, [], "missing fields: ['mean_kgas']"),
        ("cost-report", {"cost": {"gas": {"bribe": {"mean_kgas": 1.0}}}}, [], "fields: ['bribe']"),
        ("cost-report", {"cost": {"price": {"gas_price_gwei": -1}}}, [], "prices must be non-negative"),
        ("cost-report", {"cost": {"m": 0}}, [], "m, n and reward must be >= 1"),
        # The cost report prices its own run: a config that names a run report is refused.
        ("cost-report", {"cost": {"run_report": "run-0.json"}}, [], "unknown config.cost fields: ['run_report']"),
        ("contest-scaling", {"scaling": {"runs": 0}}, [], "runs must be >= 1"),
        ("run", {"ecosystem": {"block_interval": 0}}, [], "block_interval must be positive"),
        ("run", {"ecosystem": {"max_txs_per_block": 0}}, [], "max_txs_per_block must be at least 1"),
        ("run", {"ecosystem": {"jitter": 1.5}}, [], "jitter must be in [0, 1)"),
        ("run", _one_leg_script(amount=1), [], "must exceed the reward"),
        ("run", _one_leg_script(t0=61), [], "got [61, 61]"),
        ("run", {"ecosystem": {"wallets": {"a": True}}}, [], "wallets.a must be a non-negative integer"),
        ("run", {"ecosystem": {"wallets": ["a"]}}, [], "wallets must map name -> initial balance"),
        ("contest-scaling", {"scaling": {"runs": "2"}}, [], "runs must be an integer"),
        ("run", {"block_log": "yes"}, [], "block_log must be true or false"),
        ("veto-demo", {"sweeep": {}}, [], "fields: ['sweeep']"),
        ("run", {"ecosystem": {"duration": float("inf")}}, [], "duration must be a number"),
        ("run", {"ecosystem": {"clients": -3}}, [], "clients must be a non-negative integer"),
        ("sweep-validity", {"ecosystem": {"observers": -1}}, [], "observers must be a non-negative integer"),
        ("veto-demo", {"ecosystem": {"chains": "3"}}, [], "chains must be an integer"),
        ("contest-scaling", {"ecosystem": {"chains": "3"}}, [], "chains must be an integer"),
        ("cost-report", {"ecosystem": {"chains": "3"}}, [], "chains must be an integer"),
        ("veto-demo", {"ecosystem": []}, [], "ecosystem config must be a JSON object"),
        ("contest-scaling", {"scaling": {"n_values": [4, -1]}}, [], "n_values must be non-negative"),
        ("sweep-validity", {"sweep": {"validity_points": [10, 0]}}, [], "validity_points must be at least 1"),
        ("run", _one_leg_script(at=-1.0), [], "leg time must be non-negative"),
        ("cost-report", {"cost": {"m": 10**310}}, [], _OVERFLOW),
        ("cost-report", {"cost": {"n_grid": [10, 10**400]}}, [], _OVERFLOW),
        ("cost-report", {"cost": {"price": {"gas_price_gwei": 1e308, "ether_usd": 1e308}}}, [], _OVERFLOW),
        ("sweep-validity", {"sweep": {"validity_points": [30, 30]}}, [], "more than once: [30, 30]"),
        ("contest-scaling", {"scaling": {"n_values": [2, 2], "runs": 3}}, [], "more than once: [2, 2]"),
        ("contest-scaling", {}, ["--seeds", "3,7,3"], "more than once: [3, 7, 3]"),
        *((campaign, {"ecosystem": {"clients": 2, "client_balance": -5, "observers": 1, "duration": 50}}, [],
           "client_balance must be a non-negative integer") for campaign in ("run", "veto-demo")),
        ("run", {"ecosystem": {"clients": 4, "client_balance": 2**63}}, [], "must be below 2^64"),
        *((campaign, {}, ["--out", "bad.json"], f"cannot make bad.json/{campaign}") for campaign in cli.CAMPAIGNS),
        ("run", {"ecosystem": {"observation": {"mode": "poisson"}}}, [], "unknown observation mode"),
        ("run", {"ecosystem": {"observation": {"low": 3.0, "high": 1.0}}}, [], "0 <= low <= high"),
        ("run", {"ecosystem": {"observation": {"mode": "staggered"}}}, [], "needs a positive spacing"),
        ("run", _script(kind="steal"), [], "unknown scripted action kind: 'steal'"),
        ("run", _script(legs=[_leg(), _leg()]), [], "a scripted transfer has exactly one leg"),
        ("run", _script(kind="double_spend"), [], "a double spend needs at least two legs"),
        ("run", {"ecosystem": {"duration": -1.0}}, [], "duration must be non-negative"),
        ("run", {"ecosystem": {"validity_length": 0}}, [], "validity_length must be at least 1 second"),
        ("run", {"ecosystem": {"reward": -1}}, [], "reward must be non-negative"),
        # The observer rule has no switch: a config that names one is refused.
        ("run", {"ecosystem": {"post_iff_winnable": True}}, [], "unknown ecosystem fields: ['post_iff_winnable']"),
        ("run", {"ecosystem": {"think_time": [0, 5]}}, [], "think_time bounds must satisfy 0 < low"),
        ("run", {"ecosystem": {"think_time": [1]}}, [], "think_time must be a list of 2"),
        ("run", {"ecosystem": {"wallets": {"a": 10}, "clients": ["zed"]}}, [], "unknown wallet referenced: 'zed'"),
        # A repeated name would run one agent where the config echo lists two.
        ("run", {"ecosystem": {"wallets": {"a": 100, "b": 100}, "clients": ["a", "b", "b"]}}, [],
         "duplicate client names"),
        ("run", {"ecosystem": {"wallets": {"a": 100, "w": 0}, "observers": ["w", "w"]}}, [],
         "duplicate observer names"),
        ("run", _script(sender="zed"), [], "scripted sender is not a wallet: 'zed'"),
        ("run", _one_leg_script(recipient="zed"), [], "scripted recipient is not a wallet: 'zed'"),
        ("run", _one_leg_script(chain=3), [], "scripted leg targets chain 3, have 3"),
        ("run", [], [], "top level must be a JSON object"),
        ("run", {}, ["--seeds", ","], "need at least one seed"),
        ("run", {}, ["--jobs", "0"], "jobs must be >= 1"),
        # A run that could not end in practice: too many client looks, or an
        # event past 10^6 shortest block intervals.
        ("run", {"ecosystem": {"wallets": {"a": 0, "b": 0}, "clients": ["a", "b"], "think_time": [1e-9, 1e-9],
                               "duration": 60}}, [], "2 clients could look more than 1000000 times"),
        ("run", {"ecosystem": {"clients": 2, "think_time": [1e300, 1e300], "duration": 1e308}}, [],
         "2 clients could look more than 1000000 times"),
        ("run", {"ecosystem": {"clients": 2, "think_time": [1e300, 1e300], "duration": 2e7}}, [],
         "duration 20000000.0 lies beyond 1000000 shortest block intervals of 13.0 s"),
        ("run", {"ecosystem": {"clients": 1, "validity_length": 13 * 10**6 + 1}}, [], "validity_length 13000001 lies"),
        ("run", {"ecosystem": {"observers": 2, "observation": {"high": 1.5e7}}}, [], "observation delay 15000000.0"),
        ("run", {"ecosystem": {"observers": 2, "block_interval": 1.0, "observation": {
            "mode": "staggered", "spacing": 6e5}}}, [], "observation delay 1200000.0"),
        ("run", _one_leg_script(at=1.3e7 + 1), [], "scripted leg at 13000001.0 lies"),
        ("run", {"ecosystem": {**_one_leg_script(t1=2**62)["ecosystem"], "jitter": 0.5}}, [],
         f"scripted leg t1 {2**62} lies beyond 1000000 shortest block intervals of 6.5 s"),
        ("sweep-validity", {"sweep": {"validity_points": [10, 2 * 10**7]}}, [],
         "sweep.validity_points: validity_length 20000000 lies beyond"),
        # A count the program amplifies into names and wallets, or chains, is
        # refused before any of them is built.
        ("run", {"ecosystem": {"observers": 10**9}}, [], "ecosystem.observers 1000000000 is above the run bound"),
        ("veto-demo", {"ecosystem": {"clients": 10**6 + 1}}, [], "ecosystem.clients 1000001 is above the run bound"),
        ("contest-scaling", {"scaling": {"n_values": [4, 10**9]}}, [],
         "scaling.n_values: ecosystem.observers 1000000000 is above the run bound"),
        ("run", {"ecosystem": {"chains": 10**9}}, [], "chains 1000000000 is above the run bound 1000000"),
    ],
    ids=[
        "unknown-observation-key", "string-chain-count", "incomplete-script-leg",
        "string-validity-points", "gas-without-mean", "unknown-gas-kind", "negative-gas-price",
        "zero-cost-chains", "removed-run-report", "zero-scaling-runs", "zero-block-interval",
        "zero-block-capacity", "jitter-above-one", "leg-amount-at-reward",
        "leg-empty-window", "boolean-wallet-balance", "wallets-list", "string-scaling-runs", "string-block-log",
        "misspelt-section", "infinite-duration", "negative-client-count", "negative-observer-count",
        "veto-demo-string-chain-count", "contest-scaling-string-chain-count",
        "cost-report-string-chain-count", "ecosystem-list", "negative-scaling-observer-count",
        "zero-validity-point", "negative-leg-time", "overflowing-cost-chains",
        "overflowing-cost-grid", "overflowing-cost-price", "duplicate-validity-point",
        "duplicate-scaling-observer-count", "duplicate-seed", "negative-client-balance",
        "veto-demo-negative-client-balance", "supply-of-2^65", *(f"{c}-out-is-a-file" for c in cli.CAMPAIGNS),
        "unknown-observation-mode", "observation-low-above-high", "staggered-without-spacing",
        "unknown-action-kind", "two-leg-transfer", "one-leg-double-spend", "negative-duration",
        "zero-validity", "negative-reward", "removed-post-iff-winnable", "zero-think-time", "one-think-time-bound",
        "unknown-client-name", "repeated-client-name", "repeated-observer-name",
        "script-sender-not-a-wallet", "script-recipient-not-a-wallet", "leg-chain-out-of-range",
        "top-level-list", "empty-seed-list", "zero-jobs", "looks-at-nanosecond-think-time",
        "looks-over-1e308-seconds", "duration-past-the-run-bound", "validity-past-the-run-bound",
        "uniform-observation-past-the-run-bound", "staggered-observation-past-the-run-bound",
        "leg-time-past-the-run-bound", "leg-window-past-the-run-bound-under-jitter", "validity-point-past-the-run-bound",
        "observer-count-past-the-run-bound", "client-count-past-the-run-bound",
        "scaling-observer-count-past-the-run-bound", "chain-count-past-the-run-bound",
    ],
)
def test_malformed_ecosystem_config_exits_2(tmp_path, capsys, monkeypatch, campaign, config, argv, message):
    # A malformed value in any section the campaign reads, or an --out that
    # cannot hold the campaign's directory, is one JSON error line and exit
    # code 2 before anything is simulated or written, never a traceback.
    # Each case's message shows which rule refused it.
    monkeypatch.chdir(tmp_path)
    runs = []
    monkeypatch.setattr(cli, "run", lambda config: runs.append(config))
    Path("bad.json").write_text(json.dumps(config))
    rc = main(["--campaign", campaign, "--config", "bad.json", "--out", "out", *argv])
    assert rc == 2
    assert runs == []
    assert not Path("out").exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    error = json.loads(err[0])
    assert error["status"] == "error"
    assert message in error["error"]


@pytest.mark.parametrize(
    "campaign, config",
    [
        ("run", {"ecosystem": {"observers": 10**6 + 1}}),
        ("run", {"ecosystem": {"clients": 10**6 + 1}}),
        ("contest-scaling", {"scaling": {"n_values": [10**6 + 1]}}),
        ("run", {"ecosystem": {"chains": 10**6 + 1}}),
    ],
    ids=["observers", "clients", "scaling-observers", "chains"],
)
def test_an_amplified_count_is_refused_having_built_nothing_for_it(tmp_path, capsys, monkeypatch, campaign, config):
    # Just past the bound, so that names or chains built before the check
    # would show as hundreds of MiB; the refusal allocates a few KiB.
    monkeypatch.chdir(tmp_path)
    Path("big.json").write_text(json.dumps(config))
    tracemalloc.start()
    try:
        rc = main(["--campaign", campaign, "--config", "big.json", "--out", "out"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["status"] == "error"
    assert peak < 256 * 1024


def test_duplicate_wallet_names_are_refused():
    # A JSON object cannot repeat a key, so only a config built in code can.
    with pytest.raises(ConfigError, match="duplicate wallet names"):
        EcosystemConfig(wallets=(WalletSpec("a", 1), WalletSpec("a", 2)))


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"ecosystem": {"seed": ' + "9" * 5000 + "}}", "4300 digits"),
        ('{"ecosystem": {"script": ' + "[" * 100_000 + "]" * 100_000 + "}}", "recursion"),
    ],
    ids=["5000-digit-seed", "list-nested-100000-deep"],
)
def test_config_past_the_json_parsers_limits_exits_2_naming_it(tmp_path, capsys, text, message):
    # json raises ValueError for an integer past CPython's digit limit and
    # RecursionError for too deep a nesting; neither is a JSONDecodeError.
    config = tmp_path / "cfg.json"
    config.write_text(text)
    rc = main(["--campaign", "run", "--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    error = json.loads(err[0])
    assert error["status"] == "error"
    assert error["error"].startswith(f"{config}: ") and message in error["error"]
    assert not (tmp_path / "out").exists()


def _leg_text(t0: str) -> str:
    return json.dumps(_one_leg_script(t0=0)).replace('"t0": 0', f'"t0": {t0}')


@pytest.mark.parametrize(
    "campaign, text, head",
    [
        ("run", json.dumps(_script()).replace('[{"sender"', "[" * 901 + "1" + "]" * 900 + ', {"sender"'),
         "ecosystem.script[0] must be a JSON object, got [[[["),
        ("run", _leg_text("9" * 4001), "ecosystem: scripted leg window needs 0 <= t0 < t1 < 2^64, got [9999"),
        ("run", json.dumps({"ecosystem": {"x" * 100_000: 1}}), "unknown ecosystem fields: ['xxxx"),
        ("sweep-validity", json.dumps({"sweep": {"validity_points": [30] * 50_000}}),
         "config.sweep: validity_points lists a value more than once: [30, 30, "),
        ("run", json.dumps({"ecosystem": {"observation": {"mode": "m" * 100_000}}}),
         "ecosystem.observation: unknown observation mode: 'mmmm"),
    ],
    ids=["list-nested-900-deep", "4001-digit-t0", "long-unknown-key", "50000-validity-points", "long-mode"],
)
def test_refusal_line_is_bounded_whatever_the_input(tmp_path, capsys, campaign, text, head):
    # A refusal that echoes its input keeps the head that names the field and
    # the rule, and says how much of the rest it cut.
    config = tmp_path / "cfg.json"
    config.write_text(text)
    assert main(["--campaign", campaign, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    error = json.loads(err[0])
    assert error["status"] == "error"
    assert error["error"].startswith(head)
    assert re.fullmatch(r".{%d}\.\.\. \(\d+ more characters cut\)" % cli.ERROR_CHARS, error["error"], re.S)
    assert len(err[0]) < 600


def test_short_refusal_is_written_whole():
    message = "x" * cli.ERROR_CHARS
    assert cli._bounded(message) == message
    assert cli._bounded(message + "y") == message + "... (1 more characters cut)"


def test_seed_list_that_is_not_integers_exits_2(capsys):
    # argparse refuses it before any config is read.
    with pytest.raises(SystemExit) as exit_info:
        main(["--campaign", "run", "--seeds", "x"])
    assert exit_info.value.code == 2
    assert "bad seed list 'x'" in capsys.readouterr().err


@pytest.mark.parametrize("campaign", cli.CAMPAIGNS)
def test_jitter_flag_is_an_unrecognised_argument(tmp_path, capsys, campaign):
    # Jitter is set only by the ecosystem section; argparse refuses the flag
    # before --out is touched.
    with pytest.raises(SystemExit) as exit_info:
        main(["--campaign", campaign, "--out", str(tmp_path / "out"), "--jitter", "0.3"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --jitter 0.3" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_section_jitter_reaches_every_sweep_point_and_no_scaling_preset(tmp_path, monkeypatch):
    configs = []
    real_run = cli.run
    monkeypatch.setattr(cli, "run", lambda config: configs.append(config) or real_run(config))
    (tmp_path / "cfg.json").write_text(json.dumps({
        "ecosystem": {"clients": 4, "observers": 2, "duration": 80.0, "jitter": 0.3},
        "sweep": {"validity_points": [20, 30]},
        "scaling": {"n_values": [1, 4], "runs": 2},
    }))
    argv = ["--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path), "--seeds", "0,1"]
    assert main(["--campaign", "sweep-validity", *argv]) == 0
    assert len(configs) == 4 and {c.jitter for c in configs} == {0.3}
    configs.clear()
    assert main(["--campaign", "contest-scaling", *argv]) == 0
    assert len(configs) == 4 and {c.jitter for c in configs} == {0.0}


def test_config_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_bytes(b'{"ecosystem": {"wallets": {"\xff": 10}}}')
    rc = main(["--campaign", "run", "--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert str(config) in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize(
    "campaign, config, blocked",
    [
        ("run", {}, "run/run-0.json"),
        ("run", {}, "run/run-0.chains.json"),
        ("run", {"block_log": True}, "run/run-0.blocks.jsonl"),
        ("contest-scaling", {"scaling": {"n_values": [4]}}, "contest-scaling/contest-scaling-0.csv"),
    ],
    ids=["run-report", "run-chains", "run-block-log", "contest-scaling-csv"],
)
def test_output_that_cannot_be_opened_exits_2_naming_it(tmp_path, capsys, campaign, config, blocked):
    # A directory stands where the campaign writes one of its files.
    blocked_path = tmp_path / "out" / blocked
    blocked_path.mkdir(parents=True)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    rc = main(["--campaign", campaign, "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert str(blocked_path) in json.loads(err[0])["error"]


def test_outputs_are_utf8_whatever_the_locale(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps({"ecosystem": {"wallets": {"bj\u00f6rn": 30, "b": 0}, "observers": 1, "duration": 100.0,
                                  "script": [{"sender": "bj\u00f6rn", "legs": [_leg()]}]}}, ensure_ascii=False),
        encoding="utf-8",
    )
    produced = {}
    for locale, utf8 in (("C.UTF-8", "1"), ("C", "0")):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "LC_ALL": locale,
               "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": utf8}
        out = tmp_path / locale
        result = subprocess.run(
            [sys.executable, "-m", "panchain", "--campaign", "run", "--config", str(config), "--out", str(out)],
            env=env, capture_output=True, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        produced[locale] = {p.name: p.read_bytes() for p in (out / "run").iterdir()}
    assert produced["C"] == produced["C.UTF-8"]
    assert "bj\u00f6rn".encode() in produced["C"]["run-0.csv"]


def test_garbled_config_exits_2_at_its_position(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text('{"cost": {\n  "m": 1,,\n}}')
    rc = main(["--campaign", "cost-report", "--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"{config}:2:" in json.loads(capsys.readouterr().err)["error"]
    assert not (tmp_path / "out").exists()


def test_simulated_cost_that_overflows_exits_2_writing_nothing(tmp_path, capsys):
    # This contest gas cost leaves the analytic figures finite, and the
    # worked example's nine priced contests too; the contests of ten clients
    # and five observers are not.
    def cost_report(name, ecosystem):
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({"cost": {"gas": {"contest": {"mean_kgas": 1e303}}}, "ecosystem": ecosystem}))
        return main(["--campaign", "cost-report", "--config", str(config), "--out", str(tmp_path / name)])

    assert cost_report("worked", {}) == 0
    assert cost_report("busy", {"clients": 10, "observers": 5}) == 2
    assert _OVERFLOW in json.loads(capsys.readouterr().err)["error"]
    assert list((tmp_path / "busy" / "cost-report").iterdir()) == []


def _key_paths(node, prefix=()):
    """The path of every node in a JSON tree, the root included."""
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _key_paths(child, prefix + (key,))


# Small values only: an integer may become a wallet count and a number a
# duration, and the runs must stay tiny.
_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.text(max_size=3),
    st.sampled_from([-1.5, 0.0, 0.5, 2.5, 1e3, float("nan"), float("inf"), float("-inf")]),
    st.lists(st.integers(-2, 3), max_size=2), st.dictionaries(st.text(max_size=3), st.integers(-2, 3), max_size=1),
)
_TINY_RUN = {
    "ecosystem": {
        "chains": 2, "block_interval": 5.0, "wallets": {"a": 30, "b": 0}, "clients": 2,
        "client_balance": 20, "observers": 1, "validity_length": 30, "duration": 40.0,
        "observation": {"mode": "staggered", "spacing": 0.5},
        "script": [{"sender": "a", "legs": [_leg(amount=5, t1=31)]}],
    },
    "block_log": True,
}
_TINY_COST = {
    "cost": {"m": 2, "n": 3, "n_grid": [2, 10], "reward": 1,
             "gas": {"claim": {"mean_kgas": 50.0}}, "price": {"gas_price_gwei": 5}},
}


@st.composite
def _mangled_configs(draw):
    """A valid tiny config for ``run`` or ``cost-report`` with a few of its
    values swapped for junk or a junk key added somewhere."""
    campaign, config = draw(st.sampled_from([("run", _TINY_RUN), ("cost-report", _TINY_COST)]))
    config = json.loads(json.dumps(config))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_key_paths(config))))
        parent = config
        for key in path[:-1]:
            parent = parent[key]
        junk = draw(_JUNK)
        if path and draw(st.booleans()):
            parent[path[-1]] = junk
        else:
            node = parent[path[-1]] if path else config
            if isinstance(node, dict):
                node[draw(st.sampled_from(["x", "sweep", "cost", "m", "legs", "kind"]))] = junk
    return campaign, config


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_mangled_configs())
def test_main_never_raises_on_mangled_configs(tmp_path, capsys, case):
    campaign, config = case
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    rc = main(["--campaign", campaign, "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc in (0, 1, 2)
    capsys.readouterr()


@given(st.lists(st.integers(0, 10**6), min_size=2, max_size=60))
def test_std_error_is_the_exact_standard_error_rounded_once(counts):
    se = cli._std_error(counts)
    mean = Fraction(sum(counts), len(counts))
    exact = sum((c - mean) ** 2 for c in counts) / (len(counts) - 1) / len(counts)
    # The float nearest the exact root: its half-way points to either
    # neighbour bracket the root.
    below, above = ((Fraction(se) + Fraction(math.nextafter(se, bound))) / 2 for bound in (0.0, math.inf))
    assert below ** 2 <= exact <= above ** 2
