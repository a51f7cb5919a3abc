import json
import math
import os
import re
import subprocess
import sys
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
    argv = ["--campaign", "contest-scaling", "--config", str(config), "--out", str(tmp_path / "out")]
    assert main([*argv, "--jobs", "64"]) == 0
    assert sizes == [4]


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


def test_cmd_cost_report_zero_ether(tmp_path):
    config = {"cost": {"price": {"ether_usd": 0.0}}}
    result = cmd_cost_and_incentive(spec_for("cost-report", tmp_path, config=config))
    payload = json.loads((tmp_path / "cost-report" / "cost-report.json").read_text())
    assert payload["transfer_cost"]["receiver_usd"] == 0.0
    assert all(v == 0.0 for v in payload["min_viable_price_usd"].values())


def test_cmd_cost_report_simulated_join(tmp_path):
    cmd_run(spec_for("run", tmp_path))
    config = {"cost": {"run_report": str(tmp_path / "run" / "run-0.json")}}
    cmd_cost_and_incentive(spec_for("cost-report", tmp_path, config=config))
    payload = json.loads((tmp_path / "cost-report" / "cost-report.json").read_text())
    assert payload["simulated"]["tx_counts"]["contest"] == 9


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
        ("cost-report", {"cost": {"run_report": "no-such-run.json"}}, [], "no-such-run.json: "),
        ("contest-scaling", {"scaling": {"runs": 0}}, [], "runs must be >= 1"),
        ("run", {"ecosystem": {"block_interval": 0}}, [], "block_interval must be positive"),
        ("run", {"ecosystem": {"max_txs_per_block": 0}}, [], "max_txs_per_block must be at least 1"),
        ("run", {"ecosystem": {"jitter": 1.5}}, [], "jitter must be in [0, 1)"),
        ("run", _one_leg_script(amount=1), [], "must exceed the reward"),
        ("run", _one_leg_script(t0=61), [], "got [61, 61]"),
        ("run", {"ecosystem": {"wallets": {"a": True}}}, [], "wallets.a must be a non-negative integer"),
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
        ("run", _script(sender="zed"), [], "scripted sender is not a wallet: 'zed'"),
        ("run", _one_leg_script(recipient="zed"), [], "scripted recipient is not a wallet: 'zed'"),
        ("run", _one_leg_script(chain=3), [], "scripted leg targets chain 3, have 3"),
        ("run", [], [], "top level must be a JSON object"),
        ("run", {}, ["--seeds", ","], "need at least one seed"),
        ("run", {}, ["--jobs", "0"], "jobs must be >= 1"),
    ],
    ids=[
        "unknown-observation-key", "string-chain-count", "incomplete-script-leg",
        "string-validity-points", "gas-without-mean", "unknown-gas-kind", "negative-gas-price",
        "zero-cost-chains", "missing-run-report", "zero-scaling-runs", "zero-block-interval",
        "zero-block-capacity", "jitter-above-one", "leg-amount-at-reward",
        "leg-empty-window", "boolean-wallet-balance", "string-scaling-runs", "string-block-log",
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
        "unknown-client-name",
        "script-sender-not-a-wallet", "script-recipient-not-a-wallet", "leg-chain-out-of-range",
        "top-level-list", "empty-seed-list", "zero-jobs",
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


def test_duplicate_wallet_names_are_refused():
    # A JSON object cannot repeat a key, so only a config built in code can.
    with pytest.raises(ConfigError, match="duplicate wallet names"):
        EcosystemConfig(wallets=(WalletSpec("a", 1), WalletSpec("a", 2)))


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
    report = tmp_path / "run-0.json"
    report.write_bytes(b'{"tx_counts": {"\xff": 1}}')
    config.write_text(json.dumps({"cost": {"run_report": str(report)}}))
    rc = main(["--campaign", "cost-report", "--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert str(report) in json.loads(capsys.readouterr().err)["error"]


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


def test_garbled_run_report_exits_2_at_its_position(tmp_path, capsys):
    report = tmp_path / "run-0.json"
    report.write_text('{"tx_counts": {\n  "claim": 1,,\n}}')
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"cost": {"run_report": str(report)}}))
    rc = main(["--campaign", "cost-report", "--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"{report}:2:" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize(
    "report",
    [
        {"tx_counts": {"claim": "x"}},
        {"tx_counts": {"claim": 1, "contest": -2}},
        {"tx_counts": {"claim": True}},
        {"tx_counts": ["claim"]},
        {"tx_counts": {"claim": 1}, "stats": {"transfers_executed": 1.5}},
        {"tx_counts": {"claim": 1}, "stats": []},
        {"tx_counts": {"claim": 10**400}},
        {"tx_counts": {"claim": 10**305}},
    ],
    ids=["string-count", "negative-count", "boolean-count", "list-counts", "float-executed", "list-stats",
         "count-beyond-a-float", "count-whose-cost-overflows"],
)
def test_run_report_with_bad_counts_exits_2_naming_it(tmp_path, capsys, report):
    path = tmp_path / "run-0.json"
    path.write_text(json.dumps(report))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"cost": {"run_report": str(path)}}))
    rc = main(["--campaign", "cost-report", "--config", str(config), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and str(path) in json.loads(err[0])["error"]


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
