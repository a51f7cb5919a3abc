import json
from pathlib import Path

import pytest

from panchain.cli import (
    ExperimentSpec,
    cmd_contest_scaling,
    cmd_cost_and_incentive,
    cmd_run,
    cmd_sweep_validity,
    cmd_veto_demo,
    main,
)
from panchain.configs import ConfigError

GOLDEN = Path(__file__).parent / "golden"


def spec_for(campaign, out_dir, config=None, seeds=(0,), reps=1, **kw):
    return ExperimentSpec(
        campaign=campaign, config=config or {}, out_dir=Path(out_dir), seeds=tuple(seeds),
        reps=reps, **kw,
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


def test_round_observer_cost_flag(tmp_path):
    result = cmd_cost_and_incentive(
        spec_for("cost-report", tmp_path, round_observer_cost=False)
    )
    payload = json.loads((tmp_path / "cost-report" / "cost-report.json").read_text())
    assert payload["min_viable_price_usd"]["100"] == pytest.approx(14.19, abs=0.01)


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
