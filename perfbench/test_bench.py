"""Self-test of the benchmark at tiny sizes. It asserts no timings.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import re
from pathlib import Path

import pytest

import bench

SPEC = json.loads((bench.REPO / "BENCHMARK.json").read_text())


def _tiny_ecosystem(**extra) -> dict:
    return {"chains": 2, "block_interval": 13.0, "clients": 3, "client_balance": 50,
            "observers": 2, "validity_length": 40, "duration": 150.0, **extra}


def tiny(seed: int) -> bench.Workload:
    """Every campaign the real workloads use, at a few seconds of simulated time,
    with one double spend so the veto path runs too."""
    legs = [
        {"at": 5.0, "recipient": "client-00", "amount": 20, "t0": 7, "t1": 60, "chain": 0},
        {"at": 9.0, "recipient": "client-01", "amount": 30, "t0": 11, "t1": 70, "chain": 1},
    ]
    attacked = _tiny_ecosystem(wallets={"ds-00": 50},
                               script=[{"kind": "double_spend", "sender": "ds-00", "legs": legs}])
    return bench.Workload(
        "tiny",
        (
            bench.Call("run", {"ecosystem": attacked}, (seed,)),
            bench.Call("run", {"ecosystem": _tiny_ecosystem()}, (seed, seed + 1)),
            bench.Call("sweep-validity", {"ecosystem": _tiny_ecosystem(),
                                          "sweep": {"validity_points": [20, 60]}}, (seed,)),
            bench.Call("contest-scaling", {"scaling": {"n_values": [2], "runs": 2}}, (seed,)),
        ),
        lambda cfg: "heavy" if cfg["script"] else "light",
    )


@pytest.fixture
def tiny_bench(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "WORKLOADS", {"tiny": tiny})
    monkeypatch.setattr(bench, "OUT", tmp_path)
    return tmp_path


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(tiny_bench, capsys, trace, section):
    assert bench.main(["--workload", "tiny", "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for metric in SPEC[section]:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert any(re.fullmatch(rf"\s*{re.escape(name)}\s+\S+ {re.escape(unit)}", line) for line in lines), name


def test_fingerprint_repeats_across_passes_traced_or_not(tiny_bench):
    untraced = bench.benchmark("tiny", 5, 0, trace=False)
    traced = bench.benchmark("tiny", 5, 0, trace=True)
    assert untraced["passes"] == bench.MIN_PASSES and untraced["fingerprint_repeats"]
    assert traced["passes"] == 2 and traced["fingerprint_repeats"]
    assert traced["simulation"] == untraced["simulation"]
    assert traced["simulation"]["tx_counts"]["veto"] > 0
    assert (Path(tiny_bench) / "tiny-seed5.trace.json").is_file()


def test_gate_flags_a_hand_corrupted_report():
    pc = bench.import_panchain()
    config = pc.configs.config_from_dict(_tiny_ecosystem(seed=1))
    report = pc.ecosystem.Ecosystem(config).run()
    assert bench.check_report(report) == []

    def flagged(corrupt) -> set[str]:
        bad = copy.deepcopy(report)
        corrupt(bad)
        return {check for check, _ in bench.check_report(bad, clean_validity=1)}

    wallet = next(iter(report.chains[0]["balances"]))
    assert "burned" in flagged(lambda r: r.chains[0].update(burned=-1))
    assert "minted" in flagged(lambda r: r.chains[1]["balances"].update({wallet: 10**6}))
    assert "negative-balance" in flagged(lambda r: r.chains[0]["balances"].update({wallet: -1}))
    assert "consistency" in flagged(lambda r: r.consistency.append({"wallet": wallet}))
    assert "corrupted" in flagged(lambda r: r.transfers[0].update(corrupted=True))
    assert "veto-winner" in flagged(lambda r: r.vetoes.append({"alpha": "00" * 32, "consistent_winner": False}))

    csv = "n,runs,mean_contests_per_chain,std_error,harmonic_number,log2_n\n4,200,2.9,0.1,2.083333,2.0\n"
    assert bench.check_harmonic(csv)


def test_tracer_refuses_a_missing_call_site():
    pc = bench.import_panchain()
    tracer = bench.Tracer()
    del pc.agents.Observer.make_vetoes
    try:
        with pytest.raises(LookupError, match="make_vetoes"):
            tracer.instrument(pc)
    finally:
        tracer.restore()
        bench.import_panchain()
