import pytest

from panchain.configs import (
    EcosystemConfig,
    config_from_dict,
    ScriptedAction,
    TransferLeg,
    WalletSpec,
    sweep_config,
    worked_example,
)
from panchain.contract import ChainState
from panchain.crypto import contest_order_key, sign
from panchain.ecosystem import (
    Ecosystem,
    check_consistency,
    run,
    wallet_keypair,
)
from panchain.protocol import encode_poi


def test_worked_example_reaches_published_final_state():
    config = worked_example(seed=0)
    eco = Ecosystem(config)
    report = eco.run()
    # independent winner oracle: lowest omega among the three observers
    poi = eco._poi_by_alpha[bytes.fromhex(report.transfers[0]["alpha"])]
    omegas = {
        name: sign(eco.keys[name], encode_poi(poi))
        for name in ("ursula", "victor", "wanda")
    }
    winner = min(omegas, key=lambda n: contest_order_key(omegas[n], eco.keys[n].public_key))
    expected = {"sender": 60, "recipient": 19, winner: 1}
    for name in ("ursula", "victor", "wanda"):
        expected.setdefault(name, 0)
    for snap in report.chains:
        balances = {
            name: snap["balances"][eco.keys[name].public_key.hex()] for name in expected
        }
        assert balances == expected
    assert report.transfers[0]["winner"] == winner
    assert report.consistency == []
    assert report.stats["transfers_executed"] == 1


def test_zero_clients_leaves_initial_state():
    config = EcosystemConfig(
        chains=3,
        wallets=(WalletSpec("a", 50), WalletSpec("b", 30)),
        duration=120.0,
        seed=5,
    )
    report = run(config)
    for snap in report.chains:
        assert sum(snap["balances"].values()) == 80
        assert snap["balances"] == {
            wallet_keypair(5, "a").public_key.hex(): 50,
            wallet_keypair(5, "b").public_key.hex(): 30,
        }
    assert report.transfers == []


def test_duration_zero_empty_ledger():
    config = EcosystemConfig(
        chains=2, wallets=(WalletSpec("a", 10),), duration=0.0, seed=1
    )
    report = run(config)
    assert report.transfers == []
    assert report.stats["blocks_per_chain"] == {"0": 0, "1": 0}


def test_same_seed_byte_identical_reports():
    a = run(worked_example(seed=3)).to_json()
    b = run(worked_example(seed=3)).to_json()
    assert a == b


def test_different_seeds_differ():
    a = run(worked_example(seed=1)).to_json()
    b = run(worked_example(seed=2)).to_json()
    assert a != b


def test_check_consistency_empty_for_equal_states():
    w = wallet_keypair(0, "x").public_key
    states = [ChainState(i, {w: 42}) for i in range(3)]
    assert check_consistency(states) == []


def test_check_consistency_reports_divergence():
    w = wallet_keypair(0, "x").public_key
    states = [ChainState(0, {w: 42}), ChainState(1, {w: 41})]
    rows = check_consistency(states)
    assert len(rows) == 1
    assert rows[0]["wallet"] == w.hex()
    assert rows[0]["balances"] == {"0": 42, "1": 41}


def test_count_corrupted_zero_when_consistent():
    report = run(worked_example(seed=0))
    assert report.corrupted_count == 0


def test_short_validity_produces_partial_execution():
    # hand-constructed schedule: the window is too short for any contest to
    # land, so the transfer finalizes only on the claim chain and counts as
    # corrupted once; balances are re-synced to the (not-executed) majority
    config = EcosystemConfig(
        chains=3,
        block_interval=13.0,
        wallets=(
            WalletSpec("sender", 80),
            WalletSpec("recipient", 0),
            WalletSpec("obs-a", 0),
            WalletSpec("obs-b", 0),
        ),
        observers=("obs-a", "obs-b"),
        duration=100.0,
        seed=2,
        script=(
            ScriptedAction(
                kind="transfer",
                sender="sender",
                legs=(TransferLeg(at=1.0, recipient="recipient", amount=20, t0=1, t1=15, chain=0),),
            ),
        ),
    )
    report = run(config)
    assert report.corrupted_count == 1
    row = report.transfers[0]
    assert row["executed_chains"] == [0]
    assert row["corrupted"] and row["resynced"]
    assert report.consistency == []  # resync restored balance agreement
    assert len(report.resync_events) == 1


def test_missing_finalize_names_involved_wallets():
    # a finalize applied on two of three chains diverges sender, recipient,
    # and the winner's balances, and the checker names all three
    from panchain.protocol import make_claim, make_contest, make_finalize, make_poi
    from conftest import keypair

    s, d, u = keypair("cc-s"), keypair("cc-d"), keypair("cc-u")
    balances = {s.public_key: 80, d.public_key: 0, u.public_key: 0}
    states = [ChainState(i, dict(balances), reward=1) for i in range(3)]
    poi = make_poi(s, d, amount=20, t0=1, t1=61)
    for state in states:
        state.apply(make_claim(poi), now=1)
        state.apply(make_contest(u, poi), now=2)
    for state in states[:2]:
        state.apply(make_finalize(d, poi.alpha_id), now=62)
    rows = check_consistency(states)
    divergent = {row["wallet"] for row in rows}
    assert divergent == {s.public_key.hex(), d.public_key.hex(), u.public_key.hex()}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_backlogged_finalizes_are_awaited_before_judging(seed):
    # Three transactions per block keep finalizes queued past the point where
    # a transfer used to be judged; judging early scored landing transfers
    # as partial and resynced balances the late finalizes then moved again.
    config = config_from_dict({
        "chains": 3, "clients": 6, "observers": 3, "max_txs_per_block": 3,
        "duration": 400.0, "seed": seed,
    })
    report = run(config)
    assert report.consistency == []


def test_one_block_validity_corrupts_majority_of_seeds():
    corrupted = [
        run(sweep_config(validity=13, seed=seed)).stats["transfers_corrupted"]
        for seed in range(3)
    ]
    assert sum(1 for c in corrupted if c > 0) >= 2


def test_quiescent_consistency_at_four_blocks():
    for seed in (0, 1, 2):
        report = run(sweep_config(validity=52, seed=seed))
        assert report.consistency == []
        assert report.stats["transfers_corrupted"] == 0
        assert report.stats["transfers_executed"] > 0


def test_winner_unique_across_chains_when_consistent():
    report = run(sweep_config(validity=65, seed=4))
    for row in report.transfers:
        if row["executed_chains"]:
            winners = set(row["winners_by_chain"].values())
            assert len(winners) == 1


def test_report_roundtrips_through_json():
    import json

    report = run(worked_example(seed=0))
    parsed = json.loads(report.to_json())
    assert parsed["stats"]["transfers_executed"] == 1
    assert len(parsed["chains"]) == 3


def test_ledger_csv_columns():
    report = run(worked_example(seed=0))
    lines = report.ledger_csv().splitlines()
    assert lines[0] == (
        "alpha,sender,recipient,amount,t0,t1,winner,"
        "contests_chain_0,contests_chain_1,contests_chain_2,corrupted"
    )
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[1] == "sender" and fields[2] == "recipient"
    assert fields[3:6] == ["20", "1", "61"]
    assert fields[7:10] == ["3", "3", "3"]
    assert fields[10] == "0"


def test_config_echo_allows_reconstruction():
    config = worked_example(seed=9)
    report = run(config)
    from panchain.configs import config_from_dict

    rebuilt = config_from_dict(report.config)
    assert run(rebuilt).to_json() == report.to_json()
