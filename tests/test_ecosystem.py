import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from panchain.agents import Client
from panchain.chain import Block, Resync, block_log
from panchain.cli import main
from panchain.configs import (
    EcosystemConfig,
    config_from_dict,
    contest_scaling_config,
    ScriptedAction,
    TransferLeg,
    WalletSpec,
    sweep_config,
    veto_demo,
    veto_demo_boundary,
    worked_example,
)
from panchain.contract import FINALIZED, ChainState, TxError
from panchain.crypto import sign
from panchain.ecosystem import Ecosystem, _Transfer, run, wallet_keypair
from panchain.protocol import Claim, Contest, Veto, encode_poi
from panchain.report import RunReport, _encode, check_consistency, dump, dumps

from test_output_digests import CASES


def _blocks(chain) -> list[Block]:
    """The busy blocks of a chain's journal, in order."""
    return [entry for entry in chain.journal if isinstance(entry, Block)]


def _replay(eco: Ecosystem) -> None:
    """Replay each chain's journal into a fresh ChainState built from the
    config's balances: every transaction, applied at its block's timestamp,
    gives its recorded code, every resync its recorded ``moved``, in the
    order of their heights, and the final snapshot equals the chain's."""
    config = eco.config
    balances = {wallet_keypair(config.seed, w.name).public_key: w.balance for w in config.wallets}
    for chain in eco.chains:
        state, height = ChainState(chain.chain_id, balances, reward=config.reward), 0
        for entry in chain.journal:
            assert height <= entry.height <= chain.height
            height = entry.height
            if isinstance(entry, Resync):
                assert state.resync(entry.poi, entry.winner) == entry.moved
                continue
            for tx, code in zip(entry.transactions, entry.errors):
                try:
                    state.apply(tx, entry.timestamp)
                except TxError as err:
                    assert err.code == code, (chain.chain_id, entry.height, tx.kind)
                else:
                    assert code is None, (chain.chain_id, entry.height, tx.kind)
        assert state.snapshot() == chain.state.snapshot()


def test_worked_example_reaches_published_final_state():
    config = worked_example(seed=0)
    eco = Ecosystem(config)
    report = eco.run()
    # independent winner oracle: lowest omega among the three observers
    poi = eco._transfers[bytes.fromhex(report.transfers[0]["alpha"])].poi
    omegas = {
        name: sign(eco.keys[name], encode_poi(poi))
        for name in ("ursula", "victor", "wanda")
    }
    winner = min(omegas, key=lambda n: (omegas[n], eco.keys[n].public_key))
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


def test_a_lone_client_has_no_one_to_pay(monkeypatch):
    # Its planner is asked again after each think time, finds no recipient and
    # plans nothing, so the run reports no transfer.
    asked = []
    plan = Client.plan_transfer
    monkeypatch.setattr(Client, "plan_transfer", lambda self, *args: asked.append(args[2]) or plan(self, *args))
    report = run(config_from_dict({"clients": 1, "observers": 1, "duration": 300.0}))
    assert len(asked) > 1 and not any(asked)
    assert report.transfers == [] and report.stats["transfers_attempted"] == 0


@pytest.mark.parametrize("clients", [1, 2], ids=["after-planning-nothing", "after-a-transfer"])
def test_a_client_look_due_exactly_at_duration_still_runs(monkeypatch, clients):
    # A lone client plans nothing; two clients pay each other, so each look
    # after a client's first follows the end of its last transfer. Either way
    # its next look comes one think time later and runs if it falls within
    # duration, the last instant included.
    looks = []
    plan = Client.plan_transfer
    monkeypatch.setattr(
        Client, "plan_transfer", lambda self, now, *args: looks.append((self.name, now)) or plan(self, now, *args)
    )
    config = config_from_dict({"clients": clients, "observers": 1, "think_time": [5, 5], "duration": 300.0})
    run(config)
    first = [now for name, now in looks if name == "client-00"]
    looks.clear()
    run(replace(config, duration=first[1]))
    assert [now for name, now in looks if name == "client-00"] == first[:2]


@pytest.mark.parametrize("duration", [0.0, 1e6])
def test_duration_zero_empty_ledger(duration):
    # Without a client or a script nothing is queued, so no block is made.
    config = EcosystemConfig(
        chains=2, wallets=(WalletSpec("a", 10),), duration=duration, seed=1
    )
    report = run(config)
    assert report.transfers == []
    assert report.stats["blocks_per_chain"] == {"0": 0, "1": 0}


def _outcome(report: RunReport) -> tuple[str, str]:
    # The report file's text and the chains file's text: the whole run.
    return report.to_json(), dumps(report.chains)


def test_same_seed_byte_identical_reports():
    a = _outcome(run(worked_example(seed=3)))
    b = _outcome(run(worked_example(seed=3)))
    assert a == b


def test_different_seeds_differ():
    a = run(worked_example(seed=1)).to_json()
    b = run(worked_example(seed=2)).to_json()
    assert a != b


def test_check_consistency_empty_for_equal_states():
    w = wallet_keypair(0, "x").public_key
    states = [ChainState(i, {w: 42}) for i in range(3)]
    assert check_consistency(states, {w: "x"}) == []


def test_check_consistency_treats_an_absent_wallet_as_zero():
    # Unequal balance dicts take the full scan, which reads a missing wallet as 0.
    w, v = wallet_keypair(0, "x").public_key, wallet_keypair(0, "y").public_key
    states = [ChainState(0, {w: 42, v: 0}), ChainState(1, {w: 42})]
    assert check_consistency(states, {w: "x", v: "y"}) == []
    states.append(ChainState(2, {w: 41}))
    assert [row["name"] for row in check_consistency(states, {w: "x", v: "y"})] == ["x"]


def test_check_consistency_reports_divergence():
    w = wallet_keypair(0, "x").public_key
    states = [ChainState(0, {w: 42}), ChainState(1, {w: 41})]
    rows = check_consistency(states, {w: "x"})
    assert rows == [{"wallet": w.hex(), "name": "x", "balances": {"0": 42, "1": 41}}]
    # A wallet without a configured name goes by its hex id.
    assert [row["name"] for row in check_consistency(states, {})] == [w.hex()]


def test_count_corrupted_zero_when_consistent():
    report = run(worked_example(seed=0))
    assert report.stats["transfers_corrupted"] == 0


def test_short_validity_produces_partial_execution():
    # hand-constructed schedule: the window is too short for any contest to
    # land, so the transfer finalizes only on the claim chain and counts as
    # corrupted once; the resync then finalizes it on the other two chains
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
    assert report.stats["transfers_corrupted"] == 1
    row = report.transfers[0]
    assert row["executed_chains"] == [0]
    assert row["corrupted"]
    assert report.consistency == []  # resync restored balance agreement
    assert report.resync_events == [
        {"at": report.resync_events[0]["at"], "alpha": row["alpha"], "winner": None, "settled_chains": [1, 2]}
    ]
    # Every chain now holds the executed transfer, not only the claim chain.
    for snap in report.chains:
        assert sorted(snap["balances"].values()) == [0, 0, 19, 60] and snap["burned"] == 1


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
        state.apply(make_finalize(d, poi.alpha), now=62)
    names = {s.public_key: "cc-s", d.public_key: "cc-d", u.public_key: "cc-u"}
    rows = check_consistency(states, names)
    divergent = {row["wallet"]: row["name"] for row in rows}
    assert divergent == {
        s.public_key.hex(): "cc-s", d.public_key.hex(): "cc-d", u.public_key.hex(): "cc-u"
    }


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


def test_veto_reward_is_not_minted_when_the_veto_burns_nothing():
    # The first leg takes mallory's whole balance, so when the second leg
    # surfaces the veto burns 0; paying the veto winner out of the chain's
    # other burns used to leave burned = -1 and 11 of 10 tokens circulating.
    base = veto_demo_boundary(0)
    action = base.script[0]
    legs = (replace(action.legs[0], amount=10), action.legs[1])
    report = run(replace(base, script=(replace(action, legs=legs),)))
    for snap in report.chains:
        assert snap["veto_records"]
        assert snap["burned"] >= 0
        assert sum(snap["balances"].values()) + snap["burned"] == snap["initial_supply"]


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
    assert "chains" not in parsed and parsed["config"]["seed"] == 0
    chains = io.StringIO()
    report.chains_json(chains)
    assert len(json.loads(chains.getvalue())) == 3


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
    assert _outcome(run(rebuilt)) == _outcome(report)


@pytest.mark.parametrize(
    "preset",
    [
        lambda: worked_example(seed=9),
        lambda: veto_demo(seed=2),
        lambda: veto_demo_boundary(seed=3),
        lambda: contest_scaling_config(16, seed=4),
        lambda: sweep_config(validity=30, seed=5),
    ],
    ids=["worked_example", "veto_demo", "veto_demo_boundary", "contest_scaling_config", "sweep_config"],
)
def test_config_echo_reads_back_as_the_same_config(preset):
    config = preset()
    assert config_from_dict(json.loads(json.dumps(config.to_dict()))) == config


@pytest.mark.parametrize("jitter", [0.0, 0.3])
def test_conflict_found_after_its_veto_deadline_is_still_finalized(jitter):
    # The second leg is signed at 200 with a window back-dated into the
    # first's, so its conflict surfaces after the veto deadline (131). The
    # finalize-veto check used to be scheduled at 131 + 1 block while the
    # clock stood near 208: it ran before the vetoes landed, and the veto
    # contest stayed open on every chain with its escrow never paid.
    config = config_from_dict({
        "chains": 3, "wallets": {"ds": 100, "a": 0, "b": 0}, "observers": 3,
        "duration": 300.0, "seed": 0, "jitter": jitter,
        "script": [{"kind": "double_spend", "sender": "ds", "legs": [
            {"at": 1, "recipient": "a", "amount": 20, "t0": 2, "t1": 60, "chain": 0},
            {"at": 200, "recipient": "b", "amount": 20, "t0": 10, "t1": 50, "chain": 1},
        ]}],
    })
    report = run(config)
    (row,) = report.vetoes
    assert sorted(row["chains"]) == ["0", "1", "2"]
    assert {info["status"] for info in row["chains"].values()} == {FINALIZED}
    assert row["consistent_winner"]
    assert None not in {info["winner"] for info in row["chains"].values()}


def test_scheduling_into_the_past_is_refused():
    eco = Ecosystem(worked_example(seed=0))
    eco._now = 10.0
    with pytest.raises(RuntimeError, match="before now"):
        eco._schedule(9.5, ("detect", b""))


# Text with non-ASCII, quote, backslash and control characters.
_TEXT = st.text(st.one_of(st.sampled_from('"\\\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600'), st.characters()), max_size=6)
_JSON = st.recursive(
    st.one_of(
        st.none(), st.booleans(), _TEXT,
        st.integers(), st.integers(-(10**40), 10**40), st.sampled_from([2**63, -(2**64), 10**300]),
        st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([-0.0, 0.0, 1e-7, 1e16, 1.5e300]),
        st.just([]), st.just({}), st.just(()), st.just([[], {}]),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
        st.dictionaries(_TEXT, st.integers(), max_size=4).map(Counter),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_JSON)
def test_dumps_is_json_dumps_sorted_and_indented(value):
    assert dumps(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [{1: "a"}, {"a": {None: 1}}, [{(1, 2): 0}]], ids=["int", "none", "tuple"])
def test_dumps_refuses_a_key_that_is_not_a_string(value):
    with pytest.raises(TypeError):
        dumps(value)


@pytest.mark.parametrize("number", [float("nan"), float("inf"), float("-inf")])
def test_dumps_refuses_a_float_json_cannot_hold(number):
    with pytest.raises(ValueError):
        dumps({"cost": [1.0, number]})


@pytest.mark.parametrize("preset", [worked_example, veto_demo], ids=["worked_example", "veto_demo"])
def test_report_and_chains_files_split_the_report_with_no_key_in_both(preset):
    report = run(preset(seed=1))
    for case in (report, replace(report, chains=[])):
        chains = io.StringIO()
        case.chains_json(chains)
        assert chains.getvalue() == dumps(case.chains)
        parsed = json.loads(case.to_json())
        assert "chains" not in parsed
        assert {**parsed, "chains": json.loads(chains.getvalue())} == json.loads(json.dumps(vars(case)))
        assert case.to_json() == json.dumps(parsed, sort_keys=True, indent=2) + "\n"
    assert json.loads(report.to_json()).keys() == {f.name for f in fields(RunReport)} - {"chains"}


@st.composite
def _json_sharing_dicts(draw):
    """A JSON-ready value of dicts and lists whose entries at one depth are
    often the same dict object."""
    pool = draw(st.lists(st.dictionaries(_TEXT, _JSON, max_size=3), min_size=1, max_size=3))
    depth = draw(st.integers(0, 3))

    def build(level):
        if level == depth:
            return draw(st.one_of(st.sampled_from(pool), _JSON))
        children = [build(level + 1) for _ in range(draw(st.integers(0, 3)))]
        if draw(st.booleans()):
            return children
        return dict(zip(draw(st.lists(_TEXT, min_size=len(children), max_size=len(children), unique=True)),
                        children))

    return build(0)


@settings(max_examples=200, deadline=None)
@given(_json_sharing_dicts())
def test_dump_streams_the_text_of_dumps_at_every_depth(value):
    for depth in range(4):
        out = io.StringIO()
        dump(value, out, depth)
        assert out.getvalue() == dumps(value)


@pytest.mark.parametrize("depth", range(4))
def test_dump_refuses_what_dumps_refuses(depth):
    for value in ({1: "a"}, {"a": {None: 1}}, [{(1, 2): 0}], {"a": [{"b": {"c": {2: 0}}}]}):
        with pytest.raises(TypeError):
            dump(value, io.StringIO(), depth)
    for number in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            dump({"cost": [1.0, {"a": [number]}]}, io.StringIO(), depth)


def _strings(value):
    """Every str in a JSON-ready value, dict keys included."""
    if isinstance(value, str):
        yield value
    elif isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from _strings(item)
    elif isinstance(value, list):
        for item in value:
            yield from _strings(item)


# Runs whose snapshots share strings and records: the stress runs have
# corrupted and resynced transfers, so some records differ across chains.
_SHARING_RUNS = {
    "worked_example": lambda: worked_example(seed=1),
    "veto_demo": lambda: veto_demo(seed=1),
    **{f"stress-{seed}": lambda seed=seed: _stress_config(seed) for seed in range(4)},
    "ties": lambda: config_from_dict(CASES["ties"][0]["ecosystem"]),
}


@pytest.mark.parametrize("name", list(_SHARING_RUNS))
def test_one_reports_snapshots_share_hex_strings_and_poi_dicts(name):
    eco = Ecosystem(_SHARING_RUNS[name]())
    report = eco.run()
    assert report.chains == [chain.state.snapshot() for chain in eco.chains]
    encoded = []

    def encode(value, newline):
        if newline == "\n      " and isinstance(value, dict):  # a record, inside a snapshot's field
            encoded.append(value)
        return _encode(value, newline)

    chains = io.StringIO()
    with mock.patch("panchain.report._encode", encode):
        report.chains_json(chains)
    assert chains.getvalue() == dumps(report.chains)
    records = {id(record): record for snapshot in report.chains
               for field in ("poi_records", "veto_records") for record in snapshot[field].values()}
    assert sorted(map(id, encoded)) == sorted(records)  # each distinct record encoded once
    first, *others = report.chains
    by_text = {text: text for text in _strings(first)}
    shared_pois = 0
    for snapshot in others:
        for text in _strings(snapshot):
            assert by_text.setdefault(text, text) is text
        for alpha, record in snapshot["poi_records"].items():
            if alpha in first["poi_records"]:
                assert record["poi"] is first["poi_records"][alpha]["poi"]
                shared_pois += 1
    assert shared_pois >= len(others)
    # A proof or veto record's dict is one object on two chains exactly when
    # the two chains' records are equal.
    equal = unequal = 0
    for field in ("poi_records", "veto_records"):
        for index, snapshot in enumerate(report.chains):
            for other in report.chains[index + 1:]:
                for key, record in snapshot[field].items():
                    if key in other[field]:
                        same = record == other[field][key]
                        assert (record is other[field][key]) == same
                        equal += same
                        unequal += not same
    assert equal
    if name.startswith("stress"):
        assert unequal
    if name == "veto_demo":
        assert all(snapshot["veto_records"] for snapshot in report.chains)


class _Discard:
    def write(self, text: str) -> None:
        pass


def test_chains_file_is_written_without_holding_its_text():
    # Writing the chains file holds the text of each distinct record, about
    # a third of the file when three chains agree; holding one chain
    # snapshot's text at a time peaks at about the file's length here.
    report = run(config_from_dict({
        "chains": 3, "clients": 20, "client_balance": 100, "observers": 5, "duration": 600.0,
    }))
    length = len(dumps(report.chains))
    tracemalloc.start()
    try:
        report.chains_json(_Discard())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * length


def _stress_config(seed: int) -> EcosystemConfig:
    # Two transactions per block: corrupted and resynced transfers on every seed.
    return config_from_dict({
        "chains": 3, "clients": 6, "observers": 3, "max_txs_per_block": 2,
        "duration": 400.0, "seed": seed,
    })


def _congested_double_spends(seed: int = 0) -> EcosystemConfig:
    # Four wallets each sign two overlapping proofs, claimed 5 s apart on
    # different chains, amid four clients at two transactions per block.
    clients = [f"client-{i:02d}" for i in range(4)]
    script = []
    for i in range(4):
        at = 10.0 + 50 * i
        legs = [
            {"at": at + 5 * k, "recipient": clients[(i + k) % 4], "amount": 20,
             "t0": int(at) + 2, "t1": int(at) + 60, "chain": (i + k) % 3}
            for k in range(2)
        ]
        script.append({"kind": "double_spend", "sender": f"ds-{i:02d}", "legs": legs})
    return config_from_dict({
        "chains": 3, "clients": 4, "observers": 3, "max_txs_per_block": 2,
        "duration": 300.0, "seed": seed, "wallets": {f"ds-{i:02d}": 100 for i in range(4)},
        "script": script,
    })


@pytest.mark.parametrize(
    "preset, pairs",
    [(veto_demo, 1), (veto_demo_boundary, 1), (_congested_double_spends, 4)],
    ids=["veto_demo", "veto_demo_boundary", "congested"],
)
def test_each_observer_schedules_each_finalize_veto_check_once(preset, pairs):
    eco = Ecosystem(preset())
    scheduled = []
    schedule = eco._schedule

    def record(fire_at, payload):
        if payload[0] == "fvcheck":
            scheduled.append(payload[1:])
        schedule(fire_at, payload)

    eco._schedule = record
    eco.run()
    found = {pair for _, pair in scheduled}
    assert len(found) == pairs
    assert sorted(scheduled) == sorted((name, pair) for name in eco.observers for pair in found)


def _campaign_config(case: str, seed: int) -> EcosystemConfig:
    """The config the ``run`` campaign runs for a digest case at ``seed``: its
    ``ecosystem`` section, or the worked example when it has none."""
    section = CASES[case][0].get("ecosystem")
    return replace(config_from_dict(section) if section else worked_example(), seed=seed)


# Every digest case's config at its seeds (custom-pow runs custom's), both veto
# demos and the stress runs.
_EXPOSURE_RUNS = {
    **{f"{case}-{seed}": lambda case=case, seed=seed: _campaign_config(case, int(seed))
       for case in ("default", "custom", "ties") for seed in CASES[case][1].split(",")},
    **{f"{preset.__name__}-{seed}": lambda preset=preset, seed=seed: preset(seed)
       for preset in (veto_demo, veto_demo_boundary) for seed in range(3)},
    **{f"stress-{seed}": lambda seed=seed: _stress_config(seed) for seed in range(4)},
}


@pytest.mark.parametrize("name", list(_EXPOSURE_RUNS))
def test_only_claims_expose_proofs_and_contests_and_vetoes_carry_exposed_ones(name):
    eco = Ecosystem(_EXPOSURE_RUNS[name]())
    eco.run()
    included = [tx for chain in eco.chains for block in _blocks(chain) for tx in block.transactions]
    claimed = {tx.poi.alpha for tx in included if isinstance(tx, Claim)}
    assert claimed
    # A proof is exposed to every observer when its first claim lands.
    assert all(observer.seen.keys() == claimed for observer in eco.observers.values())
    assert {alpha for alpha, tracker in eco._transfers.items() if tracker.claim_ok is not None} == claimed
    carried = [tx.poi.alpha for tx in included if isinstance(tx, Contest)]
    carried += [alpha for tx in included if isinstance(tx, Veto) for alpha in (tx.poi.alpha, tx.conflicting_poi.alpha)]
    assert set(carried) <= claimed
    if name.startswith("veto_demo"):
        assert any(isinstance(tx, Veto) for tx in included)


# The exposure runs, sweep runs that resync 97 to 114 transfers each, and
# congested double spends, whose mempools stay backlogged until late in the run.
_REPLAY_RUNS = {
    **_EXPOSURE_RUNS,
    **{f"sweep_config-20-{seed}": lambda seed=seed: sweep_config(20, seed=seed) for seed in range(4)},
    **{f"congested-{seed}": lambda seed=seed: _congested_double_spends(seed) for seed in range(4)},
}


@pytest.mark.parametrize("name", list(_REPLAY_RUNS))
def test_replaying_each_chains_journal_rebuilds_its_state(name):
    eco = Ecosystem(_REPLAY_RUNS[name]())
    report = eco.run()
    assert any(_blocks(chain) for chain in eco.chains)
    _replay(eco)
    # The run ended quiescent, and at jitter 0 all chains finished its last instant.
    assert not eco._heap and not any(chain.mempool for chain in eco.chains)
    if not eco.config.jitter:
        assert len({chain.height for chain in eco.chains}) == 1
    resyncs = [[entry for entry in chain.journal if isinstance(entry, Resync)] for chain in eco.chains]
    assert [len(entries) for entries in resyncs] == [len(report.resync_events)] * len(eco.chains)
    if name.startswith("sweep_config"):
        # These runs resync, and replay is exact only with the resyncs journaled.
        assert any(entry.moved for entries in resyncs for entry in entries)


def test_an_idle_chain_keeps_no_record_of_its_empty_blocks():
    # A 10^6 s window keeps three chains producing blocks for about 77,000
    # heights each, nearly all of them empty; each is only counted.
    eco = Ecosystem(config_from_dict({
        "chains": 3, "clients": 2, "observers": 1, "duration": 60, "validity_length": 10**6,
    }))
    tracemalloc.start()
    try:
        report = eco.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert min(report.stats["blocks_per_chain"].values()) > 70_000
    assert peak < 2**20


@pytest.mark.parametrize(
    "config",
    [*(_stress_config(seed) for seed in range(4)), veto_demo(), veto_demo_boundary(), sweep_config(15)],
    ids=[*(f"stress-{seed}" for seed in range(4)), "veto_demo", "veto_demo_boundary", "sweep_config-15"],
)
def test_stats_are_the_counts_of_the_transfer_rows(config):
    report = run(config)
    rows, m = report.transfers, len(report.chains)
    executed = [
        row for row in rows
        if len(row["executed_chains"]) == m and len(set(row["winners_by_chain"].values())) == 1
    ]
    assert not any(row["corrupted"] for row in executed)
    contests = [sum(row["contest_counts"].values()) for row in rows if row["claim_ok"]]
    counts = {
        "transfers_attempted": len(rows),
        "transfers_claimed": len(contests),
        "transfers_executed": len(executed),
        "transfers_failed": sum(1 for row in rows if row["failed"]),
        "transfers_corrupted": sum(1 for row in rows if row["corrupted"]),
        "transfers_vetoed": sum(1 for row in rows if row["vetoed_chains"]),
    }
    assert {key: report.stats[key] for key in counts} == counts
    assert all(type(report.stats[key]) is int for key in counts)
    # The mean per chain is the exact one, rounded once.
    mean = Fraction(sum(contests), m * len(contests)) if contests else 0
    assert report.stats["mean_contests_per_chain"] == float(mean)


@pytest.mark.parametrize("seed", [0, 2, 11])
def test_resync_keeps_the_chains_in_agreement_under_congestion(seed):
    # When these seeds resync a transfer, other transfers of the same wallets
    # are still in flight; a resync may move only its own transfer's tokens.
    report = run(_stress_config(seed))
    assert report.resync_events
    assert report.consistency == []


@pytest.mark.parametrize(
    "config",
    [contest_scaling_config(16), replace(worked_example(), jitter=0.25)],
    ids=["contest_scaling_config-16", "worked_example-jitter"],
)
def test_only_blocks_that_drained_transactions_are_built(config):
    eco = Ecosystem(config)
    report = eco.run()
    for chain in eco.chains:
        blocks = _blocks(chain)
        assert blocks and all(block.transactions for block in blocks)
        heights, stamps = [block.height for block in blocks], [block.timestamp for block in blocks]
        assert heights == sorted(set(heights)) and stamps == sorted(set(stamps))
        assert report.stats["blocks_per_chain"][str(chain.chain_id)] == chain.height > heights[-1]
        assert chain.height > len(blocks)


def test_in_run_audit_names_the_chain_and_the_block_time():
    # A token minted before the run is caught by chain 1's first busy block,
    # at 26 s, and the message says where and when.
    eco = Ecosystem(worked_example(seed=0))
    eco.chains[1].state.balances[eco.keys["sender"].public_key] += 1
    with pytest.raises(RuntimeError, match=r"supply violation on chain 1: 81 \+ 0 != 80 \(at t=26\.0\)"):
        eco.run()


# Small honest configs: no scripted double spends. A chain that executed a
# transfer with another winner than the majority had its whole settlement
# moved back by the resync, taking from a recipient who had spent part of it.
_WINNER_SWAP_CRASHES = {
    "586523": {
        "chains": 3, "clients": 7, "observers": 4, "max_txs_per_block": 1, "jitter": 0.1,
        "block_interval": 13.0, "validity_length": 16, "duration": 400.0, "seed": 586523,
        "observation": {"mode": "staggered", "spacing": 0.5},
    },
    "333210": {
        "chains": 2, "clients": 9, "observers": 3, "max_txs_per_block": 3, "jitter": 0.1,
        "block_interval": 20.0, "validity_length": 23, "duration": 400.0, "seed": 333210,
        "observation": {"mode": "staggered", "spacing": 0.5},
    },
}


@pytest.mark.parametrize("seed", list(_WINNER_SWAP_CRASHES))
def test_resync_moves_only_the_reward_when_a_chain_chose_another_winner(seed):
    eco = Ecosystem(config_from_dict(_WINNER_SWAP_CRASHES[seed]))
    report = eco.run()
    assert report.consistency == []
    # The resync re-settled at least one chain that had executed the
    # transfer with another winner.
    assert any(
        len(set(t.executed.values())) > 1 for t in eco._transfers.values() if t.corrupted
    )


_RESIGNED_LEG = """
import json, sys
from panchain.configs import config_from_dict
from panchain.ecosystem import run
leg = {"recipient": "b", "amount": 12, "t0": 1, "t1": 40, "chain": 0}
rows = []
for second_at in (30.0, 64.0, 65.5):
    report = run(config_from_dict({
        "wallets": {"a": 40, "b": 0}, "observers": 2, "duration": 100,
        "script": [{"sender": "a", "legs": [{**leg, "at": at}]} for at in (1.0, second_at)],
    }))
    rows.append((report.transfers, report.tx_counts["finalize"]))
json.dump(rows, sys.stdout)
"""


def test_a_leg_that_re_signs_a_registered_proof_keeps_its_tracker():
    # Two identical legs sign one proof, so the second gets the first's alpha.
    # Had it replaced the tracker, a second leg at 30 s would submit the
    # finalizes twice, one at 64 s would report the executed transfer as
    # failed, and one at 65.5 s would leave detect waiting for finalizes that
    # had landed already, forever; the subprocess's timeout catches that.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", _RESIGNED_LEG], env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    for rows, finalizes in json.loads(result.stdout):
        assert finalizes == 3
        [row] = rows
        assert row["claim_ok"] and not row["failed"] and row["executed_chains"] == [0, 1, 2]


_LEG_KEYS = ("at", "recipient", "amount", "t0", "t1", "chain")


def _double_spend(sender, *legs):
    return {"kind": "double_spend", "sender": sender, "legs": [dict(zip(_LEG_KEYS, leg)) for leg in legs]}


def _transfer(sender, leg):
    return {"sender": sender, "legs": [dict(zip(_LEG_KEYS, leg))]}


# Valid configs whose resync must settle a transfer that another chain has
# already paid out of the sender: the resync refuses to overdraw it and moves
# nothing there, so the run ends inconsistent. ROADMAP direction 16 owns the
# rule for such a transfer.
_RESYNC_CRASHES = {
    # Each chain executes its own leg, and m cannot pay both.
    "no-observers": {
        "chains": 2, "observers": 0, "duration": 60.0, "seed": 0, "wallets": {"m": 100, "a": 0, "b": 0},
        "script": [_double_spend("m", (1.0, "a", 71, 1, 30, 0), (1.0, "b", 83, 1, 30, 1))],
    },
    "three-observers": {
        "chains": 4, "clients": 10, "observers": 3, "max_txs_per_block": 3, "block_interval": 2.0,
        "observation": {"mode": "staggered", "spacing": 2.0}, "validity_length": 39, "duration": 292.0,
        "think_time": [1, 1], "seed": 465164, "wallets": {f"ds-{i}": 100 for i in range(3)},
        "script": [
            _double_spend("ds-0", (64.0, "client-09", 5, 66, 75, 0), (73.0, "client-08", 65, 75, 119, 3)),
            _double_spend("ds-1", (159.0, "client-09", 51, 161, 188, 1), (161.0, "client-03", 63, 163, 171, 2)),
            _double_spend("ds-2", (145.0, "client-08", 69, 147, 153, 3), (145.0, "client-07", 66, 147, 155, 3)),
        ],
    },
    # No double spend: every contest lands after its proof's t1, so each
    # transfer executes only on its claim chain. Chain 0 never learns the
    # first, pays out the second from the same tokens, and the first's resync
    # cannot settle there.
    "sequential-short-windows": {
        "chains": 2, "observers": 2, "block_interval": 20.0, "jitter": 0.1, "seed": 0, "duration": 100.0,
        "wallets": {"m": 100, "r": 0},
        "script": [_transfer("m", (1.0, "r", 43, 3, 36, 1)), _transfer("m", (37.0, "r", 93, 39, 55, 0))],
    },
}


# three-observers still ends with ds-2 at 100/100/0/0: chains 0 and 1 knew
# neither of its proofs, so they refused every veto.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="no rule yet for a chain that knows neither proof or a resync that would overdraw (ROADMAP 16)")
@pytest.mark.parametrize("name", list(_RESYNC_CRASHES))
def test_a_valid_config_runs_to_a_consistent_report(name):
    report = run(config_from_dict(_RESYNC_CRASHES[name]))
    assert report.consistency == []


def _veto_mix(capacity: int, seed: int) -> EcosystemConfig:
    """The benchmark's veto-mix run at ``capacity`` transactions per block:
    ten honest clients, five observers, and 40 wallets that each sign two
    overlapping proofs, claimed within 12 s of each other on random chains."""
    rng = random.Random(f"veto-mix/{seed}")
    clients = [f"client-{i:02d}" for i in range(10)]
    script = []
    for i in range(40):
        at, legs = rng.uniform(1.0, 1700.0), []
        for recipient in rng.sample(clients, 2):
            t0 = int(at) + 2
            legs.append({"at": at, "recipient": recipient, "amount": rng.randint(2, 100),
                         "t0": t0, "t1": t0 + rng.randint(52, 82), "chain": rng.randrange(3)})
            at += rng.uniform(0.0, 12.0)
        script.append({"kind": "double_spend", "sender": f"ds-{i:02d}", "legs": legs})
    return config_from_dict({
        "chains": 3, "block_interval": 13.0, "clients": 10, "client_balance": 100, "observers": 5,
        "validity_length": 65, "duration": 1800.0, "max_txs_per_block": capacity, "seed": seed,
        "wallets": {f"ds-{i:02d}": 100 for i in range(40)}, "script": script,
    })


# Congested double spends, among them runs whose resync would overdraw a
# sender on some chain (capacity 2 seed 0, capacity 5 seeds 0 and 6), and
# the resync crashes above.
_CONGESTED_VETO_RUNS = {
    **{f"veto-mix-{capacity}-{seed}": lambda capacity=capacity, seed=seed: _veto_mix(capacity, seed)
       for capacity, seeds in ((2, (0, 1, 2)), (5, (0, 1, 6)), (10, (0, 1))) for seed in seeds},
    **{name: lambda name=name: config_from_dict(_RESYNC_CRASHES[name]) for name in _RESYNC_CRASHES},
}


@pytest.mark.parametrize("name", list(_CONGESTED_VETO_RUNS))
def test_congested_and_unsettleable_runs_end_in_an_audited_report(name):
    eco = Ecosystem(_CONGESTED_VETO_RUNS[name]())
    eco.run()
    for chain in eco.chains:
        chain.state.audit()
    _replay(eco)


@pytest.mark.parametrize("seed", range(8))
def test_a_supply_of_two_to_the_64_minus_one_runs_clean(seed):
    # Each transfer's amount goes on chain as a u64; a recipient's balance
    # grows past its start, so only the total bounds it.
    eco = Ecosystem(config_from_dict({
        "wallets": {"a": 2**63, "b": 2**63 - 1}, "clients": ["a", "b"], "observers": 2, "seed": seed,
    }))
    report = eco.run()
    assert report.consistency == []
    assert report.stats["transfers_executed"] == report.stats["transfers_attempted"] > 0
    for chain in eco.chains:
        chain.state.audit()


_HONEST_CONFIGS = st.fixed_dictionaries({
    "chains": st.integers(1, 4),
    "clients": st.integers(2, 10),
    "observers": st.integers(0, 4),
    "max_txs_per_block": st.sampled_from([1, 2, 3, 5, 100]),
    "jitter": st.sampled_from([0.0, 0.1, 0.3, 0.6]),
    "validity_length": st.integers(5, 70),
    "block_interval": st.sampled_from([2.0, 5.0, 13.0, 20.0]),
    "duration": st.sampled_from([100.0, 200.0, 400.0]),
    "observation": st.one_of(
        st.just({"mode": "uniform"}),
        st.builds(lambda spacing: {"mode": "staggered", "spacing": spacing}, st.sampled_from([0.5, 1.0, 2.0])),
    ),
    "think_time": st.sampled_from([[0.1, 0.1], [0.2, 0.9], [1, 1], [1, 3], [15, 30]]),
    "reward": st.sampled_from([0, 1, 3]),
    "seed": st.integers(0, 2**20),
})


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_HONEST_CONFIGS)
def test_a_small_honest_run_ends_consistent_and_audited(data):
    eco = Ecosystem(config_from_dict(data))
    report = eco.run()
    assert report.consistency == []
    _replay(eco)
    for chain in eco.chains:
        chain.state.audit()
        assert not chain.mempool
    # No honest wallet signs overlapping windows, so nothing is vetoed and no
    # claim is refused as conflicting.
    assert "veto" not in report.tx_counts
    errors = {error for chain in eco.chains for block in _blocks(chain) for error in block.errors}
    assert "conflicting-poi" not in errors
    if not eco.config.jitter:
        assert len({chain.height for chain in eco.chains}) == 1
    for tracker in eco._transfers.values():
        assert tracker.claim_ok is not None
        if tracker.claim_ok:
            # An accepted claim is judged on every chain.
            assert len(tracker.contest_counts) == len(eco.chains)


def _recount(entries) -> tuple[Counter, Counter]:
    """Transactions by kind, and the applied ones by kind, in block log entries."""
    txs = [tx for entry in entries for tx in entry.get("txs", ())]  # resync lines have none
    return Counter(tx["kind"] for tx in txs), Counter(tx["kind"] for tx in txs if tx["ok"])


@pytest.mark.parametrize("case", sorted(CASES))
def test_tx_counts_are_a_recount_of_the_block_log(request, tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    config, seeds, engine = CASES[case]
    if engine == "pow":
        request.getfixturevalue("pow_engine")
    Path("cfg.json").write_text(json.dumps({**config, "block_log": True}))
    assert main(["--campaign", "run", "--config", "cfg.json", "--out", "out", "--seeds", seeds]) == 0
    for seed in seeds.split(","):
        report = json.loads(Path(f"out/run/run-{seed}.json").read_text())
        entries = map(json.loads, Path(f"out/run/run-{seed}.blocks.jsonl").read_text().splitlines())
        assert (report["tx_counts"], report["tx_counts_ok"]) == _recount(entries)
    capsys.readouterr()


@pytest.mark.parametrize("preset", [veto_demo, veto_demo_boundary])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_veto_demo_tx_counts_are_a_recount_of_the_block_log(preset, seed):
    eco = Ecosystem(preset(seed=seed))
    report = eco.run()
    counts, ok = _recount(entry for chain in eco.chains for entry in block_log(chain))
    assert (report.tx_counts, report.tx_counts_ok) == (counts, ok)
    # Every kind lands, and some are refused.
    assert set(counts) == {"claim", "contest", "finalize", "veto", "finalize_veto"}
    assert ok != counts


_WINNERS = st.one_of(st.none(), st.sampled_from([b"u", b"v", b"w"]))


@given(st.dictionaries(st.integers(0, 6), _WINNERS, max_size=7))
@example({})
@example({0: None, 1: None, 2: b"u"})
@example({0: b"v", 1: b"u", 2: b"v", 3: b"u"})
@example({2: None, 0: b"u"})
def test_transfer_winner_is_the_most_common_executed_winner(executed):
    tracker = _Transfer(poi=None, claim_chain=0, client_driven=False, executed=executed)
    # The rule as Counter states it: the most common value, the first seen on a tie.
    top = Counter(executed.values()).most_common(1)
    assert tracker.winner == (top[0][0] if top else None)


def test_output_digests_do_not_depend_on_hash_order():
    # Set and dict iteration over str and bytes follows the hash seed; a
    # fixed seed other than this process's reruns every byte pin.
    tests = Path(__file__).parent
    src = str(tests.parent / "src")
    env = {**os.environ, "PYTHONHASHSEED": "12345",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(tests / "test_output_digests.py")],
        cwd=tests.parent, env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
