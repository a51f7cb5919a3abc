import dataclasses
import hashlib
import math
import random
import statistics
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panchain import agents, crypto, protocol
from panchain.agents import Client, Observer
from panchain.chain import SimChain
from panchain.configs import contest_scaling_config, sweep_config
from panchain.contract import FINALIZED, ChainState, PoiRecord
from panchain.ecosystem import run
from panchain.protocol import (
    Contest,
    conflicts,
    encode_poi,
    encode_veto_payload,
    make_claim,
    make_contest,
    make_finalize,
    make_poi,
    make_veto,
)

from conftest import keypair


# --- client -------------------------------------------------------------


def make_client(name="c0", balance_hint=80):
    return Client(
        name,
        keypair(name),
        random.Random(name),
        reward=1,
        validity_length=65,
        think_time=(15.0, 30.0),
    )


def test_client_skips_on_zero_balance():
    client = make_client()
    peers = [keypair("c1")]
    assert client.plan_transfer(0.0, [0, 0, 0], peers) is None


def test_client_skips_when_balance_equals_reward():
    client = make_client()
    peers = [keypair("c1")]
    assert client.plan_transfer(0.0, [1, 1, 1], peers) is None


def test_client_amounts_within_bounds():
    client = make_client()
    peers = [keypair(f"c{i}") for i in range(1, 4)]
    for _ in range(200):
        plan = client.plan_transfer(10.0, [80, 80, 80], peers)
        assert plan is not None
        assert 2 <= plan.poi.amount <= 80
        assert 0 <= plan.claim_chain < 3
        assert plan.poi.t1 - plan.poi.t0 == 65
        assert plan.poi.recipient in {peer.public_key for peer in peers}


def test_client_think_time_bounds():
    client = make_client()
    delays = [client.think_delay() for _ in range(500)]
    assert all(15.0 <= d <= 30.0 for d in delays)


# --- observer -----------------------------------------------------------


def observer_fixture():
    sender, recipient = keypair("obs-sender"), keypair("obs-recipient")
    chains = []
    for cid in range(3):
        balances = {sender.public_key: 100, recipient.public_key: 0}
        chains.append(
            SimChain(
                cid,
                ChainState(cid, balances, reward=1),
                block_interval=13.0,
                max_txs_per_block=100,
                jitter=0.0,
                rng=random.Random(cid),
            )
        )
    poi = make_poi(sender, recipient, amount=20, t0=1, t1=61)
    observer = Observer("watch", keypair("watch"))
    return observer, poi, chains, sender


def test_observer_posts_everywhere_when_no_contestants():
    observer, poi, chains, _ = observer_fixture()
    chains[0].state.apply_claim(make_claim(poi), now=1)
    reaction = observer.handle_new_poi(poi, chains, now=2.0)
    assert [cid for cid, _ in reaction.contests] == [0, 1, 2]
    assert not reaction.vetoes


def test_observer_abstains_where_it_cannot_win():
    observer, poi, chains, _ = observer_fixture()
    own = make_contest(observer.key, poi).omega
    rivals = [keypair(f"rival-{i}") for i in range(40)]
    rival_contests = [make_contest(kp, poi) for kp in rivals]
    best = min(rival_contests, key=lambda c: (c.omega, c.contestant))
    worst = max(rival_contests, key=lambda c: (c.omega, c.contestant))
    # chain 0 holds a stronger (lower) contest than ours, chain 1 a weaker one
    beat_us = best if best.omega < own else None
    lose_to_us = worst if worst.omega > own else None
    if beat_us is None or lose_to_us is None:
        pytest.skip("rival sample did not straddle the observer's omega")
    chains[0].state.apply_contest(beat_us, now=2)
    chains[1].state.apply_contest(lose_to_us, now=2)
    reaction = observer.handle_new_poi(poi, chains, now=3.0)
    posted = {cid for cid, _ in reaction.contests}
    assert 0 not in posted  # cannot win there
    assert 1 in posted and 2 in posted


def test_observer_ignores_expired_poi():
    observer, poi, chains, _ = observer_fixture()
    reaction = observer.handle_new_poi(poi, chains, now=61.0)
    assert not reaction.contests and not reaction.vetoes


def test_observer_detects_conflict_and_vetoes_once_per_chain():
    observer, poi, chains, sender = observer_fixture()
    other = make_poi(sender, keypair("second-recipient"), amount=20, t0=5, t1=65)
    first = observer.handle_new_poi(poi, chains, now=2.0)
    assert not first.vetoes
    second = observer.handle_new_poi(other, chains, now=3.0)
    assert not second.contests
    assert [cid for cid, _ in second.vetoes] == [0, 1, 2]
    assert len(second.conflicts_found) == 1
    a, b, deadline = second.conflicts_found[0]
    assert {a, b} == {poi.alpha, other.alpha}
    assert deadline == 65 + 60


def test_make_vetoes_signs_the_pair_once_and_posts_one_veto_per_chain(monkeypatch):
    observer, poi, chains, sender = observer_fixture()
    other = make_poi(sender, keypair("second-recipient"), amount=20, t0=5, t1=65)
    calls = []

    def counting_sign(key, message):
        calls.append(message)
        return crypto.sign(key, message)

    monkeypatch.setattr(agents, "sign", counting_sign)
    monkeypatch.setattr(protocol, "sign", counting_sign)
    submissions = observer.make_vetoes(poi, other, chains)
    assert len(calls) == 1
    assert [cid for cid, _ in submissions] == [0, 1, 2]
    for _, veto in submissions:
        assert veto == make_veto(observer.key, poi, other)
        payload = encode_veto_payload(veto.poi.alpha, veto.conflicting_poi.alpha)
        assert crypto.verify(observer.key.public_key, payload, veto.omega)


def test_watchdog_no_action_without_conflict():
    observer, poi, chains, sender = observer_fixture()
    later = make_poi(sender, keypair("r2"), amount=20, t0=62, t1=120)
    observer.handle_new_poi(poi, chains, now=2.0)
    reaction = observer.handle_new_poi(later, chains, now=3.0)
    assert not reaction.vetoes and not reaction.conflicts_found


def test_backdated_proof_conflicting_with_a_finalized_one_is_vetoed():
    # Memory must not be pruned by time: the old proof concluded long ago,
    # but a new window reaching back over it is still a double spend.
    observer, poi, chains, sender = observer_fixture()
    chains[0].state.apply_claim(make_claim(poi), now=1)
    observer.handle_new_poi(poi, chains, now=2.0)
    chains[0].state.apply_finalize(make_finalize(sender, poi.alpha), now=62)
    assert chains[0].state.poi_records[poi.alpha].status == FINALIZED
    backdated = make_poi(sender, keypair("late-recipient"), amount=20, t0=50, t1=300)
    reaction = observer.handle_new_poi(backdated, chains, now=200.0)
    assert [cid for cid, _ in reaction.vetoes] == [0, 1, 2]
    assert [(a, b) for a, b, _ in reaction.conflicts_found] == [(poi.alpha, backdated.alpha)]


PROP_SENDERS = [keypair(f"prop-sender-{i}") for i in range(3)]
PROP_RECIPIENTS = [keypair(f"prop-recipient-{i}") for i in range(2)]


def _proof_specs(senders: int):
    # (sender, recipient, t0, window length): small integer windows, so
    # overlapping, touching and disjoint windows all come up.
    spec = st.tuples(st.integers(0, senders - 1), st.integers(0, 1), st.integers(0, 40), st.integers(1, 20))
    return st.lists(spec, min_size=1, max_size=12)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 3).flatmap(_proof_specs))
def test_sender_index_finds_what_a_full_scan_finds(specs):
    observer = Observer("watch", keypair("watch"))
    earlier = []
    for s, r, t0, length in specs:
        poi = make_poi(PROP_SENDERS[s], PROP_RECIPIENTS[r], amount=2, t0=t0, t1=t0 + length)
        # No chains, and past every window: only the conflict check runs.
        reaction = observer.handle_new_poi(poi, [], now=100.0)
        if poi in earlier:
            expected = []
        else:
            expected = [(p.alpha, poi.alpha) for p in earlier if conflicts(poi, p)]
            earlier.append(poi)
        assert [(a, b) for a, b, _ in reaction.conflicts_found] == expected


def test_observer_checks_a_proof_only_against_its_senders_proofs(monkeypatch):
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return conflicts(a, b)

    monkeypatch.setattr(agents, "conflicts", counting)
    observer = Observer("watch", keypair("watch"))
    recipient = keypair("guard-recipient")
    senders = [keypair(f"guard-sender-{i}") for i in range(50)]
    for sender in senders:
        observer.handle_new_poi(make_poi(sender, recipient, amount=2, t0=1, t1=61), [], now=100.0)
    assert calls == []
    # Opens before sender 7's first window closes, so that one proof is scanned.
    observer.handle_new_poi(make_poi(senders[7], recipient, amount=2, t0=50, t1=130), [], now=200.0)
    assert len(calls) == 1


def test_a_proof_opening_after_its_senders_last_close_is_not_scanned(monkeypatch):
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return conflicts(a, b)

    monkeypatch.setattr(agents, "conflicts", counting)
    observer = Observer("watch", keypair("watch"))
    sender, recipient = keypair("screen-sender"), keypair("screen-recipient")
    # The second window closes before the first; the latest close stays 61.
    for t0, t1 in ((1, 61), (10, 20)):
        observer.handle_new_poi(make_poi(sender, recipient, amount=2, t0=t0, t1=t1), [], now=100.0)
    calls.clear()
    reaction = observer.handle_new_poi(make_poi(sender, recipient, amount=2, t0=62, t1=90), [], now=100.0)
    assert calls == [] and not reaction.vetoes and not reaction.conflicts_found


def test_a_backdated_proof_is_still_scanned_and_vetoed(monkeypatch):
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return conflicts(a, b)

    monkeypatch.setattr(agents, "conflicts", counting)
    observer, poi, chains, sender = observer_fixture()
    later = make_poi(sender, keypair("r2"), amount=20, t0=100, t1=160)
    observer.handle_new_poi(poi, chains, now=2.0)
    observer.handle_new_poi(later, chains, now=101.0)
    assert calls == []
    # Opens after the first window but before the latest close (160).
    backdated = make_poi(sender, keypair("r3"), amount=20, t0=70, t1=110)
    reaction = observer.handle_new_poi(backdated, chains, now=101.0)
    assert [(a.alpha, b.alpha) for a, b in calls] == [(backdated.alpha, poi.alpha), (backdated.alpha, later.alpha)]
    assert [cid for cid, _ in reaction.vetoes] == [0, 1, 2]
    assert [(a, b) for a, b, _ in reaction.conflicts_found] == [(later.alpha, backdated.alpha)]


# Few distinct short values, so equal omegas and wallet ties come up often.
_SMALL_BYTES = st.binary(min_size=1, max_size=1).map(lambda b: bytes([b[0] % 4]))
_WALLETS = st.binary(min_size=1, max_size=2)


@given(st.dictionaries(_WALLETS, _SMALL_BYTES, min_size=1, max_size=6))
def test_contest_winner_is_the_lowest_omega_then_the_lowest_wallet(contestants):
    assert crypto.contest_leader(contestants)[1] == min(contestants, key=lambda w: (contestants[w], w))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_WALLETS, _SMALL_BYTES, max_size=6), _WALLETS, _SMALL_BYTES)
def test_observer_posts_iff_it_would_win_the_contest(contestants, me, omega):
    observer, poi, chains, _ = observer_fixture()
    observer.key = dataclasses.replace(observer.key, public_key=me)
    record = chains[0].state.poi_records[poi.alpha] = PoiRecord(poi=poi)
    if me in contestants:  # an observer's omega for a proof is deterministic
        contestants[me] = omega
    for wallet, other_omega in contestants.items():
        record.enter(wallet, other_omega)
    # Patched in the body, not by a fixture, which Hypothesis would not reset per example.
    def fixed_omega_contest(key, proof):
        return Contest(poi=proof, contestant=key.public_key, omega=omega)

    with mock.patch("panchain.agents.make_contest", fixed_omega_contest):
        reaction = observer.handle_new_poi(poi, chains[:1], now=2.0)
    expected = me not in contestants and crypto.contest_leader({**contestants, me: omega})[1] == me
    assert [cid for cid, _ in reaction.contests] == ([0] if expected else [])


def test_encode_poi_bytes_are_memoised_per_proof():
    poi = make_poi(keypair("sender"), keypair("recipient"), amount=20, t0=1, t1=61)
    first = encode_poi(poi)
    # The canonical bytes are what every signature covers, so they are pinned.
    assert hashlib.sha256(first).hexdigest() == "f5e4bd01760e364f40be1635419c2b4ef194470007ea1ed7ed37562c1436467c"
    assert encode_poi(poi) is first
    other = dataclasses.replace(poi, amount=21)
    assert hashlib.sha256(encode_poi(other)).hexdigest() == (
        "fc8cbd67c7a129c06f29d596163a3a30161b5544c123495909f93652b2a6ee25"
    )


# --- collective behavior -------------------------------------------------


def test_confirmed_contests_strictly_decreasing_under_staggering():
    report_runs = 5
    for seed in range(report_runs):
        cfg = contest_scaling_config(12, seed=seed)
        from panchain.ecosystem import Ecosystem

        eco = Ecosystem(cfg)
        eco.run()
        for chain in eco.chains:
            omegas = []
            for block in chain.journal:
                for tx, error in zip(block.transactions, block.errors):
                    if error is None and isinstance(tx, Contest):
                        omegas.append(int.from_bytes(tx.omega, "big"))
            assert omegas == sorted(omegas, reverse=True)
            assert len(omegas) >= 1


def test_mean_contests_matches_record_oracle():
    n, runs = 10, 150
    counts = []
    for seed in range(runs):
        report = run(contest_scaling_config(n, seed=seed))
        counts.append(list(report.transfers[0]["contest_counts"].values())[0])
    empirical = statistics.mean(counts)
    se = statistics.stdev(counts) / math.sqrt(runs)
    # The expected number of records in a random order of n values is H_n.
    harmonic = sum(1 / k for k in range(1, n + 1))
    assert abs(empirical - harmonic) <= 3 * se
    assert empirical <= math.log2(n) + 3 * se


def test_honest_clients_never_overlap_outgoing_windows():
    report = run(sweep_config(validity=20, seed=3))
    by_sender = {}
    for row in report.transfers:
        by_sender.setdefault(row["sender"], []).append((row["t0"], row["t1"]))
    for windows in by_sender.values():
        windows.sort()
        for (a0, a1), (b0, b1) in zip(windows, windows[1:]):
            assert a1 < b0, f"overlapping windows {[(a0, a1), (b0, b1)]}"
