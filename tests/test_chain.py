import random

import pytest

from panchain.chain import Block, Resync, SimChain, block_log
from panchain.contract import ChainState
from panchain.protocol import make_claim, make_contest, make_finalize, make_poi

from conftest import keypair


S = keypair("chain-sender")
D = keypair("chain-recipient")
U = keypair("chain-u")
V = keypair("chain-v")
W = keypair("chain-w")


def new_chain(chain_id=0, interval=13.0, cap=100, balance=80):
    balances = {S.public_key: balance, D.public_key: 0,
                U.public_key: 0, V.public_key: 0, W.public_key: 0}
    return SimChain(
        chain_id,
        ChainState(chain_id, balances, reward=1),
        block_interval=interval,
        max_txs_per_block=cap,
        jitter=0.0,
        rng=random.Random(chain_id),
    )


def test_genesis_block_and_cadence():
    chain = new_chain()
    assert chain.height == 0 and chain.journal == []
    assert chain.next_block_time == 13.0
    block = chain.produce_block(13.0)
    assert block.height == 1 and block.timestamp == 13.0
    assert chain.next_block_time == 26.0


def test_produce_at_wrong_time_rejected():
    chain = new_chain()
    with pytest.raises(ValueError):
        chain.produce_block(12.0)


def test_empty_block_at_wrong_time_rejected():
    chain = new_chain()
    with pytest.raises(ValueError):
        chain.produce_empty_block(12.0)
    assert chain.height == 0 and chain.next_block_time == 13.0


def test_an_empty_block_is_only_counted():
    chain = new_chain()
    chain.produce_empty_block(13.0)
    assert chain.height == 1 and chain.journal == []
    claim = make_claim(make_poi(S, D, amount=20, t0=1, t1=61))
    chain.submit(claim, now=14.0)
    busy = chain.produce_block(26.0)
    assert busy.height == chain.height == 2
    assert chain.journal == [busy]


def test_empty_block_path_logs_what_produce_block_logs_under_jitter():
    senders = (S, U, V, W)

    def jittered():
        state = ChainState(0, {kp.public_key: 100 for kp in senders + (D,)}, reward=1)
        return SimChain(0, state, block_interval=13.0, max_txs_per_block=2, jitter=0.2,
                        rng=random.Random(7))

    every, twin = jittered(), jittered()
    # Three claims before block 5 exceed the cap of two and spill into block 6.
    claims = {2: senders[:1], 5: senders[1:]}
    stamps = []
    for height in range(1, 12):
        for kp in claims.get(height, ()):
            claim = make_claim(make_poi(kp, D, amount=5, t0=1, t1=300))
            every.submit(claim, now=every.next_block_time - 1)
            twin.submit(claim, now=twin.next_block_time - 1)
        every.produce_block(every.next_block_time)
        stamps.append(twin.next_block_time)
        if twin.mempool:
            twin.produce_block(twin.next_block_time)
        else:
            twin.produce_empty_block(twin.next_block_time)
        assert twin.height == height
    log = list(block_log(every))
    assert log == list(block_log(twin))
    assert [entry["height"] for entry in log] == [2, 5, 6]
    assert [len(entry["txs"]) for entry in log] == [1, 2, 1]
    assert all(tx["ok"] for entry in log for tx in entry["txs"])
    assert [block.timestamp for block in twin.journal] == [stamps[1], stamps[4], stamps[5]]
    # Each block, empty or not, draws the next block's jitter once, in order.
    rng, times = random.Random(7), [0]
    for _ in range(12):
        times.append(times[-1] + 13.0 * (1 + rng.uniform(-0.2, 0.2)))
    assert stamps == times[1:12] and twin.next_block_time == times[12]


def test_timestamps_are_height_times_interval():
    chain = new_chain()
    for height in range(1, 11):
        block = chain.produce_block(height * 13.0)
        assert block.timestamp == block.height * 13.0


def test_submitted_tx_lands_in_next_block():
    chain = new_chain()
    poi = make_poi(S, D, amount=20, t0=1, t1=61)
    chain.submit(make_claim(poi), now=1.0)
    block = chain.produce_block(13.0)
    assert len(block.transactions) == 1
    assert block.errors == (None,)
    assert poi.alpha in chain.state.poi_records


def test_capacity_rolls_over_to_next_block():
    chain = new_chain(cap=3, balance=10_000)
    pois = [make_poi(S, D, amount=2, t0=1 + 50 * i, t1=45 + 50 * i) for i in range(4)]
    for poi in pois:
        chain.submit(make_claim(poi), now=1.0)
    first = chain.produce_block(13.0)
    assert len(first.transactions) == 3
    second = chain.produce_block(26.0)
    assert len(second.transactions) == 1
    assert second.transactions[0].poi.alpha == pois[3].alpha


def test_duplicate_contest_included_twice_second_noop():
    chain = new_chain()
    poi = make_poi(S, D, amount=20, t0=1, t1=61)
    chain.submit(make_claim(poi), now=1.0)
    contest = make_contest(U, poi)
    chain.submit(contest, now=2.0)
    chain.submit(contest, now=3.0)
    block = chain.produce_block(13.0)
    assert len(block.transactions) == 3
    assert block.errors == (None, None, None)
    assert chain.state.poi_records[poi.alpha].contestants == {U.public_key: contest.omega}


def test_empty_mempool_empty_block():
    chain = new_chain()
    before = chain.state.snapshot()
    block = chain.produce_block(13.0)
    assert block.transactions == ()
    assert chain.state.snapshot() == before
    assert chain.journal == [] and chain.height == 1


@pytest.mark.parametrize("field", ["height", "timestamp", "transactions", "errors"])
def test_produced_blocks_are_immutable_and_field_exact(field):
    chain = new_chain()
    empty = chain.produce_block(13.0)
    claim = make_claim(make_poi(S, D, amount=20, t0=1, t1=61))
    chain.submit(claim, now=14.0)
    full = chain.produce_block(26.0)
    assert empty == Block(height=1, timestamp=13.0, transactions=(), errors=())
    assert full == Block(height=2, timestamp=26.0, transactions=(claim,), errors=(None,))
    for block in (empty, full):
        with pytest.raises(AttributeError):
            setattr(block, field, getattr(block, field))


def test_block_time_governs_validity():
    # a finalize submitted before t1 but included after t1 applies fine:
    # two-block fixture traced by hand against the strict t > t1 rule
    chain = new_chain()
    poi = make_poi(S, D, amount=20, t0=1, t1=20)
    chain.submit(make_claim(poi), now=1.0)
    chain.produce_block(13.0)
    chain.submit(make_finalize(D, poi.alpha), now=14.0)  # before t1=20
    block = chain.produce_block(26.0)  # block timestamp 26 > 20
    assert block.errors[0] is None
    assert chain.state.balance(D.public_key) == 19


def test_expired_tx_rejected_at_inclusion_and_reported():
    chain = new_chain()
    poi = make_poi(S, D, amount=20, t0=1, t1=10)
    chain.submit(make_claim(poi), now=2.0)  # valid at submission
    block = chain.produce_block(13.0)  # included past t1
    assert block.errors == ("expired-poi",)
    assert poi.alpha not in chain.state.poi_records


def test_worked_example_across_blocks():
    # claim at t=1, contests shortly after, finalize once the window closed;
    # blocks at 13 s cadence produce the published final balances
    chain = new_chain()
    poi = make_poi(S, D, amount=20, t0=1, t1=61)
    chain.submit(make_claim(poi), now=1.0)
    chain.produce_block(13.0)
    contests = [make_contest(kp, poi) for kp in (U, V, W)]
    for contest in contests:
        chain.submit(contest, now=14.0)
    chain.produce_block(26.0)
    for ts in (39.0, 52.0):
        chain.produce_block(ts)
    chain.submit(make_finalize(D, poi.alpha), now=62.0)
    chain.produce_block(65.0)
    winner = min(contests, key=lambda c: (c.omega, c.contestant)).contestant
    assert chain.state.balance(S.public_key) == 60
    assert chain.state.balance(D.public_key) == 19
    assert chain.state.balance(winner) == 1
    assert chain.state.audit() == (80, 0, 80)


def test_replay_reproduces_blocks_exactly():
    def run_once():
        chain = new_chain()
        poi = make_poi(S, D, amount=20, t0=1, t1=61)
        chain.submit(make_claim(poi), now=1.0)
        chain.produce_block(13.0)
        chain.submit(make_contest(U, poi), now=14.0)
        chain.produce_block(26.0)
        return chain.journal

    first, second = run_once(), run_once()
    assert first == second


def test_fifo_order_preserved():
    chain = new_chain(balance=10_000)
    pois = [make_poi(S, D, amount=2, t0=1 + 50 * i, t1=45 + 50 * i) for i in range(5)]
    for poi in pois:
        chain.submit(make_claim(poi), now=1.0)
    block = chain.produce_block(13.0)
    included = [tx.poi.alpha for tx in block.transactions]
    assert included == [poi.alpha for poi in pois]


def test_jitter_perturbs_timestamps_deterministically():
    params = dict(block_interval=13.0, max_txs_per_block=100, jitter=0.2)
    state = ChainState(0, {S.public_key: 80}, reward=1)
    chain = SimChain(0, state, **params, rng=random.Random(42))
    t1 = chain.next_block_time
    assert 13.0 * 0.8 <= t1 <= 13.0 * 1.2
    chain2 = SimChain(0, ChainState(0, {S.public_key: 80}, reward=1), **params, rng=random.Random(42))
    assert chain2.next_block_time == t1


def test_a_jittered_chain_needs_an_rng():
    state = ChainState(0, {S.public_key: 80}, reward=1)
    with pytest.raises(ValueError, match="no rng"):
        SimChain(0, state, block_interval=13.0, max_txs_per_block=100, jitter=0.2)
    # Without jitter nothing is drawn, so no rng is needed.
    chain = SimChain(0, state, block_interval=13.0, max_txs_per_block=100, jitter=0.0)
    assert chain.next_block_time == 13.0


def test_block_log_writes_the_journal_in_order():
    chain = new_chain()
    poi = make_poi(S, D, amount=20, t0=1, t1=61)
    chain.submit(make_claim(poi), now=1.0)
    chain.submit(make_finalize(D, poi.alpha), now=1.0)
    block = chain.produce_block(13.0)
    chain.produce_empty_block(26.0)
    # The claim stays pending on this chain, so a resync settles it there.
    assert chain.resync(poi, U.public_key, now=30.0)
    assert chain.journal == [block, Resync(2, 30.0, poi, U.public_key, True)]
    assert list(block_log(chain)) == [
        {"chain_id": 0, "height": 1, "timestamp": 13.0, "txs": [
            {"kind": "claim", "poster": D.public_key.hex()[:16], "alpha": poi.alpha.hex()[:16], "ok": True},
            {"kind": "finalize", "poster": D.public_key.hex()[:16], "alpha": poi.alpha.hex()[:16], "ok": False,
             "error": "premature-finalize"},
        ]},
        {"chain_id": 0, "height": 2, "at": 30.0, "resync": poi.alpha.hex()[:16], "moved": True,
         "winner": U.public_key.hex()[:16]},
    ]
    assert chain.state.balance(D.public_key) == 19 and chain.state.balance(U.public_key) == 1
