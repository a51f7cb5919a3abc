import copy
import random

import pytest

from panchain.contract import (
    FINALIZED,
    PENDING,
    VETOED,
    AlreadyConcluded,
    BadSignature,
    ChainState,
    ConflictingPoi,
    ExpiredPoi,
    InsufficientBalance,
    InvalidAmount,
    NotConflicting,
    PrematureFinalize,
    PrematureFinalizeVeto,
    UnknownPoi,
    UnknownVeto,
    VetoedPoi,
)
from panchain.crypto import Signature, contest_order_key
from panchain.protocol import (
    Claim,
    make_claim,
    make_contest,
    make_finalize,
    make_finalize_veto,
    make_poi,
    make_veto,
)

from conftest import keypair


S = keypair("table-sender")
D = keypair("table-recipient")
U = keypair("table-ursula")
V = keypair("table-victor")
W = keypair("table-wanda")
OBSERVERS = [U, V, W]


def fresh_state(chain_id=0, sender_balance=80, extra=()):
    balances = {S.public_key: sender_balance, D.public_key: 0}
    for kp in (U, V, W):
        balances[kp.public_key] = 0
    for kp, amount in extra:
        balances[kp.public_key] = amount
    return ChainState(chain_id, balances, reward=1)


def table_poi(amount=20, t0=1, t1=61, sender=S, recipient=D):
    return make_poi(sender, recipient, amount=amount, t0=t0, t1=t1)


def expected_winner(contest_txs):
    # independent argmin oracle over (omega bytes, wallet bytes)
    return min(contest_txs, key=lambda c: contest_order_key(c.omega, c.contestant)).contestant


# --- claim -------------------------------------------------------------


def test_claim_records_poi_balances_unchanged():
    # initial state of the worked example: sender 80, everyone else 0; the
    # claim stores the proof but moves no funds
    state = fresh_state()
    poi = table_poi()
    state.apply_claim(make_claim(poi), now=1)
    record = state.poi_records[poi.alpha_id]
    assert record.status == PENDING and record.contestants == {}
    assert state.balance(S.public_key) == 80
    assert state.balance(D.public_key) == 0
    assert state.audit() == (80, 0, 80)


def test_claim_after_expiry_rejected():
    state = fresh_state()
    poi = table_poi()
    with pytest.raises(ExpiredPoi):
        state.apply_claim(make_claim(poi), now=62)
    with pytest.raises(ExpiredPoi):
        state.apply_claim(make_claim(poi), now=61)  # strict now < t1


def test_claim_insufficient_balance():
    state = fresh_state()
    poi = table_poi(amount=100)
    with pytest.raises(InsufficientBalance):
        state.apply_claim(make_claim(poi), now=1)


def test_claim_bad_signature():
    state = fresh_state()
    poi = table_poi()
    forged = Claim(poi=poi.__class__(intent=poi.intent, alpha=poi.alpha,
                                     beta=Signature(b"\x01" * 32)))
    with pytest.raises(BadSignature):
        state.apply_claim(forged, now=1)


def test_claim_amount_must_exceed_reward():
    # crafted proof that bypasses the constructor's own check: amount equals
    # the reward, which would credit the recipient nothing
    from panchain.crypto import sign
    from panchain.protocol import ProofOfIntent, TransferIntent, encode_intent

    state = fresh_state()
    intent = TransferIntent(
        sender=S.public_key, recipient=D.public_key, amount=1, t0=1, t1=61
    )
    alpha = sign(S, encode_intent(intent))
    beta = sign(D, encode_intent(intent) + alpha.data)
    poi = ProofOfIntent(intent=intent, alpha=alpha, beta=beta)
    with pytest.raises(InvalidAmount):
        state.apply_claim(make_claim(poi), now=1)


def test_claim_conflicting_pending_rejected_with_both_proofs():
    state = fresh_state(sender_balance=10)
    first = table_poi(amount=8, t0=1, t1=61)
    second = table_poi(amount=8, t0=30, t1=90, recipient=keypair("elsewhere"))
    state.apply_claim(make_claim(first), now=1)
    with pytest.raises(ConflictingPoi) as exc:
        state.apply_claim(make_claim(second), now=31)
    assert exc.value.incoming.alpha_id == second.alpha_id
    assert exc.value.stored.alpha_id == first.alpha_id


def test_claim_idempotent_republication():
    state = fresh_state()
    poi = table_poi()
    state.apply_claim(make_claim(poi), now=1)
    state.apply_claim(make_claim(poi), now=2)
    assert len(state.poi_records) == 1


# --- contest -----------------------------------------------------------


def test_contest_propagates_unknown_poi():
    # a contest on a chain that has not seen the proof stores it
    state = fresh_state(chain_id=1)
    poi = table_poi()
    contest = make_contest(U, poi)
    state.apply_contest(contest, now=2)
    record = state.poi_records[poi.alpha_id]
    assert record.status == PENDING
    assert record.contestants == {U.public_key: contest.omega}


def test_contest_idempotent():
    state = fresh_state()
    poi = table_poi()
    contest = make_contest(U, poi)
    state.apply_contest(contest, now=2)
    before = copy.deepcopy(state.snapshot())
    state.apply_contest(contest, now=3)
    assert state.snapshot() == before


def test_three_contestants_recorded():
    # state during the witness contest: all three observers registered
    state = fresh_state()
    state.apply_claim(make_claim(table_poi()), now=1)
    poi = table_poi()
    for kp in OBSERVERS:
        state.apply_contest(make_contest(kp, poi), now=2)
    record = state.poi_records[poi.alpha_id]
    assert set(record.contestants) == {U.public_key, V.public_key, W.public_key}


def test_contest_expired_rejected():
    state = fresh_state()
    poi = table_poi()
    state.apply_claim(make_claim(poi), now=1)
    with pytest.raises(ExpiredPoi):
        state.apply_contest(make_contest(U, poi), now=61)


def test_contest_bad_omega():
    state = fresh_state()
    poi = table_poi()
    good = make_contest(U, poi)
    forged = good.__class__(poi=poi, contestant=V.public_key, omega=good.omega)
    with pytest.raises(BadSignature):
        state.apply_contest(forged, now=2)


# --- finalize ----------------------------------------------------------


def _contested_state():
    state = fresh_state()
    poi = table_poi()
    state.apply_claim(make_claim(poi), now=1)
    contests = [make_contest(kp, poi) for kp in OBSERVERS]
    for contest in contests:
        state.apply_contest(contest, now=2)
    return state, poi, contests


STRANGER = keypair("table-stranger")  # holds no balance on the chain


@pytest.mark.parametrize("poster", [D, U, STRANGER], ids=["recipient", "observer", "stranger"])
def test_finalize_executes_transfer_and_pays_lowest_omega(poster):
    # final state of the worked example: sender 60, recipient 19, winner 1;
    # a finalize is unsigned, so anyone may post it with the same outcome
    state, poi, contests = _contested_state()
    state.apply_finalize(make_finalize(poster, poi.alpha_id), now=62)
    winner = expected_winner(contests)
    assert state.balance(S.public_key) == 60
    assert state.balance(D.public_key) == 19
    assert state.balance(winner) == 1
    losers = {U.public_key, V.public_key, W.public_key} - {winner}
    assert all(state.balance(w) == 0 for w in losers)
    assert state.poi_records[poi.alpha_id].status == FINALIZED
    assert state.poi_records[poi.alpha_id].winner == winner
    assert state.audit() == (80, 0, 80)
    by_recipient, _, _ = _contested_state()
    by_recipient.apply_finalize(make_finalize(D, poi.alpha_id), now=62)
    assert state.snapshot() == by_recipient.snapshot()


def test_finalize_at_t1_is_premature():
    state, poi, _ = _contested_state()
    with pytest.raises(PrematureFinalize):
        state.apply_finalize(make_finalize(D, poi.alpha_id), now=61)


def test_finalize_unknown_poi():
    state = fresh_state()
    with pytest.raises(UnknownPoi):
        state.apply_finalize(make_finalize(D, table_poi().alpha_id), now=62)


def test_finalize_twice_rejected():
    state, poi, _ = _contested_state()
    state.apply_finalize(make_finalize(D, poi.alpha_id), now=62)
    with pytest.raises(AlreadyConcluded):
        state.apply_finalize(make_finalize(D, poi.alpha_id), now=63)


def test_finalize_without_contestants_burns_reward():
    state = fresh_state()
    poi = table_poi()
    state.apply_claim(make_claim(poi), now=1)
    state.apply_finalize(make_finalize(D, poi.alpha_id), now=62)
    assert state.balance(S.public_key) == 60
    assert state.balance(D.public_key) == 19
    assert state.burned == 1
    assert state.audit() == (79, 1, 80)


def test_finalize_of_vetoed_poi_rejected():
    state = fresh_state(sender_balance=10)
    a = table_poi(amount=8, t0=1, t1=61)
    b = table_poi(amount=8, t0=5, t1=65, recipient=keypair("elsewhere"))
    state.apply_claim(make_claim(a), now=1)
    state.apply_veto(make_veto(U, a.alpha_id, b), now=10)
    with pytest.raises(VetoedPoi):
        state.apply_finalize(make_finalize(D, a.alpha_id), now=62)


# --- veto / finalize-veto ----------------------------------------------


def test_veto_zeroes_sender_and_cancels_pending():
    # a sender holding 10 signing two 8-unit transfers loses everything
    state = fresh_state(sender_balance=10)
    a = table_poi(amount=8, t0=1, t1=61)
    b = table_poi(amount=8, t0=5, t1=65, recipient=keypair("elsewhere"))
    state.apply_claim(make_claim(a), now=1)
    state.apply_veto(make_veto(U, a.alpha_id, b), now=10)
    assert state.balance(S.public_key) == 0
    assert state.burned == 10
    assert state.poi_records[a.alpha_id].status == VETOED
    assert state.poi_records[b.alpha_id].status == VETOED
    assert state.audit() == (0, 10, 10)


def test_veto_requires_conflict():
    state = fresh_state()
    a = table_poi(t0=1, t1=61)
    b = table_poi(t0=62, t1=120, recipient=keypair("elsewhere"))
    state.apply_claim(make_claim(a), now=1)
    with pytest.raises(NotConflicting):
        state.apply_veto(make_veto(U, a.alpha_id, b), now=10)


def test_veto_unknown_alpha():
    state = fresh_state()
    a = table_poi(t0=1, t1=61)
    b = table_poi(t0=5, t1=65, recipient=keypair("elsewhere"))
    with pytest.raises(UnknownPoi):
        state.apply_veto(make_veto(U, a.alpha_id, b), now=10)


def test_veto_bad_conflicting_signature():
    state = fresh_state(sender_balance=10)
    a = table_poi(amount=8, t0=1, t1=61)
    b = table_poi(amount=8, t0=5, t1=65, recipient=keypair("elsewhere"))
    state.apply_claim(make_claim(a), now=1)
    broken = b.__class__(intent=b.intent, alpha=b.alpha, beta=Signature(b"\x02" * 32))
    with pytest.raises(BadSignature):
        state.apply_veto(make_veto(U, a.alpha_id, broken), now=10)


def test_veto_discovery_order_independent():
    # two chains learn the conflicting proofs in opposite orders and still
    # reach identical state (unordered veto keying)
    a = table_poi(amount=8, t0=1, t1=61)
    b = table_poi(amount=8, t0=5, t1=65, recipient=keypair("elsewhere"))

    chain1 = fresh_state(chain_id=0, sender_balance=10)
    chain1.apply_claim(make_claim(a), now=1)
    chain1.apply_veto(make_veto(U, a.alpha_id, b), now=10)
    chain1.apply_veto(make_veto(V, b.alpha_id, a), now=11)

    chain2 = fresh_state(chain_id=0, sender_balance=10)
    chain2.apply_claim(make_claim(b), now=1)
    chain2.apply_veto(make_veto(V, b.alpha_id, a), now=10)
    chain2.apply_veto(make_veto(U, a.alpha_id, b), now=11)

    snap1, snap2 = chain1.snapshot(), chain2.snapshot()
    # claim path differs only in which proof carries pending-vs-vetoed timing;
    # balances, veto records, and statuses must agree exactly
    assert snap1["balances"] == snap2["balances"]
    assert snap1["veto_records"] == snap2["veto_records"]
    assert snap1["burned"] == snap2["burned"]
    assert {k: v["status"] for k, v in snap1["poi_records"].items()} == {
        k: v["status"] for k, v in snap2["poi_records"].items()
    }


def test_finalize_veto_pays_lowest_omega_from_burned():
    state = fresh_state(sender_balance=10)
    a = table_poi(amount=8, t0=1, t1=61)
    b = table_poi(amount=8, t0=5, t1=65, recipient=keypair("elsewhere"))
    state.apply_claim(make_claim(a), now=1)
    vetoes = [make_veto(kp, a.alpha_id, b) for kp in (U, V)]
    for veto in vetoes:
        state.apply_veto(veto, now=10)
    pair = state.veto_records[next(iter(state.veto_records))]
    assert pair.deadline == 65 + 60
    winner = min(
        pair.contestants, key=lambda w: contest_order_key(pair.contestants[w], w)
    )
    with pytest.raises(PrematureFinalizeVeto):
        state.apply_finalize_veto(make_finalize_veto(U, a.alpha_id, b.alpha_id), now=125)
    state.apply_finalize_veto(make_finalize_veto(U, a.alpha_id, b.alpha_id), now=126)
    assert state.balance(winner) == 1
    assert state.burned == 9
    assert state.audit() == (1, 9, 10)
    with pytest.raises(AlreadyConcluded):
        state.apply_finalize_veto(make_finalize_veto(U, a.alpha_id, b.alpha_id), now=127)


def test_finalize_veto_unknown_pair():
    state = fresh_state()
    with pytest.raises(UnknownVeto):
        state.apply_finalize_veto(make_finalize_veto(U, b"\x00" * 32, b"\x01" * 32), now=200)


def test_repeated_veto_only_appends_contestants():
    state = fresh_state(sender_balance=10)
    a = table_poi(amount=8, t0=1, t1=61)
    b = table_poi(amount=8, t0=5, t1=65, recipient=keypair("elsewhere"))
    state.apply_claim(make_claim(a), now=1)
    state.apply_veto(make_veto(U, a.alpha_id, b), now=10)
    burned_after_first = state.burned
    state.apply_veto(make_veto(V, b.alpha_id, a), now=11)
    state.apply_veto(make_veto(V, b.alpha_id, a), now=12)
    assert len(state.veto_records) == 1
    record = next(iter(state.veto_records.values()))
    assert set(record.contestants) == {U.public_key, V.public_key}
    assert state.burned == burned_after_first


# --- audit and conservation ---------------------------------------------


def test_audit_fresh_state():
    state = fresh_state()
    assert state.audit() == (80, 0, 80)


def test_override_balance_keeps_audit_exact():
    state = fresh_state()
    state.override_balance(D.public_key, 25)
    total, burned, initial = state.audit()
    assert total == 105 and state.resync_adjustment == 25 and initial == 80


# --- order independence (acceptance criterion groundwork) ----------------


def _random_tx_set(rng):
    """A random valid transaction set: disjoint-window proofs per sender,
    random contest subsets, one finalize per proof."""
    senders = [keypair(f"os-{rng.randrange(10**9)}") for _ in range(3)]
    recipients = [keypair(f"or-{rng.randrange(10**9)}") for _ in range(3)]
    observers = [keypair(f"oo-{rng.randrange(10**9)}") for _ in range(4)]
    balances = {kp.public_key: 500 for kp in senders}
    for kp in recipients + observers:
        balances[kp.public_key] = 0

    claims, contests, finalizes = [], [], []
    for sender in senders:
        window_start = 1
        for _ in range(rng.randrange(1, 3)):
            t0 = window_start
            t1 = t0 + rng.randrange(10, 40)
            window_start = t1 + 1  # same-sender windows must not overlap
            poi = make_poi(
                sender,
                recipients[rng.randrange(len(recipients))],
                amount=rng.randrange(2, 50),
                t0=t0,
                t1=t1,
            )
            claims.append(make_claim(poi))
            for observer in observers:
                if rng.random() < 0.7:
                    contests.append(make_contest(observer, poi))
            finalizes.append(make_finalize(recipients[0], poi.alpha_id))
    return balances, claims, contests, finalizes


def _apply_in_order(balances, claims, contests, finalizes, order_rng):
    state = ChainState(0, dict(balances), reward=1)
    phase1 = claims + contests
    order_rng.shuffle(phase1)
    # claims and contests all happen inside every window (windows start at 1
    # and last at least 10 seconds, so now=1 satisfies them all);
    # finalizes happen after every window closed
    for tx in phase1:
        state.apply(tx, now=1)
    last_t1 = max(tx.poi.t1 for tx in claims)
    phase2 = list(finalizes)
    order_rng.shuffle(phase2)
    for tx in phase2:
        state.apply(tx, now=last_t1 + 1)
    state.audit()
    return state


@pytest.mark.parametrize("case_seed", range(12))
def test_order_independence_sampled(case_seed):
    rng = random.Random(1000 + case_seed)
    balances, claims, contests, finalizes = _random_tx_set(rng)
    a = _apply_in_order(balances, claims, contests, finalizes, random.Random(1))
    b = _apply_in_order(balances, claims, contests, finalizes, random.Random(2))
    assert a.snapshot()["balances"] == b.snapshot()["balances"]
    assert a.snapshot() == b.snapshot()


def test_no_negative_balances_and_monotone_status():
    rng = random.Random(9)
    balances, claims, contests, finalizes = _random_tx_set(rng)
    state = ChainState(0, dict(balances), reward=1)
    for tx in claims + contests:
        state.apply(tx, now=1)
        assert all(v >= 0 for v in state.balances.values())
    last_t1 = max(tx.poi.t1 for tx in claims)
    for tx in finalizes:
        state.apply(tx, now=last_t1 + 1)
        assert all(v >= 0 for v in state.balances.values())
    assert all(rec.status == FINALIZED for rec in state.poi_records.values())
