import copy
import random
from contextlib import contextmanager
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from panchain import contract
from panchain.contract import FINALIZED, PENDING, VETOED, ChainState, TxError
from panchain.crypto import contest_leader
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
    return min(contest_txs, key=lambda c: (c.omega, c.contestant)).contestant


@contextmanager
def rejected(code):
    with pytest.raises(TxError) as exc:
        yield
    assert exc.value.code == code


# --- claim -------------------------------------------------------------


def test_claim_records_poi_balances_unchanged():
    # initial state of the worked example: sender 80, everyone else 0; the
    # claim stores the proof but moves no funds
    state = fresh_state()
    poi = table_poi()
    state.apply_claim(make_claim(poi), now=1)
    record = state.poi_records[poi.alpha]
    assert record.status == PENDING and record.contestants == {}
    assert state.balance(S.public_key) == 80
    assert state.balance(D.public_key) == 0
    assert state.audit() == (80, 0, 80)


def test_claim_after_expiry_rejected():
    state = fresh_state()
    poi = table_poi()
    with rejected("expired-poi"):
        state.apply_claim(make_claim(poi), now=62)
    with rejected("expired-poi"):
        state.apply_claim(make_claim(poi), now=61)  # strict now < t1


def test_claim_insufficient_balance():
    state = fresh_state()
    poi = table_poi(amount=100)
    with rejected("insufficient-balance"):
        state.apply_claim(make_claim(poi), now=1)


def test_claim_bad_signature():
    state = fresh_state()
    poi = table_poi()
    forged = Claim(poi=replace(poi, beta=b"\x01" * 32))
    with rejected("bad-signature"):
        state.apply_claim(forged, now=1)


def test_claim_amount_must_exceed_reward():
    # crafted proof that bypasses the constructor's own check: amount equals
    # the reward, which would credit the recipient nothing
    from panchain.crypto import sign
    from panchain.protocol import ProofOfIntent, encode_intent

    state = fresh_state()
    intent = (S.public_key, D.public_key, 1, 1, 61)
    alpha = sign(S, encode_intent(*intent))
    beta = sign(D, encode_intent(*intent) + alpha)
    poi = ProofOfIntent(*intent, alpha=alpha, beta=beta)
    with rejected("invalid-amount"):
        state.apply_claim(make_claim(poi), now=1)


def test_claim_conflicting_pending_rejected():
    state = fresh_state(sender_balance=10)
    first = table_poi(amount=8, t0=1, t1=61)
    second = table_poi(amount=8, t0=30, t1=90, recipient=keypair("elsewhere"))
    state.apply_claim(make_claim(first), now=1)
    with rejected("conflicting-poi"):
        state.apply_claim(make_claim(second), now=31)
    assert second.alpha not in state.poi_records


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
    record = state.poi_records[poi.alpha]
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
    record = state.poi_records[poi.alpha]
    assert set(record.contestants) == {U.public_key, V.public_key, W.public_key}


def test_contest_expired_rejected():
    state = fresh_state()
    poi = table_poi()
    state.apply_claim(make_claim(poi), now=1)
    with rejected("expired-poi"):
        state.apply_contest(make_contest(U, poi), now=61)


def test_contest_bad_omega():
    state = fresh_state()
    poi = table_poi()
    good = make_contest(U, poi)
    forged = good.__class__(poi=poi, contestant=V.public_key, omega=good.omega)
    with rejected("bad-signature"):
        state.apply_contest(forged, now=2)


def _bad_omega_contest(poi):
    return replace(make_contest(U, poi), contestant=V.public_key)


def _bad_beta(poi):
    return replace(poi, beta=b"\x01" * 32)


def _veto_setup():
    state = fresh_state(sender_balance=10)
    a = table_poi(amount=8, t0=1, t1=61)
    b = table_poi(amount=8, t0=5, t1=65, recipient=keypair("elsewhere"))
    state.apply_claim(make_claim(a), now=1)
    return state, a, b


def _claimed_state():
    state = fresh_state()
    state.apply_claim(make_claim(table_poi()), now=1)
    return state


def _veto_with_bad_beta():
    state, a, b = _veto_setup()
    return state, make_veto(U, a, _bad_beta(b))


def _veto_with_a_bad_copy_of_the_known_proof():
    # The carried copy keeps the known proof's alpha, so the chain knows it
    # by name; only verifying what the veto carries refuses it.
    state, a, b = _veto_setup()
    return state, make_veto(U, _bad_beta(a), b)


def _veto_with_bad_omega():
    state, a, b = _veto_setup()
    return state, replace(make_veto(U, a, b), vetoer=V.public_key)


# Each tampered transaction passes every state check, so only a signature
# check can refuse it: (state, transaction), applied at now=10.
TAMPERED = {
    "claim-bad-beta": lambda: (fresh_state(), make_claim(_bad_beta(table_poi()))),
    "contest-new-proof-bad-beta": lambda: (fresh_state(), make_contest(U, _bad_beta(table_poi()))),
    "contest-new-proof-bad-omega": lambda: (fresh_state(), _bad_omega_contest(table_poi())),
    "contest-known-proof-bad-omega": lambda: (_claimed_state(), _bad_omega_contest(table_poi())),
    "veto-bad-conflicting-beta": _veto_with_bad_beta,
    "veto-bad-known-beta": _veto_with_a_bad_copy_of_the_known_proof,
    "veto-bad-omega": _veto_with_bad_omega,
}


@pytest.mark.parametrize("case", sorted(TAMPERED))
def test_tampered_transaction_passing_every_state_check_is_a_bad_signature(case):
    state, tx = TAMPERED[case]()
    before = copy.deepcopy(state.snapshot())
    with rejected("bad-signature"):
        state.apply(tx, now=10)
    # No record, contestant, veto record or burn was written.
    assert state.snapshot() == before


def _finalized_state():
    state = _claimed_state()
    state.apply_finalize(make_finalize(U, table_poi().alpha), now=62)
    return state


def _vetoed_state():
    state, a, b = _veto_setup()
    state.apply_veto(make_veto(U, a, b), now=10)
    return state


def _later_poi():
    # The sender's next window, after table_poi()'s: the two do not conflict.
    return table_poi(t0=62, t1=120, recipient=keypair("elsewhere"))


def _contest_after_the_balance_dropped():
    state = fresh_state(sender_balance=30)
    for poi in (table_poi(), _later_poi()):
        state.apply_claim(make_claim(poi), now=1)
    state.apply_finalize(make_finalize(U, table_poi().alpha), now=62)
    # The sender now holds 10, below the known later proof's 20.
    return state, make_contest(U, _later_poi()), 63, "insufficient-balance"


def _veto_after_its_contest_concluded():
    state, a, b = _veto_setup()
    state.apply_veto(make_veto(U, a, b), now=10)
    state.apply_finalize_veto(make_finalize_veto(U, a.alpha, b.alpha), now=126)
    return state, make_veto(V, b, a), 127, "already-concluded"


# (state, transaction, now, expected code): each is refused by a state check.
REFUSED_BY_STATE = {
    "claim-expired": lambda: (fresh_state(), make_claim(table_poi()), 61, "expired-poi"),
    "contest-new-proof-expired": lambda: (fresh_state(), make_contest(U, table_poi()), 61, "expired-poi"),
    "contest-known-proof-expired": lambda: (_claimed_state(), make_contest(U, table_poi()), 61, "expired-poi"),
    "contest-over-balance": lambda: (fresh_state(), make_contest(U, table_poi(amount=100)), 2, "insufficient-balance"),
    "contest-finalized": lambda: (_finalized_state(), make_contest(U, table_poi()), 63, "already-concluded"),
    "contest-vetoed": lambda: (
        _vetoed_state(), make_contest(V, table_poi(amount=8, t0=1, t1=61)), 11, "vetoed-poi"),
    "contest-known-proof-over-balance": _contest_after_the_balance_dropped,
    "veto-not-conflicting": lambda: (
        _claimed_state(), make_veto(U, table_poi(), _later_poi()), 10, "not-conflicting"),
    "veto-concluded": _veto_after_its_contest_concluded,
}


@pytest.mark.parametrize("case", sorted(REFUSED_BY_STATE))
def test_transaction_refused_by_a_state_check_verifies_no_signature(monkeypatch, case):
    state, tx, now, code = REFUSED_BY_STATE[case]()
    calls = []
    monkeypatch.setattr(contract, "verify", lambda *args: calls.append(args) or True)
    monkeypatch.setattr(contract, "verify_poi", lambda poi: calls.append(poi) or True)
    with rejected(code):
        state.apply(tx, now=now)
    assert calls == []


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
    state.apply_finalize(make_finalize(poster, poi.alpha), now=62)
    winner = expected_winner(contests)
    assert state.balance(S.public_key) == 60
    assert state.balance(D.public_key) == 19
    assert state.balance(winner) == 1
    losers = {U.public_key, V.public_key, W.public_key} - {winner}
    assert all(state.balance(w) == 0 for w in losers)
    assert state.poi_records[poi.alpha].status == FINALIZED
    assert state.poi_records[poi.alpha].winner == winner
    assert state.audit() == (80, 0, 80)
    by_recipient, _, _ = _contested_state()
    by_recipient.apply_finalize(make_finalize(D, poi.alpha), now=62)
    assert state.snapshot() == by_recipient.snapshot()


def test_finalize_at_t1_is_premature():
    state, poi, _ = _contested_state()
    with rejected("premature-finalize"):
        state.apply_finalize(make_finalize(D, poi.alpha), now=61)


def test_finalize_unknown_poi():
    state = fresh_state()
    with rejected("unknown-poi"):
        state.apply_finalize(make_finalize(D, table_poi().alpha), now=62)


def test_finalize_twice_rejected():
    state, poi, _ = _contested_state()
    state.apply_finalize(make_finalize(D, poi.alpha), now=62)
    with rejected("already-concluded"):
        state.apply_finalize(make_finalize(D, poi.alpha), now=63)


def test_finalize_without_contestants_burns_reward():
    state = fresh_state()
    poi = table_poi()
    state.apply_claim(make_claim(poi), now=1)
    state.apply_finalize(make_finalize(D, poi.alpha), now=62)
    assert state.balance(S.public_key) == 60
    assert state.balance(D.public_key) == 19
    assert state.burned == 1
    assert state.audit() == (79, 1, 80)


def test_finalize_of_vetoed_poi_rejected():
    state = fresh_state(sender_balance=10)
    a = table_poi(amount=8, t0=1, t1=61)
    b = table_poi(amount=8, t0=5, t1=65, recipient=keypair("elsewhere"))
    state.apply_claim(make_claim(a), now=1)
    state.apply_veto(make_veto(U, a, b), now=10)
    with rejected("vetoed-poi"):
        state.apply_finalize(make_finalize(D, a.alpha), now=62)


# --- veto / finalize-veto ----------------------------------------------


def test_veto_zeroes_sender_and_cancels_pending():
    # a sender holding 10 signing two 8-unit transfers loses everything
    state = fresh_state(sender_balance=10)
    a = table_poi(amount=8, t0=1, t1=61)
    b = table_poi(amount=8, t0=5, t1=65, recipient=keypair("elsewhere"))
    state.apply_claim(make_claim(a), now=1)
    state.apply_veto(make_veto(U, a, b), now=10)
    assert state.balance(S.public_key) == 0
    assert state.burned == 10
    assert state.poi_records[a.alpha].status == VETOED
    assert state.poi_records[b.alpha].status == VETOED
    assert state.audit() == (0, 10, 10)


def test_veto_requires_conflict():
    state = fresh_state()
    a = table_poi(t0=1, t1=61)
    b = table_poi(t0=62, t1=120, recipient=keypair("elsewhere"))
    state.apply_claim(make_claim(a), now=1)
    with rejected("not-conflicting"):
        state.apply_veto(make_veto(U, a, b), now=10)


@pytest.mark.parametrize("known", [(), (0,), (1,), (0, 1)], ids=["neither", "first", "second", "both"])
def test_one_veto_applies_on_every_chain(known):
    # The veto carries both proofs and the chain verifies both, so a chain
    # that knows either, both or neither learns the ones it lacks and ends in
    # one state: the state a chain that knows only the first reaches.
    a = table_poi(amount=8, t0=1, t1=61)
    b = table_poi(amount=8, t0=5, t1=65, recipient=keypair("elsewhere"))
    expected = fresh_state(sender_balance=10)
    expected.apply_claim(make_claim(a), now=1)
    expected.apply_veto(make_veto(U, a, b), now=10)
    state = fresh_state(sender_balance=10)
    for i in known:
        state._insert_pending((a, b)[i])
    state.apply_veto(make_veto(U, a, b), now=10)
    assert state.snapshot() == expected.snapshot()
    assert {record.status for record in state.poi_records.values()} == {VETOED}


@pytest.mark.parametrize("now, a_status", [(60, VETOED), (61, PENDING)], ids=["before-t1", "at-t1"])
def test_a_veto_cancels_a_pending_proof_only_before_its_t1(now, a_status):
    # The boundary at which a claim or contest of the proof is refused as
    # expired: at t1 a veto leaves the proof pending, and still cancels the
    # other, whose window runs on.
    a = table_poi(amount=8, t0=1, t1=61)
    b = table_poi(amount=8, t0=5, t1=65, recipient=keypair("elsewhere"))
    state = fresh_state(sender_balance=10)
    state._insert_pending(a)
    state._insert_pending(b)
    state.apply_veto(make_veto(U, a, b), now=now)
    assert state.poi_records[a.alpha].status == a_status
    assert state.poi_records[b.alpha].status == VETOED
    assert state.burned == 10


def test_veto_bad_conflicting_signature():
    state = fresh_state(sender_balance=10)
    a = table_poi(amount=8, t0=1, t1=61)
    b = table_poi(amount=8, t0=5, t1=65, recipient=keypair("elsewhere"))
    state.apply_claim(make_claim(a), now=1)
    broken = replace(b, beta=b"\x02" * 32)
    with rejected("bad-signature"):
        state.apply_veto(make_veto(U, a, broken), now=10)


def test_veto_discovery_order_independent():
    # two chains learn the conflicting proofs in opposite orders and still
    # reach identical state (unordered veto keying)
    a = table_poi(amount=8, t0=1, t1=61)
    b = table_poi(amount=8, t0=5, t1=65, recipient=keypair("elsewhere"))

    chain1 = fresh_state(chain_id=0, sender_balance=10)
    chain1.apply_claim(make_claim(a), now=1)
    chain1.apply_veto(make_veto(U, a, b), now=10)
    chain1.apply_veto(make_veto(V, b, a), now=11)

    chain2 = fresh_state(chain_id=0, sender_balance=10)
    chain2.apply_claim(make_claim(b), now=1)
    chain2.apply_veto(make_veto(V, b, a), now=10)
    chain2.apply_veto(make_veto(U, a, b), now=11)

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
    vetoes = [make_veto(kp, a, b) for kp in (U, V)]
    for veto in vetoes:
        state.apply_veto(veto, now=10)
    pair = state.veto_records[next(iter(state.veto_records))]
    assert pair.deadline == 65 + 60
    winner = min(pair.contestants, key=lambda w: (pair.contestants[w], w))
    with rejected("premature-finalize-veto"):
        state.apply_finalize_veto(make_finalize_veto(U, a.alpha, b.alpha), now=125)
    state.apply_finalize_veto(make_finalize_veto(U, a.alpha, b.alpha), now=126)
    assert state.balance(winner) == 1
    assert state.burned == 9
    assert state.audit() == (1, 9, 10)
    with rejected("already-concluded"):
        state.apply_finalize_veto(make_finalize_veto(U, a.alpha, b.alpha), now=127)


def test_finalize_veto_pays_only_what_the_pair_burned():
    # The first transfer spends the sender's whole balance, so the veto burns
    # nothing; the reward burned by that finalize must not fund the winner.
    state = fresh_state(sender_balance=10)
    a = table_poi(amount=10, t0=1, t1=61)
    b = table_poi(amount=8, t0=50, t1=120, recipient=keypair("elsewhere"))
    state.apply_claim(make_claim(a), now=1)
    state.apply_finalize(make_finalize(D, a.alpha), now=62)
    assert state.burned == 1
    state.apply_veto(make_veto(U, a, b), now=70)
    state.apply_finalize_veto(make_finalize_veto(U, a.alpha, b.alpha), now=200)
    assert state.balance(U.public_key) == 0
    assert state.audit() == (9, 1, 10)


def test_audit_rejects_minted_supply():
    # Conserved in sum, yet one token more circulates than ever existed.
    state = fresh_state(sender_balance=10)
    state.balances[S.public_key] = 11
    state.burned = -1
    with pytest.raises(RuntimeError, match="minted"):
        state.audit()


def test_finalize_veto_unknown_pair():
    state = fresh_state()
    with rejected("unknown-veto"):
        state.apply_finalize_veto(make_finalize_veto(U, b"\x00" * 32, b"\x01" * 32), now=200)


def test_repeated_veto_only_appends_contestants():
    state = fresh_state(sender_balance=10)
    a = table_poi(amount=8, t0=1, t1=61)
    b = table_poi(amount=8, t0=5, t1=65, recipient=keypair("elsewhere"))
    state.apply_claim(make_claim(a), now=1)
    state.apply_veto(make_veto(U, a, b), now=10)
    burned_after_first = state.burned
    state.apply_veto(make_veto(V, b, a), now=11)
    state.apply_veto(make_veto(V, b, a), now=12)
    assert len(state.veto_records) == 1
    record = next(iter(state.veto_records.values()))
    assert set(record.contestants) == {U.public_key, V.public_key}
    assert state.burned == burned_after_first


# --- the kept contest leader --------------------------------------------

_RECORDS = {
    "poi": (contract.PoiRecord, {"poi": table_poi()}),
    "veto": (contract.VetoRecord, {"deadline": 61}),
}
# Few distinct short wallets and omegas, so re-entries and equal omegas (the
# lower wallet bytes then lead) come up often.
_ENTRIES = st.lists(st.tuples(st.sampled_from([b"\x00", b"\x01", b"\x01\x00", b"\x02"]),
                              st.sampled_from([b"\x00", b"\x07", b"\x09"])), max_size=12)


@pytest.mark.parametrize("kind", sorted(_RECORDS))
@given(entries=_ENTRIES)
def test_the_kept_leader_is_the_contest_leader_after_any_entries(kind, entries):
    cls, required = _RECORDS[kind]
    record = cls(**required)
    entered = {}
    for wallet, omega in entries:
        record.enter(wallet, omega)
        entered.setdefault(wallet, omega)  # a re-entry changes nothing
        assert record.contestants == entered
        assert record.leader == contest_leader(entered)
        assert record.winner is None  # pending or open
    assert record.leader == (contest_leader(entered) if entered else None)
    # The winner follows from the status and the leader; only a finalized
    # contest has one.
    if kind == "poi":
        record.status = VETOED
        assert record.winner is None
    record.status = FINALIZED
    assert record.winner == (record.leader[1] if entered else None)


@pytest.mark.parametrize("kind", sorted(_RECORDS))
def test_a_record_seats_contestants_only_through_enter(kind):
    cls, required = _RECORDS[kind]
    with pytest.raises(TypeError):
        cls(**required, contestants={U.public_key: b"\x00"})


# --- audit and conservation ---------------------------------------------


def test_audit_fresh_state():
    state = fresh_state()
    assert state.audit() == (80, 0, 80)


def _key(kp):
    return kp.public_key if kp else None


def _spend(state, wallet, amount):
    state.balances[wallet.public_key] -= amount
    state.balances[W.public_key] += amount


@pytest.mark.parametrize("winner", [U, None], ids=["winner", "burned"])
def test_settle_moves_a_transfer(winner):
    state = fresh_state()
    state.settle(table_poi(amount=20), _key(winner))
    assert state.balance(S.public_key) == 60 and state.balance(D.public_key) == 19
    assert (state.balance(U.public_key), state.burned) == ((1, 0) if winner else (0, 1))
    assert state.audit() == (80 - state.burned, state.burned, 80)


def _finalized(state, poi, winner, settle=True):
    """Record ``poi`` on ``state`` as finalized with ``winner`` its one
    contestant, or none when ``winner`` is None, settled unless ``settle``
    is False (then its reward was never paid)."""
    if settle:
        state.settle(poi, winner)
    record = state.poi_records[poi.alpha] = contract.PoiRecord(poi=poi, status=FINALIZED)
    if winner is not None:
        record.enter(winner, b"\x00")
    assert record.winner == winner


def test_settle_nets_the_moves_of_a_wallet_in_two_roles():
    # The sender is its own recipient and wins its own contest: it ends where
    # it began, and a later change of winner takes only the reward from it.
    state = fresh_state(sender_balance=20)
    poi = table_poi(amount=20, recipient=S)
    _finalized(state, poi, S.public_key)
    assert state.balance(S.public_key) == 20
    assert state.resync(poi, U.public_key)
    assert state.balance(S.public_key) == 19 and state.audit() == (20, 0, 20)


@pytest.mark.parametrize("old, new", [(U, V), (U, None), (None, U)], ids=["winner", "to-burned", "from-burned"])
def test_resync_from_another_winner_ends_where_settling_the_new_winner_does(old, new):
    # The recipient spends 15 of its 19 first, so moving the whole old
    # settlement back would take more than it holds; only the reward moves.
    poi = table_poi(amount=20)
    expected, state = fresh_state(), fresh_state()
    expected.settle(poi, _key(new))
    _spend(expected, D, 15)
    _finalized(state, poi, _key(old))
    _spend(state, D, 15)
    assert state.resync(poi, _key(new))
    assert (state.balances, state.burned) == (expected.balances, expected.burned)
    # The record keeps what this chain concluded.
    assert state.poi_records[poi.alpha].winner == _key(old)


@pytest.mark.parametrize("claimed", [False, True], ids=["no-record", "pending"])
@pytest.mark.parametrize("winner", [U, None], ids=["winner", "burned"])
def test_resync_settles_a_transfer_this_chain_did_not_finalize(claimed, winner):
    poi = table_poi(amount=20)
    expected, state = fresh_state(), fresh_state()
    expected.settle(poi, _key(winner))
    if claimed:
        state.apply_claim(make_claim(poi), now=2.0)
    assert state.resync(poi, _key(winner))
    assert (state.balances, state.burned) == (expected.balances, expected.burned)
    # The chain's record, or its lack of one, stays as it was.
    assert [record.status for record in state.poi_records.values()] == ([PENDING] if claimed else [])


@pytest.mark.parametrize("winner", [U, None], ids=["winner", "burned"])
def test_resync_to_this_chains_own_winner_moves_nothing(winner):
    state = fresh_state()
    _finalized(state, table_poi(amount=20), _key(winner))
    before = (dict(state.balances), state.burned)
    assert state.resync(table_poi(amount=20), _key(winner)) is False
    assert (state.balances, state.burned) == before


def test_settle_that_would_go_negative_raises_and_changes_nothing():
    # Settling 20 takes more than a sender of 10 holds.
    state = fresh_state(sender_balance=10)
    before = (dict(state.balances), state.burned)
    with pytest.raises(RuntimeError, match="negative"):
        state.settle(table_poi(amount=20), U.public_key)
    assert (state.balances, state.burned) == before


@pytest.mark.parametrize("old", [U, None, "unsettled"], ids=["from-winner", "from-burned", "overdraw"])
def test_resync_that_would_go_negative_returns_false_and_changes_nothing(old):
    # A reward that was never paid: the old winner (or burned) holds nothing.
    # Or the chain never finalized the transfer, and its sender holds 10 of 20.
    state = fresh_state(sender_balance=10 if old == "unsettled" else 80)
    if old != "unsettled":
        _finalized(state, table_poi(amount=20), _key(old), settle=False)
    before = (dict(state.balances), state.burned)
    assert state.resync(table_poi(amount=20), V.public_key) is False
    assert (state.balances, state.burned) == before


def test_a_chain_takes_a_reward_of_zero_but_not_a_negative_one():
    balances = {S.public_key: 80, D.public_key: 0}
    assert ChainState(0, balances, reward=0).reward == 0
    with pytest.raises(ValueError, match="reward must be non-negative"):
        ChainState(0, balances, reward=-1)


def test_a_chain_refuses_a_negative_initial_balance():
    with pytest.raises(ValueError, match=f"negative initial balance for {D.public_key.hex()}"):
        ChainState(0, {S.public_key: 80, D.public_key: -1})


def test_audit_rejects_a_negative_balance():
    # Conserved in sum and burned is 0, yet a wallet holds -1.
    state = fresh_state(sender_balance=10)
    state.balances[S.public_key] = 11
    state.balances[D.public_key] = -1
    with pytest.raises(RuntimeError, match="minted"):
        state.audit()


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
            finalizes.append(make_finalize(recipients[0], poi.alpha))
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


# --- snapshots ----------------------------------------------------------


def test_snapshots_with_one_memo_share_a_record_dict_only_between_equal_records():
    poi = table_poi()
    # Contestants U, V (as many, another wallet), U again, U then finalized,
    # none, none then finalized (only the status differs), and none on a
    # chain whose balances diverged: its sender started with more.
    states = []
    for contestants, finalized, sender_balance in (
        ([U], False, 80), ([V], False, 80), ([U], False, 80), ([U], True, 80),
        ([], False, 80), ([], True, 80), ([], False, 90),
    ):
        state = fresh_state(sender_balance=sender_balance)
        state.apply_claim(make_claim(poi), now=1)
        for key in contestants:
            state.apply_contest(make_contest(key, poi), now=2)
        if finalized:
            state.apply_finalize(make_finalize(D, poi.alpha), now=62)
        states.append(state)
    memo = {}
    snapshots = [state.snapshot(memo) for state in states]
    assert snapshots == [state.snapshot() for state in states]
    records = [snapshot["poi_records"][poi.alpha.hex()] for snapshot in snapshots]
    assert records[0] is records[2] and records[4] is records[6]
    for a in records:
        assert [a is b for b in records] == [a == b for b in records]
    assert len({id(record["poi"]) for record in records}) == 1
