import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panchain.crypto import verify
from panchain.protocol import (
    ProofOfIntent,
    conflicts,
    encode_intent,
    encode_poi,
    encode_veto_payload,
    make_contest,
    make_poi,
    make_veto,
    verify_poi,
    veto_deadline,
)

from conftest import keypair


def _poi(sender, recipient, amount=20, t0=1, t1=61):
    return make_poi(sender, recipient, amount=amount, t0=t0, t1=t1)


def test_make_poi_worked_example(sender_key, recipient_key):
    # the 20-unit transfer with a one-minute window from the worked example
    poi = _poi(sender_key, recipient_key)
    assert poi.amount == 20 and (poi.t0, poi.t1) == (1, 61)
    intent = encode_intent(poi.sender, poi.recipient, poi.amount, poi.t0, poi.t1)
    assert verify(sender_key.public_key, intent, poi.alpha)
    assert verify(recipient_key.public_key, intent + poi.alpha, poi.beta)
    assert verify_poi(poi)


def test_make_poi_rejects_amount_not_exceeding_reward(sender_key, recipient_key):
    with pytest.raises(ValueError):
        make_poi(sender_key, recipient_key, amount=1, t0=0, t1=10, reward=1)


def test_make_poi_rejects_bad_window(sender_key, recipient_key):
    with pytest.raises(ValueError):
        make_poi(sender_key, recipient_key, amount=5, t0=10, t1=10)


def test_make_poi_small_transfer_verifies(sender_key, recipient_key):
    poi = make_poi(sender_key, recipient_key, amount=2, t0=0, t1=10)
    assert verify_poi(poi)


def test_encode_deterministic(sender_key, recipient_key):
    poi = _poi(sender_key, recipient_key)
    assert encode_poi(replace(poi)) == encode_poi(poi)


def test_encode_distinguishes_amounts(sender_key, recipient_key):
    base = dict(sender=sender_key.public_key, recipient=recipient_key.public_key, t0=0, t1=9)
    assert encode_intent(amount=0, **base) != encode_intent(amount=1, **base)


def test_encode_intent_takes_every_u64_and_nothing_above(sender_key, recipient_key):
    base = dict(sender=sender_key.public_key, recipient=recipient_key.public_key, t0=0, t1=9)
    # The amount is a length-prefixed, big-endian 8-byte field.
    assert bytes([0, 0, 0, 8]) + b"\xff" * 8 in encode_intent(amount=2**64 - 1, **base)
    with pytest.raises(ValueError, match="amount out of range"):
        encode_intent(amount=2**64, **base)


def test_encode_injective_sampled():
    # brute-force injectivity scan over random intents
    rng = random.Random(777)
    wallets = [keypair(f"w{i}").public_key for i in range(8)]
    seen = {}
    for _ in range(100_000):
        t0 = rng.randrange(0, 1000)
        intent = (
            wallets[rng.randrange(8)],
            wallets[rng.randrange(8)],
            rng.randrange(0, 500),
            t0,
            t0 + 1 + rng.randrange(0, 120),
        )
        blob = encode_intent(*intent)
        if blob in seen:
            assert seen[blob] == intent
        else:
            seen[blob] = intent


def test_encode_kinds_disjoint(sender_key, recipient_key):
    poi = _poi(sender_key, recipient_key)
    assert encode_intent(poi.sender, poi.recipient, poi.amount, poi.t0, poi.t1) != encode_poi(poi)
    assert encode_poi(poi)[:3] == b"POI"
    assert encode_veto_payload(poi.alpha, b"\x01" * 32)[:3] == b"VET"


def test_conflicts_same_sender_overlapping(sender_key, recipient_key):
    other = keypair("second-recipient")
    a = _poi(sender_key, recipient_key, amount=8, t0=1, t1=61)
    b = _poi(sender_key, other, amount=8, t0=30, t1=90)
    assert conflicts(a, b) and conflicts(b, a)


def test_conflicts_self_is_false(sender_key, recipient_key):
    a = _poi(sender_key, recipient_key)
    assert not conflicts(a, a)


def test_conflicts_disjoint_windows_false(sender_key, recipient_key):
    a = _poi(sender_key, recipient_key, t0=1, t1=61)
    b = _poi(sender_key, keypair("other"), t0=62, t1=120)
    assert not conflicts(a, b)


def test_conflicts_different_senders_false(recipient_key):
    a = _poi(keypair("s1"), recipient_key, t0=1, t1=61)
    b = _poi(keypair("s2"), recipient_key, t0=1, t1=61)
    assert not conflicts(a, b)


def test_veto_deadline_examples(sender_key):
    r1, r2 = keypair("r1"), keypair("r2")
    cases = [
        ((1, 61), (1, 61), 121),
        ((1, 61), (5, 65), 125),
        ((0, 10), (0, 100), 200),
    ]
    for (t0a, t1a), (t0b, t1b), expected in cases:
        a = _poi(sender_key, r1, t0=t0a, t1=t1a)
        b = _poi(sender_key, r2, t0=t0b, t1=t1b)
        assert veto_deadline(a, b) == expected
        assert veto_deadline(b, a) == expected


def test_veto_deadline_requires_conflict(sender_key):
    a = _poi(sender_key, keypair("r1"), t0=0, t1=10)
    b = _poi(sender_key, keypair("r2"), t0=11, t1=30)
    with pytest.raises(ValueError):
        veto_deadline(a, b)


_windows = st.tuples(
    st.integers(min_value=0, max_value=500), st.integers(min_value=1, max_value=200)
).map(lambda p: (p[0], p[0] + p[1]))


@settings(max_examples=60, deadline=None)
@given(w1=_windows, w2=_windows, same_sender=st.booleans())
def test_conflicts_symmetric_property(w1, w2, same_sender):
    s1 = keypair("prop-sender")
    s2 = s1 if same_sender else keypair("prop-sender-2")
    a = _poi(s1, keypair("prop-r1"), t0=w1[0], t1=w1[1])
    b = _poi(s2, keypair("prop-r2"), t0=w2[0], t1=w2[1])
    assert conflicts(a, b) == conflicts(b, a)
    if conflicts(a, b):
        d = veto_deadline(a, b)
        assert d == veto_deadline(b, a)
        assert d > max(a.t1, b.t1)


def test_contest_and_veto_signatures_verify(sender_key, recipient_key, observer_keys):
    poi = _poi(sender_key, recipient_key)
    contest = make_contest(observer_keys[0], poi)
    assert verify(contest.contestant, encode_poi(poi), contest.omega)
    other = _poi(sender_key, keypair("r2"), t0=5, t1=65)
    veto = make_veto(observer_keys[1], poi, other)
    assert verify(veto.vetoer, encode_veto_payload(poi.alpha, other.alpha), veto.omega)
    # orientation-independent: the swapped pair yields the same payload
    assert encode_veto_payload(other.alpha, poi.alpha) == encode_veto_payload(
        poi.alpha, other.alpha
    )


def test_poi_roundtrips_encode_and_verify(sender_key, recipient_key):
    poi = _poi(sender_key, recipient_key)
    clone = ProofOfIntent(poi.sender, poi.recipient, poi.amount, poi.t0, poi.t1, poi.alpha, poi.beta)
    assert encode_poi(clone) == encode_poi(poi)
    assert verify_poi(clone)


def test_intent_validation():
    w = keypair("w").public_key
    with pytest.raises(ValueError):
        ProofOfIntent(sender=w, recipient=w, amount=-1, t0=0, t1=1, alpha=b"", beta=b"")
    with pytest.raises(TypeError):
        ProofOfIntent(sender=w, recipient=w, amount=1.5, t0=0, t1=1, alpha=b"", beta=b"")
