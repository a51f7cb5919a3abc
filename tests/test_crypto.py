import hashlib
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panchain import crypto
from panchain.crypto import (
    PRIME,
    KeyPair,
    Signature,
    contest_order_key,
    generate_keypair,
    omega_less,
    sign,
    verify,
)

# 0.999 quantile of the chi-square distribution with 15 degrees of freedom
# (scipy.stats.chi2.ppf(0.999, 15)).
CHI2_15_Q999 = 37.69729821835383


def seed_bytes(i: int) -> bytes:
    return hashlib.sha256(b"seed-%d" % i).digest()


def test_keypair_deterministic():
    a = generate_keypair(seed_bytes(1))
    b = generate_keypair(seed_bytes(1))
    assert a == b


def test_distinct_seeds_distinct_public_keys():
    a = generate_keypair(seed_bytes(1))
    b = generate_keypair(seed_bytes(2))
    assert a.public_key != b.public_key


def test_seed_length_enforced():
    with pytest.raises(ValueError):
        generate_keypair(b"short")


def test_ten_thousand_keypairs_distinct():
    # brute-force collision scan at simulation scale
    seen = set()
    for i in range(10_000):
        seen.add(generate_keypair(seed_bytes(i)).public_key)
    assert len(seen) == 10_000


def test_sign_deterministic(sender_key):
    m = b"the same message"
    assert sign(sender_key, m) == sign(sender_key, m)


def test_sign_verify_roundtrip(sender_key):
    m = b"hello ledger"
    sig = sign(sender_key, m)
    assert len(sig.data) == 32
    assert verify(sender_key.public_key, m, sig)


def test_verify_rejects_tampered_message(sender_key):
    m = bytearray(b"hello ledger")
    sig = sign(sender_key, bytes(m))
    m[0] ^= 0x01
    assert not verify(sender_key.public_key, bytes(m), sig)


def test_verify_rejects_other_key(sender_key, recipient_key):
    m = b"hello ledger"
    sig = sign(sender_key, m)
    assert not verify(recipient_key.public_key, m, sig)


def test_signature_values_uniform_leading_byte():
    # 10,000 signatures over random messages, leading byte bucketed into 16
    # bins; chi-square statistic must stay below the 0.999 quantile.
    rng = random.Random(20240101)
    key = generate_keypair(seed_bytes(99))
    bins = [0] * 16
    n = 10_000
    for _ in range(n):
        sig = sign(key, rng.randbytes(32))
        bins[sig.data[0] >> 4] += 1
    expected = n / 16
    stat = sum((count - expected) ** 2 / expected for count in bins)
    assert stat < CHI2_15_Q999, f"chi-square {stat:.2f} over bins {bins}"


def _sig_from_int(value: int) -> Signature:
    return Signature(value.to_bytes(32, "big"))


def test_omega_less_matches_paper_example():
    # 0xC1 beats 0xC2: the lowest signature value wins the contest.
    assert omega_less(_sig_from_int(0xC1), _sig_from_int(0xC2))
    assert not omega_less(_sig_from_int(0xC2), _sig_from_int(0xC1))


def test_omega_less_irreflexive():
    sig = _sig_from_int(0xC1)
    assert not omega_less(sig, sig)


def test_omega_less_agrees_with_integer_comparison_sampled():
    # brute force over two-byte signature values, sampled down to 10^6 pairs
    rng = random.Random(4242)
    for _ in range(1_000_000):
        a = rng.getrandbits(16)
        b = rng.getrandbits(16)
        assert omega_less(_sig_from_int(a), _sig_from_int(b)) == (a < b)


@given(
    a=st.integers(min_value=0, max_value=2**256 - 1),
    b=st.integers(min_value=0, max_value=2**256 - 1),
    c=st.integers(min_value=0, max_value=2**256 - 1),
)
def test_omega_less_strict_total_order(a, b, c):
    sa, sb, sc = _sig_from_int(a), _sig_from_int(b), _sig_from_int(c)
    # antisymmetry plus totality on distinct values
    if a != b:
        assert omega_less(sa, sb) != omega_less(sb, sa)
    else:
        assert not omega_less(sa, sb) and not omega_less(sb, sa)
    # transitivity
    if omega_less(sa, sb) and omega_less(sb, sc):
        assert omega_less(sa, sc)


@settings(max_examples=25)
@given(st.binary(min_size=0, max_size=200), st.integers(min_value=0, max_value=2**31))
def test_sign_verify_property(message, seed_int):
    key = generate_keypair(hashlib.sha256(seed_int.to_bytes(8, "big")).digest())
    sig = sign(key, message)
    assert verify(key.public_key, message, sig)
    assert sig.value < PRIME


def test_contest_order_key_breaks_ties_by_wallet():
    sig = _sig_from_int(7)
    assert contest_order_key(sig, b"\x01" * 32) < contest_order_key(sig, b"\x02" * 32)


def test_signature_width_enforced():
    with pytest.raises(ValueError):
        Signature(b"\x00" * 31)


def test_keypair_address_is_public_key():
    key = generate_keypair(seed_bytes(5))
    assert isinstance(key, KeyPair)
    assert key.address == key.public_key
    assert len(key.public_key) == 32


@given(
    base=st.integers(min_value=0, max_value=2**256 - 1),
    exp=st.one_of(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=0, max_value=2**256 - 1),
    ),
)
def test_powmod_matches_pow(base, exp):
    # Bases from P up to 2**256 - 1 are arbitrary 32-byte signatures that
    # verify must reduce exactly as pow does.
    assert crypto._powmod(base, exp) == pow(base, exp, PRIME)


@pytest.mark.parametrize("base", [0, 1, PRIME - 1])
@pytest.mark.parametrize("exp", [0, 1, PRIME - 2])
def test_powmod_edge_cases(base, exp):
    assert crypto._powmod(base, exp) == pow(base, exp, PRIME)


def test_pow_fallback_signs_and_verifies(request, sender_key, recipient_key):
    m = b"signed without libcrypto"
    expected = sign(sender_key, m)
    request.getfixturevalue("pow_engine")
    sig = sign(sender_key, m)
    assert crypto._ENGINES == {os.getpid(): crypto._pow}
    assert sig == expected
    assert verify(sender_key.public_key, m, sig)
    assert not verify(recipient_key.public_key, m, sig)
