import ctypes
import ctypes.util
import dataclasses
import functools
import hashlib
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panchain import crypto
from panchain.crypto import (
    PRIME,
    KeyPair,
    contest_leader,
    generate_keypair,
    sign,
    verify,
)
from panchain.configs import sweep_config
from panchain.ecosystem import run

from conftest import clear_verify_caches, hide_libgmp

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
    assert len(sig) == 32
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
        bins[sig[0] >> 4] += 1
    expected = n / 16
    stat = sum((count - expected) ** 2 / expected for count in bins)
    assert stat < CHI2_15_Q999, f"chi-square {stat:.2f} over bins {bins}"


def _sig_from_int(value: int) -> bytes:
    return value.to_bytes(32, "big")


# Wallets for the order tests; LOW_WALLET sorts first, so where it loses,
# the omega decided.
LOW_WALLET, HIGH_WALLET = b"\x01" * 32, b"\x02" * 32


def _beats(a: int, b: int) -> bool:
    """True iff omega value a wins a two-way contest against omega value b,
    whichever wallet holds which."""
    return all(
        contest_leader({wa: _sig_from_int(a), wb: _sig_from_int(b)})[1] == wa
        for wa, wb in ((LOW_WALLET, HIGH_WALLET), (HIGH_WALLET, LOW_WALLET))
    )


def test_contest_winner_matches_paper_example():
    # 0xC1 beats 0xC2: the lowest signature value wins the contest.
    assert _beats(0xC1, 0xC2)
    assert not _beats(0xC2, 0xC1)


def test_contest_winner_equal_omegas_rank_equal():
    # An omega does not beat itself: at an equal value the wallet decides.
    assert not _beats(0xC1, 0xC1)


def test_contest_winner_agrees_with_integer_comparison_sampled():
    # brute force over two-byte signature values, sampled down to 10^6 pairs
    rng = random.Random(4242)
    for _ in range(1_000_000):
        a = rng.getrandbits(16)
        b = rng.getrandbits(16)
        winner = contest_leader({HIGH_WALLET: _sig_from_int(a), LOW_WALLET: _sig_from_int(b)})[1]
        assert (winner == HIGH_WALLET) == (a < b)


@given(
    a=st.integers(min_value=0, max_value=2**256 - 1),
    b=st.integers(min_value=0, max_value=2**256 - 1),
    c=st.integers(min_value=0, max_value=2**256 - 1),
)
def test_contest_winner_strict_total_order(a, b, c):
    # antisymmetry plus totality on distinct values
    if a != b:
        assert _beats(a, b) != _beats(b, a)
    else:
        assert not _beats(a, b) and not _beats(b, a)
    # transitivity
    if _beats(a, b) and _beats(b, c):
        assert _beats(a, c)
    # the three-way winner holds the least value
    wallets = [bytes([i]) * 32 for i in (3, 2, 1)]
    winner = contest_leader(dict(zip(wallets, map(_sig_from_int, (a, b, c)))))[1]
    assert min((v, w) for v, w in zip((a, b, c), wallets))[1] == winner


@settings(max_examples=25)
@given(st.binary(min_size=0, max_size=200), st.integers(min_value=0, max_value=2**31))
def test_sign_verify_property(message, seed_int):
    key = generate_keypair(hashlib.sha256(seed_int.to_bytes(8, "big")).digest())
    sig = sign(key, message)
    assert verify(key.public_key, message, sig)
    assert int.from_bytes(sig, "big") < PRIME


def test_contest_winner_breaks_ties_by_wallet():
    sig = _sig_from_int(7)
    for contestants in ({LOW_WALLET: sig, HIGH_WALLET: sig}, {HIGH_WALLET: sig, LOW_WALLET: sig}):
        assert contest_leader(contestants)[1] == LOW_WALLET


def test_verify_refuses_a_signature_of_the_wrong_width(sender_key):
    # int.from_bytes reads b"\x00" + x and x[1:] as the same value as x, so
    # only the width check refuses them.
    message = next(m for m in (b"%d" % i for i in range(100_000)) if sign(sender_key, m)[0] == 0)
    sig = sign(sender_key, message)
    assert verify(sender_key.public_key, message, sig)
    assert not verify(sender_key.public_key, message, sig[1:])
    assert not verify(sender_key.public_key, message, b"\x00" + sig)


def test_verify_refuses_a_signature_value_at_or_above_prime(monkeypatch, sender_key):
    # s and s + PRIME are the same residue, so without the range check both
    # would verify; the residue is stood in so that s = 5 is the signature.
    message = b"aliased signature"
    e = int.from_bytes(sender_key.public_key[24:], "big")
    residue = crypto._message_residue
    monkeypatch.setattr(crypto, "_message_residue", lambda m: pow(5, e, PRIME) if m == message else residue(m))
    clear_verify_caches()
    try:
        assert verify(sender_key.public_key, message, (5).to_bytes(32, "big"))
        assert not verify(sender_key.public_key, message, (5 + PRIME).to_bytes(32, "big"))
    finally:
        clear_verify_caches()


def test_keypair_address_is_public_key():
    key = generate_keypair(seed_bytes(5))
    assert isinstance(key, KeyPair)
    assert len(key.public_key) == 32


def test_keys_built_any_way_sign_alike():
    # generate_keypair stores the pair it derived; a key built by hand or by
    # dataclasses.replace derives the same pair on its first signature.
    key = generate_keypair(seed_bytes(6))
    stored = vars(key)["_exponents"]
    e, d = stored
    assert key.public_key[24:] == e.to_bytes(8, "big") and e * d % (PRIME - 1) == 1
    for other in (KeyPair(private_key=key.private_key, public_key=key.public_key), dataclasses.replace(key)):
        assert "_exponents" not in vars(other)
        assert other == key and hash(other) == hash(key)
        assert sign(other, b"any way") == sign(key, b"any way")
        assert vars(other)["_exponents"] == stored


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
    assert crypto._ENGINE(base, exp) == pow(base, exp, PRIME)


# Bases from PRIME up are unreduced; mpz_powm must reduce them itself.
@pytest.mark.parametrize("base", [0, 1, PRIME - 1, PRIME, PRIME + 1, 2**256 - 1])
@pytest.mark.parametrize("exp", [0, 1, 2**64 - 1, PRIME - 2, 2**256 - 1])
def test_powmod_edge_cases(base, exp):
    assert crypto._ENGINE(base, exp) == pow(base, exp, PRIME)


class _Libgmp:
    """The real libgmp with some symbols hidden or replaced."""

    def __init__(self, lib, hidden=(), replaced=None):
        self._lib, self._hidden, self._replaced = lib, hidden, replaced or {}

    def __getattr__(self, name):
        if name in self._hidden:
            raise AttributeError(name)
        return self._replaced.get(name) or getattr(self._lib, name)


def _load_with(monkeypatch, **proxy):
    real = ctypes.CDLL
    monkeypatch.setattr(ctypes, "CDLL", lambda name: _Libgmp(real(name), **proxy))
    return crypto._load_gmp()


_POW_ENGINE = (crypto._pow, crypto._invert)


def _gmp_with_64_bit_limbs() -> bool:
    name = ctypes.util.find_library("gmp")
    return name is not None and ctypes.c_int.in_dll(ctypes.CDLL(name), "__gmp_bits_per_limb").value == 64


needs_gmp = pytest.mark.skipif(not _gmp_with_64_bit_limbs(), reason="needs libgmp with 64-bit limbs")


def test_gmp_engine_loads_wherever_libgmp_has_64_bit_limbs():
    # A silent fallback to pow would keep every output and cost several times
    # the time, so it fails here rather than only in a benchmark.
    powmod, invert = crypto._load_gmp()
    gmp = _gmp_with_64_bit_limbs() and sys.byteorder == "little"
    assert (powmod is not crypto._pow) == gmp and (invert is not crypto._invert) == gmp
    assert powmod(PRIME + 1, 2**64 - 1) == pow(PRIME + 1, 2**64 - 1, PRIME)
    assert invert(5) == pow(5, -1, PRIME - 1)


@needs_gmp
@pytest.mark.parametrize("symbol", ["__gmpz_powm", "__gmpz_init2", "__gmp_bits_per_limb", "__gmpz_invert"])
def test_engine_falls_back_to_pow_without_a_gmp_symbol(monkeypatch, symbol):
    assert _load_with(monkeypatch, hidden=(symbol,)) == _POW_ENGINE


def test_engine_falls_back_to_pow_without_libgmp(monkeypatch):
    hide_libgmp(monkeypatch)
    assert crypto._load_gmp() == _POW_ENGINE


def _gmp_soname_loads() -> bool:
    try:
        ctypes.CDLL("libgmp.so.10")
    except OSError:
        return False
    return True


@needs_gmp
@pytest.mark.skipif(not _gmp_soname_loads(), reason="needs libgmp.so.10")
def test_engine_loads_gmp_by_soname_without_find_library(monkeypatch):
    def no_search(name):
        raise AssertionError("find_library ran although the soname loads")

    monkeypatch.setattr(ctypes.util, "find_library", no_search)
    powmod, invert = crypto._load_gmp()
    assert powmod is not crypto._pow and invert is not crypto._invert


@needs_gmp
def test_engine_finds_gmp_by_search_when_the_soname_fails(monkeypatch):
    real, opened = ctypes.CDLL, []

    def cdll(name):
        opened.append(name)
        if len(opened) == 1:
            raise OSError(f"{name}: cannot open shared object file")
        return real(name)

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    powmod, invert = crypto._load_gmp()
    assert opened == ["libgmp.so.10", ctypes.util.find_library("gmp")]
    assert powmod is not crypto._pow and invert is not crypto._invert
    assert powmod(3, 5) == 243 and invert(5) == pow(5, -1, PRIME - 1)


@needs_gmp
def test_engine_falls_back_to_pow_when_limbs_are_not_64_bits(monkeypatch):
    limb_bits = ctypes.pointer(ctypes.c_int(32))
    assert _load_with(monkeypatch, replaced={"__gmp_bits_per_limb": limb_bits}) == _POW_ENGINE


# Loaded once for the module: every load allocates operands that live as long
# as the process.
_INVERSES = {"gmp": functools.cache(lambda: crypto._load_gmp()[1]), "pow": lambda: crypto._invert}

# Odd, as every public exponent is, and coprime to PRIME - 1, so invertible.
_INVERTIBLE = st.one_of(
    st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=PRIME - 2)
).map(lambda e: e | 1).filter(lambda e: math.gcd(e, PRIME - 1) == 1)


@pytest.mark.parametrize("engine", sorted(_INVERSES))
@given(e=_INVERTIBLE)
def test_inverse_matches_pow(engine, e):
    assert _INVERSES[engine]()(e) == pow(e, -1, PRIME - 1)


@pytest.mark.parametrize("engine", sorted(_INVERSES))
@pytest.mark.parametrize("e", [1, 5, 2**64 - 3, 2**64 - 59, PRIME - 2])
def test_inverse_edge_cases(engine, e):
    assert _INVERSES[engine]()(e) == pow(e, -1, PRIME - 1)


@pytest.mark.parametrize("engine", sorted(_INVERSES))
@pytest.mark.parametrize("e", [3, 2**64 - 1, PRIME - 1])
def test_a_non_invertible_exponent_raises_as_pow_does(engine, e):
    with pytest.raises(ValueError):
        _INVERSES[engine]()(e)


class _Mpz(ctypes.Structure):
    _fields_ = [("_mp_alloc", ctypes.c_int), ("_mp_size", ctypes.c_int), ("_mp_d", ctypes.c_void_p)]


def _moving(symbol: str, calls: list):
    """The GMP function ``symbol`` (powm or invert, whose first argument is
    the result), except that its first call swaps the result's limbs for
    other GMP-owned limbs holding 12345. From then on the limbs the engine set
    up go stale, so it must notice the move and answer with pow."""
    lib = ctypes.CDLL(ctypes.util.find_library("gmp"))
    real = getattr(lib, symbol)
    other = _Mpz()
    lib.__gmpz_init2(ctypes.byref(other), ctypes.c_ulong(512))
    lib.__gmpz_set_ui(ctypes.byref(other), ctypes.c_ulong(12345))

    def moving(r, *args):
        answer = real(r, *args)
        if not calls:
            result = _Mpz.from_address(ctypes.cast(r, ctypes.c_void_p).value)
            result._mp_d, other._mp_d = other._mp_d, result._mp_d
            result._mp_size, other._mp_size = other._mp_size, result._mp_size
        calls.append(r)
        return answer

    return moving


@needs_gmp
def test_engine_returns_pow_when_gmp_moves_the_result(monkeypatch):
    calls = []
    engine, _ = _load_with(monkeypatch, replaced={"__gmpz_powm": _moving("__gmpz_powm", calls)})
    assert engine is not crypto._pow
    for base, exp in [(3, 5), (PRIME - 1, 2**64 - 1), (2**256 - 1, PRIME - 2)]:
        assert engine(base, exp) == pow(base, exp, PRIME)
    assert len(calls) == 3


@needs_gmp
def test_engine_inverts_with_pow_when_gmp_moves_the_result(monkeypatch):
    calls = []
    _, invert = _load_with(monkeypatch, replaced={"__gmpz_invert": _moving("__gmpz_invert", calls)})
    assert invert is not crypto._invert
    for e in [5, 2**64 - 3, PRIME - 2]:
        assert invert(e) == pow(e, -1, PRIME - 1)
    assert len(calls) == 3


def test_pow_fallback_signs_and_verifies(request, sender_key, recipient_key):
    m = b"signed without libgmp"
    expected = sign(sender_key, m)
    request.getfixturevalue("pow_engine")
    assert (crypto._ENGINE, crypto._INVERT) == _POW_ENGINE
    assert generate_keypair(sender_key.private_key) == sender_key
    sig = sign(sender_key, m)
    assert sig == expected
    assert verify(sender_key.public_key, m, sig)
    assert not verify(recipient_key.public_key, m, sig)


# --- the memo of this process's own signatures ------------------------------


def _remembered(public_key: bytes, message: bytes, sig: bytes) -> bool:
    triple = (public_key, message, sig)
    return triple in crypto._signed or triple in crypto._signed_before


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=2**31), st.binary(max_size=200))
def test_a_remembered_signature_passes_the_full_check(seed_int, message):
    key = generate_keypair(hashlib.sha256(seed_int.to_bytes(8, "big")).digest())
    sig = sign(key, message)
    assert _remembered(key.public_key, message, sig)
    from_memo = verify(key.public_key, message, sig)
    clear_verify_caches()
    assert verify(key.public_key, message, sig) is from_memo is True
    assert crypto._verify_cached.cache_info().misses == 1


@pytest.mark.parametrize("exponent_from", ["own", "other"])
def test_only_a_key_whose_exponent_is_its_seeds_is_remembered(exponent_from):
    # verify reads only the exponent, so a key with another tag but its own
    # exponent signs as itself; with another seed's exponent it signs nothing
    # that verifies.
    seed, other = generate_keypair(seed_bytes(1)), generate_keypair(seed_bytes(2))
    source = seed if exponent_from == "own" else other
    key = KeyPair(private_key=seed.private_key, public_key=other.public_key[:24] + source.public_key[24:])
    clear_verify_caches()
    sig = sign(key, b"whose exponent")
    assert _remembered(key.public_key, b"whose exponent", sig) == (exponent_from == "own")
    full = crypto._verify_cached.__wrapped__(key.public_key, b"whose exponent", sig)
    assert full == (exponent_from == "own")
    assert verify(key.public_key, b"whose exponent", sig) == full


def test_a_tampered_triple_misses_the_memo_and_fails(sender_key, recipient_key):
    message = b"remembered"
    sig = sign(sender_key, message)
    flipped = bytes([sig[0] ^ 0x01]) + sig[1:]
    for triple in [
        (sender_key.public_key, message + b"!", sig),
        (sender_key.public_key, message, flipped),
        (recipient_key.public_key, message, sig),
    ]:
        assert not _remembered(*triple)
        assert not verify(*triple)


def test_the_memo_keeps_at_most_two_generations():
    key = generate_keypair(seed_bytes(7))
    clear_verify_caches()
    generation = crypto._MEMO_GENERATION
    triples = []
    for i in range(2 * generation + 300):
        message = b"%d" % i
        triples.append((key.public_key, message, sign(key, message)))
        assert len(crypto._signed) <= generation and len(crypto._signed_before) <= generation
    assert all(_remembered(*triple) for triple in triples[-generation:])
    assert not _remembered(*triples[0])


def test_sign_accepts_a_bytearray_and_remembers_only_bytes(sender_key):
    clear_verify_caches()
    message = b"mutable message"
    sig = sign(sender_key, bytearray(message))
    assert not crypto._signed and not crypto._signed_before
    assert sign(sender_key, message) == sig
    assert crypto._signed == {(sender_key.public_key, message, sig)}


def test_an_honest_run_verifies_every_signature_from_the_memo():
    clear_verify_caches()
    report = run(sweep_config(validity=65, seed=0))
    assert report.transfers
    info = crypto._verify_cached.cache_info()
    assert (info.hits, info.misses) == (0, 0)
