"""Deterministic wallet keys and signatures.

Signing is nonce-free: sign(key, m) = H(m)^d mod P over the fixed prime
P = 2**256 - 189, with the public exponent e = d^-1 mod P-1 acting as the
wallet identifier. Exponentiation by d is a bijection on the residues, so
signature values are uniform on [0, P) for uniform message hashes, which is
what makes ranking contestants by signature value fair. The scheme is
deliberately toy-grade: it is deterministic, publicly verifiable, and
uniform, which is all the witness contest needs. It is not secure against
a party willing to factor 64-bit exponent inverses.

The modular powers run in OpenSSL's BN_mod_exp_mont, with one Montgomery
context for P per process, when libcrypto loads, and in Python's pow
otherwise; both give the same integers, so signatures do not depend on which
one ran.

A signature is its value as 32 big-endian bytes, so comparing two signatures
as bytes compares their values.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from functools import lru_cache

# Largest prime below 2**256; all signature values live in [0, PRIME).
PRIME = 2**256 - 189
SIGNATURE_BYTES = 32
SEED_BYTES = 32


@dataclass(frozen=True)
class KeyPair:
    """A wallet: 32-byte private seed and the public exponent it derives.

    public_key doubles as the wallet address; there is no separate address
    hashing step.
    """

    private_key: bytes
    public_key: bytes


@lru_cache(maxsize=1 << 14)
def _derive_exponents(seed: bytes) -> tuple[int, int]:
    # e is a seeded 64-bit odd number coprime to PRIME-1; d is its inverse.
    # 64 bits keeps verification cheap while making exponent collisions
    # negligible at simulation scale.
    e = int.from_bytes(hashlib.sha256(seed + b"/exponent").digest()[:8], "big") | 1
    while math.gcd(e, PRIME - 1) != 1:
        e += 2
    d = pow(e, -1, PRIME - 1)
    return e, d


def generate_keypair(seed: bytes) -> KeyPair:
    """Derive a wallet deterministically from 32 bytes of entropy.

    The address is 32 bytes: a 24-byte seed-derived tag (keeps addresses
    visually distinct and collision-resistant at scale) followed by the
    8-byte verification exponent.
    """
    if len(seed) != SEED_BYTES:
        raise ValueError(f"seed must be {SEED_BYTES} bytes, got {len(seed)}")
    e, _ = _derive_exponents(seed)
    tag = hashlib.sha256(seed + b"/address").digest()[:24]
    return KeyPair(private_key=seed, public_key=tag + e.to_bytes(8, "big"))


def _pow(base: int, exp: int) -> int:
    return pow(base, exp, PRIME)


def _load_powmod():
    """_pow evaluated by libcrypto's BN_mod_exp_mont with one Montgomery
    context for PRIME, falling back to _pow itself when libcrypto cannot be
    loaded, the context cannot be set up, or a call fails."""
    import ctypes
    import ctypes.util

    name = ctypes.util.find_library("crypto")
    if name is None:
        return _pow
    try:
        lib = ctypes.CDLL(name)
        bin2bn, bn2bin, mod_exp = lib.BN_bin2bn, lib.BN_bn2binpad, lib.BN_mod_exp_mont
        ctx_new, mont_new, mont_set = lib.BN_CTX_new, lib.BN_MONT_CTX_new, lib.BN_MONT_CTX_set
    except (OSError, AttributeError):
        return _pow
    ptr = ctypes.c_void_p
    bin2bn.argtypes, bin2bn.restype = [ctypes.c_char_p, ctypes.c_int, ptr], ptr
    bn2bin.argtypes, bn2bin.restype = [ptr, ctypes.c_char_p, ctypes.c_int], ctypes.c_int
    mod_exp.argtypes, mod_exp.restype = [ptr] * 6, ctypes.c_int
    ctx_new.argtypes, ctx_new.restype = [], ptr
    mont_new.argtypes, mont_new.restype = [], ptr
    mont_set.argtypes, mont_set.restype = [ptr] * 3, ctypes.c_int
    ctx, mont = ctx_new(), mont_new()
    modulus, r, a, p = (bin2bn(PRIME.to_bytes(32, "big"), 32, None) for _ in range(4))
    out = ctypes.create_string_buffer(32)
    if not all((ctx, mont, modulus, r, a, p)) or not mont_set(mont, modulus, ctx):
        return _pow

    def powmod(base: int, exp: int) -> int:
        if (
            bin2bn(base.to_bytes(32, "big"), 32, a)
            and bin2bn(exp.to_bytes(32, "big"), 32, p)
            and mod_exp(r, a, p, modulus, ctx, mont)
            and bn2bin(r, out, 32) == 32
        ):
            return int.from_bytes(out.raw, "big")
        return _pow(base, exp)

    return powmod


# One engine per process id, so pool workers never share a BN_CTX or a
# Montgomery context.
_ENGINES: dict = {}


def _powmod(base: int, exp: int) -> int:
    """base**exp mod PRIME for base and exp below 2**256, identical to _pow."""
    pid = os.getpid()
    if pid not in _ENGINES:
        _ENGINES[pid] = _load_powmod()
    return _ENGINES[pid](base, exp)


def _message_residue(message: bytes) -> int:
    return int.from_bytes(hashlib.sha256(message).digest(), "big") % PRIME


def sign(key: KeyPair, message: bytes) -> bytes:
    """Deterministically sign a message; same (key, message) always yields the same bytes."""
    _, d = _derive_exponents(key.private_key)
    return _powmod(_message_residue(message), d).to_bytes(SIGNATURE_BYTES, "big")


@lru_cache(maxsize=1 << 16)
def _verify_cached(public_key: bytes, message: bytes, sig: bytes) -> bool:
    # int.from_bytes ignores leading zero bytes, so only the width check keeps
    # a signature with its leading 0x00 dropped from verifying (and then
    # ranking out of value order as bytes). Likewise s + PRIME would verify as
    # an alias of s and rank above it, so only values below PRIME are signatures.
    if len(public_key) != 32 or len(sig) != SIGNATURE_BYTES:
        return False
    e, value = int.from_bytes(public_key[24:], "big"), int.from_bytes(sig, "big")
    if e <= 0 or value >= PRIME:
        return False
    return _powmod(value, e) == _message_residue(message)


def verify(public_key: bytes, message: bytes, sig: bytes) -> bool:
    """True iff sig was produced over message by the private key matching public_key."""
    return _verify_cached(public_key, message, sig)


def contest_leader(contestants: dict[bytes, bytes]) -> tuple[bytes, bytes]:
    """The contest rule every chain applies on its own: the lowest
    (omega, wallet) pair leads, so the lowest omega wins and the lower wallet
    bytes break a tie, and chains that saw the same contestants agree."""
    return min(zip(contestants.values(), contestants))


def contest_winner(contestants: dict[bytes, bytes]) -> bytes:
    """The wallet that wins under contest_leader."""
    return contest_leader(contestants)[1]
