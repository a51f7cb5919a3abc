"""Deterministic wallet keys, signatures, and the total order on signature values.

Signing is nonce-free: sign(key, m) = H(m)^d mod P over the fixed prime
P = 2**256 - 189, with the public exponent e = d^-1 mod P-1 acting as the
wallet identifier. Exponentiation by d is a bijection on the residues, so
signature values are uniform on [0, P) for uniform message hashes, which is
what makes ranking contestants by signature value fair. The scheme is
deliberately toy-grade: it is deterministic, publicly verifiable, and
uniform, which is all the witness contest needs. It is not secure against
a party willing to factor 64-bit exponent inverses.

The modular powers run in OpenSSL's BN_mod_exp when libcrypto loads, and in
Python's pow otherwise; both give the same integers, so signatures do not
depend on which one ran.
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


@dataclass(frozen=True, order=False)
class Signature:
    """Fixed-width 32-byte signature; compares by big-endian unsigned value."""

    data: bytes

    def __post_init__(self) -> None:
        if len(self.data) != SIGNATURE_BYTES:
            raise ValueError(f"signature must be {SIGNATURE_BYTES} bytes, got {len(self.data)}")

    @property
    def value(self) -> int:
        return int.from_bytes(self.data, "big")

    def hex(self) -> str:
        return self.data.hex()


@dataclass(frozen=True)
class KeyPair:
    """A wallet: 32-byte private seed and the public exponent it derives.

    public_key doubles as the wallet address; there is no separate address
    hashing step.
    """

    private_key: bytes
    public_key: bytes

    @property
    def address(self) -> bytes:
        return self.public_key


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
    """_pow evaluated by libcrypto's BN_mod_exp, falling back to _pow itself
    when libcrypto cannot be loaded or a call fails."""
    import ctypes
    import ctypes.util

    name = ctypes.util.find_library("crypto")
    if name is None:
        return _pow
    try:
        lib = ctypes.CDLL(name)
        bin2bn, bn2bin, mod_exp, ctx_new = lib.BN_bin2bn, lib.BN_bn2binpad, lib.BN_mod_exp, lib.BN_CTX_new
    except (OSError, AttributeError):
        return _pow
    ptr = ctypes.c_void_p
    bin2bn.argtypes, bin2bn.restype = [ctypes.c_char_p, ctypes.c_int, ptr], ptr
    bn2bin.argtypes, bn2bin.restype = [ptr, ctypes.c_char_p, ctypes.c_int], ctypes.c_int
    mod_exp.argtypes, mod_exp.restype = [ptr] * 5, ctypes.c_int
    ctx_new.argtypes, ctx_new.restype = [], ptr
    ctx, modulus, r, a, p = ctx_new(), *(bin2bn(PRIME.to_bytes(32, "big"), 32, None) for _ in range(4))
    out = ctypes.create_string_buffer(32)
    if not all((ctx, modulus, r, a, p)):
        return _pow

    def powmod(base: int, exp: int) -> int:
        if (
            bin2bn(base.to_bytes(32, "big"), 32, a)
            and bin2bn(exp.to_bytes(32, "big"), 32, p)
            and mod_exp(r, a, p, modulus, ctx)
            and bn2bin(r, out, 32) == 32
        ):
            return int.from_bytes(out.raw, "big")
        return _pow(base, exp)

    return powmod


# One engine per process id, so pool workers never share a BN_CTX.
_ENGINES: dict = {}


def _powmod(base: int, exp: int) -> int:
    """base**exp mod PRIME for base and exp below 2**256, identical to _pow."""
    pid = os.getpid()
    if pid not in _ENGINES:
        _ENGINES[pid] = _load_powmod()
    return _ENGINES[pid](base, exp)


def _message_residue(message: bytes) -> int:
    return int.from_bytes(hashlib.sha256(message).digest(), "big") % PRIME


def sign(key: KeyPair, message: bytes) -> Signature:
    """Deterministically sign a message; same (key, message) always yields the same bytes."""
    _, d = _derive_exponents(key.private_key)
    value = _powmod(_message_residue(message), d)
    return Signature(value.to_bytes(32, "big"))


@lru_cache(maxsize=1 << 16)
def _verify_cached(public_key: bytes, message: bytes, sig_data: bytes) -> bool:
    if len(public_key) != 32:
        return False
    e = int.from_bytes(public_key[24:], "big")
    if e <= 0:
        return False
    return _powmod(int.from_bytes(sig_data, "big"), e) == _message_residue(message)


def verify(public_key: bytes, message: bytes, sig: Signature) -> bool:
    """True iff sig was produced over message by the private key matching public_key."""
    return _verify_cached(public_key, message, sig.data)


def omega_less(a: Signature, b: Signature) -> bool:
    """Strict big-endian unsigned comparison: True iff a ranks before (beats) b.

    For equal-width byte strings this is exactly the lexicographic order.
    """
    return a.data < b.data


def contest_order_key(omega: Signature, wallet: bytes) -> tuple[bytes, bytes]:
    """Sort key for picking a contest winner: lowest omega wins, wallet bytes break ties."""
    return (omega.data, wallet)


def contest_winner(contestants: dict[bytes, Signature]) -> bytes:
    """The contest rule every chain applies on its own: the wallet with the
    lowest omega wins, so chains that saw the same contestants agree."""
    return min(contestants, key=lambda w: contest_order_key(contestants[w], w))
