"""Deterministic wallet keys and signatures.

Signing is nonce-free: sign(key, m) = H(m)^d mod P over the fixed prime
P = 2**256 - 189, with the public exponent e = d^-1 mod P-1 acting as the
wallet identifier. Exponentiation by d is a bijection on the residues, so
signature values are uniform on [0, P) for uniform message hashes, which is
what makes ranking contestants by signature value fair. The scheme is
deliberately toy-grade: it is deterministic, publicly verifiable, and
uniform, which is all the witness contest needs. It is not secure against
a party willing to factor 64-bit exponent inverses.

The modular powers run in GMP's mpz_powm, one foreign call per power on
operands made once per process, at import, when libgmp loads, and in Python's
pow otherwise; a wallet's private exponent is inverted the same way, by
mpz_invert or pow(e, -1, P-1). Both give the same integers, so keys and
signatures do not depend on which one ran. A wallet's (e, d) pair is derived
once, with its key, and lives on the KeyPair, so nothing per wallet outlives
the key; a KeyPair built by hand derives its pair on its first signature.

A signature is its value as 32 big-endian bytes, so comparing two signatures
as bytes compares their values.

The simulator signs and verifies in one process, so nearly every signature a
chain checks was made here shortly before. ``sign`` remembers each
(public_key, message, signature) it makes for a key whose public exponent,
the only part of the key ``verify`` reads, is the one its seed derives. Such a
triple passes the full check: the key and the signature are 32 bytes, the
signature's value is below P, and s**e = H(m)**(d*e) = H(m) mod P because
e*d = 1 mod P-1. ``verify`` answers a remembered triple without a power and
runs the full check on every other one, so its answers do not depend on the
memo.

``contest_leader`` is the contest rule's reference; the contract's records
keep its answer as each contestant enters.
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache

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

    @cached_property
    def _exponents(self) -> tuple[int, int]:
        return _derive_exponents(self.private_key)


def _derive_exponents(seed: bytes) -> tuple[int, int]:
    # e is a seeded 64-bit odd number coprime to PRIME-1; d is its inverse.
    # 64 bits keeps verification cheap while making exponent collisions
    # negligible at simulation scale.
    e = int.from_bytes(hashlib.sha256(seed + b"/exponent").digest()[:8], "big") | 1
    while math.gcd(e, PRIME - 1) != 1:
        e += 2
    return e, _INVERT(e)


def generate_keypair(seed: bytes) -> KeyPair:
    """Derive a wallet deterministically from 32 bytes of entropy.

    The address is 32 bytes: a 24-byte seed-derived tag (keeps addresses
    visually distinct and collision-resistant at scale) followed by the
    8-byte verification exponent.
    """
    if len(seed) != SEED_BYTES:
        raise ValueError(f"seed must be {SEED_BYTES} bytes, got {len(seed)}")
    exponents = _derive_exponents(seed)
    tag = hashlib.sha256(seed + b"/address").digest()[:24]
    key = KeyPair(private_key=seed, public_key=tag + exponents[0].to_bytes(8, "big"))
    # Set as cached_property would, which a frozen dataclass allows.
    key.__dict__["_exponents"] = exponents
    return key


def _pow(base: int, exp: int) -> int:
    return pow(base, exp, PRIME)


def _invert(exp: int) -> int:
    return pow(exp, -1, PRIME - 1)


def _load_gmp():
    """(powmod, invert): _pow and _invert evaluated by GMP's mpz_powm and
    mpz_invert, one foreign call each. Both fall back to (_pow, _invert) when
    libgmp or a symbol is missing or its limbs are not 64-bit little-endian
    words; a call answers with its fallback if GMP ever moves the result's
    limbs, or finds no inverse.

    The five operands are mpz_t structs (the public __mpz_struct layout) made
    once, each with room for 512 bits so that GMP never reallocates them: the
    result, a base, an exponent, PRIME and PRIME - 1. A base and an exponent
    are written straight into their limbs, least significant first, and the
    result's limbs are read back the same way; GMP is never handed memory it
    did not allocate."""
    import ctypes

    if sys.byteorder != "little":
        return _pow, _invert
    try:
        try:
            # By soname first: ctypes.util takes several milliseconds to
            # import, and find_library runs ldconfig.
            lib = ctypes.CDLL("libgmp.so.10")
        except OSError:
            import ctypes.util

            name = ctypes.util.find_library("gmp")
            if name is None:
                return _pow, _invert
            lib = ctypes.CDLL(name)
        init2, powm, inv = lib.__gmpz_init2, lib.__gmpz_powm, lib.__gmpz_invert
        # A data symbol: the int at its address.
        limb_bits = ctypes.cast(lib.__gmp_bits_per_limb, ctypes.POINTER(ctypes.c_int))[0]
    except (OSError, AttributeError):
        return _pow, _invert
    if limb_bits != 64:
        return _pow, _invert

    class Mpz(ctypes.Structure):
        _fields_ = [("_mp_alloc", ctypes.c_int), ("_mp_size", ctypes.c_int), ("_mp_d", ctypes.c_void_p)]

    init2.argtypes, init2.restype = [ctypes.POINTER(Mpz), ctypes.c_ulong], None
    # powm's and inv's arguments are byref() objects, which ctypes passes as
    # pointers as they are; declared argtypes would convert each one on every
    # call.
    powm.restype, inv.restype = None, ctypes.c_int
    operands = r, b, e, m, n = Mpz(), Mpz(), Mpz(), Mpz(), Mpz()
    refs = r_ref, b_ref, e_ref, m_ref, n_ref = [ctypes.byref(z) for z in operands]
    for ref in refs:
        init2(ref, 512)
    r_limbs, b_limbs, e_limbs, m_limbs, n_limbs = (
        memoryview((ctypes.c_char * 64).from_address(z._mp_d)).cast("B") for z in operands
    )
    m_limbs[:32], m._mp_size = PRIME.to_bytes(32, "little"), 4
    n_limbs[:32], n._mp_size = (PRIME - 1).to_bytes(32, "little"), 4
    r_d = r._mp_d

    def powmod(base: int, exp: int) -> int:
        b_limbs[:32], b._mp_size = base.to_bytes(32, "little"), (base.bit_length() + 63) >> 6
        e_limbs[:32], e._mp_size = exp.to_bytes(32, "little"), (exp.bit_length() + 63) >> 6
        powm(r_ref, b_ref, e_ref, m_ref)
        if r._mp_d == r_d:
            return int.from_bytes(r_limbs[: r._mp_size << 3], "little")
        return _pow(base, exp)

    def invert(exp: int) -> int:
        e_limbs[:32], e._mp_size = exp.to_bytes(32, "little"), (exp.bit_length() + 63) >> 6
        if inv(r_ref, e_ref, n_ref) and r._mp_d == r_d:
            return int.from_bytes(r_limbs[: r._mp_size << 3], "little")
        return _invert(exp)

    return powmod, invert


# Both made together at import, with one library load per process. A forked
# pool worker gets its own copy-on-write copy of the GMP operands, and a
# spawned one re-imports this module.
_ENGINE, _INVERT = _load_gmp()


def _message_residue(message: bytes) -> int:
    return int.from_bytes(hashlib.sha256(message).digest(), "big") % PRIME


# The signatures this process made that verify, in two generations of at most
# _MEMO_GENERATION each: a full newer set becomes the older one.
_MEMO_GENERATION = 1 << 10
_signed: set = set()
_signed_before: set = set()


def sign(key: KeyPair, message: bytes) -> bytes:
    """Deterministically sign a message; same (key, message) always yields the same bytes."""
    global _signed, _signed_before
    e, d = key._exponents
    sig = _ENGINE(_message_residue(message), d).to_bytes(SIGNATURE_BYTES, "big")
    # Only a bytes message is remembered: a bytearray is unhashable and could
    # change after signing.
    if type(message) is bytes and key.public_key[24:] == e.to_bytes(8, "big"):
        if len(_signed) >= _MEMO_GENERATION:
            _signed_before, _signed = _signed, set()
        _signed.add((key.public_key, message, sig))
    return sig


# The full check, for a triple sign did not remember or has since evicted
# (more than _MEMO_GENERATION later signatures). Every chain checks the same
# triple, so answers are cached; perfbench also reads cache_info().
@lru_cache(maxsize=1 << 12)
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
    return _ENGINE(value, e) == _message_residue(message)


def verify(public_key: bytes, message: bytes, sig: bytes) -> bool:
    """True iff sig was produced over message by the private key matching public_key."""
    triple = (public_key, message, sig)
    return triple in _signed or triple in _signed_before or _verify_cached(public_key, message, sig)


def contest_leader(contestants: dict[bytes, bytes]) -> tuple[bytes, bytes]:
    """The contest rule every chain applies on its own: the lowest
    (omega, wallet) pair leads, so the lowest omega wins and the lower wallet
    bytes break a tie, and chains that saw the same contestants agree."""
    return min(zip(contestants.values(), contestants))
