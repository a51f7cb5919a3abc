"""Transfer-protocol value types: proofs of intent, the five ledger transactions,
conflict detection between intents, and veto-contest timing.

Everything here is chain-independent. The canonical byte encoding defined by
``encode_intent`` and ``encode_poi`` is the only signing/wire format; it is
injective (kind tag plus length-prefixed fields, integers big-endian fixed
width) and stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .crypto import KeyPair, sign, verify

WalletId = bytes

DEFAULT_REWARD = 1
_U64_MAX = 2**64 - 1


def _lp(field: bytes) -> bytes:
    return len(field).to_bytes(4, "big") + field


def _u64(value: int, name: str) -> bytes:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if not 0 <= value <= _U64_MAX:
        raise ValueError(f"{name} out of range: {value}")
    return value.to_bytes(8, "big")


@dataclass(frozen=True)
class TransferIntent:
    """A signed-off transfer of ``amount`` token units from sender to recipient,
    valid during the closed window [t0, t1] (integer seconds)."""

    sender: WalletId
    recipient: WalletId
    amount: int
    t0: int
    t1: int

    def __post_init__(self) -> None:
        _u64(self.amount, "amount")
        _u64(self.t0, "t0")
        _u64(self.t1, "t1")
        if self.t0 >= self.t1:
            raise ValueError(f"invalid validity window: t0={self.t0} >= t1={self.t1}")


@dataclass(frozen=True)
class ProofOfIntent:
    """Transfer intent signed by the sender (alpha) and counter-signed by the
    recipient (beta, over the intent plus alpha). alpha uniquely identifies
    the proof throughout the ecosystem."""

    intent: TransferIntent
    alpha: bytes
    beta: bytes

    def __post_init__(self) -> None:
        # The intent's fields, copied once: contract and observer checks read
        # them on every transaction. Like the ``_encoded`` memo below, they
        # sit outside the dataclass fields, so equality and hashing ignore them.
        intent = self.intent
        self.__dict__.update(
            sender=intent.sender,
            recipient=intent.recipient,
            amount=intent.amount,
            t0=intent.t0,
            t1=intent.t1,
        )


# Both encoders memoise their result on the frozen value as ``_encoded``:
# the fields never change, so neither do the bytes, and the same proof is
# encoded again and again by verification, contests and observers.


def encode_intent(intent: TransferIntent) -> bytes:
    encoded = intent.__dict__.get("_encoded")
    if encoded is None:
        encoded = b"".join(
            (
                b"INT",
                _lp(intent.sender),
                _lp(intent.recipient),
                _lp(_u64(intent.amount, "amount")),
                _lp(_u64(intent.t0, "t0")),
                _lp(_u64(intent.t1, "t1")),
            )
        )
        object.__setattr__(intent, "_encoded", encoded)
    return encoded


def encode_poi(poi: ProofOfIntent) -> bytes:
    encoded = poi.__dict__.get("_encoded")
    if encoded is None:
        encoded = b"POI" + encode_intent(poi.intent)[3:] + _lp(poi.alpha) + _lp(poi.beta)
        object.__setattr__(poi, "_encoded", encoded)
    return encoded


def encode_veto_payload(alpha: bytes, conflicting_alpha: bytes) -> bytes:
    """Payload a vetoer signs: the unordered pair of conflicting proof ids.

    Signing the pair canonically (sorted) rather than the oriented report
    means a vetoer's contest value is identical no matter which of the two
    proofs a given chain learned first; otherwise chains that saw the proofs
    in opposite orders would rank the same vetoer differently and pick
    different veto winners. The full conflicting proof still travels in the
    transaction body for validation; the double-signing itself is proven by
    the two sender signatures, not by the vetoer's.
    """
    lo, hi = sorted((alpha, conflicting_alpha))
    return b"VET" + _lp(lo) + _lp(hi)


def make_poi(
    sender_key: KeyPair,
    recipient_key: KeyPair,
    amount: int,
    t0: int,
    t1: int,
    reward: int = DEFAULT_REWARD,
) -> ProofOfIntent:
    """Build a fully signed proof of intent.

    The transfer must more than cover the witness reward, otherwise the
    recipient would be credited nothing (or less).
    """
    if amount <= reward:
        raise ValueError(f"amount {amount} must exceed the witness reward {reward}")
    intent = TransferIntent(
        sender=sender_key.public_key,
        recipient=recipient_key.public_key,
        amount=amount,
        t0=t0,
        t1=t1,
    )
    alpha = sign(sender_key, encode_intent(intent))
    beta = sign(recipient_key, encode_intent(intent) + alpha)
    return ProofOfIntent(intent=intent, alpha=alpha, beta=beta)


def verify_poi(poi: ProofOfIntent) -> bool:
    """Check both signatures: alpha over the intent, beta over intent plus alpha."""
    message = encode_intent(poi.intent)
    return verify(poi.sender, message, poi.alpha) and verify(
        poi.recipient, message + poi.alpha, poi.beta
    )


def conflicts(a: ProofOfIntent, b: ProofOfIntent) -> bool:
    """Two distinct proofs from the same sender with overlapping (closed)
    validity windows conflict, regardless of destination or amount."""
    return (
        a.sender == b.sender
        and a.alpha != b.alpha
        and a.t0 <= b.t1
        and b.t0 <= a.t1
    )


def veto_deadline(a: ProofOfIntent, b: ProofOfIntent) -> int:
    """Veto-contest expiry: the later window end plus the longer window length."""
    if not conflicts(a, b):
        raise ValueError("veto deadline is only defined for conflicting proofs")
    return max(a.t1, b.t1) + max(a.t1 - a.t0, b.t1 - b.t0)


# --- the five ledger transactions -------------------------------------------


@dataclass(frozen=True)
class Claim:
    """Publication of a proof of intent by its recipient, whose
    counter-signature beta the proof already carries."""

    poi: ProofOfIntent

    kind = "claim"

    @property
    def poster(self) -> WalletId:
        return self.poi.recipient


@dataclass(frozen=True)
class Contest:
    """A contestant's registration for the witness contest; omega is the
    contestant's signature over the full proof and its contest ranking
    value."""

    poi: ProofOfIntent
    contestant: WalletId
    omega: bytes

    kind = "contest"

    @property
    def poster(self) -> WalletId:
        return self.contestant


@dataclass(frozen=True)
class Finalize:
    """Conclusion of a witness contest, referencing the proof by alpha.

    Unsigned: the outcome is fixed by chain state, so any wallet may post it.
    """

    alpha: bytes
    poster: WalletId

    kind = "finalize"


@dataclass(frozen=True)
class Veto:
    """Report of two conflicting proofs: alpha names the one already known to
    the target chain, conflicting_poi carries the other in full."""

    alpha: bytes
    conflicting_poi: ProofOfIntent
    vetoer: WalletId
    omega: bytes

    kind = "veto"

    @property
    def poster(self) -> WalletId:
        return self.vetoer


@dataclass(frozen=True)
class FinalizeVeto:
    """Conclusion of a veto contest for the unordered pair {alpha, alpha_prime};
    unsigned, like Finalize."""

    alpha: bytes
    alpha_prime: bytes
    poster: WalletId

    kind = "finalize_veto"


Transaction = Union[Claim, Contest, Finalize, Veto, FinalizeVeto]


def make_claim(poi: ProofOfIntent) -> Claim:
    return Claim(poi=poi)


def make_contest(contestant_key: KeyPair, poi: ProofOfIntent) -> Contest:
    omega = sign(contestant_key, encode_poi(poi))
    return Contest(poi=poi, contestant=contestant_key.public_key, omega=omega)


def make_finalize(poster_key: KeyPair, alpha: bytes) -> Finalize:
    return Finalize(alpha=alpha, poster=poster_key.public_key)


def make_veto(vetoer_key: KeyPair, alpha: bytes, conflicting_poi: ProofOfIntent) -> Veto:
    omega = sign(vetoer_key, encode_veto_payload(alpha, conflicting_poi.alpha))
    return Veto(
        alpha=alpha,
        conflicting_poi=conflicting_poi,
        vetoer=vetoer_key.public_key,
        omega=omega,
    )


def make_finalize_veto(poster_key: KeyPair, alpha: bytes, alpha_prime: bytes) -> FinalizeVeto:
    return FinalizeVeto(alpha=alpha, alpha_prime=alpha_prime, poster=poster_key.public_key)
