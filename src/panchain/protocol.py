"""Transfer-protocol value types: proofs of intent, the five ledger transactions,
conflict detection between intents, and veto-contest timing and pair order.

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


def encode_intent(sender: WalletId, recipient: WalletId, amount: int, t0: int, t1: int) -> bytes:
    """The canonical bytes of a transfer intent, which alpha signs: ``amount``
    token units from sender to recipient, valid during the closed window
    [t0, t1] (integer seconds). A non-int or bool amount or time is a
    TypeError; one outside u64, or a window with t0 >= t1, a ValueError."""
    numbers = (_u64(amount, "amount"), _u64(t0, "t0"), _u64(t1, "t1"))
    if t0 >= t1:
        raise ValueError(f"invalid validity window: t0={t0} >= t1={t1}")
    return b"".join((b"INT", _lp(sender), _lp(recipient), *map(_lp, numbers)))


@dataclass(frozen=True)
class ProofOfIntent:
    """A transfer intent signed by the sender (alpha) and counter-signed by
    the recipient (beta, over the intent plus alpha). alpha uniquely
    identifies the proof throughout the ecosystem.

    Building one checks its fields through ``encode_intent`` and keeps the
    intent bytes as ``_intent`` and the proof's own bytes as ``_encoded``.
    Neither is a dataclass field, so equality and hashing ignore them; both
    stay valid because the fields never change.
    """

    sender: WalletId
    recipient: WalletId
    amount: int
    t0: int
    t1: int
    alpha: bytes
    beta: bytes

    def __post_init__(self) -> None:
        intent = encode_intent(self.sender, self.recipient, self.amount, self.t0, self.t1)
        self.__dict__["_intent"] = intent
        self.__dict__["_encoded"] = b"POI" + intent[3:] + _lp(self.alpha) + _lp(self.beta)


def encode_poi(poi: ProofOfIntent) -> bytes:
    """The proof's canonical bytes, which a contest's omega signs; made once,
    when the proof is built."""
    return poi._encoded


def veto_pair(alpha: bytes, alpha_prime: bytes) -> tuple[bytes, bytes]:
    """The unordered pair of conflicting proof ids, lower id first: the one
    order of a veto pair, in its payload and as its record's key."""
    return (alpha, alpha_prime) if alpha <= alpha_prime else (alpha_prime, alpha)


def encode_veto_payload(alpha: bytes, conflicting_alpha: bytes) -> bytes:
    """Payload a vetoer signs: the unordered pair of conflicting proof ids.

    Signing the pair canonically (``veto_pair``) rather than the oriented report
    means a vetoer's contest value is identical no matter which of the two
    proofs a given chain learned first; otherwise chains that saw the proofs
    in opposite orders would rank the same vetoer differently and pick
    different veto winners. The full conflicting proof still travels in the
    transaction body for validation; the double-signing itself is proven by
    the two sender signatures, not by the vetoer's.
    """
    lo, hi = veto_pair(alpha, conflicting_alpha)
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
    sender, recipient = sender_key.public_key, recipient_key.public_key
    message = encode_intent(sender, recipient, amount, t0, t1)
    alpha = sign(sender_key, message)
    beta = sign(recipient_key, message + alpha)
    return ProofOfIntent(sender, recipient, amount, t0, t1, alpha, beta)


def verify_poi(poi: ProofOfIntent) -> bool:
    """Check both signatures: alpha over the intent, beta over intent plus alpha."""
    message = poi._intent
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
