"""Per-chain ledger state machine: validates and applies the five transfer
transactions (claim, contest, finalize, veto, finalize-veto) to one chain's
storage.

A ChainState is owned by exactly one simulated chain; operations mutate it in
place and are atomic per transaction (they validate fully before touching
state). Rejections are raised as TxError subclasses carrying a stable ``code``
string so block producers can log machine-readable outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .crypto import Signature, contest_winner, verify
from .protocol import (
    Claim,
    Contest,
    Finalize,
    FinalizeVeto,
    ProofOfIntent,
    Transaction,
    Veto,
    WalletId,
    conflicts,
    encode_poi,
    encode_veto_payload,
    verify_poi,
    veto_deadline,
)

PENDING = "pending"
FINALIZED = "finalized"
VETOED = "vetoed"
OPEN = "open"


class TxError(Exception):
    """Base for transaction rejections; ``code`` is stable and machine-readable."""

    code = "tx-error"


class BadSignature(TxError):
    code = "bad-signature"


class InsufficientBalance(TxError):
    code = "insufficient-balance"


class InvalidAmount(TxError):
    code = "invalid-amount"


class ExpiredPoi(TxError):
    code = "expired-poi"


class ConflictingPoi(TxError):
    """The incoming proof conflicts with a pending proof already stored.

    Carries both proofs so an observer can escalate the conflict to a veto.
    """

    code = "conflicting-poi"

    def __init__(self, incoming: ProofOfIntent, stored: ProofOfIntent):
        super().__init__("proof conflicts with a pending proof from the same sender")
        self.incoming = incoming
        self.stored = stored


class UnknownPoi(TxError):
    code = "unknown-poi"


class PrematureFinalize(TxError):
    code = "premature-finalize"


class AlreadyConcluded(TxError):
    code = "already-concluded"


class VetoedPoi(TxError):
    code = "vetoed-poi"


class NotConflicting(TxError):
    code = "not-conflicting"


class UnknownVeto(TxError):
    code = "unknown-veto"


class PrematureFinalizeVeto(TxError):
    code = "premature-finalize-veto"


@dataclass
class PoiRecord:
    """A proof known to this chain plus its contest ledger.

    Contestants are keyed by wallet, which makes repeated (contestant, alpha)
    registrations idempotent; status only ever leaves ``pending``.
    """

    poi: ProofOfIntent
    contestants: dict[WalletId, Signature] = field(default_factory=dict)
    status: str = PENDING
    winner: Optional[WalletId] = None


@dataclass
class VetoRecord:
    """A veto contest for an unordered pair of conflicting proof ids."""

    alpha_pair: tuple[bytes, bytes]
    deadline: int
    contestants: dict[WalletId, Signature] = field(default_factory=dict)
    status: str = OPEN
    winner: Optional[WalletId] = None


def _pair_key(alpha: bytes, alpha_prime: bytes) -> tuple[bytes, bytes]:
    return (alpha, alpha_prime) if alpha <= alpha_prime else (alpha_prime, alpha)


class ChainState:
    """One blockchain's contract storage: balances, known proofs, veto records,
    and the burned-supply counter."""

    def __init__(self, chain_id: int, balances: dict[WalletId, int], reward: int = 1):
        if reward < 0:
            raise ValueError("reward must be non-negative")
        for wallet, amount in balances.items():
            if amount < 0:
                raise ValueError(f"negative initial balance for {wallet.hex()}")
        self.chain_id = chain_id
        self.balances: dict[WalletId, int] = dict(balances)
        self.reward = reward
        self.poi_records: dict[bytes, PoiRecord] = {}
        self.veto_records: dict[tuple[bytes, bytes], VetoRecord] = {}
        self.burned = 0
        self.initial_supply = sum(balances.values())
        # Bookkeeping for experiment-level balance resets after corrupted
        # transfers; zero in any run without corruption.
        self.resync_adjustment = 0
        self._pending_by_sender: dict[WalletId, set[bytes]] = {}

    # -- helpers ---------------------------------------------------------

    def balance(self, wallet: WalletId) -> int:
        return self.balances.get(wallet, 0)

    def pending_proofs(self, sender: WalletId) -> Iterable[PoiRecord]:
        for alpha in self._pending_by_sender.get(sender, ()):
            yield self.poi_records[alpha]

    def _insert_pending(self, poi: ProofOfIntent) -> PoiRecord:
        record = PoiRecord(poi=poi)
        self.poi_records[poi.alpha_id] = record
        self._pending_by_sender.setdefault(poi.sender, set()).add(poi.alpha_id)
        return record

    def _conclude(self, record: PoiRecord, status: str) -> None:
        record.status = status
        pending = self._pending_by_sender.get(record.poi.sender)
        if pending is not None:
            pending.discard(record.poi.alpha_id)

    def _check_new_poi(self, poi: ProofOfIntent, now: float) -> None:
        if not verify_poi(poi):
            raise BadSignature("alpha or beta does not verify")
        if poi.amount <= self.reward:
            raise InvalidAmount(
                f"amount {poi.amount} does not exceed the witness reward {self.reward}"
            )
        if self.balance(poi.sender) < poi.amount:
            raise InsufficientBalance(
                f"sender balance {self.balance(poi.sender)} below amount {poi.amount}"
            )
        if now >= poi.t1:
            raise ExpiredPoi(f"validity ended at {poi.t1}, now {now}")
        for record in self.pending_proofs(poi.sender):
            if conflicts(poi, record.poi):
                raise ConflictingPoi(incoming=poi, stored=record.poi)

    def _known_record(self, alpha: bytes) -> Optional[PoiRecord]:
        record = self.poi_records.get(alpha)
        if record is None:
            return None
        if record.status == VETOED:
            raise VetoedPoi("proof was cancelled by a veto")
        if record.status == FINALIZED:
            raise AlreadyConcluded("contest already finalized")
        return record

    # -- transaction application -----------------------------------------

    def apply_claim(self, tx: Claim, now: float) -> "ChainState":
        """Record a proof as pending; balances stay untouched until finalize."""
        record = self._known_record(tx.poi.alpha_id)
        if record is None:
            self._check_new_poi(tx.poi, now)
            self._insert_pending(tx.poi)
        # A claim for an already-pending proof is a harmless re-publication.
        return self

    def apply_contest(self, tx: Contest, now: float) -> "ChainState":
        """Register a contestant; also records the proof if this chain did not
        know it yet (contests are the cross-chain propagation mechanism)."""
        if not verify(tx.contestant, encode_poi(tx.poi), tx.omega):
            raise BadSignature("contest omega does not verify")
        record = self._known_record(tx.poi.alpha_id)
        if record is None:
            self._check_new_poi(tx.poi, now)
            record = self._insert_pending(tx.poi)
        else:
            if now >= tx.poi.t1:
                raise ExpiredPoi(f"validity ended at {tx.poi.t1}, now {now}")
            if self.balance(tx.poi.sender) < tx.poi.amount:
                raise InsufficientBalance("sender balance dropped below amount")
        record.contestants.setdefault(tx.contestant, tx.omega)
        return self

    def apply_finalize(self, tx: Finalize, now: float) -> "ChainState":
        """Conclude a contest: execute the transfer and pay the lowest-omega
        contestant; with no contestants the reward is burned. A finalize
        carries no signature: the outcome follows from chain state alone, so
        any wallet may post it."""
        record = self._known_record(tx.alpha)
        if record is None:
            raise UnknownPoi("no proof with this alpha on this chain")
        poi = record.poi
        if now <= poi.t1:
            raise PrematureFinalize(f"validity runs until {poi.t1}, now {now}")
        if self.balance(poi.sender) < poi.amount:
            # Can only happen to a sender gaming the one-pending-proof rule
            # with back-to-back windows; never to honest agents.
            raise InsufficientBalance("sender balance no longer covers the transfer")
        winner = contest_winner(record.contestants) if record.contestants else None
        self.balances[poi.sender] = self.balance(poi.sender) - poi.amount
        self.balances[poi.recipient] = self.balance(poi.recipient) + poi.amount - self.reward
        if winner is None:
            self.burned += self.reward
        else:
            self.balances[winner] = self.balance(winner) + self.reward
        self._conclude(record, FINALIZED)
        record.winner = winner
        return self

    def apply_veto(self, tx: Veto, now: float) -> "ChainState":
        """Punish a double-signing sender: burn their whole balance, cancel
        their still-valid pending proofs, and open (or join) the veto contest
        for the unordered pair of conflicting proofs."""
        record = self.poi_records.get(tx.alpha)
        if record is None:
            raise UnknownPoi("cited alpha is not known to this chain")
        known = record.poi
        other = tx.conflicting_poi
        if not verify_poi(other):
            raise BadSignature("conflicting proof's signatures do not verify")
        if not conflicts(known, other):
            raise NotConflicting("cited proofs do not conflict")
        if not verify(tx.vetoer, encode_veto_payload(tx.alpha, other.alpha_id), tx.omega):
            raise BadSignature("veto omega does not verify")

        pair = _pair_key(known.alpha_id, other.alpha_id)
        veto_record = self.veto_records.get(pair)
        if veto_record is not None and veto_record.status != OPEN:
            raise AlreadyConcluded("veto contest already finalized")

        sender = known.sender
        if other.alpha_id not in self.poi_records:
            # The veto itself teaches this chain the second proof.
            self._insert_pending(other)
        self.burned += self.balance(sender)
        self.balances[sender] = 0
        for rec in list(self.pending_proofs(sender)):
            if now < rec.poi.t1:
                self._conclude(rec, VETOED)
        if veto_record is None:
            veto_record = VetoRecord(alpha_pair=pair, deadline=veto_deadline(known, other))
            self.veto_records[pair] = veto_record
        veto_record.contestants.setdefault(tx.vetoer, tx.omega)
        return self

    def apply_finalize_veto(self, tx: FinalizeVeto, now: float) -> "ChainState":
        """Conclude a veto contest: pay the lowest-omega vetoer from the burned
        funds. No transfer is executed."""
        veto_record = self.veto_records.get(_pair_key(tx.alpha, tx.alpha_prime))
        if veto_record is None:
            raise UnknownVeto("no veto contest for this pair")
        if veto_record.status != OPEN:
            raise AlreadyConcluded("veto contest already finalized")
        if now <= veto_record.deadline:
            raise PrematureFinalizeVeto(
                f"veto contest runs until {veto_record.deadline}, now {now}"
            )
        winner = contest_winner(veto_record.contestants)
        self.balances[winner] = self.balance(winner) + self.reward
        self.burned -= self.reward
        veto_record.status = FINALIZED
        veto_record.winner = winner
        return self

    def apply(self, tx: Transaction, now: float) -> "ChainState":
        # Looked up on the instance at each call, so wrappers installed on
        # the class later still see every application.
        return getattr(self, "apply_" + tx.kind)(tx, now)

    # -- auditing and snapshots -------------------------------------------

    def audit(self) -> tuple[int, int, int]:
        """Supply report (total balance, burned, initial supply).

        Raises if token conservation is violated; resync_adjustment accounts
        for experiment-level balance resets and is zero otherwise.
        """
        total = sum(self.balances.values())
        expected = self.initial_supply + self.resync_adjustment
        if total + self.burned != expected:
            raise RuntimeError(
                f"supply violation on chain {self.chain_id}: "
                f"{total} + {self.burned} != {expected}"
            )
        return total, self.burned, self.initial_supply

    def override_balance(self, wallet: WalletId, value: int) -> None:
        """Force a wallet balance (corrupted-transfer resync); the delta is
        booked into resync_adjustment so audits stay exact."""
        if value < 0:
            raise ValueError("cannot force a negative balance")
        self.resync_adjustment += value - self.balance(wallet)
        self.balances[wallet] = value

    def snapshot(self) -> dict:
        """Canonical JSON-ready view: hex ids, sorted-key friendly, integer amounts."""

        def poi_dict(poi: ProofOfIntent) -> dict:
            return {
                "sender": poi.sender.hex(),
                "recipient": poi.recipient.hex(),
                "amount": poi.amount,
                "t0": poi.t0,
                "t1": poi.t1,
                "alpha": poi.alpha.hex(),
                "beta": poi.beta.hex(),
            }

        return {
            "chain_id": self.chain_id,
            "reward": self.reward,
            "burned": self.burned,
            "initial_supply": self.initial_supply,
            "resync_adjustment": self.resync_adjustment,
            "balances": {w.hex(): v for w, v in sorted(self.balances.items())},
            "poi_records": {
                alpha.hex(): {
                    "poi": poi_dict(rec.poi),
                    "status": rec.status,
                    "winner": rec.winner.hex() if rec.winner else None,
                    "contestants": {
                        w.hex(): rec.contestants[w].hex() for w in sorted(rec.contestants)
                    },
                }
                for alpha, rec in sorted(self.poi_records.items())
            },
            "veto_records": {
                f"{pair[0].hex()}:{pair[1].hex()}": {
                    "deadline": rec.deadline,
                    "status": rec.status,
                    "winner": rec.winner.hex() if rec.winner else None,
                    "contestants": {
                        w.hex(): rec.contestants[w].hex() for w in sorted(rec.contestants)
                    },
                }
                for pair, rec in sorted(self.veto_records.items())
            },
        }
