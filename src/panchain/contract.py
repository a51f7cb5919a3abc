"""Per-chain ledger state machine: validates and applies the five transfer
transactions (claim, contest, finalize, veto, finalize-veto) to one chain's
storage.

A ChainState is owned by exactly one simulated chain; operations mutate it in
place and are atomic per transaction (they validate fully before touching
state). Signatures are checked after every state check, so a transaction the
state refuses costs no verification. ``settle`` is the one rule that moves a
transfer's tokens, and ``resync`` the one that brings a corrupted transfer to
the winner most chains chose. A veto carries both conflicting proofs, so
every chain applies a valid one. Each proof and veto record keeps its contest
leader, the lowest (omega, wallet) pair, as contestants enter, so a finalize,
and an observer deciding whether it can still win, reads it without a scan.

Every refusal is one ``TxError`` whose ``code`` is a stable, machine-readable
string that block producers log: ``invalid-amount``, ``insufficient-balance``,
``expired-poi``, ``conflicting-poi``, ``bad-signature``, ``vetoed-poi``,
``already-concluded``, ``unknown-poi``, ``premature-finalize``,
``not-conflicting``, ``unknown-veto`` or ``premature-finalize-veto``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .crypto import verify
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
    veto_pair,
)

PENDING = "pending"
FINALIZED = "finalized"
VETOED = "vetoed"
OPEN = "open"


class TxError(Exception):
    """A refused transaction: ``TxError(code, reason)``. ``code`` is the
    stable, machine-readable rejection string; ``reason`` is for people."""

    @property
    def code(self) -> str:
        return self.args[0]


class _ContestLedger:
    """A record's witness contest: ``contestants`` maps each wallet to its
    omega, and ``leader`` keeps the lowest (omega, wallet) pair among them,
    ``crypto.contest_leader``'s rule, or None while there are none.
    Contestants join only through ``enter``, which keeps ``leader`` current."""

    leader: Optional[tuple[bytes, WalletId]] = None

    @property
    def winner(self) -> Optional[WalletId]:
        """The leader's wallet once the contest is finalized, else None."""
        return self.leader[1] if self.status == FINALIZED and self.leader else None

    def enter(self, wallet: WalletId, omega: bytes) -> None:
        """Register a contestant; a wallet already entered keeps its omega."""
        if wallet not in self.contestants:
            self.contestants[wallet] = omega
            if self.leader is None or (omega, wallet) < self.leader:
                self.leader = (omega, wallet)


@dataclass
class PoiRecord(_ContestLedger):
    """A proof known to this chain plus its contest ledger.

    Contestants are keyed by wallet, which makes repeated (contestant, alpha)
    registrations idempotent; status only ever leaves ``pending``.
    """

    poi: ProofOfIntent
    contestants: dict[WalletId, bytes] = field(default_factory=dict, init=False)
    status: str = PENDING


@dataclass
class VetoRecord(_ContestLedger):
    """A veto contest for an unordered pair of conflicting proof ids; the
    pair is the record's key in ``ChainState.veto_records``."""

    deadline: int
    contestants: dict[WalletId, bytes] = field(default_factory=dict, init=False)
    status: str = OPEN
    # What the vetoes for this pair actually burned; the winner's reward is
    # paid out of this and never out of other burns.
    escrow: int = 0


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
        self._pending_by_sender: dict[WalletId, dict[bytes, PoiRecord]] = {}

    # -- helpers ---------------------------------------------------------

    def balance(self, wallet: WalletId) -> int:
        return self.balances.get(wallet, 0)

    def pending_proofs(self, sender: WalletId) -> Iterable[PoiRecord]:
        return self._pending_by_sender.get(sender, {}).values()

    def _insert_pending(self, poi: ProofOfIntent) -> PoiRecord:
        record = PoiRecord(poi=poi)
        self.poi_records[poi.alpha] = record
        self._pending_by_sender.setdefault(poi.sender, {})[poi.alpha] = record
        return record

    def _conclude(self, record: PoiRecord, status: str) -> None:
        record.status = status
        self._pending_by_sender.get(record.poi.sender, {}).pop(record.poi.alpha, None)

    def _check_new_poi(self, poi: ProofOfIntent, now: float) -> None:
        if poi.amount <= self.reward:
            raise TxError(
                "invalid-amount", f"amount {poi.amount} does not exceed the witness reward {self.reward}"
            )
        if self.balance(poi.sender) < poi.amount:
            raise TxError(
                "insufficient-balance", f"sender balance {self.balance(poi.sender)} below amount {poi.amount}"
            )
        if now >= poi.t1:
            raise TxError("expired-poi", f"validity ended at {poi.t1}, now {now}")
        for record in self.pending_proofs(poi.sender):
            if conflicts(poi, record.poi):
                raise TxError("conflicting-poi", "proof conflicts with a pending proof from the same sender")
        if not verify_poi(poi):
            raise TxError("bad-signature", "alpha or beta does not verify")

    def _known_record(self, alpha: bytes) -> Optional[PoiRecord]:
        record = self.poi_records.get(alpha)
        if record is None:
            return None
        if record.status == VETOED:
            raise TxError("vetoed-poi", "proof was cancelled by a veto")
        if record.status == FINALIZED:
            raise TxError("already-concluded", "contest already finalized")
        return record

    # -- transaction application -----------------------------------------

    def apply_claim(self, tx: Claim, now: float) -> None:
        """Record a proof as pending; balances stay untouched until finalize."""
        # A claim for an already-pending proof is a harmless re-publication.
        if self._known_record(tx.poi.alpha) is None:
            self._check_new_poi(tx.poi, now)
            self._insert_pending(tx.poi)

    def apply_contest(self, tx: Contest, now: float) -> None:
        """Register a contestant; also records the proof if this chain did not
        know it yet (contests are the cross-chain propagation mechanism)."""
        record = self._known_record(tx.poi.alpha)
        if record is None:
            self._check_new_poi(tx.poi, now)
        else:
            if now >= tx.poi.t1:
                raise TxError("expired-poi", f"validity ended at {tx.poi.t1}, now {now}")
            if self.balance(tx.poi.sender) < tx.poi.amount:
                raise TxError("insufficient-balance", "sender balance dropped below amount")
        if not verify(tx.contestant, encode_poi(tx.poi), tx.omega):
            raise TxError("bad-signature", "contest omega does not verify")
        if record is None:
            record = self._insert_pending(tx.poi)
        record.enter(tx.contestant, tx.omega)

    def apply_finalize(self, tx: Finalize, now: float) -> None:
        """Conclude a contest: execute the transfer and pay the lowest-omega
        contestant; with no contestants the reward is burned. A finalize
        carries no signature: the outcome follows from chain state alone, so
        any wallet may post it."""
        record = self._known_record(tx.alpha)
        if record is None:
            raise TxError("unknown-poi", "no proof with this alpha on this chain")
        poi = record.poi
        if now <= poi.t1:
            raise TxError("premature-finalize", f"validity runs until {poi.t1}, now {now}")
        if self.balance(poi.sender) < poi.amount:
            # Can only happen to a sender gaming the one-pending-proof rule
            # with back-to-back windows; never to honest agents.
            raise TxError("insufficient-balance", "sender balance no longer covers the transfer")
        winner = record.leader[1] if record.leader else None
        self.settle(poi, winner)
        self._conclude(record, FINALIZED)

    def apply_veto(self, tx: Veto, now: float) -> None:
        """Punish a double-signing sender: burn their whole balance, cancel
        their still-valid pending proofs, and open (or join) the veto contest
        for the unordered pair of conflicting proofs. The veto carries both
        proofs, verified here, so the chain learns whichever it lacks, both
        where it knew neither."""
        pois = (tx.poi, tx.conflicting_poi)
        if not conflicts(*pois):
            raise TxError("not-conflicting", "carried proofs do not conflict")
        pair = veto_pair(tx.poi.alpha, tx.conflicting_poi.alpha)
        veto_record = self.veto_records.get(pair)
        if veto_record is not None and veto_record.status != OPEN:
            raise TxError("already-concluded", "veto contest already finalized")
        if not all(map(verify_poi, pois)):
            raise TxError("bad-signature", "a carried proof's signatures do not verify")
        if not verify(tx.vetoer, encode_veto_payload(*pair), tx.omega):
            raise TxError("bad-signature", "veto omega does not verify")

        sender = tx.poi.sender
        for poi in pois:
            if poi.alpha not in self.poi_records:
                self._insert_pending(poi)
        if veto_record is None:
            veto_record = VetoRecord(deadline=veto_deadline(*pois))
            self.veto_records[pair] = veto_record
        burn = self.balance(sender)
        self.burned += burn
        veto_record.escrow += burn
        self.balances[sender] = 0
        for rec in list(self.pending_proofs(sender)):
            if now < rec.poi.t1:
                self._conclude(rec, VETOED)
        veto_record.enter(tx.vetoer, tx.omega)

    def apply_finalize_veto(self, tx: FinalizeVeto, now: float) -> None:
        """Conclude a veto contest: pay the lowest-omega vetoer the reward out
        of what this pair's vetoes burned, or all of it if that is less. No
        transfer is executed."""
        veto_record = self.veto_records.get(veto_pair(tx.alpha, tx.alpha_prime))
        if veto_record is None:
            raise TxError("unknown-veto", "no veto contest for this pair")
        if veto_record.status != OPEN:
            raise TxError("already-concluded", "veto contest already finalized")
        if now <= veto_record.deadline:
            raise TxError(
                "premature-finalize-veto", f"veto contest runs until {veto_record.deadline}, now {now}"
            )
        winner = veto_record.leader[1]
        payout = min(self.reward, veto_record.escrow)
        self.balances[winner] = self.balance(winner) + payout
        self.burned -= payout
        veto_record.status = FINALIZED

    def settle(self, poi: ProofOfIntent, winner: Optional[WalletId]) -> None:
        """Move a concluded transfer's tokens, the one rule that does: the
        sender loses ``amount``, the recipient gains ``amount - reward``, and
        ``winner`` gains ``reward``, or ``burned`` does when there is none.
        Raises, changing nothing, rather than leave a balance or ``burned``
        negative."""
        if not self._move(self._settlement(poi, winner)):
            raise RuntimeError(f"settling {poi.alpha.hex()[:12]} on chain {self.chain_id} "
                               "would leave a balance or burned negative")

    def resync(self, poi: ProofOfIntent, winner: Optional[WalletId]) -> bool:
        """Bring a corrupted transfer to ``winner``, the one most executing
        chains chose, by this chain's own record of it: one this chain did not
        finalize is settled; one it finalized with another winner moves only
        the reward, to ``winner``, since the recipient may have spent what it
        received. The record keeps what this chain concluded. Returns whether
        anything moved: nothing does where it was already so, or where moving
        would leave a balance or ``burned`` negative."""
        record = self.poi_records.get(poi.alpha)
        if record is None or record.status != FINALIZED:
            return self._move(self._settlement(poi, winner))
        return record.winner != winner and self._move({record.winner: -self.reward, winner: self.reward})

    def _settlement(self, poi: ProofOfIntent, winner: Optional[WalletId]) -> dict[Optional[WalletId], int]:
        moves = {poi.sender: -poi.amount}
        moves[poi.recipient] = moves.get(poi.recipient, 0) + poi.amount - self.reward
        moves[winner] = moves.get(winner, 0) + self.reward  # the key None is ``burned``
        return moves

    def _move(self, moves: dict[Optional[WalletId], int]) -> bool:
        """Apply the moves and return True, or change nothing and return
        False where one would leave a balance or ``burned`` negative."""
        burned = self.burned + moves.pop(None, 0)
        settled = {w: self.balances.get(w, 0) + d for w, d in moves.items()}
        if burned < 0 or min(settled.values()) < 0:
            return False
        self.balances.update(settled)
        self.burned = burned
        return True

    def apply(self, tx: Transaction, now: float) -> None:
        # Looked up on the instance at each call, so wrappers installed on
        # the class later still see every application.
        getattr(self, "apply_" + tx.kind)(tx, now)

    # -- auditing and snapshots -------------------------------------------

    def audit(self) -> tuple[int, int, int]:
        """Supply report (total balance, burned, initial supply).

        Raises unless tokens are exactly conserved (balances plus ``burned``
        equal the initial supply) and no balance and not ``burned`` is
        negative: a negative value mints what the others hold beyond supply.
        """
        total = sum(self.balances.values())
        if total + self.burned != self.initial_supply:
            raise RuntimeError(
                f"supply violation on chain {self.chain_id}: "
                f"{total} + {self.burned} != {self.initial_supply}"
            )
        lowest = min(self.balances.values(), default=0)
        if lowest < 0 or self.burned < 0:
            raise RuntimeError(
                f"minted supply on chain {self.chain_id}: lowest balance {lowest}, burned {self.burned}"
            )
        return total, self.burned, self.initial_supply

    def snapshot(self, memo: Optional[dict] = None) -> dict:
        """Canonical JSON-ready view: hex ids, sorted-key friendly, integer
        amounts. Snapshots taken with one ``memo`` share each hex string,
        veto key and proof's ``poi`` dict, made once per value, and each
        proof or veto record's dict with the first equal record snapshotted
        before: the same proof or veto pair with the same status and
        contestants. So one memo serves the snapshots of one moment, as
        ``build_report`` takes them: no state changes between them. Without
        a memo the view is equal, only not shared."""
        memo = {} if memo is None else memo

        def shared(key, make):
            value = memo.get(key)
            if value is None:
                value = memo[key] = make(key)
            return value

        def hexed(value: bytes) -> str:
            # ``shared`` written out: this runs for every id in the snapshot.
            text = memo.get(value)
            if text is None:
                text = memo[value] = value.hex()
            return text

        def poi_dict(poi: ProofOfIntent) -> dict:
            return {
                "sender": hexed(poi.sender),
                "recipient": hexed(poi.recipient),
                "amount": poi.amount,
                "t0": poi.t0,
                "t1": poi.t1,
                "alpha": hexed(poi.alpha),
                "beta": hexed(poi.beta),
            }

        def pair_text(pair: tuple[bytes, bytes]) -> str:
            return f"{hexed(pair[0])}:{hexed(pair[1])}"

        def contestants(record: PoiRecord | VetoRecord) -> dict:
            return {hexed(w): hexed(record.contestants[w]) for w in sorted(record.contestants)}

        def record_dict(key: tuple, rec: PoiRecord | VetoRecord, field: str, value) -> dict:
            # ``key`` names the proof or veto pair, which fixes the ``field``
            # value. Records under it share a dict while their status and
            # contestants, which fix the winner, are equal.
            made = memo.setdefault(key, [])
            for other, view in made:
                if other.status == rec.status and other.contestants == rec.contestants:
                    return view
            view = {
                field: value,
                "status": rec.status,
                "winner": hexed(rec.winner) if rec.winner else None,
                "contestants": contestants(rec),
            }
            made.append((rec, view))
            return view

        return {
            "chain_id": self.chain_id,
            "reward": self.reward,
            "burned": self.burned,
            "initial_supply": self.initial_supply,
            # Always 0 since a resync only settles transfers; kept so every
            # snapshot (the goldens too) keeps its shape for existing readers.
            "resync_adjustment": 0,
            "balances": {hexed(w): v for w, v in sorted(self.balances.items())},
            "poi_records": {
                hexed(alpha): record_dict(("poi", alpha), rec, "poi", shared(rec.poi, poi_dict))
                for alpha, rec in sorted(self.poi_records.items())
            },
            "veto_records": {
                shared(pair, pair_text): record_dict(("veto", pair), rec, "deadline", rec.deadline)
                for pair, rec in sorted(self.veto_records.items())
            },
        }
