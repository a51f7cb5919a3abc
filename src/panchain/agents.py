"""Behavioral models of protocol participants.

Clients initiate transfers at random intervals; observers watch every chain,
join witness contests when they can still win, and double as watchdogs that
veto conflicting proofs the moment they spot them. Agents only ever read
confirmed chain state (never mempools) and are driven by the ecosystem's
event loop; they hold no timers of their own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .chain import SimChain
from .contract import PENDING
from .crypto import KeyPair, Signature, contest_winner, sign
from .protocol import (
    Contest,
    ProofOfIntent,
    Veto,
    conflicts,
    encode_poi,
    make_poi,
    make_veto,
    veto_deadline,
)


@dataclass(frozen=True)
class TransferPlan:
    poi: ProofOfIntent
    claim_chain: int
    recipient_name: str


class Client:
    """A wallet that keeps transferring random amounts to random peers.

    At most one outgoing transfer is in flight at any time (the protocol
    forbids overlapping outgoing proofs); the ecosystem flips ``busy`` when a
    transfer concludes and schedules the next attempt a think-time later.
    """

    # The signed window is dated slightly ahead of signing time so the lag
    # until the claim lands in a block does not eat into the validity period.
    WINDOW_LEAD = 2

    def __init__(
        self,
        name: str,
        key: KeyPair,
        rng: random.Random,
        reward: int,
        validity_length: int,
        think_time: tuple[float, float],
    ):
        self.name = name
        self.key = key
        self.rng = rng
        self.reward = reward
        self.validity_length = validity_length
        self.think_time = think_time
        self.busy = False

    def think_delay(self) -> float:
        return self.rng.uniform(*self.think_time)

    def plan_transfer(
        self,
        now: float,
        chain_balances: Sequence[int],
        recipients: Sequence[tuple[str, KeyPair]],
    ) -> Optional[TransferPlan]:
        """Pick chain, peer, and amount for a new transfer, or None when the
        balance cannot cover more than the witness reward (wait for funds)."""
        if self.busy or not recipients:
            return None
        claim_chain = self.rng.randrange(len(chain_balances))
        balance = chain_balances[claim_chain]
        if balance <= self.reward:
            return None
        recipient_name, recipient_key = recipients[self.rng.randrange(len(recipients))]
        amount = self.rng.randint(self.reward + 1, balance)
        t0 = int(now) + self.WINDOW_LEAD
        poi = make_poi(
            self.key,
            recipient_key,
            amount=amount,
            t0=t0,
            t1=t0 + self.validity_length,
            reward=self.reward,
        )
        return TransferPlan(poi=poi, claim_chain=claim_chain, recipient_name=recipient_name)


@dataclass
class ObserverReaction:
    """What an observer decides to do upon first seeing a proof."""

    contests: list[tuple[int, Contest]] = field(default_factory=list)
    vetoes: list[tuple[int, Veto]] = field(default_factory=list)
    # (alpha, alpha_prime, deadline) per newly detected conflict, so the
    # ecosystem can schedule the finalize-veto check.
    conflicts_found: list[tuple[bytes, bytes, int]] = field(default_factory=list)


class Observer:
    """Contest observer and conflict watchdog with its own proof memory."""

    def __init__(self, name: str, key: KeyPair, rng: random.Random, post_iff_winnable: bool = True):
        self.name = name
        self.key = key
        self.rng = rng
        self.post_iff_winnable = post_iff_winnable
        self.seen: dict[bytes, ProofOfIntent] = {}
        self._omega_cache: dict[bytes, Signature] = {}

    def omega_for(self, poi: ProofOfIntent) -> Signature:
        omega = self._omega_cache.get(poi.alpha_id)
        if omega is None:
            omega = sign(self.key, encode_poi(poi))
            self._omega_cache[poi.alpha_id] = omega
        return omega

    def handle_new_poi(self, poi: ProofOfIntent, chains: Sequence[SimChain], now: float) -> ObserverReaction:
        """First sight of a proof: veto it if it conflicts with anything in
        memory, otherwise consider joining the witness contest."""
        reaction = ObserverReaction()
        if poi.alpha_id in self.seen:
            return reaction
        conflicting = [p for p in self.seen.values() if conflicts(poi, p)]
        self.seen[poi.alpha_id] = poi
        if conflicting:
            for other in conflicting:
                reaction.vetoes.extend(self.make_vetoes(other, poi, chains))
                reaction.conflicts_found.append(
                    (other.alpha_id, poi.alpha_id, veto_deadline(other, poi))
                )
            return reaction
        reaction.contests = self.contest_submissions(poi, chains, now)
        return reaction

    def contest_submissions(
        self, poi: ProofOfIntent, chains: Sequence[SimChain], now: float
    ) -> list[tuple[int, Contest]]:
        """Submit a contest everywhere this observer can still win (or
        everywhere at all, when the winnable filter is off)."""
        if now >= poi.t1:
            return []
        omega = self.omega_for(poi)
        me = self.key.public_key
        submissions = []
        for chain in chains:
            record = chain.state.poi_records.get(poi.alpha_id)
            if record is not None:
                if record.status != PENDING:
                    continue
                if me in record.contestants:
                    continue
                if self.post_iff_winnable and contest_winner({**record.contestants, me: omega}) != me:
                    continue
            submissions.append((chain.chain_id, Contest(poi=poi, contestant=me, omega=omega)))
        return submissions

    def make_vetoes(
        self, a: ProofOfIntent, b: ProofOfIntent, chains: Sequence[SimChain]
    ) -> list[tuple[int, Veto]]:
        """Veto a conflicting pair on every chain, in both orientations.

        A chain accepts a veto only if the cited alpha is already known to it,
        and which of the two proofs a given chain learned first cannot be
        known here, so both orderings are posted; the contract's unordered
        veto-record keying collapses them into one contest.
        """
        submissions = []
        for chain in chains:
            submissions.append((chain.chain_id, make_veto(self.key, a.alpha_id, b)))
            submissions.append((chain.chain_id, make_veto(self.key, b.alpha_id, a)))
        return submissions
