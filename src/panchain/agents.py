"""Behavioral models of protocol participants.

Clients initiate transfers at random intervals; observers watch every chain,
join witness contests when they can still win, and double as watchdogs that
veto conflicting proofs the moment they spot them; the ecosystem concludes
what they veto. Agents only ever read confirmed chain state (never mempools)
and are driven by the ecosystem's event loop; they hold no timers of their
own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .chain import SimChain
from .contract import PENDING
# ``sign`` and ``encode_poi`` are not called here, now that ``make_contest``
# makes the observer's contest; they stay importable from this module because
# perfbench's tracer patches each call site by name, and refuses a missing one.
from .crypto import KeyPair, sign  # noqa: F401
from .protocol import (
    Contest,
    ProofOfIntent,
    Veto,
    conflicts,
    encode_poi,  # noqa: F401
    make_contest,
    make_poi,
    make_veto,
)


@dataclass(frozen=True)
class TransferPlan:
    poi: ProofOfIntent
    claim_chain: int


class Client:
    """A wallet that keeps transferring random amounts to random peers.

    At most one outgoing transfer is in flight at any time (the protocol
    forbids overlapping outgoing proofs). The ecosystem's event chain
    guarantees it: a client's next look is queued only after a look that
    planned nothing, or once its transfer has concluded, its claim refused or
    its outcome judged.
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

    def think_delay(self) -> float:
        return self.rng.uniform(*self.think_time)

    def plan_transfer(
        self,
        now: float,
        chain_balances: Sequence[int],
        recipients: Sequence[KeyPair],
    ) -> Optional[TransferPlan]:
        """Pick chain, peer, and amount for a new transfer, or None when the
        balance cannot cover more than the witness reward (wait for funds)."""
        if not recipients:
            return None
        claim_chain = self.rng.randrange(len(chain_balances))
        balance = chain_balances[claim_chain]
        if balance <= self.reward:
            return None
        recipient_key = recipients[self.rng.randrange(len(recipients))]
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
        return TransferPlan(poi=poi, claim_chain=claim_chain)


@dataclass
class ObserverReaction:
    """What an observer decides upon first seeing a proof: contests, each for
    one chain, or vetoes, each for every chain."""

    contests: list[tuple[int, Contest]] = field(default_factory=list)
    vetoes: list[Veto] = field(default_factory=list)


class Observer:
    """Contest observer and conflict watchdog with its own proof memory.

    ``seen`` holds every proof this observer has ever seen. ``_by_sender``
    maps each sender to the latest window close (largest ``t1``) among its
    proofs and the list of those proofs, in the order they were seen. Only
    proofs from one sender can conflict, so a new proof is checked against
    its sender's list alone, and only if it opens no later than that close:
    a window opening after every earlier one has closed overlaps none of
    them. Memory is never pruned by time: a back-dated window can conflict
    with a proof long since finalized.
    """

    def __init__(self, name: str, key: KeyPair):
        self.name = name
        self.key = key
        self.seen: dict[bytes, ProofOfIntent] = {}
        self._by_sender: dict[bytes, tuple[int, list[ProofOfIntent]]] = {}

    def handle_new_poi(self, poi: ProofOfIntent, chains: Sequence[SimChain], now: float) -> ObserverReaction:
        """First sight of a proof: veto it if it conflicts with anything in
        memory, otherwise consider joining the witness contest."""
        reaction = ObserverReaction()
        if poi.alpha in self.seen:
            return reaction
        last_close, earlier = self._by_sender.get(poi.sender, (-1, []))
        conflicting = [p for p in earlier if conflicts(poi, p)] if poi.t0 <= last_close else []
        earlier.append(poi)
        self._by_sender[poi.sender] = (max(last_close, poi.t1), earlier)
        self.seen[poi.alpha] = poi
        if conflicting:
            reaction.vetoes = [self.make_vetoes(other, poi) for other in conflicting]
            return reaction
        reaction.contests = self.contest_submissions(poi, chains, now)
        return reaction

    def contest_submissions(
        self, poi: ProofOfIntent, chains: Sequence[SimChain], now: float
    ) -> list[tuple[int, Contest]]:
        """Submit a contest on every chain where this observer would lead:
        the proof is unknown there, or pending with no leader at or below this
        observer's ``(omega, wallet)``. An observer that has entered is such a
        leader or behind one, since its omega is deterministic."""
        if now >= poi.t1:
            return []
        contest = make_contest(self.key, poi)
        mine = (contest.omega, contest.contestant)
        submissions = []
        for chain in chains:
            record = chain.state.poi_records.get(poi.alpha)
            if record is None or (record.status == PENDING and (record.leader is None or mine < record.leader)):
                submissions.append((chain.chain_id, contest))
        return submissions

    def make_vetoes(self, a: ProofOfIntent, b: ProofOfIntent) -> Veto:
        """The one veto of a conflicting pair, for every chain: it carries
        both proofs, so any chain that knows either one applies it."""
        return make_veto(self.key, a, b)
