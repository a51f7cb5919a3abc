"""Discrete-event ecosystem: all chains and agents under one deterministic
clock, plus corrupted-transfer detection and resync, which finalizes a
corrupted transfer on every chain. Each chain's supply is audited after every
busy block and every resync that changes it. The run's report is built by
``report.build_report`` once the run has ended. A proof is exposed, each
observer's look at it scheduled, when its first claim lands.

Events execute in (fire_at, sequence) order; the sequence counter is assigned
at scheduling time, so identical (config, seed) pairs replay identically.
Block events wait in their own queue, at most one per chain, beside the queue
of every other event; both draw from the one sequence counter, and the loop
takes whichever head is earlier, so the merged order is that of a single
queue. A chain's entry stays queued while its block is made, and the loop
requeues it afterwards in one place. A block on a chain with an empty mempool
is only its timestamp, so the loop stamps it without a handler and builds no
``Block``.
After the client-initiation window (``duration``) closes, the loop keeps
producing blocks until every proof and veto contest is past its deadline plus
two block intervals, then reports. A transfer's outcome is judged only once
every chain has included its finalize, accepted or rejected; until then the
check is retried one block interval later.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from dataclasses import dataclass, field
from typing import Optional

from .agents import Client, Observer
from .chain import SimChain
from .configs import EcosystemConfig, ScriptedAction
from .contract import FINALIZED, OPEN, VETOED, ChainState
from .crypto import KeyPair, generate_keypair
from .protocol import (
    Claim,
    Finalize,
    ProofOfIntent,
    make_claim,
    make_finalize,
    make_finalize_veto,
    make_poi,
    veto_pair,
)
from .report import RunReport, build_report, wallet_name


def wallet_keypair(seed: int, name: str) -> KeyPair:
    """Deterministic wallet derivation shared by runs and tests."""
    return generate_keypair(hashlib.sha256(f"{seed}/wallet/{name}".encode()).digest())


@dataclass
class _Transfer:
    """Lifecycle tracker for one attempted transfer (one proof of intent)."""

    poi: ProofOfIntent
    claim_chain: int
    client_driven: bool
    claim_ok: Optional[bool] = None
    # Finalize outcomes seen so far, one per chain once all have landed.
    finalize_results: int = 0
    executed: dict[int, Optional[bytes]] = field(default_factory=dict)
    contest_counts: dict[int, int] = field(default_factory=dict)
    vetoed_chains: int = 0
    corrupted: bool = False

    @property
    def winner(self) -> Optional[bytes]:
        """The winner most executing chains chose, the first chain's on a tie;
        None when no chain executed the transfer or no contestant won it."""
        winners = list(self.executed.values())
        return max(winners, key=winners.count, default=None)


class Ecosystem:
    def __init__(self, config: EcosystemConfig):
        self.config = config
        seed = config.seed
        self.keys: dict[str, KeyPair] = {
            w.name: wallet_keypair(seed, w.name) for w in config.wallets
        }
        self.names: dict[bytes, str] = {kp.public_key: n for n, kp in self.keys.items()}
        balances = {self.keys[w.name].public_key: w.balance for w in config.wallets}
        self.chains: list[SimChain] = [
            SimChain(
                i,
                ChainState(i, dict(balances), reward=config.reward),
                block_interval=config.block_interval,
                max_txs_per_block=config.max_txs_per_block,
                jitter=config.jitter,
                # A chain without jitter never draws.
                rng=random.Random(f"{seed}/chain/{i}") if config.jitter else None,
            )
            for i in range(config.chains)
        ]
        self.clients: dict[str, Client] = {
            name: Client(
                name,
                self.keys[name],
                random.Random(f"{seed}/client/{name}"),
                reward=config.reward,
                validity_length=config.validity_length,
                think_time=config.think_time,
            )
            for name in config.clients
        }
        # Each client's recipients: every other client's key, in config order,
        # since a transfer's recipient is drawn by index into this list.
        self._recipients: dict[str, list[KeyPair]] = {
            name: [self.keys[peer] for peer in self.clients if peer != name]
            for name in self.clients
        }
        self.observers: dict[str, Observer] = {
            name: Observer(name, self.keys[name], post_iff_winnable=config.post_iff_winnable)
            for name in config.observers
        }
        # Each observer's uniform observation delays; staggered observation draws none.
        self._delay_rngs: dict[str, random.Random] = {
            name: random.Random(f"{seed}/observer/{name}") for name in config.observers
        } if config.observation.mode == "uniform" else {}
        self._heap: list[tuple[float, int, tuple]] = []
        # (fire_at, seq, chain_id) of each chain's next block, if within the horizon.
        self._blocks: list[tuple[float, int, int]] = []
        self._seq = 0
        self._now = 0.0
        self._horizon = float(config.duration)
        self._transfers: dict[bytes, _Transfer] = {}
        # The alphas whose proofs observers have been scheduled to look at.
        self._exposed: set[bytes] = set()
        self._resync_events: list[dict] = []

    # -- scheduling ---------------------------------------------------------

    def _schedule(self, fire_at: float, payload: tuple) -> None:
        """Schedule a non-block event and keep chains producing blocks until
        two (jittered) block intervals and one second past it, long enough to
        include whatever it may submit. Every submission happens inside such
        an event, so this is the one place the horizon grows."""
        if fire_at < self._now:
            raise RuntimeError(f"{payload[0]} event scheduled at {fire_at}, before now ({self._now})")
        heapq.heappush(self._heap, (fire_at, self._seq, payload))
        self._seq += 1
        end = fire_at + 2 * self.config.block_interval * (1 + self.config.jitter) + 1
        if end > self._horizon:
            self._horizon = end
            self._ensure_blocks()

    def _ensure_blocks(self) -> None:
        """Queue the next block, if within the horizon, of every chain without
        an entry. Needed only when the horizon extends: a chain without one had
        its next block past the horizon when it was last requeued."""
        queued = {entry[2] for entry in self._blocks}
        for chain in self.chains:
            if chain.chain_id not in queued and chain.next_block_time <= self._horizon:
                heapq.heappush(self._blocks, (chain.next_block_time, self._seq, chain.chain_id))
                self._seq += 1

    def _handle_submit(self, chain_id: int, tx) -> None:
        self.chains[chain_id].submit(tx, self._now)

    # -- run loop -----------------------------------------------------------

    def run(self) -> RunReport:
        for name, client in self.clients.items():
            first = client.rng.uniform(0, self.config.think_time[1])
            if first <= self.config.duration:
                self._schedule(first, ("client", name))
        for a_idx, action in enumerate(self.config.script):
            for l_idx, leg in enumerate(action.legs):
                self._schedule(leg.at, ("leg", a_idx, l_idx))
        self._ensure_blocks()

        heap, blocks, chains = self._heap, self._blocks, self.chains
        while heap or blocks:
            if blocks and (not heap or blocks[0] < heap[0]):
                # The chain's entry stays on top until it is requeued: whatever
                # the block queues meanwhile fires later or has a larger seq.
                fire_at, _, chain_id = blocks[0]
                self._now = fire_at
                chain = chains[chain_id]
                if chain.mempool:
                    self._handle_block(chain)
                    self._audit(chain)
                else:  # idle chain: its block is only its timestamp
                    chain.produce_empty_block(fire_at)
                if chain.next_block_time <= self._horizon:
                    heapq.heapreplace(blocks, (chain.next_block_time, self._seq, chain_id))
                    self._seq += 1
                else:
                    heapq.heappop(blocks)
            else:
                fire_at, _, payload = heapq.heappop(heap)
                self._now = fire_at
                getattr(self, "_handle_" + payload[0])(*payload[1:])

        # Busy blocks and resyncs, the only state changes, were each audited.
        return build_report(
            self.config, self.chains, self._transfers.values(), self._resync_events, self.names
        )

    def _audit(self, chain: SimChain) -> None:
        try:
            chain.state.audit()
        except RuntimeError as err:
            raise RuntimeError(f"{err} (at t={self._now})") from err

    # -- handlers -----------------------------------------------------------

    def _handle_block(self, chain: SimChain) -> None:
        """Produce a block that drains transactions and act on its claims and
        finalizes; the run loop requeues the chain. Contests and vetoes carry
        only proofs a claim already exposed, so they need no handling here."""
        block = chain.produce_block(self._now)
        for tx, error in zip(block.transactions, block.errors):
            if isinstance(tx, Claim):
                self._claim_landed(tx.poi, error is None)
            elif isinstance(tx, Finalize):
                self._transfers[tx.alpha].finalize_results += 1

    def _claim_landed(self, poi: ProofOfIntent, ok: bool) -> None:
        """A claim has landed, accepted or not: its transfer's first landed
        claim schedules the finalizes and the detect check, or frees the
        client, and then the proof's first landing anywhere exposes it."""
        tracker = self._transfers[poi.alpha]
        if tracker.claim_ok is None:
            tracker.claim_ok = ok
            interval = self.config.block_interval
            if ok:
                recipient_key = self.keys[self.names[poi.recipient]]
                finalize = make_finalize(recipient_key, poi.alpha)
                for chain in self.chains:
                    self._schedule(poi.t1 + interval, ("submit", chain.chain_id, finalize))
                detect_at = poi.t1 + 2 * interval * (1 + self.config.jitter) + 1
                self._schedule(detect_at, ("detect", poi.alpha))
            else:
                self._finish_transfer(tracker)
        # Two scripted legs that sign the same proof share one alpha.
        if poi.alpha in self._exposed:
            return
        self._exposed.add(poi.alpha)
        policy = self.config.observation
        names = list(self.observers)
        if policy.mode == "staggered":
            random.Random(f"{self.config.seed}/stagger/{poi.alpha.hex()}").shuffle(names)
            delays = [(idx + 1) * policy.spacing for idx in range(len(names))]
        else:
            delays = [self._delay_rngs[name].uniform(policy.low, policy.high) for name in names]
        for name, delay in zip(names, delays):
            self._schedule(self._now + delay, ("observe", name, poi.alpha))

    def _finish_transfer(self, tracker: _Transfer) -> None:
        """Free the initiating client and queue its next attempt.

        The next intent must not overlap the window the client already signed,
        even if that claim was rejected: the signature exists and is on-chain
        data, so an overlapping successor would be a vetoable double-sign.
        """
        if not tracker.client_driven:
            return
        client = self.clients[self.names[tracker.poi.sender]]
        next_at = max(self._now + client.think_delay(), tracker.poi.t1 + 1.0)
        if next_at <= self.config.duration:
            self._schedule(next_at, ("client", client.name))

    def _handle_client(self, name: str) -> None:
        client = self.clients[name]
        chain_balances = [
            chain.state.balance(client.key.public_key) for chain in self.chains
        ]
        plan = client.plan_transfer(self._now, chain_balances, self._recipients[name])
        if plan is None:
            next_at = self._now + client.think_delay()
            if next_at <= self.config.duration:
                self._schedule(next_at, ("client", name))
            return
        self._register_transfer(plan.poi, plan.claim_chain, client_driven=True)

    def _handle_leg(self, action_idx: int, leg_idx: int) -> None:
        action: ScriptedAction = self.config.script[action_idx]
        leg = action.legs[leg_idx]
        # A double spend is just legs whose windows overlap.
        poi = make_poi(
            self.keys[action.sender],
            self.keys[leg.recipient],
            amount=leg.amount,
            t0=leg.t0,
            t1=leg.t1,
            reward=self.config.reward,
        )
        self._register_transfer(poi, leg.chain, client_driven=False)

    def _register_transfer(self, poi: ProofOfIntent, claim_chain: int, client_driven: bool) -> None:
        self._transfers[poi.alpha] = _Transfer(
            poi=poi, claim_chain=claim_chain, client_driven=client_driven
        )
        self._handle_submit(claim_chain, make_claim(poi))

    def _handle_observe(self, name: str, alpha: bytes) -> None:
        observer = self.observers[name]
        poi = self._transfers[alpha].poi
        reaction = observer.handle_new_poi(poi, self.chains, self._now)
        for chain_id, tx in reaction.contests + reaction.vetoes:
            self._handle_submit(chain_id, tx)
        interval = self.config.block_interval
        # A conflict can surface after its veto deadline (a back-dated
        # window); then the check waits until the vetoes just submitted can
        # have landed.
        landed = self._now + interval * (1 + self.config.jitter)
        # An observer finds each conflicting pair once, on seeing its later
        # proof, so each (observer, pair) check is scheduled once.
        for a, b, deadline in reaction.conflicts_found:
            self._schedule(max(deadline, landed) + interval, ("fvcheck", name, veto_pair(a, b)))

    def _handle_fvcheck(self, name: str, pair: tuple[bytes, bytes]) -> None:
        observer = self.observers[name]
        for chain in self.chains:
            record = chain.state.veto_records.get(pair)
            if record is None or record.status != OPEN:
                continue
            if record.leader[1] == observer.key.public_key:
                self._handle_submit(chain.chain_id, make_finalize_veto(observer.key, pair[0], pair[1]))

    def _handle_detect(self, alpha: bytes) -> None:
        tracker = self._transfers[alpha]
        m = len(self.chains)
        if tracker.finalize_results < m:
            # Under mempool backlog some finalizes are still queued; judging
            # now would score a transfer that is about to land as partial.
            self._schedule(self._now + self.config.block_interval, ("detect", alpha))
            return
        for chain in self.chains:
            record = chain.state.poi_records.get(alpha)
            tracker.contest_counts[chain.chain_id] = (
                len(record.contestants) if record is not None else 0
            )
            if record is not None and record.status == FINALIZED:
                tracker.executed[chain.chain_id] = record.winner
            elif record is not None and record.status == VETOED:
                tracker.vetoed_chains += 1
        executed = tracker.executed
        divergent = len(executed) == m and len(set(executed.values())) > 1
        tracker.corrupted = (0 < len(executed) < m) or divergent
        if tracker.corrupted:
            self._resync(tracker)
        self._finish_transfer(tracker)

    def _resync(self, tracker: _Transfer) -> None:
        """Finalize a corrupted transfer on every chain with its majority
        ``winner``, so the workload can keep running. A chain that did not
        execute it settles it; on one that chose another winner only the
        reward moves, to ``winner``. Only this transfer's tokens move, so
        transfers still in flight keep theirs. Each chain's proof record keeps
        what that chain concluded."""
        poi, executed, winner = tracker.poi, tracker.executed, tracker.winner
        settled = []
        for chain in self.chains:
            if chain.chain_id not in executed:
                chain.state.settle(poi, winner)
            elif executed[chain.chain_id] != winner:
                chain.state.reassign_reward(poi, executed[chain.chain_id], winner)
            else:
                continue
            self._audit(chain)
            settled.append(chain.chain_id)
        self._resync_events.append({
            "at": self._now, "alpha": poi.alpha.hex(), "settled_chains": settled,
            "winner": wallet_name(self.names, winner) if winner else None,
        })


def run(config: EcosystemConfig) -> RunReport:
    """Build and run one ecosystem to quiescence."""
    return Ecosystem(config).run()
