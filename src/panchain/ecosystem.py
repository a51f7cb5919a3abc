"""Discrete-event ecosystem: all chains and agents under one deterministic
clock, plus corrupted-transfer detection and resync, which brings a corrupted
transfer to its majority winner on every chain by ``ChainState.resync`` and
journals it on each. Each chain's supply is audited after every busy block and
every resync that changes it. The run's report is built by
``report.build_report`` once the run has ended. A proof is exposed, each
observer's look at it scheduled, when its first claim lands.

Events execute in (fire_at, sequence) order; the sequence counter is assigned
at scheduling time, so identical (config, seed) pairs replay identically.
Block events wait in their own queue, at most one per chain, beside the queue
of every other event; both draw from the one sequence counter, and the loop
takes whichever head is earlier, so the merged order is that of a single
queue. A chain's entry stays queued while its block is made, and the loop
requeues it afterwards in one place. A block on a chain with an empty mempool
is only counted, so the loop counts it without a handler and builds no
``Block``.
The run ends after the first instant at which no event is queued and every
mempool is empty; that instant's remaining blocks are still produced, so at
jitter 0 every chain ends at the same height. A transfer's outcome is judged
only once every chain has included its finalize, accepted or rejected; until
then the check is retried one block interval later.

The run terminates because every event source is finite: clients start
transfers only within ``duration``, each script leg fires once, and a
transfer's first landed claim, an exposure and a found conflict each schedule
a fixed number of events. The detect check's retries are the one repeating
event, and they last only while a finalize is queued, because each busy block
drains at least one transaction.
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
from .report import RunReport, build_report


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
        self.observers: dict[str, Observer] = {name: Observer(name, self.keys[name]) for name in config.observers}
        # Each observer's uniform observation delays; staggered observation draws none.
        self._delay_rngs: dict[str, random.Random] = {
            name: random.Random(f"{seed}/observer/{name}") for name in config.observers
        } if config.observation.mode == "uniform" else {}
        self._heap: list[tuple[float, int, tuple]] = []
        # (fire_at, seq, chain_id) of each chain's next block.
        self._blocks: list[tuple[float, int, int]] = []
        self._seq = 0
        self._now = 0.0
        self._transfers: dict[bytes, _Transfer] = {}
        # The longest gap between two blocks of a chain.
        self._longest_gap = config.block_interval * (1 + config.jitter)

    # -- scheduling ---------------------------------------------------------

    def _schedule(self, fire_at: float, payload: tuple) -> None:
        """Schedule a non-block event; blocks have their own queue."""
        if fire_at < self._now:
            raise RuntimeError(f"{payload[0]} event scheduled at {fire_at}, before now ({self._now})")
        heapq.heappush(self._heap, (fire_at, self._seq, payload))
        self._seq += 1

    def _handle_submit(self, chain_id: int, tx) -> None:
        self.chains[chain_id].submit(tx, self._now)

    # -- run loop -----------------------------------------------------------

    def run(self) -> RunReport:
        """Run to quiescence: the run ends after the first instant at which no
        event is queued and every mempool is empty. Every chain's next block
        is queued after the initial client and leg events, so ties keep their
        (fire_at, seq) order, and stays queued to the end."""
        for name, client in self.clients.items():
            first = client.rng.uniform(0, self.config.think_time[1])
            if first <= self.config.duration:
                self._schedule(first, ("client", name))
        for a_idx, action in enumerate(self.config.script):
            for l_idx, leg in enumerate(action.legs):
                self._schedule(leg.at, ("leg", a_idx, l_idx))
        for chain in self.chains:
            heapq.heappush(self._blocks, (chain.next_block_time, self._seq, chain.chain_id))
            self._seq += 1

        heap, blocks, chains = self._heap, self._blocks, self.chains
        # The last clause finishes the current instant's blocks.
        while heap or any(chain.mempool for chain in chains) or blocks[0][0] == self._now:
            if not heap or blocks[0] < heap[0]:
                # The chain's entry stays on top until it is requeued: whatever
                # the block queues meanwhile fires later or has a larger seq.
                fire_at, _, chain_id = blocks[0]
                self._now = fire_at
                chain = chains[chain_id]
                if chain.mempool:
                    self._handle_block(chain)
                    self._audit(chain)
                else:  # idle chain: its block is only counted
                    chain.produce_empty_block(fire_at)
                heapq.heapreplace(blocks, (chain.next_block_time, self._seq, chain_id))
                self._seq += 1
            else:
                fire_at, _, payload = heapq.heappop(heap)
                self._now = fire_at
                getattr(self, "_handle_" + payload[0])(*payload[1:])

        # Busy blocks and resyncs, the only state changes, were each audited.
        return build_report(self.config, self.chains, self._transfers.values(), self.names)

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
        """A claim has landed, accepted or not. Only the proof's first landed
        claim acts: it schedules the finalizes and the detect check, or frees
        the client, and then exposes the proof. Two scripted legs that sign
        the same proof share one alpha and so one tracker."""
        tracker = self._transfers[poi.alpha]
        if tracker.claim_ok is not None:
            return
        tracker.claim_ok = ok
        if ok:
            recipient_key = self.keys[self.names[poi.recipient]]
            finalize = make_finalize(recipient_key, poi.alpha)
            for chain in self.chains:
                self._schedule(poi.t1 + self.config.block_interval, ("submit", chain.chain_id, finalize))
            self._schedule(poi.t1 + 2 * self._longest_gap + 1, ("detect", poi.alpha))
        else:
            self._finish_transfer(tracker)
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
        """Free the initiating client, which looks again after a think delay.

        Its next window opens at ``int(now) + WINDOW_LEAD``, after the one it
        signed: a transfer is judged after ``t1``, and the claim of a client
        whose balance only its own transfers spend is refused only as
        ``expired-poi``, at or after ``t1``."""
        if tracker.client_driven:
            self._next_look(self.names[tracker.poi.sender])

    def _next_look(self, name: str) -> None:
        """Queue the client's next look after a think delay, if that falls
        within ``duration``."""
        next_at = self._now + self.clients[name].think_delay()
        if next_at <= self.config.duration:
            self._schedule(next_at, ("client", name))

    def _handle_client(self, name: str) -> None:
        client = self.clients[name]
        chain_balances = [
            chain.state.balance(client.key.public_key) for chain in self.chains
        ]
        plan = client.plan_transfer(self._now, chain_balances, self._recipients[name])
        if plan is None:
            self._next_look(name)
        else:
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
        # A scripted leg that re-signs a registered proof gets its alpha, and
        # the transfer keeps its first tracker.
        self._transfers.setdefault(
            poi.alpha, _Transfer(poi=poi, claim_chain=claim_chain, client_driven=client_driven)
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
        landed = self._now + self._longest_gap
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
            tracker.contest_counts[chain.chain_id] = len(record.contestants) if record else 0
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
        """Bring a corrupted transfer to its majority ``winner`` on every
        chain that can pay it, so the workload can keep running: each chain
        applies and journals ``ChainState.resync``. Only this transfer's
        tokens move, so transfers still in flight keep theirs."""
        for chain in self.chains:
            if chain.resync(tracker.poi, tracker.winner, self._now):
                self._audit(chain)


def run(config: EcosystemConfig) -> RunReport:
    """Build and run one ecosystem to quiescence."""
    return Ecosystem(config).run()
