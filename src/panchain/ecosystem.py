"""Discrete-event ecosystem: all chains and agents under one deterministic
clock, plus corrupted-transfer detection and resync, which brings a corrupted
transfer to its majority winner on every chain by ``ChainState.resync`` and
journals it on each. Each chain's supply is audited after every busy block and
every resync that changes it. The run's report is built by
``report.build_report`` once the run has ended. A proof is exposed, each
observer's look at it scheduled, when its first claim lands. A veto contest
concludes as a witness contest does: the first observer to veto a pair also
queues one broadcast of its finalize-veto, after the veto deadline, and FIFO
mempools land it behind the veto.

Events execute in (fire_at, sequence) order; the sequence counter is assigned
at scheduling time, so identical (config, seed) pairs replay identically. An
event is a handler and the objects it acts on. ``_broadcast`` submits a
finalize, a finalize-veto or a veto to every chain, in chain order.
Blocks wait in their own queue, beside the queue of every other event, and
only a chain whose mempool holds transactions has an entry there: a
submission that wakes an idle chain queues its next block, once the chain has
counted the idle blocks it skipped. An instant's events run before its
blocks, and its blocks in chain order, so a block stamped t includes every
transaction submitted at or before t. The run ends when no event and no block
is queued; every chain then counts its blocks up to that last instant, so at
jitter 0 every chain ends at the same height. ``report.judge`` judges a
transfer once every chain has included its finalize, accepted or rejected;
until then the check is retried one block interval later. It reads records
that no longer change, so the report reads the same judgement, and a
transfer's tracker keeps only the run loop's bookkeeping.

The run terminates because every event source is finite: clients start
transfers only within ``duration``, each script leg fires once, and a
transfer's first landed claim, an exposure and a vetoed pair each schedule a
fixed number of events. The detect check's retries are the one repeating
event, and they last only while a finalize is queued, because each busy block
drains at least one transaction.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from dataclasses import dataclass
from typing import Callable, Optional

from .agents import Client, Observer
from .chain import SimChain
from .configs import EcosystemConfig, ScriptedAction, TransferLeg
from .contract import ChainState
from .crypto import KeyPair, generate_keypair
from .protocol import (
    Claim,
    Finalize,
    ProofOfIntent,
    make_claim,
    make_finalize,
    make_finalize_veto,
    make_poi,
    veto_deadline,
    veto_pair,
)
from .report import RunReport, build_report, judge


def wallet_keypair(seed: int, name: str) -> KeyPair:
    """Deterministic wallet derivation shared by runs and tests."""
    return generate_keypair(hashlib.sha256(f"{seed}/wallet/{name}".encode()).digest())


@dataclass
class _Transfer:
    """The run loop's bookkeeping for one attempted transfer (one proof of intent)."""

    poi: ProofOfIntent
    claim_chain: int
    client: Optional[Client]  # None for a scripted leg
    claim_ok: Optional[bool] = None
    # Finalize outcomes seen so far, one per chain once all have landed.
    finalize_results: int = 0


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
        self._heap: list[tuple[float, int, Callable, tuple]] = []
        # (fire_at, chain_id) of each busy chain's next block.
        self._blocks: list[tuple[float, int]] = []
        self._seq = 0
        self._now = 0.0
        self._transfers: dict[bytes, _Transfer] = {}
        # Each veto pair whose finalize-veto is queued.
        self._vetoed_pairs: set[tuple[bytes, bytes]] = set()

    # -- scheduling ---------------------------------------------------------

    def _schedule(self, fire_at: float, handler: Callable, *args) -> None:
        """Schedule ``handler(*args)``; blocks have their own queue."""
        if fire_at < self._now:
            raise RuntimeError(f"{handler.__name__} event scheduled at {fire_at}, before now ({self._now})")
        heapq.heappush(self._heap, (fire_at, self._seq, handler, args))
        self._seq += 1

    def _submit(self, chain: SimChain, tx) -> None:
        """Submit ``tx`` to ``chain``, queueing the block of a chain it wakes."""
        if chain.submit(tx, self._now):
            heapq.heappush(self._blocks, (chain.next_block_time, chain.chain_id))

    def _broadcast(self, tx) -> None:
        """Submit one transaction to every chain, in chain order."""
        for chain in self.chains:
            self._submit(chain, tx)

    # -- run loop -----------------------------------------------------------

    def run(self) -> RunReport:
        """Run to quiescence: the run ends when no event and no block is
        queued, and every chain counts its blocks up to that instant."""
        for client in self.clients.values():
            self._look_after(client, client.rng.uniform(0, self.config.think_time[1]))
        for action in self.config.script:
            for leg in action.legs:
                self._schedule(leg.at, self._leg, action, leg)

        heap, blocks, chains = self._heap, self._blocks, self.chains
        while heap or blocks:
            if blocks and (not heap or blocks[0][0] < heap[0][0]):
                self._now, chain_id = heapq.heappop(blocks)
                chain = chains[chain_id]
                self._handle_block(chain)  # its handlers only schedule events
                self._audit(chain)
                if chain.mempool:
                    heapq.heappush(blocks, (chain.next_block_time, chain_id))
            else:
                fire_at, _, handler, args = heapq.heappop(heap)
                self._now = fire_at
                handler(*args)
        for chain in chains:
            chain.count_blocks(self._now, through=True)

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
        finalizes; the run loop requeues the chain while it stays busy.
        Contests and vetoes carry only proofs a claim already exposed, so
        they need no handling here."""
        block = chain.produce_block(self._now)
        for tx, error in zip(block.transactions, block.errors):
            if isinstance(tx, Claim):
                self._claim_landed(tx.poi, error is None)
            elif isinstance(tx, Finalize):
                self._transfers[tx.alpha].finalize_results += 1

    def _claim_landed(self, poi: ProofOfIntent, ok: bool) -> None:
        """A claim has landed, accepted or not. Only the proof's first landed
        claim acts: it schedules the finalize's broadcast and the detect
        check, or frees the client, and then exposes the proof. Two scripted
        legs that sign the same proof share one alpha and so one tracker."""
        tracker = self._transfers[poi.alpha]
        if tracker.claim_ok is not None:
            return
        tracker.claim_ok = ok
        if ok:
            finalize = make_finalize(self.keys[self.names[poi.recipient]], poi.alpha)
            self._schedule(poi.t1 + self.config.block_interval, self._broadcast, finalize)
            longest_gap = self.config.block_interval * (1 + self.config.jitter)
            self._schedule(poi.t1 + 2 * longest_gap + 1, self._detect, tracker)
        else:
            self._finish_transfer(tracker)
        policy = self.config.observation
        observers = list(self.observers.values())
        if policy.mode == "staggered":
            random.Random(f"{self.config.seed}/stagger/{poi.alpha.hex()}").shuffle(observers)
            delays = [(idx + 1) * policy.spacing for idx in range(len(observers))]
        else:
            delays = [self._delay_rngs[observer.name].uniform(policy.low, policy.high) for observer in observers]
        for observer, delay in zip(observers, delays):
            self._schedule(self._now + delay, self._observe, observer, poi)

    def _finish_transfer(self, tracker: _Transfer) -> None:
        """Free the initiating client, which looks again after a think delay.

        Its next window opens at ``int(now) + WINDOW_LEAD``, after the one it
        signed: a transfer is judged after ``t1``, and the claim of a client
        whose balance only its own transfers spend is refused only as
        ``expired-poi``, at or after ``t1``."""
        if tracker.client is not None:
            self._look_after(tracker.client, tracker.client.think_delay())

    def _look_after(self, client: Client, delay: float) -> None:
        """Queue the client's look ``delay`` from now, if that falls within
        ``duration``."""
        at = self._now + delay
        if at <= self.config.duration:
            self._schedule(at, self._look, client)

    def _look(self, client: Client) -> None:
        chain_balances = [
            chain.state.balance(client.key.public_key) for chain in self.chains
        ]
        plan = client.plan_transfer(self._now, chain_balances, self._recipients[client.name])
        if plan is None:
            self._look_after(client, client.think_delay())
        else:
            self._register_transfer(plan.poi, plan.claim_chain, client)

    def _leg(self, action: ScriptedAction, leg: TransferLeg) -> None:
        # A double spend is just legs whose windows overlap.
        poi = make_poi(
            self.keys[action.sender],
            self.keys[leg.recipient],
            amount=leg.amount,
            t0=leg.t0,
            t1=leg.t1,
            reward=self.config.reward,
        )
        self._register_transfer(poi, leg.chain, client=None)

    def _register_transfer(self, poi: ProofOfIntent, claim_chain: int, client: Optional[Client]) -> None:
        # A scripted leg that re-signs a registered proof gets its alpha, and
        # the transfer keeps its first tracker.
        self._transfers.setdefault(poi.alpha, _Transfer(poi=poi, claim_chain=claim_chain, client=client))
        self._submit(self.chains[claim_chain], make_claim(poi))

    def _observe(self, observer: Observer, poi: ProofOfIntent) -> None:
        reaction = observer.handle_new_poi(poi, self.chains, self._now)
        for chain_id, contest in reaction.contests:
            self._submit(self.chains[chain_id], contest)
        # Mempools are FIFO, so on every chain the pair's finalize-veto lands
        # behind its veto and needs no retry.
        for veto in reaction.vetoes:
            self._broadcast(veto)
            pair = veto_pair(veto.poi.alpha, veto.conflicting_poi.alpha)
            if pair not in self._vetoed_pairs:
                self._vetoed_pairs.add(pair)
                fire_at = max(veto_deadline(veto.poi, veto.conflicting_poi), self._now) + self.config.block_interval
                self._schedule(fire_at, self._broadcast, make_finalize_veto(observer.key, *pair))

    def _detect(self, tracker: _Transfer) -> None:
        """Judge a transfer once every chain has included its finalize, and
        bring a corrupted one to its majority winner on every chain that can
        pay it, so the workload can keep running: each chain applies and
        journals ``ChainState.resync``. Only this transfer's tokens move, so
        transfers still in flight keep theirs."""
        if tracker.finalize_results < len(self.chains):
            # Under mempool backlog some finalizes are still queued; judging
            # now would score a transfer that is about to land as partial.
            self._schedule(self._now + self.config.block_interval, self._detect, tracker)
            return
        *_, winner, corrupted = judge(self.chains, tracker.poi.alpha)
        if corrupted:
            for chain in self.chains:
                if chain.resync(tracker.poi, winner, self._now):
                    self._audit(chain)
        self._finish_transfer(tracker)


def run(config: EcosystemConfig) -> RunReport:
    """Build and run one ecosystem to quiescence."""
    return Ecosystem(config).run()
