"""Discrete-event ecosystem: all chains and agents under one deterministic
clock, plus cross-chain consistency checking and corrupted-transfer
accounting.

Events execute in (fire_at, sequence) order; the sequence counter is assigned
at scheduling time, so identical (config, seed) pairs replay identically.
After the client-initiation window (``duration``) closes, the loop keeps
producing blocks until every proof and veto contest is past its deadline plus
two block intervals, then reports. A transfer's outcome is judged only once
every chain has included its finalize, accepted or rejected; until then the
check is retried one block interval later.
"""

from __future__ import annotations

import csv
import hashlib
import heapq
import io
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .agents import Client, Observer
from .chain import ChainConfig, SimChain
from .configs import EcosystemConfig, ScriptedAction
from .contract import FINALIZED, OPEN, VETOED, ChainState, _pair_key
from .crypto import KeyPair, contest_winner, generate_keypair
from .protocol import (
    Claim,
    Contest,
    Finalize,
    ProofOfIntent,
    Veto,
    make_claim,
    make_finalize,
    make_finalize_veto,
    make_poi,
)


def wallet_keypair(seed: int, name: str) -> KeyPair:
    """Deterministic wallet derivation shared by runs and tests."""
    return generate_keypair(hashlib.sha256(f"{seed}/wallet/{name}".encode()).digest())


@dataclass
class _Transfer:
    """Lifecycle tracker for one attempted transfer (one proof of intent)."""

    poi: ProofOfIntent
    sender_name: str
    recipient_name: str
    claim_chain: int
    client_driven: bool
    claim_ok: Optional[bool] = None
    # Finalize outcomes seen so far, one per chain once all have landed.
    finalize_results: int = 0
    executed: dict[int, Optional[bytes]] = field(default_factory=dict)
    contest_counts: dict[int, int] = field(default_factory=dict)
    vetoed_chains: int = 0
    corrupted: bool = False
    failed: bool = False
    resynced: bool = False


@dataclass
class RunReport:
    """Deterministic, JSON-serializable outcome of one ecosystem run."""

    config: dict
    seed: int
    chains: list[dict]
    transfers: list[dict]
    vetoes: list[dict]
    consistency: list[dict]
    resync_events: list[dict]
    tx_counts: dict
    tx_counts_ok: dict
    stats: dict

    @property
    def corrupted_count(self) -> int:
        return sum(1 for t in self.transfers if t["corrupted"])

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True, indent=2) + "\n"

    def ledger_csv(self) -> str:
        """One row per transfer: ids, window, winner, per-chain contest counts,
        corrupted flag."""
        chain_ids = [c["chain_id"] for c in self.chains]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["alpha", "sender", "recipient", "amount", "t0", "t1", "winner"]
            + [f"contests_chain_{cid}" for cid in chain_ids]
            + ["corrupted"]
        )
        for row in self.transfers:
            writer.writerow(
                [
                    row["alpha"],
                    row["sender"],
                    row["recipient"],
                    row["amount"],
                    row["t0"],
                    row["t1"],
                    row["winner"] or "",
                ]
                + [row["contest_counts"].get(str(cid), 0) for cid in chain_ids]
                + [int(row["corrupted"])]
            )
        return buf.getvalue()


def check_consistency(states: Sequence[ChainState]) -> list[dict]:
    """Empty iff every wallet's balance is identical on every chain; otherwise
    one entry per divergent wallet with the per-chain values."""
    wallets: set[bytes] = set()
    for state in states:
        wallets.update(state.balances)
    rows = []
    for wallet in sorted(wallets):
        values = {state.chain_id: state.balance(wallet) for state in states}
        if len(set(values.values())) > 1:
            rows.append(
                {"wallet": wallet.hex(), "balances": {str(c): v for c, v in values.items()}}
            )
    return rows


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
                ChainConfig(
                    chain_id=i,
                    block_interval=config.block_interval,
                    max_txs_per_block=config.max_txs_per_block,
                    jitter=config.jitter,
                ),
                ChainState(i, dict(balances), reward=config.reward),
                rng=random.Random(f"{seed}/chain/{i}"),
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
        self.observers: dict[str, Observer] = {
            name: Observer(
                name,
                self.keys[name],
                random.Random(f"{seed}/observer/{name}"),
                post_iff_winnable=config.post_iff_winnable,
            )
            for name in config.observers
        }
        self._heap: list[tuple[float, int, tuple]] = []
        self._seq = 0
        self._now = 0.0
        self._horizon = float(config.duration)
        self._block_scheduled: dict[int, bool] = {c.chain_id: False for c in self.chains}
        self._transfers: dict[bytes, _Transfer] = {}
        self._poi_by_alpha: dict[bytes, ProofOfIntent] = {}
        self._exposed: set[bytes] = set()
        self._fv_scheduled: set[tuple[str, tuple[bytes, bytes]]] = set()
        self._resync_events: list[dict] = []

    # -- scheduling ---------------------------------------------------------

    def _push(self, fire_at: float, payload: tuple) -> None:
        heapq.heappush(self._heap, (fire_at, self._seq, payload))
        self._seq += 1

    def _schedule(self, fire_at: float, payload: tuple) -> None:
        """Schedule a non-block event and keep chains producing long enough to
        include whatever it may submit."""
        self._push(fire_at, payload)
        self._extend_horizon(fire_at)

    def _extend_horizon(self, at: float) -> None:
        """Keep producing blocks until two (jittered) block intervals and one
        second past ``at``."""
        end = at + 2 * self.config.block_interval * (1 + self.config.jitter) + 1
        if end > self._horizon:
            self._horizon = end
            self._ensure_blocks()

    def _ensure_blocks(self) -> None:
        for chain in self.chains:
            if not self._block_scheduled[chain.chain_id] and chain.next_block_time <= self._horizon:
                self._push(chain.next_block_time, ("block", chain.chain_id))
                self._block_scheduled[chain.chain_id] = True

    def _handle_submit(self, chain_id: int, tx) -> None:
        self.chains[chain_id].submit(tx, self._now)
        self._extend_horizon(self._now)

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

        while self._heap:
            fire_at, _, payload = heapq.heappop(self._heap)
            self._now = fire_at
            getattr(self, "_handle_" + payload[0])(*payload[1:])

        for chain in self.chains:
            chain.state.audit()
        return self._build_report()

    # -- handlers -----------------------------------------------------------

    def _handle_block(self, chain_id: int) -> None:
        chain = self.chains[chain_id]
        block = chain.produce_block(self._now)
        for applied in block.results:
            tx = applied.tx
            if isinstance(tx, Claim):
                self._note_claim_result(tx.poi, applied.ok)
                self._expose_poi(tx.poi)
            elif isinstance(tx, Contest):
                self._expose_poi(tx.poi)
            elif isinstance(tx, Veto):
                self._expose_poi(tx.conflicting_poi)
            elif isinstance(tx, Finalize) and tx.alpha in self._transfers:
                self._transfers[tx.alpha].finalize_results += 1
        self._block_scheduled[chain_id] = False
        self._ensure_blocks()

    def _expose_poi(self, poi: ProofOfIntent) -> None:
        """First confirmation of a proof anywhere makes it observable; schedule
        each observer's (delayed) look at it."""
        if poi.alpha_id in self._exposed:
            return
        self._exposed.add(poi.alpha_id)
        self._poi_by_alpha[poi.alpha_id] = poi
        policy = self.config.observation
        names = list(self.observers)
        if not names:
            return
        if policy.mode == "staggered":
            order = random.Random(f"{self.config.seed}/stagger/{poi.alpha.hex()}")
            order.shuffle(names)
            for idx, name in enumerate(names):
                self._schedule(
                    self._now + (idx + 1) * policy.spacing, ("observe", name, poi.alpha_id)
                )
        else:
            for name in names:
                delay = self.observers[name].rng.uniform(policy.low, policy.high)
                self._schedule(self._now + delay, ("observe", name, poi.alpha_id))

    def _note_claim_result(self, poi: ProofOfIntent, ok: bool) -> None:
        tracker = self._transfers.get(poi.alpha_id)
        if tracker is None or tracker.claim_ok is not None:
            return
        tracker.claim_ok = ok
        interval = self.config.block_interval
        if ok:
            recipient_key = self.keys[tracker.recipient_name]
            finalize = make_finalize(recipient_key, poi.alpha_id)
            for chain in self.chains:
                self._schedule(poi.t1 + interval, ("submit", chain.chain_id, finalize))
            detect_at = poi.t1 + 2 * interval * (1 + self.config.jitter) + 1
            self._schedule(detect_at, ("detect", poi.alpha_id))
        else:
            tracker.failed = True
            self._finish_transfer(tracker)

    def _finish_transfer(self, tracker: _Transfer) -> None:
        """Free the initiating client and queue its next attempt.

        The next intent must not overlap the window the client already signed,
        even if that claim was rejected: the signature exists and is on-chain
        data, so an overlapping successor would be a vetoable double-sign.
        """
        if not tracker.client_driven:
            return
        client = self.clients[tracker.sender_name]
        client.busy = False
        next_at = max(self._now + client.think_delay(), tracker.poi.t1 + 1.0)
        if next_at <= self.config.duration:
            self._schedule(next_at, ("client", client.name))

    def _handle_client(self, name: str) -> None:
        if self._now > self.config.duration:
            return
        client = self.clients[name]
        if client.busy:
            return
        recipients = [
            (other, self.keys[other]) for other in self.clients if other != name
        ]
        chain_balances = [
            chain.state.balance(client.key.public_key) for chain in self.chains
        ]
        plan = client.plan_transfer(self._now, chain_balances, recipients)
        if plan is None:
            next_at = self._now + client.think_delay()
            if next_at <= self.config.duration:
                self._schedule(next_at, ("client", name))
            return
        client.busy = True
        self._register_transfer(plan.poi, name, plan.recipient_name, plan.claim_chain,
                                client_driven=True)

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
        self._register_transfer(poi, action.sender, leg.recipient, leg.chain,
                                client_driven=False)

    def _register_transfer(
        self,
        poi: ProofOfIntent,
        sender_name: str,
        recipient_name: str,
        claim_chain: int,
        client_driven: bool,
    ) -> None:
        self._transfers[poi.alpha_id] = _Transfer(
            poi=poi,
            sender_name=sender_name,
            recipient_name=recipient_name,
            claim_chain=claim_chain,
            client_driven=client_driven,
        )
        self._handle_submit(claim_chain, make_claim(poi))

    def _handle_observe(self, name: str, alpha: bytes) -> None:
        observer = self.observers[name]
        poi = self._poi_by_alpha[alpha]
        reaction = observer.handle_new_poi(poi, self.chains, self._now)
        for chain_id, tx in reaction.contests + reaction.vetoes:
            self._handle_submit(chain_id, tx)
        interval = self.config.block_interval
        for a, b, deadline in reaction.conflicts_found:
            key = (name, _pair_key(a, b))
            if key not in self._fv_scheduled:
                self._fv_scheduled.add(key)
                self._schedule(deadline + interval, ("fvcheck", name, _pair_key(a, b)))

    def _handle_fvcheck(self, name: str, pair: tuple[bytes, bytes]) -> None:
        observer = self.observers[name]
        for chain in self.chains:
            record = chain.state.veto_records.get(pair)
            if record is None or record.status != OPEN or not record.contestants:
                continue
            if contest_winner(record.contestants) == observer.key.public_key:
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
        """Reset the involved wallets' balances to the majority outcome so the
        workload can keep running after a corrupted transfer."""
        groups: dict[tuple, list[int]] = {}
        for chain in self.chains:
            cid = chain.chain_id
            if cid in tracker.executed:
                label = ("executed", tracker.executed[cid] or b"")
            else:
                label = ("not-executed", b"")
            groups.setdefault(label, []).append(cid)
        majority = sorted(groups.values(), key=lambda cids: (-len(cids), min(cids)))[0]
        ref = self.chains[min(majority)]
        involved = {tracker.poi.sender, tracker.poi.recipient}
        involved.update(w for w in tracker.executed.values() if w)
        # Force the involved wallets to the reference values on every chain,
        # majority members included: concurrent corrupted transfers can leave
        # same-outcome chains disagreeing with each other.
        reset_chains = []
        for chain in self.chains:
            changed = False
            for wallet in sorted(involved):
                value = ref.state.balance(wallet)
                if chain.state.balance(wallet) != value:
                    chain.state.override_balance(wallet, value)
                    changed = True
            if changed:
                reset_chains.append(chain.chain_id)
        tracker.resynced = True
        self._resync_events.append(
            {
                "at": self._now,
                "alpha": tracker.poi.alpha.hex(),
                "majority_chains": sorted(majority),
                "reset_chains": reset_chains,
                "wallets": sorted(self.names.get(w, w.hex()) for w in involved),
            }
        )

    # -- reporting ----------------------------------------------------------

    def _build_report(self) -> RunReport:
        results = [
            applied for chain in self.chains for block in chain.blocks for applied in block.results
        ]
        tx_counts = Counter(applied.tx.kind for applied in results)
        tx_counts_ok = Counter(applied.tx.kind for applied in results if applied.ok)

        m = len(self.chains)
        transfer_rows = []
        executed_full = 0
        for tracker in self._transfers.values():
            executed = tracker.executed
            consistent = len(executed) == m and len(set(executed.values())) == 1
            if consistent and not tracker.corrupted:
                executed_full += 1
            winner_name = None
            if executed:
                counts: dict[Optional[bytes], int] = {}
                for w in executed.values():
                    counts[w] = counts.get(w, 0) + 1
                top = max(counts.items(), key=lambda kv: kv[1])[0]
                if top is not None:
                    winner_name = self.names.get(top, top.hex())
            transfer_rows.append(
                {
                    "alpha": tracker.poi.alpha.hex(),
                    "sender": tracker.sender_name,
                    "recipient": tracker.recipient_name,
                    "amount": tracker.poi.amount,
                    "t0": tracker.poi.t0,
                    "t1": tracker.poi.t1,
                    "claim_chain": tracker.claim_chain,
                    "claim_ok": tracker.claim_ok,
                    "executed_chains": sorted(executed),
                    "winner": winner_name,
                    "winners_by_chain": {
                        str(cid): (self.names.get(w, w.hex()) if w else None)
                        for cid, w in sorted(executed.items())
                    },
                    "contest_counts": {
                        str(cid): n for cid, n in sorted(tracker.contest_counts.items())
                    },
                    "vetoed_chains": tracker.vetoed_chains,
                    "corrupted": tracker.corrupted,
                    "failed": tracker.failed,
                    "resynced": tracker.resynced,
                    "scripted": not tracker.client_driven,
                    "self_transfer": tracker.sender_name == tracker.recipient_name,
                }
            )

        veto_rows = []
        pairs: set[tuple[bytes, bytes]] = set()
        for chain in self.chains:
            pairs.update(chain.state.veto_records)
        for pair in sorted(pairs):
            per_chain = {}
            for chain in self.chains:
                record = chain.state.veto_records.get(pair)
                if record is None:
                    continue
                per_chain[str(chain.chain_id)] = {
                    "status": record.status,
                    "deadline": record.deadline,
                    "winner": self.names.get(record.winner, record.winner.hex())
                    if record.winner
                    else None,
                    "contestants": len(record.contestants),
                }
            winners = {info["winner"] for info in per_chain.values()}
            veto_rows.append(
                {
                    "alpha": pair[0].hex(),
                    "alpha_prime": pair[1].hex(),
                    "chains": per_chain,
                    "consistent_winner": len(winners) == 1 and len(per_chain) == m,
                }
            )

        attempts = len(self._transfers)
        claims_ok = sum(1 for t in self._transfers.values() if t.claim_ok)
        corrupted = sum(1 for t in self._transfers.values() if t.corrupted)
        failed = sum(1 for t in self._transfers.values() if t.failed)
        vetoed = sum(1 for t in self._transfers.values() if t.vetoed_chains)
        contest_totals = [
            sum(t.contest_counts.values()) / m
            for t in self._transfers.values()
            if t.claim_ok
        ]
        mean_contests = (
            sum(contest_totals) / len(contest_totals) if contest_totals else 0.0
        )
        consistency = check_consistency([chain.state for chain in self.chains])
        named_consistency = []
        for row in consistency:
            wallet = bytes.fromhex(row["wallet"])
            named_consistency.append(
                {**row, "name": self.names.get(wallet, row["wallet"])}
            )

        stats = {
            "transfers_attempted": attempts,
            "transfers_claimed": claims_ok,
            "transfers_executed": executed_full,
            "transfers_failed": failed,
            "transfers_corrupted": corrupted,
            "transfers_vetoed": vetoed,
            "mean_contests_per_chain": mean_contests,
            "blocks_per_chain": {
                str(chain.chain_id): len(chain.blocks) - 1 for chain in self.chains
            },
        }
        return RunReport(
            config=self.config.to_dict(),
            seed=self.config.seed,
            chains=[chain.state.snapshot() for chain in self.chains],
            transfers=transfer_rows,
            vetoes=veto_rows,
            consistency=named_consistency,
            resync_events=self._resync_events,
            tx_counts=tx_counts,
            tx_counts_ok=tx_counts_ok,
            stats=stats,
        )


def run(config: EcosystemConfig) -> RunReport:
    """Build and run one ecosystem to quiescence."""
    return Ecosystem(config).run()
