"""A simulated blockchain: FIFO transaction pool, periodic block production
and the chain's journal.

Transactions are queued unconditionally and judged only at inclusion time,
with the block timestamp as the contract's notion of "now". The journal holds,
in order, every block that drained transactions, each with its apply outcomes
(the rejection code or None), so agents can observe rejections (they are
on-chain data) without any mempool access, and every resync applied between
blocks. So replaying a journal into a fresh ``ChainState`` rebuilds the
chain's state. A block that drains nothing is only counted, in ``height``,
when a submission wakes the idle chain, at a resync and at the run's end.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Iterator, NamedTuple, Optional

from .contract import ChainState, TxError
from .protocol import ProofOfIntent, Transaction, WalletId


class Block(NamedTuple):
    height: int
    timestamp: float
    transactions: tuple[Transaction, ...]
    # By position in transactions: None where it applied, else its TxError code.
    errors: tuple[Optional[str], ...]


class Resync(NamedTuple):
    """A corrupted transfer brought to the majority ``winner`` at ``at``,
    after block ``height``; ``moved`` is ``ChainState.resync``'s answer."""

    height: int
    at: float
    poi: ProofOfIntent
    winner: Optional[WalletId]
    moved: bool


class SimChain:
    """One chain: block parameters, contract state, mempool, the ``height``
    counted so far (genesis is 0) and the ``journal`` of busy blocks and resyncs.
    ``EcosystemConfig`` checks the parameters; a chain with jitter draws it
    from ``rng``, which it then needs."""

    def __init__(
        self,
        chain_id: int,
        state: ChainState,
        *,
        block_interval: float,
        max_txs_per_block: int,
        jitter: float,
        rng: Optional[random.Random] = None,
    ):
        self.chain_id = chain_id
        self.state = state
        self.block_interval = block_interval
        self.max_txs_per_block = max_txs_per_block
        if jitter and rng is None:
            raise ValueError(f"chain {chain_id} has jitter {jitter} but no rng to draw it from")
        self.jitter = jitter
        self._rng = rng
        self.mempool: deque[Transaction] = deque()
        self.height = 0
        self.journal: list[Block | Resync] = []
        self.next_block_time = self._next_after(0)

    def _next_after(self, timestamp: float) -> float:
        """When the block after one stamped ``timestamp`` is due: one
        interval later, perturbed uniformly by up to ``jitter`` of it."""
        if self.jitter:
            return timestamp + self.block_interval * (
                1 + self._rng.uniform(-self.jitter, self.jitter)
            )
        return timestamp + self.block_interval

    def count_blocks(self, now: float, *, through: bool = False) -> None:
        """Count the blocks stamped before ``now``, or at ``now`` too when
        ``through``, in order, each drawing the next block's time."""
        while self.next_block_time < now or through and self.next_block_time == now:
            self.height += 1
            self.next_block_time = self._next_after(self.next_block_time)

    def submit(self, tx: Transaction, now: float) -> bool:
        """Queue a transaction submitted at ``now``; returns whether it woke
        an idle chain, whose blocks stamped before ``now`` are then counted,
        so its next block, stamped at or after ``now``, includes it."""
        if not self.mempool:
            self.count_blocks(now)
        self.mempool.append(tx)
        return len(self.mempool) == 1

    def produce_block(self, now: float) -> Block:
        """Drain up to the capacity cap in FIFO order and apply each
        transaction with this block's timestamp. Only a block that drained
        something is journaled."""
        if now != self.next_block_time:
            raise ValueError(f"chain {self.chain_id} expected block at {self.next_block_time}, got {now}")
        self.count_blocks(now, through=True)
        drained: list[Transaction] = []
        errors: list[Optional[str]] = []
        while self.mempool and len(drained) < self.max_txs_per_block:
            tx = self.mempool.popleft()
            drained.append(tx)
            try:
                self.state.apply(tx, now)
                errors.append(None)
            except TxError as err:
                errors.append(err.code)
        block = Block(self.height, now, tuple(drained), tuple(errors))
        if drained:
            self.journal.append(block)
        return block

    def resync(self, poi: ProofOfIntent, winner: Optional[WalletId], now: float) -> bool:
        """Apply and journal ``ChainState.resync`` at ``now``, after the
        blocks stamped before it; returns whether the state changed."""
        self.count_blocks(now)
        moved = self.state.resync(poi, winner)
        self.journal.append(Resync(self.height, now, poi, winner, moved))
        return moved


def block_log(chain: SimChain) -> Iterator[dict]:
    """The chain's journal as JSON-ready lines, in order: one per busy block,
    with each transaction's outcome, and one per resync."""
    for entry in chain.journal:
        line = {"chain_id": chain.chain_id, "height": entry.height}
        if isinstance(entry, Resync):
            yield {**line, "at": entry.at, "resync": entry.poi.alpha.hex()[:16], "moved": entry.moved,
                   "winner": entry.winner.hex()[:16] if entry.winner else None}
            continue
        # Claims, contests and vetoes carry a proof; finalizes name it by alpha.
        txs = [{"kind": tx.kind, "poster": tx.poster.hex()[:16], "ok": error is None,
                "alpha": getattr(tx, "poi", tx).alpha.hex()[:16], **({"error": error} if error else {})}
               for tx, error in zip(entry.transactions, entry.errors)]
        yield {**line, "timestamp": entry.timestamp, "txs": txs}
