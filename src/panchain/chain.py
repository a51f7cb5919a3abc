"""A simulated blockchain: FIFO transaction pool, periodic block production
and the chain's journal.

Transactions are queued unconditionally and judged only at inclusion time,
with the block timestamp as the contract's notion of "now". The journal holds,
in order, every block that drained transactions, each with its apply outcomes
(the rejection code or None), so agents can observe rejections (they are
on-chain data) without any mempool access, and every resync applied between
blocks. So replaying a journal into a fresh ``ChainState`` rebuilds the
chain's state. A block that drains nothing is only counted, in ``height``.
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
    """One chain: block parameters, contract state, mempool, the last block's
    ``height`` (genesis is 0) and the ``journal`` of busy blocks and resyncs.
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

    def submit(self, tx: Transaction, now: float) -> None:
        """Queue a transaction submitted at ``now``. The chain does not use
        ``now``; the benchmark tracer (perfbench/tracing.py) reads it to
        measure inclusion latency."""
        self.mempool.append(tx)

    def produce_empty_block(self, now: float) -> None:
        """Produce a block with nothing to drain, which is only counted; every
        block starts as one."""
        if now != self.next_block_time:
            raise ValueError(f"chain {self.chain_id} expected block at {self.next_block_time}, got {now}")
        self.height += 1
        self.next_block_time = self._next_after(now)

    def produce_block(self, now: float) -> Block:
        """Drain up to the capacity cap in FIFO order and apply each
        transaction with this block's timestamp. Only a block that drained
        something is journaled."""
        self.produce_empty_block(now)
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
        """Apply and journal ``ChainState.resync`` at ``now``, between blocks;
        returns whether the state changed."""
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
