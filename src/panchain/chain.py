"""A simulated blockchain: FIFO transaction pool and periodic block production.

Transactions are queued unconditionally and judged only at inclusion time,
with the block timestamp as the contract's notion of "now". Every drained
transaction appears in its block together with its apply outcome, the
rejection code or None, so agents can observe rejections (they are on-chain
data) without any mempool access.
A block that drains nothing is kept only as its timestamp.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Iterator, NamedTuple, Optional

from .contract import ChainState, TxError
from .protocol import Transaction


class Block(NamedTuple):
    height: int
    timestamp: float
    transactions: tuple[Transaction, ...]
    # By position in transactions: None where it applied, else its TxError code.
    errors: tuple[Optional[str], ...]


class SimChain:
    """One chain: block parameters, contract state, mempool, every block's
    timestamp by height (``block_times``, genesis first) and the blocks that
    drained transactions (``blocks``, each with its true height). An empty
    block is only its timestamp. ``EcosystemConfig`` checks the parameters;
    a chain with jitter draws it from ``rng``, which it then needs."""

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
        # The genesis block's timestamp is the int 0, as the block log writes it.
        self.block_times: list[float] = [0]
        self.blocks: list[Block] = []
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
        """Produce a block with nothing to drain, which is only its timestamp;
        every block starts as one."""
        if now != self.next_block_time:
            raise ValueError(
                f"chain {self.chain_id} expected block at {self.next_block_time}, got {now}"
            )
        self.block_times.append(now)
        self.next_block_time = self._next_after(now)

    def produce_block(self, now: float) -> Block:
        """Drain up to the capacity cap in FIFO order and apply each
        transaction with this block's timestamp. Only a block that drained
        something is kept in ``blocks``."""
        height = len(self.block_times)
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
        block = Block(height, now, tuple(drained), tuple(errors))
        if drained:
            self.blocks.append(block)
        return block


def block_log_entry(chain_id: int, block: Block) -> dict:
    """JSON-ready one-line summary of a block and its apply outcomes."""

    def tx_summary(tx: Transaction, error: Optional[str]) -> dict:
        entry: dict = {"kind": tx.kind, "poster": tx.poster.hex()[:16]}
        # Claims and contests carry the proof; the other kinds name it by alpha.
        entry["alpha"] = getattr(tx, "poi", tx).alpha.hex()[:16]
        entry["ok"] = error is None
        if error is not None:
            entry["error"] = error
        return entry

    return {
        "chain_id": chain_id,
        "height": block.height,
        "timestamp": block.timestamp,
        "txs": [tx_summary(tx, error) for tx, error in zip(block.transactions, block.errors)],
    }


def block_log(chain: SimChain) -> Iterator[dict]:
    """Every block's log entry by height, genesis first; a height with no
    kept block is an empty block at its timestamp."""
    kept = {block.height: block for block in chain.blocks}
    for height, timestamp in enumerate(chain.block_times):
        yield block_log_entry(chain.chain_id, kept.get(height) or Block(height, timestamp, (), ()))
