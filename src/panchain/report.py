"""The run report, built in one pass once a run has ended, with its
cross-chain consistency check; ``outcome``, the one reader of a proof's
per-chain outcome in the chains' records; ``wallet_name``, the one rule that
names a wallet in it; and ``dumps``, the canonical writer of every indented
JSON output, with ``dump``, which streams the same text to a file."""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence, TextIO

from .chain import Block, Resync, SimChain
from .configs import EcosystemConfig
from .contract import FINALIZED, VETOED, ChainState

if TYPE_CHECKING:
    from .ecosystem import _Transfer


def dumps(obj) -> str:
    """The canonical JSON text of every indented output: byte for byte
    ``json.dumps(obj, sort_keys=True, indent=2) + "\n"``, which runs the
    pure-Python generator encoder because of ``indent``; this builds it from
    joined strings instead. NaN and infinities are a ValueError, and a key
    that is not a str a TypeError, instead of being written."""
    return _encode(obj, "\n") + "\n"


def dump(obj, out: TextIO, depth: int) -> None:
    """Write ``dumps(obj)`` to ``out`` in pieces: the containers ``depth``
    levels down are one write each, and every container above them is
    written entry by entry, so the whole text is never one string."""
    _stream(obj, "\n", depth, out.write, {})
    out.write("\n")


def _stream(value, newline: str, depth: int, write, texts: dict) -> None:
    """``dump``'s writer. What it writes whole is a scalar or an empty
    container, whose text takes no indent, or a container ``depth`` levels
    down, at one indent for all of them. So ``texts`` caches each value's
    text by ``id``, and a value that appears more than once is encoded once.
    Each entry keeps its value alive beside its text, so no id is reused
    while the cache lives."""
    if not depth or not value or not isinstance(value, (list, tuple, dict)):
        hit = texts.get(id(value))
        if hit is None:
            hit = texts[id(value)] = (value, _encode(value, newline))
        write(hit[1])
        return
    inner = newline + "  "
    if isinstance(value, dict):
        # ``encode_basestring_ascii`` refuses a key that is not a str: a TypeError.
        heads = [(inner + encode_basestring_ascii(key) + ": ", item) for key, item in sorted(value.items())]
        opening, closing = "{", "}"
    else:
        opening, closing, heads = "[", "]", [(inner, item) for item in value]
    for index, (head, item) in enumerate(heads):
        write(("," if index else opening) + head)
        _stream(item, inner, depth - 1, write, texts)
    write(newline + closing)


def _encode(value, newline: str) -> str:
    """``value``'s text, its inner lines indented one step past ``newline``;
    types are tried in the order json's encoder tries them."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([_encode(item, inner) for item in value]) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(encode_basestring_ascii(key) + ": " + _encode(item, inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def wallet_name(names: Mapping[bytes, str], wallet: Optional[bytes]) -> Optional[str]:
    """A wallet's configured name, its hex id when it has none, or None for None."""
    return None if wallet is None else names.get(wallet, wallet.hex())


@dataclass
class RunReport:
    """Deterministic, JSON-serializable outcome of one ecosystem run. One
    memo per report shares its hex ids and equal small row values, so treat
    its values as read-only: replace a value rather than mutate it."""

    config: dict
    chains: list[dict]
    transfers: list[dict]
    vetoes: list[dict]
    consistency: list[dict]
    resync_events: list[dict]
    tx_counts: dict
    tx_counts_ok: dict
    stats: dict

    def to_json(self) -> str:
        """The report's canonical JSON: ``dumps`` of every field but ``chains``,
        whose snapshots ``chains_json`` writes to their own file."""
        return dumps({key: value for key, value in vars(self).items() if key != "chains"})

    def chains_json(self, out: TextIO) -> None:
        """Write ``dumps(self.chains)`` to ``out`` down to each snapshot's
        balance and record entries, so no chain's text is one string and a
        record dict that snapshots share is encoded once."""
        dump(self.chains, out, 3)

    def ledger_csv(self) -> str:
        """One row per transfer: ids, window, winner, per-chain contest counts,
        corrupted flag."""
        chain_ids = [str(c["chain_id"]) for c in self.chains]
        head = ["alpha", "sender", "recipient", "amount", "t0", "t1"]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(head + ["winner"] + [f"contests_chain_{cid}" for cid in chain_ids] + ["corrupted"])
        for row in self.transfers:
            writer.writerow(
                [row[key] for key in head] + [row["winner"] or ""]
                + [row["contest_counts"].get(cid, 0) for cid in chain_ids] + [int(row["corrupted"])]
            )
        return buf.getvalue()


def outcome(chains: Sequence[SimChain], alpha: bytes) -> tuple[dict[int, Optional[bytes]], dict[int, int], int]:
    """A proof's winner on each chain that executed it, its contest count on
    every chain, and how many chains vetoed it, read from the chains' records.
    None of these changes once every chain has concluded its finalize."""
    records = [(chain.chain_id, chain.state.poi_records.get(alpha)) for chain in chains]
    executed = {cid: record.winner for cid, record in records if record and record.status == FINALIZED}
    contest_counts = {cid: len(record.contestants) if record else 0 for cid, record in records}
    return executed, contest_counts, sum(1 for _, record in records if record and record.status == VETOED)


def check_consistency(states: Sequence[ChainState], names: Mapping[bytes, str]) -> list[dict]:
    """Empty iff every wallet's balance is identical on every chain; otherwise
    one row per divergent wallet, named, with the per-chain values."""
    if all(state.balances == states[0].balances for state in states):
        return []  # equal dicts: no wallet can diverge
    wallets: set[bytes] = set()
    for state in states:
        wallets.update(state.balances)
    rows = []
    for wallet in sorted(wallets):
        values = {state.chain_id: state.balance(wallet) for state in states}
        if len(set(values.values())) > 1:
            balances = {str(c): v for c, v in values.items()}
            rows.append({"wallet": wallet.hex(), "name": wallet_name(names, wallet), "balances": balances})
    return rows


def build_report(config: EcosystemConfig, chains: Sequence[SimChain], transfers: Iterable[_Transfer],
                 names: Mapping[bytes, str]) -> RunReport:
    """The report of a finished run, read from its chains' journals and
    records and its transfer trackers. ``transfers`` are the trackers in the
    order they were registered, ``names`` every configured wallet's name."""
    blocks = [entry for chain in chains for entry in chain.journal if isinstance(entry, Block)]
    kinds = [tx.kind for block in blocks for tx in block.transactions]
    tx_counts = Counter(kinds)
    tx_counts_ok = Counter(compress(kinds, [error is None for block in blocks for error in block.errors]))

    # Every chain journals every resync, so the chains' resyncs line up.
    resyncs = zip(*([entry for entry in chain.journal if isinstance(entry, Resync)] for chain in chains))
    resync_events = [{"at": row[0].at, "alpha": row[0].poi.alpha.hex(),
                      "settled_chains": [chain.chain_id for chain, entry in zip(chains, row) if entry.moved],
                      "winner": wallet_name(names, row[0].winner)} for row in resyncs]

    m = len(chains)
    # One memo for the whole report: each row's ``alpha`` is the snapshots'
    # own hex string, and equal small row values are one object, under keys
    # tagged apart from the snapshot memo's own.
    memo: dict = {}
    transfer_rows = []
    executed_full = failed = corrupted = vetoed = 0
    # The claimed transfers' contests on all chains: an integer, so their
    # mean per chain is one correctly rounded division on every Python.
    claimed = contests = 0
    for tracker in transfers:
        poi = tracker.poi
        # A refused claim was never judged, so it keeps empty outcomes.
        executed, contest_counts, vetoed_chains = outcome(chains, poi.alpha) if tracker.claim_ok else ({}, {}, 0)
        if tracker.claim_ok:
            claimed += 1
            contests += sum(contest_counts.values())
        # One winner on all m chains, as ``_detect`` judged it.
        executed_full += len(executed) == m and not tracker.corrupted
        claim_failed = tracker.claim_ok is False
        failed += claim_failed
        corrupted += tracker.corrupted
        vetoed += vetoed_chains > 0
        ids, won = sorted(executed), tuple(sorted(executed.items()))
        counts = tuple(sorted(contest_counts.items()))
        transfer_rows.append(
            {
                "alpha": memo.setdefault(poi.alpha, poi.alpha.hex()),
                "sender": wallet_name(names, poi.sender),
                "recipient": wallet_name(names, poi.recipient),
                "amount": poi.amount, "t0": poi.t0, "t1": poi.t1,
                "claim_chain": tracker.claim_chain,
                "claim_ok": tracker.claim_ok,
                "executed_chains": memo.setdefault(("executed_chains", *ids), ids),
                "winner": wallet_name(names, tracker.winner),
                "winners_by_chain": memo.setdefault(("winners_by_chain", won), {
                    str(cid): wallet_name(names, w) for cid, w in won
                }),
                "contest_counts": memo.setdefault(("contest_counts", counts), {str(cid): n for cid, n in counts}),
                "vetoed_chains": vetoed_chains,
                "corrupted": tracker.corrupted,
                "failed": claim_failed,
                "scripted": tracker.client is None,
                "self_transfer": poi.sender == poi.recipient,
            }
        )

    veto_rows = []
    for pair in sorted({pair for chain in chains for pair in chain.state.veto_records}):
        per_chain = {}
        for chain in chains:
            record = chain.state.veto_records.get(pair)
            if record is None:
                continue
            per_chain[str(chain.chain_id)] = {
                "status": record.status,
                "deadline": record.deadline,
                "winner": wallet_name(names, record.winner),
                "contestants": len(record.contestants),
            }
        winners = {info["winner"] for info in per_chain.values()}
        veto_rows.append({
            "alpha": pair[0].hex(), "alpha_prime": pair[1].hex(), "chains": per_chain,
            "consistent_winner": len(winners) == 1 and len(per_chain) == m,
        })

    stats = {
        "transfers_attempted": len(transfer_rows),
        "transfers_claimed": claimed,
        "transfers_executed": executed_full,
        "transfers_failed": failed,
        "transfers_corrupted": corrupted,
        "transfers_vetoed": vetoed,
        "mean_contests_per_chain": contests / (m * claimed) if claimed else 0.0,
        "blocks_per_chain": {str(chain.chain_id): chain.height for chain in chains},
    }
    # Every chain's snapshot shares one hex string per value, one dict per
    # proof and one dict per distinct proof or veto record.
    return RunReport(
        config=config.to_dict(),
        chains=[chain.state.snapshot(memo) for chain in chains],
        transfers=transfer_rows,
        vetoes=veto_rows,
        consistency=check_consistency([chain.state for chain in chains], names),
        resync_events=resync_events,
        tx_counts=tx_counts,
        tx_counts_ok=tx_counts_ok,
        stats=stats,
    )
