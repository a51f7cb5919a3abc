"""Analytical transaction-cost and witness-incentive calculator.

Gas figures are constants measured on the reference contract deployment (mean
and standard deviation per transaction type, in kGas); they are carried, not
re-measured. USD conversion assumes a flat gas price in Gwei and an Ether/USD
rate. The incentive threshold answers: how expensive must one token unit be
for rational observers to keep posting contest transactions?
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping


@dataclass(frozen=True)
class GasCost:
    mean_kgas: float
    std_kgas: float = 0.0

    def __post_init__(self) -> None:
        if self.mean_kgas <= 0:
            raise ValueError("mean cost must be positive")


@dataclass(frozen=True)
class GasTable:
    """Measured per-transaction cost, in thousands of gas units."""

    claim: GasCost = GasCost(57.7, 11.1)
    contest: GasCost = GasCost(81.5, 64.2)
    finalize: GasCost = GasCost(45.5, 0.1)
    veto: GasCost = GasCost(131.3, 91.9)
    finalize_veto: GasCost = GasCost(48.6, 1.7)

    def mean(self, kind: str) -> float:
        return getattr(self, kind).mean_kgas


@dataclass(frozen=True)
class PriceModel:
    gas_price_gwei: float = 10.0
    ether_usd: float = 115.71

    def __post_init__(self) -> None:
        if self.gas_price_gwei < 0 or self.ether_usd < 0:
            raise ValueError("prices must be non-negative")

    def usd(self, kgas: float) -> float:
        # 1 kGas = 1000 gas; 1 Ether = 1e9 Gwei.
        return kgas * 1000 * self.gas_price_gwei * 1e-9 * self.ether_usd


@dataclass(frozen=True)
class TransferCost:
    """Expected per-transfer cost breakdown by role for m chains, n observers:
    field for field the ``transfer_cost`` block of ``cost-report.json``."""

    receiver_kgas: float
    observer_kgas: float  # per posting observer
    receiver_usd: float
    observer_usd: float
    sender_usd: float
    expected_posting_observers: float


def transfer_cost(
    m: int,
    n: int,
    gas: GasTable = GasTable(),
    price: PriceModel = PriceModel(),
) -> TransferCost:
    """Expected cost of one conflict-free transfer.

    The receiver pays one claim plus one finalize per chain; each posting
    observer pays one contest per chain; the sender pays nothing.
    ``expected_posting_observers`` is log2(n), the paper's assumption, kept
    for its published figures. The simulated mean under staggered observation
    is H_n ~ ln n + 0.577 (7.49 against 9.97 at n = 1000).
    """
    if m < 1:
        raise ValueError("need at least one chain")
    if n < 1:
        raise ValueError("need at least one observer")
    receiver_kgas = gas.claim.mean_kgas + m * gas.finalize.mean_kgas
    observer_kgas = m * gas.contest.mean_kgas
    return TransferCost(
        receiver_kgas=receiver_kgas,
        observer_kgas=observer_kgas,
        receiver_usd=price.usd(receiver_kgas),
        observer_usd=price.usd(observer_kgas),
        sender_usd=0.0,
        expected_posting_observers=math.log2(n),
    )


def min_viable_price(
    n: int,
    m: int = 10,
    reward: int = 1,
    gas: GasTable = GasTable(),
    price: PriceModel = PriceModel(),
) -> float:
    """Token price (USD) above which posting contests has positive expected value.

    A posting observer invests the cost of m contests. The paper assumes it
    wins the reward with likelihood log2(n)/n, so the break-even token price
    is cost * n / (log2(n) * reward); the formula is kept for the paper's
    published thresholds. The simulated mean number of posting observers
    under staggered observation is H_n ~ ln n + 0.577, not log2(n) (7.49
    against 9.97 at n = 1000). The investment is first rounded to whole
    cents, as the published thresholds are.
    """
    if n < 2:
        raise ValueError("incentive threshold needs n >= 2 observers")
    if reward <= 0:
        raise ValueError("reward must be positive")
    observer_usd = round(transfer_cost(m, n, gas, price).observer_usd, 2)
    return observer_usd * n / (math.log2(n) * reward)


def simulated_cost_report(
    tx_counts: Mapping[str, int],
    transfers_executed: int,
    gas: GasTable = GasTable(),
    price: PriceModel = PriceModel(),
) -> dict:
    """Empirical cost breakdown for a completed run, from the transactions the
    chains actually included, by kind (a run report's ``tx_counts``; gas is
    spent whether or not a transaction was accepted at apply time), and the
    number of transfers executed on every chain."""
    kinds = ("claim", "contest", "finalize", "veto", "finalize_veto")
    kgas = {kind: tx_counts.get(kind, 0) * gas.mean(kind) for kind in kinds}
    role_kgas = {
        "receiver": kgas["claim"] + kgas["finalize"],
        "observer": kgas["contest"],
        "watchdog": kgas["veto"] + kgas["finalize_veto"],
        "sender": 0.0,
    }
    report = {
        "tx_counts": {kind: tx_counts.get(kind, 0) for kind in kinds},
        "kgas_by_kind": kgas,
        "kgas_by_role": role_kgas,
        "usd_by_role": {role: price.usd(v) for role, v in role_kgas.items()},
        "transfers_executed": transfers_executed,
    }
    if transfers_executed:
        report["per_transfer_usd"] = {
            role: price.usd(v) / transfers_executed for role, v in role_kgas.items()
        }
    return report
