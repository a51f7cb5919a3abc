#!/usr/bin/env python3
"""What does a transfer cost, and when is witnessing worth it?

Per-transaction gas constants (measured on the reference contract deployment)
price out the roles: the receiver pays one claim plus one finalize per chain,
each posting observer pays one contest per chain, the sender pays nothing.
An observer wins the reward with likelihood log2(n)/n, giving a break-even
token price; the thresholds below use the cent-rounded observer cost.

Full campaign equivalent: panchain --campaign cost-report
"""

from panchain import min_viable_price, run, transfer_cost, worked_example
from panchain.costmodel import simulated_cost_report

cost = transfer_cost(m=10, n=10)
print("analytical, 10 chains / 10 observers:")
print(f"  receiver: {cost.receiver_kgas:7.1f} kGas = {cost.receiver_usd:.2f} USD")
print(f"  observer: {cost.observer_kgas:7.1f} kGas = {cost.observer_usd:.2f} USD "
      f"(about {cost.expected_posting_observers:.1f} observers post)")
print(f"  sender:   {cost.sender_usd:.2f} USD")

print("\nminimum viable token price:")
for n in (10, 100, 1000):
    print(f"  n={n:>5}: {min_viable_price(n):6.2f} USD")

report = run(worked_example(seed=0))
sim = simulated_cost_report(report.tx_counts, report.stats["transfers_executed"])
print("\nempirical (worked example, 3 chains, 3 contests per chain):")
for role, usd in sorted(sim["usd_by_role"].items()):
    print(f"  {role:<9} {usd:.4f} USD")
