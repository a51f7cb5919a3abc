#!/usr/bin/env python3
"""Double-spend prevention in action.

Mallory holds 10 tokens and signs two conflicting 8-token transfers (same
sender, overlapping validity windows) claimed on two different chains. The
watchdogs spot the conflicting proofs, post vetoes on every chain, and the
protocol wipes her balance: neither transfer executes, 9 tokens burn, and the
lowest-signature vetoer earns the 1-token reward on every chain.
"""

from panchain import veto_demo, veto_demo_boundary
from panchain.ecosystem import Ecosystem


def show(title, config):
    eco = Ecosystem(config)
    report = eco.run()
    names = {kp.public_key.hex(): name for name, kp in eco.keys.items()}
    print(f"== {title}")
    for row in report.transfers:
        outcome = f"executed on {row['executed_chains']}" if row["executed_chains"] else "cancelled"
        print(f"  {row['sender']} -> {row['recipient']} ({row['amount']}): {outcome}")
    for row in report.vetoes:
        winners = {c: info["winner"] for c, info in row["chains"].items()}
        print(f"  veto contest deadline={next(iter(row['chains'].values()))['deadline']}, winners={winners}")
    snap = report.chains[0]
    balances = {names[a]: v for a, v in snap["balances"].items()}
    print(f"  balances (all chains agree): {dict(sorted(balances.items()))}")
    print(f"  burned per chain: {[s['burned'] for s in report.chains]}")
    print(f"  consistency: {'clean' if not report.consistency else report.consistency}\n")


show("plain double spend: everything cancelled, balance destroyed", veto_demo(seed=0))
show(
    "late conflict: the first transfer already finalized and stands;\n"
    "   only the reward-sized remainder is left to burn",
    veto_demo_boundary(seed=0),
)
