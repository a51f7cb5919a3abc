#!/usr/bin/env python3
"""Walk through a single cross-chain transfer end to end.

Three chains, a sender holding 80 tokens, and three observers. The recipient
claims a 20-token transfer with a one-minute validity window on chain 0; the
observers propagate it by joining the witness contest on every chain; after
the window closes the transfer finalizes everywhere and the lowest-signature
contestant collects the 1-token reward.
"""

from panchain import worked_example
from panchain.chain import block_log_entry
from panchain.ecosystem import Ecosystem

config = worked_example(seed=0)
eco = Ecosystem(config)
report = eco.run()

names = {kp.public_key.hex(): name for name, kp in eco.keys.items()}

print("block-by-block:")
for chain in eco.chains:
    for block in chain.blocks:
        entry = block_log_entry(chain.chain_id, block)
        for tx in entry["txs"]:
            flag = "ok" if tx["ok"] else f"rejected ({tx['error']})"
            print(f"  chain {chain.chain_id} t={block.timestamp:>5.0f}  {tx['kind']:<9} {flag}")

print("\nfinal balances (identical on every chain):")
for snap in report.chains:
    line = ", ".join(f"{names[a]}={v}" for a, v in sorted(snap["balances"].items(), key=lambda kv: names[kv[0]]))
    print(f"  chain {snap['chain_id']}: {line}")

row = report.transfers[0]
print(f"\ntransfer of {row['amount']} finalized on chains {row['executed_chains']},")
print(f"witness contest had {row['contest_counts']} contestants per chain,")
print(f"reward went to {row['winner']!r} (lowest contest signature).")
print(f"cross-chain consistency check: {'clean' if not report.consistency else report.consistency}")
