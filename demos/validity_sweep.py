#!/usr/bin/env python3
"""How short can the validity window get before transfers corrupt?

Ten clients trade continuously for 30 simulated minutes at 13-second blocks.
With a short window, contests cannot reach the other chains before expiry, so
transfers finalize on the claim chain only. Those are counted as corrupted,
and resync finalizes each one on every chain with the winner most of its
executing chains chose, so the workload can continue. The script prints the
shortest window from which no seed corrupts a transfer; the paper's 52 s
(four block times) is a safety margin above it, not this threshold.

Full campaign equivalent: panchain --campaign sweep-validity --seeds 0,...,9
"""

from panchain import run, sweep_config

SEEDS = (0, 1, 2)
POINTS = (10, 15, 20, 25, 30, 40, 52, 65)

first_clean = None  # the shortest point from which every longer one is clean too
print(f"{'validity':>9} {'corrupted (per seed)':>24} {'attempted':>10}")
for validity in POINTS:
    corrupted, attempted = [], []
    for seed in SEEDS:
        report = run(sweep_config(validity=validity, seed=seed))
        corrupted.append(report.stats["transfers_corrupted"])
        attempted.append(report.stats["transfers_attempted"])
        assert not report.consistency, "balances must re-converge after resync"
    print(f"{validity:>8}s {str(corrupted):>24} {sum(attempted) // len(SEEDS):>10}")
    if any(corrupted):
        first_clean = None
    elif first_clean is None:
        first_clean = validity

if first_clean is None:
    print("\nevery seed still corrupts transfers at the longest window swept.")
else:
    print(f"\nno seed corrupts a transfer from {first_clean} s on; the paper's four block"
          " times (52 s) is a safety margin above that.")
