#!/usr/bin/env python3
"""Witness-contest scaling: how many of n observers actually post?

Observers skip the contest when a lower signature is already confirmed, so
with serialized looks at the chain the posting count follows the record
process over n uniform values: mean H_n = 1 + 1/2 + ... + 1/n, which stays
under the log2(n) halving bound from n = 5 on (H_5 = 2.283 < 2.322). For
n = 2, 3 and 4 it is above it: H_4 = 2.083 > 2.

Full campaign equivalent: panchain --campaign contest-scaling --config c.json,
with c.json holding {"scaling": {"runs": 200}}
"""

import math
import statistics

from panchain import contest_scaling_config, run

RUNS = 60

print(f"{'n':>4} {'posted/chain':>13} {'H_n':>7} {'log2 n':>7}")
for n in (1, 4, 16, 64):
    counts = []
    for seed in range(RUNS):
        report = run(contest_scaling_config(n, seed=seed))
        counts.append(list(report.transfers[0]["contest_counts"].values())[0])
    harmonic = sum(1 / k for k in range(1, n + 1))
    log2n = math.log2(n) if n > 1 else float("nan")
    print(f"{n:>4} {statistics.mean(counts):>13.2f} {harmonic:>7.2f} {log2n:>7.2f}")

print("\nevery chain sees the same contestants, so the reward never splits.")
