"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (use `pytest -s tests/test_acceptance.py` to see them as
they complete)."""

import hashlib
import random
import sys
import time
from pathlib import Path

from panchain.cli import (
    ExperimentSpec,
    cmd_contest_scaling,
    cmd_run,
    cmd_sweep_validity,
)
from panchain.configs import (
    EcosystemConfig,
    ScriptedAction,
    TransferLeg,
    WalletSpec,
    worked_example,
)
from panchain.contract import ChainState
from panchain.costmodel import min_viable_price, transfer_cost
from panchain.crypto import sign
from panchain.ecosystem import Ecosystem
from panchain.protocol import (
    encode_poi,
    make_claim,
    make_contest,
    make_finalize,
    make_poi,
    make_veto,
)

from conftest import keypair


def _report(k: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {k} [{name}]: {status} {detail}".rstrip(), file=sys.stderr)
    assert ok, f"criterion {k} ({name}) failed: {detail}"


# -- 1: worked-example golden state ---------------------------------------


def test_criterion_1_worked_example_golden():
    start = time.perf_counter()
    config = worked_example(seed=0)
    eco = Ecosystem(config)
    report = eco.run()
    elapsed = time.perf_counter() - start

    poi = eco._transfers[bytes.fromhex(report.transfers[0]["alpha"])].poi
    observers = ("ursula", "victor", "wanda")
    omegas = {name: sign(eco.keys[name], encode_poi(poi)) for name in observers}
    winner = min(omegas, key=lambda n: (omegas[n], eco.keys[n].public_key))
    expected = {"sender": 60, "recipient": 19}
    for name in observers:
        expected[name] = 1 if name == winner else 0

    ok = elapsed < 1.0
    for snap in report.chains:
        actual = {
            name: snap["balances"][eco.keys[name].public_key.hex()] for name in expected
        }
        ok = ok and actual == expected
        ok = ok and sum(snap["balances"].values()) + snap["burned"] == 80
    contest_sets = [row["contest_counts"] for row in report.transfers]
    ok = ok and contest_sets == [{"0": 3, "1": 3, "2": 3}]
    _report(
        1,
        "worked-example golden state",
        ok,
        f"(60, 19, 1) on all chains, winner={winner}, {elapsed:.2f}s",
    )


# -- 2: validity-period threshold ------------------------------------------


def test_criterion_2_validity_threshold(tmp_path):
    points = tuple(range(10, 71, 5))
    seeds = tuple(range(10))
    start = time.perf_counter()
    result = cmd_sweep_validity(
        ExperimentSpec(
            campaign="sweep-validity",
            config={"sweep": {"validity_points": points}},
            out_dir=tmp_path,
            seeds=seeds,
        )
    )
    elapsed = time.perf_counter() - start

    summary = (tmp_path / "sweep-validity" / "sweep-validity-summary.csv").read_text()
    means, totals = {}, {}
    for line in summary.splitlines()[1:]:
        validity, mean, total, _ = line.split(",")
        means[int(validity)] = float(mean)
        totals[int(validity)] = int(total)

    clean_beyond_52 = all(totals[v] == 0 for v in points if v >= 52)
    corrupted_at_short = any(totals[v] >= 1 for v in points if v <= 13)
    ordered = [means[v] for v in points]
    monotone = all(a >= b for a, b in zip(ordered, ordered[1:]))
    ok = (
        clean_beyond_52
        and corrupted_at_short
        and monotone
        and not result["errors"]
        and elapsed < 120.0
    )
    _report(
        2,
        "validity threshold",
        ok,
        f"means={ordered}, clean>=52s={clean_beyond_52}, short<=13s={corrupted_at_short}, "
        f"monotone={monotone}, {elapsed:.0f}s",
    )


# -- 3: contest scaling ------------------------------------------------------


def test_criterion_3_contest_scaling(tmp_path):
    start = time.perf_counter()
    result = cmd_contest_scaling(
        ExperimentSpec(
            campaign="contest-scaling",
            config={"scaling": {"n_values": [4, 16, 64], "runs": 200}},
            out_dir=tmp_path,
            seeds=(0,),
        )
    )
    elapsed = time.perf_counter() - start

    ok = not result["errors"] and elapsed < 60.0
    details = []
    csv_text = (tmp_path / "contest-scaling" / "contest-scaling-0.csv").read_text()
    for line in csv_text.splitlines()[1:]:
        n, _, mean, se, harmonic, log2n = line.split(",")
        mean, se, harmonic, log2n = float(mean), float(se), float(harmonic), float(log2n)
        within_harmonic = abs(mean - harmonic) <= 3 * se
        below_log_bound = mean <= log2n + 3 * se
        ok = ok and within_harmonic and below_log_bound
        details.append(f"n={n}: {mean:.2f} vs H={harmonic:.2f}±{3 * se:.2f}, log2={log2n:.0f}")
    _report(3, "contest scaling", ok, "; ".join(details) + f", {elapsed:.0f}s")


# -- 4 and 5: cost and incentive reproduction --------------------------------


def test_criterion_4_cost_reproduction():
    cost = transfer_cost(m=10, n=10)
    receiver_ok = abs(cost.receiver_usd - 0.59) <= 0.005
    observer_ok = abs(cost.observer_usd - 0.94) <= 0.005
    _report(
        4,
        "cost reproduction",
        receiver_ok and observer_ok,
        f"receiver={cost.receiver_usd:.4f} USD, observer={cost.observer_usd:.4f} USD",
    )


def test_criterion_5_incentive_thresholds():
    values = {n: min_viable_price(n) for n in (10, 100, 1000)}
    targets = {10: 2.83, 100: 14.15, 1000: 94.32}
    ok = all(abs(values[n] - targets[n]) <= 0.01 for n in targets)
    _report(
        5,
        "incentive thresholds",
        ok,
        ", ".join(f"n={n}: {values[n]:.4f}" for n in sorted(values)),
    )


# -- 6: randomized double-spend suite ----------------------------------------


def _adversary_scenario(rng: random.Random, seed: int) -> EcosystemConfig:
    balance = rng.randint(5, 40)
    amounts = [rng.randint(2, balance) for _ in range(2)]
    t0a = rng.randint(1, 8)
    t0b = rng.randint(1, 8)
    windows = [
        (t0a, t0a + 52 + rng.randint(0, 30)),
        (t0b, t0b + 52 + rng.randint(0, 30)),
    ]
    chains = [rng.randrange(3), rng.randrange(3)]  # may coincide
    claim_times = [1.0 + rng.uniform(0, 12), 1.0 + rng.uniform(0, 12)]
    observers = tuple(f"obs-{i:02d}" for i in range(rng.randint(2, 4)))
    wallets = [
        WalletSpec("mallory", balance),
        WalletSpec("alice", 0),
        WalletSpec("bob", 0),
        *(WalletSpec(name, 0) for name in observers),
    ]
    legs = tuple(
        TransferLeg(
            at=claim_times[i],
            recipient=("alice", "bob")[i],
            amount=amounts[i],
            t0=windows[i][0],
            t1=windows[i][1],
            chain=chains[i],
        )
        for i in range(2)
    )
    return EcosystemConfig(
        chains=3,
        block_interval=13.0,
        wallets=tuple(wallets),
        observers=observers,
        reward=1,
        duration=float(max(w[1] for w in windows) + 10),
        seed=seed,
        script=(ScriptedAction(kind="double_spend", sender="mallory", legs=legs),),
    )


def test_criterion_6_double_spend_suite():
    rng = random.Random(20260810)
    start = time.perf_counter()
    failures = []
    for case in range(50):
        config = _adversary_scenario(rng, seed=9000 + case)
        eco = Ecosystem(config)
        report = eco.run()  # audit() inside run() enforces conservation
        mallory = eco.keys["mallory"].public_key.hex()
        issues = []
        for snap in report.chains:
            if snap["balances"].get(mallory, 0) != 0:
                issues.append(f"sender not zeroed on chain {snap['chain_id']}")
            if sum(snap["balances"].values()) + snap["burned"] != snap["initial_supply"]:
                issues.append(f"supply broken on chain {snap['chain_id']}")
        for row in report.transfers:
            if row["executed_chains"]:
                issues.append(f"conflicting transfer executed on {row['executed_chains']}")
        if len(report.vetoes) != 1:
            issues.append(f"expected one veto contest, saw {len(report.vetoes)}")
        for row in report.vetoes:
            if not row["consistent_winner"]:
                issues.append("veto winners differ across chains")
            statuses = {info["status"] for info in row["chains"].values()}
            if statuses != {"finalized"} or len(row["chains"]) != 3:
                issues.append(f"veto contest not finalized everywhere: {row['chains']}")
        if report.consistency:
            issues.append(f"inconsistent balances: {report.consistency}")
        if issues:
            failures.append({"case": case, "issues": issues})
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    _report(
        6,
        "double-spend property suite",
        ok,
        f"50 scenarios, {elapsed:.1f}s" + (f", failures={failures[:3]}" if failures else ""),
    )


# -- 7: campaign determinism ---------------------------------------------------


def _dir_hashes(root: Path) -> dict[str, str]:
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_criterion_7_determinism(tmp_path):
    campaigns = [
        (
            cmd_run,
            {"campaign": "run", "config": {}, "seeds": (0, 1)},
        ),
        (
            cmd_contest_scaling,
            {
                "campaign": "contest-scaling",
                "config": {"scaling": {"n_values": [4], "runs": 30}},
                "seeds": (0,),
            },
        ),
        (
            cmd_sweep_validity,
            {
                "campaign": "sweep-validity",
                "config": {"sweep": {"validity_points": [15]}},
                "seeds": (0,),
            },
        ),
    ]
    ok = True
    for handler, kw in campaigns:
        first = tmp_path / kw["campaign"] / "a"
        second = tmp_path / kw["campaign"] / "b"
        handler(ExperimentSpec(out_dir=first, **kw))
        handler(ExperimentSpec(out_dir=second, **kw))
        ok = ok and _dir_hashes(first) == _dir_hashes(second)
    _report(7, "campaign determinism", ok, "byte-identical outputs across re-runs")


# -- 8: order independence ------------------------------------------------------


def _random_valid_set(rng: random.Random):
    senders = [keypair(f"acc-s{rng.randrange(10**9)}") for _ in range(3)]
    recipients = [keypair(f"acc-r{rng.randrange(10**9)}") for _ in range(2)]
    observers = [keypair(f"acc-o{rng.randrange(10**9)}") for _ in range(3)]
    balances = {kp.public_key: 300 for kp in senders}
    for kp in recipients + observers:
        balances.setdefault(kp.public_key, 0)
    claims, contests, finalizes = [], [], []
    for sender in senders:
        cursor = 1
        for _ in range(rng.randint(1, 3)):
            t0, t1 = cursor, cursor + rng.randint(5, 30)
            cursor = t1 + 1
            poi = make_poi(sender, rng.choice(recipients), amount=rng.randint(2, 40), t0=t0, t1=t1)
            claims.append(make_claim(poi))
            for observer in observers:
                if rng.random() < 0.6:
                    contests.append(make_contest(observer, poi))
            finalizes.append(make_finalize(recipients[0], poi.alpha))
    return balances, claims, contests, finalizes


def _apply_permuted(balances, claims, contests, finalizes, shuffle_rng):
    state = ChainState(0, dict(balances), reward=1)
    early = claims + contests
    shuffle_rng.shuffle(early)
    for tx in early:
        state.apply(tx, now=1)
    horizon = max(tx.poi.t1 for tx in claims) + 1
    late = list(finalizes)
    shuffle_rng.shuffle(late)
    for tx in late:
        state.apply(tx, now=horizon)
    state.audit()
    return state.snapshot()


def test_criterion_8_order_independence():
    rng = random.Random(88)
    ok = True
    for case in range(100):
        balances, claims, contests, finalizes = _random_valid_set(rng)
        one = _apply_permuted(balances, claims, contests, finalizes, random.Random(case))
        two = _apply_permuted(balances, claims, contests, finalizes, random.Random(case + 7777))
        if one["balances"] != two["balances"] or one != two:
            ok = False
            break

    # veto scenarios with swapped discovery order end in identical states
    sender = keypair("acc-veto-sender")
    a = make_poi(sender, keypair("acc-veto-r1"), amount=8, t0=1, t1=61)
    b = make_poi(sender, keypair("acc-veto-r2"), amount=8, t0=5, t1=65)
    watchdogs = [keypair(f"acc-w{i}") for i in range(2)]
    balances = {sender.public_key: 10}
    for kp in watchdogs:
        balances[kp.public_key] = 0

    def veto_path(first, second):
        state = ChainState(0, dict(balances), reward=1)
        state.apply(make_claim(first), now=1)
        state.apply(make_veto(watchdogs[0], first, second), now=10)
        state.apply(make_veto(watchdogs[1], second, first), now=11)
        from panchain.protocol import make_finalize_veto

        state.apply(make_finalize_veto(watchdogs[0], first.alpha, second.alpha), now=200)
        state.audit()
        snap = state.snapshot()
        # the claim-order difference leaves no trace beyond record insertion,
        # compare the full canonical form
        return snap

    forward = veto_path(a, b)
    backward = veto_path(b, a)
    ok = ok and forward["balances"] == backward["balances"]
    ok = ok and forward["veto_records"] == backward["veto_records"]
    ok = ok and forward["burned"] == backward["burned"]
    _report(8, "order independence", ok, "100 permuted sets + swapped veto discovery")
