#!/usr/bin/env python3
"""Benchmark of the panchain simulator: four campaign workloads, each driven
through the program's public entry point ``panchain.cli.main``.

    python3 perfbench/bench.py --workload client-load --seed 0 --seconds 20 --trace 0

Load shape: a closed batch. One process and one caller run the workload's
fixed campaign calls back to back, in-process, with ``--jobs 1``; a pass is
one run of all of them. Passes repeat until ``--seconds`` have elapsed, at
least two, and must all give the same simulation fingerprint. Inputs come
from ``--seed`` only and reach the program as config files.

Every timing is host time rescaled to a reference speed. A timer signal
runs a fixed kernel of pure-Python and big-integer work, unrelated to
panchain, every ``PROBE_INTERVAL_S`` throughout the passes. The benchmark's
clock leaves the kernel's own time out and advances at ``REFERENCE_KERNEL_S``
over the kernel's recent median time per host second. The machine's speed
drifts by a third within minutes, and the kernel drifts with it.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one untraced
and one traced pass and reports the per-layer metrics. The last stdout line
is ``{"correct", "attempted", "failed", "metrics"}``, holding the metrics
that BENCHMARK.json names; the table above it and a result file under
``.perfbench_out/`` hold the rest. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional

from tracing import MODULES, Tracer, layer_metrics

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
OUT = REPO / ".perfbench_out"
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())

SETUP_REPEATS = 5
MIN_PASSES = 2
DOUBLE_SPENDERS = 40

# Timings are rescaled to a machine on which one kernel run takes this long.
REFERENCE_KERNEL_S = 0.005
PROBE_INTERVAL_S = 0.1
# The clock's rate follows the median of this many latest kernel runs.
PROBE_WINDOW = 5
KERNEL_PRIME = 2**256 - 189
KERNEL_EXPONENT = 2**255 - 19


# -- workloads -----------------------------------------------------------------


@dataclass(frozen=True)
class Call:
    """One ``cli.main`` invocation: a campaign, its config file's content, its seeds."""

    campaign: str
    config: dict
    seeds: tuple[int, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[Call, ...]
    # Run config -> "heavy", "light" or None: load_scaling is host seconds per
    # transfer over the heavy runs divided by that over the light runs.
    load_class: Callable[[dict], Optional[str]]
    # No transfer may be corrupted at a validity window at least this long.
    clean_validity: Optional[int] = None
    # Contest means must lie within 3 standard errors of H_n.
    check_harmonic: bool = False


def _ecosystem(clients: int, **extra) -> dict:
    return {
        "chains": 3, "block_interval": 13.0, "clients": clients, "client_balance": 100,
        "observers": 5, "validity_length": 65, "duration": 1800.0, **extra,
    }


def validity_grid(seed: int) -> Workload:
    def load_class(cfg: dict) -> Optional[str]:
        if cfg["validity_length"] <= 25:
            return "heavy"
        return "light" if cfg["validity_length"] >= 55 else None

    sweep = {"sweep": {"validity_points": list(range(10, 71, 5))}}
    return Workload("validity-grid", (Call("sweep-validity", sweep, (seed,)),),
                    load_class, clean_validity=52)


def client_load(seed: int) -> Workload:
    # Ten 10-client seeds against one 100-client seed: about 1,500 transfers a side.
    return Workload(
        "client-load",
        (
            Call("run", {"ecosystem": _ecosystem(10)}, tuple(range(10 * seed, 10 * seed + 10))),
            Call("run", {"ecosystem": _ecosystem(100)}, (seed,)),
        ),
        lambda cfg: {10: "light", 100: "heavy"}.get(len(cfg["clients"])),
    )


def contest_scaling(seed: int) -> Workload:
    scaling = {"scaling": {"n_values": [4, 16, 64], "runs": 200}}
    return Workload(
        "contest-scaling",
        (Call("contest-scaling", scaling, (seed,)),),
        lambda cfg: {4: "light", 64: "heavy"}.get(len(cfg["observers"])),
        check_harmonic=True,
    )


def veto_mix(seed: int) -> Workload:
    """Ten honest clients plus double-spending wallets, each signing two
    overlapping proofs claimed within 12 s of each other on random chains.
    The same seed without the wallets is the light side of load_scaling."""
    rng = random.Random(f"veto-mix/{seed}")
    clients = [f"client-{i:02d}" for i in range(10)]
    wallets, script = {}, []
    for i in range(DOUBLE_SPENDERS):
        name = f"ds-{i:02d}"
        wallets[name] = 100
        at = rng.uniform(1.0, 1700.0)
        legs = []
        for recipient in rng.sample(clients, 2):
            t0 = int(at) + 2
            legs.append({
                "at": at, "recipient": recipient, "amount": rng.randint(2, 100),
                "t0": t0, "t1": t0 + rng.randint(52, 82), "chain": rng.randrange(3),
            })
            at += rng.uniform(0.0, 12.0)
        script.append({"kind": "double_spend", "sender": name, "legs": legs})
    return Workload(
        "veto-mix",
        (
            Call("run", {"ecosystem": _ecosystem(10, wallets=wallets, script=script)}, (seed,)),
            Call("run", {"ecosystem": _ecosystem(10)}, (seed,)),
        ),
        lambda cfg: "heavy" if cfg["script"] else "light",
    )


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "validity-grid": validity_grid,
    "client-load": client_load,
    "contest-scaling": contest_scaling,
    "veto-mix": veto_mix,
}


# -- set-up ----------------------------------------------------------------------


def import_panchain() -> SimpleNamespace:
    """Import panchain afresh from this checkout's ``src``."""
    if not (SRC / "panchain" / "__init__.py").is_file():
        raise SystemExit(f"bench: no panchain package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "panchain" or m.startswith("panchain.")]:
        del sys.modules[name]
    pc = SimpleNamespace(**{m: importlib.import_module(f"panchain.{m}") for m in MODULES})
    if not Path(pc.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"bench: panchain imported from {pc.cli.__file__}, not {SRC}")
    return pc


def setup(name: str, seed: int, work: Path) -> tuple[SimpleNamespace, Workload, list[Path]]:
    """Everything before the first timed call: import, build and write the configs."""
    pc = import_panchain()
    workload = WORKLOADS[name](seed)
    paths = []
    for i, call in enumerate(workload.calls):
        path = work / f"config-{i}.json"
        path.write_text(json.dumps(call.config, sort_keys=True, indent=1) + "\n")
        paths.append(path)
    return pc, workload, paths


# -- correctness gate ------------------------------------------------------------


def check_report(report, clean_validity: Optional[int] = None) -> list[tuple[str, str]]:
    """(check, message) for every check one RunReport fails; empty when it passes."""
    problems = []
    if report.consistency:
        problems.append(("consistency", f"final balances differ across chains for {len(report.consistency)} wallets"))
    for row in report.vetoes:
        if not row["consistent_winner"]:
            problems.append(("veto-winner", f"veto {row['alpha'][:12]}: winners differ across chains"))
    for snap in report.chains:
        cid = snap["chain_id"]
        negative = [v for v in snap["balances"].values() if v < 0]
        if negative:
            problems.append(("negative-balance", f"chain {cid}: {len(negative)} negative balances"))
        if snap["burned"] < 0:
            problems.append(("burned", f"chain {cid}: burned is {snap['burned']}"))
        supply = sum(snap["balances"].values())
        cap = snap["initial_supply"] + snap["resync_adjustment"]
        if supply > cap:
            problems.append(("minted", f"chain {cid}: circulating supply {supply} exceeds {cap}"))
    if clean_validity is not None and report.config["validity_length"] >= clean_validity:
        corrupted = sum(1 for t in report.transfers if t["corrupted"])
        if corrupted:
            problems.append(("corrupted", f"{corrupted} corrupted transfers at validity "
                                          f"{report.config['validity_length']} s"))
    return problems


def check_harmonic(csv_text: str) -> list[str]:
    problems = []
    for line in csv_text.splitlines()[1:]:
        n, _runs, mean, se, harmonic, _log2 = line.split(",")
        if abs(float(mean) - float(harmonic)) > 3 * float(se):
            problems.append(f"n={n}: mean contests {mean} is not within 3 SE ({se}) of H_n={harmonic}")
    return problems


def _describe(cfg: dict) -> str:
    return (f"seed {cfg['seed']}, {len(cfg['clients'])} clients, {len(cfg['observers'])} observers, "
            f"validity {cfg['validity_length']} s, {len(cfg['script'])} scripted actions")


# -- one pass --------------------------------------------------------------------


@dataclass
class Pass:
    wall_s: float = 0.0
    host_wall_s: float = 0.0
    # Per simulation run, in run order.
    run_s: list[float] = field(default_factory=list)
    run_transfers: list[int] = field(default_factory=list)
    run_sides: list[Optional[str]] = field(default_factory=list)
    # Each set-up repeat before the pass.
    setup_s: list[float] = field(default_factory=list)
    failed: int = 0
    silent: int = 0
    problems: list[str] = field(default_factory=list)
    sim: dict = field(default_factory=dict)

    @property
    def runs(self) -> int:
        return len(self.run_s)

    @property
    def transfers(self) -> int:
        return sum(self.run_transfers)


def throughput(p: Pass) -> tuple[float, float]:
    """(transfers_per_s, load_scaling) of one pass."""
    per_transfer = {}
    for side in ("heavy", "light"):
        picked = [(s, t) for s, t, x in zip(p.run_s, p.run_transfers, p.run_sides) if x == side]
        per_transfer[side] = sum(s for s, _ in picked) / sum(t for _, t in picked)
    return p.transfers / sum(p.run_s), per_transfer["heavy"] / per_transfer["light"]


def kernel() -> None:
    """Fixed work outside panchain, of the kinds a pass spends its time on:
    256-bit modular powers, SHA-256, and small dicts, tuples and strings."""
    x, table = 3, {}
    for i in range(20):
        x = pow(x + i, KERNEL_EXPONENT, KERNEL_PRIME)
        digest = hashlib.sha256(x.to_bytes(32, "big")).digest()
        for j in range(40):
            table[(i * 40 + j) & 255] = (digest[j & 31], str(j), x & j)


class SpeedProbe:
    """Clocks that follow the machine's speed while a workload runs.

    While entered, a timer signal runs the kernel every ``PROBE_INTERVAL_S``
    of host time, so the samples cover long simulation runs too. ``clock()``
    reads reference seconds: host time less the kernel's own, advancing at
    ``REFERENCE_KERNEL_S`` over the median of the latest ``PROBE_WINDOW``
    kernel runs per host second. ``host()`` reads host time less the
    kernel's own.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []  # host seconds of each kernel run
        self._busy = False
        # (host time, clock() then, reference seconds per host second, kernel seconds so far)
        self._mark = (time.perf_counter(), 0.0, 1.0, 0.0)

    def _read(self) -> tuple[float, tuple]:
        while True:
            mark = self._mark
            now = time.perf_counter()
            if mark is self._mark:  # no sample ran in between
                return now, mark

    def clock(self) -> float:
        now, (host, ref, rate, _spent) = self._read()
        return ref + (now - host) * rate

    def host(self) -> float:
        now, (_host, _ref, _rate, spent) = self._read()
        return now - spent

    def sample(self, *_signal) -> None:
        if self._busy:  # the timer fired again during a sample
            return
        self._busy = True
        start = time.perf_counter()
        host, ref, rate, spent = self._mark
        # The collector stays off, so the heap a pass holds cannot slow the kernel.
        collecting = gc.isenabled()
        gc.disable()
        try:
            kernel()
        finally:
            if collecting:
                gc.enable()
        self.samples.append(time.perf_counter() - start)
        new_rate = REFERENCE_KERNEL_S / statistics.median(self.samples[-PROBE_WINDOW:])
        end = time.perf_counter()
        self._mark = (end, ref + (start - host) * rate, new_rate, spent + end - start)
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        for _ in range(PROBE_WINDOW):
            self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


@contextlib.contextmanager
def captured_runs(ecosystem_cls, sink: list, clock: Callable[[], float]):
    """Record (report, host seconds) for every ``Ecosystem.run``."""
    original = ecosystem_cls.__dict__["run"]

    def run(self):
        start = clock()
        report = original(self)
        sink.append((report, clock() - start))
        return report

    ecosystem_cls.run = run
    try:
        yield
    finally:
        ecosystem_cls.run = original


def fingerprint(out: Path) -> str:
    """Digest over every file the campaigns wrote, by relative path."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(out).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def run_pass(pc: SimpleNamespace, workload: Workload, configs: list[Path], out: Path,
             probe: SpeedProbe, tracer: Optional[Tracer] = None) -> Pass:
    result = Pass()
    tx_counts: dict[str, int] = {}
    tx_counts_ok: dict[str, int] = {}
    blocks = 0
    for i, (call, config) in enumerate(zip(workload.calls, configs)):
        call_out = out / f"call-{i}"
        argv = ["--campaign", call.campaign, "--config", str(config), "--out", str(call_out),
                "--seeds", ",".join(map(str, call.seeds)), "--jobs", "1"]
        reports: list = []
        stdout = io.StringIO()
        with captured_runs(pc.ecosystem.Ecosystem, reports, probe.clock):
            try:
                if tracer is not None:
                    tracer.instrument(pc)
                start, host_start = probe.clock(), probe.host()
                with contextlib.redirect_stdout(stdout):
                    code = pc.cli.main(argv)
                result.wall_s += probe.clock() - start
                result.host_wall_s += probe.host() - host_start
            finally:
                if tracer is not None:
                    tracer.restore()

        status = json.loads(stdout.getvalue().splitlines()[-1])["status"]
        # A failure the campaign reports itself (exit 1, status "failed") makes
        # a failed run; a check the campaign passes silently makes a wrong output.
        reported = code != 0 or status != "ok"
        failed_runs = set()
        for index, (report, seconds) in enumerate(reports):
            stats = report.stats
            result.run_s.append(seconds)
            result.run_transfers.append(stats["transfers_attempted"])
            result.run_sides.append(workload.load_class(report.config))
            for kind, n in report.tx_counts.items():
                tx_counts[kind] = tx_counts.get(kind, 0) + n
            for kind, n in report.tx_counts_ok.items():
                tx_counts_ok[kind] = tx_counts_ok.get(kind, 0) + n
            blocks += sum(stats["blocks_per_chain"].values())
            for check, message in check_report(report, workload.clean_validity):
                failed_runs.add(index)
                result.silent += not (reported and check == "consistency")
                result.problems.append(f"call {i} run ({_describe(report.config)}): {check}: {message}")
        call_problems = []
        if workload.check_harmonic:
            for csv_path in sorted(call_out.rglob("contest-scaling-*.csv")):
                call_problems.extend(check_harmonic(csv_path.read_text()))
            result.silent += len(call_problems)
        if reported and not failed_runs:
            call_problems.append(f"campaign {call.campaign} exited {code} with status {status!r}")
        if call_problems:
            failed_runs = set(range(len(reports)))
            result.problems.extend(f"call {i}: {p}" for p in call_problems)
        result.failed += len(failed_runs)
    result.sim = {
        "digest": fingerprint(out),
        "transfers": result.transfers,
        "tx_counts": dict(sorted(tx_counts.items())),
        "tx_counts_ok": dict(sorted(tx_counts_ok.items())),
        "blocks": blocks,
    }
    shutil.rmtree(out)
    return result


# -- metrics and output ------------------------------------------------------------


# Units of the figures printed beside BENCHMARK.json's metrics.
TABLE_ONLY_UNITS = {
    "error_rate": "ratio", "host_wall_s": "s", "kernel_s": "s",
    "protocol.conflicts.self_s": "s", "contract.veto.ok_ratio": "ratio", "contract.veto.self_s": "s",
    "contract.finalize_veto.ok_ratio": "ratio", "contract.finalize_veto.self_s": "s",
    "agents.make_vetoes.self_s": "s", "agents.plan_transfer.self_s": "s", "ecosystem.report_io.s": "s",
}
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]} | TABLE_ONLY_UNITS


def environment() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "note": "CPUs are not pinned and the clock frequency is not fixed",
    }


def end_to_end(passes: list[Pass], kernel_runs: list[float], peak_rss_mib: float) -> dict[str, float]:
    """Medians over the passes."""
    runs = sum(p.runs for p in passes)
    rates = [throughput(p) for p in passes]
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "transfers_per_s": statistics.median(rate for rate, _ in rates),
        "load_scaling": statistics.median(scaling for _, scaling in rates),
        "setup_s": statistics.median(s for p in passes for s in p.setup_s),
        "peak_rss_mib": peak_rss_mib,
        "error_rate": sum(p.failed for p in passes) / runs if runs else 1.0,
        "host_wall_s": statistics.median(p.host_wall_s for p in passes),
        "kernel_s": statistics.median(kernel_runs),
    }


def wall_percentile(passes: list[Pass]) -> Optional[tuple[int, float]]:
    """Highest percentile of wall_s with at least ten passes above it, if any."""
    n = len(passes)
    if n < 11:
        return None
    walls = sorted(p.wall_s for p in passes)
    return int(100 * (n - 10) / n), walls[n - 11]


def print_table(metrics: dict[str, float]) -> None:
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {UNITS[name]}")


def benchmark(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result record (also written to .perfbench_out)."""
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{name}-{seed}-{os.getpid()}"
    work.mkdir()
    try:
        passes: list[Pass] = []
        peak_rss_mib = 0.0
        probe = SpeedProbe()

        def next_pass(label: str, tracer: Optional[Tracer] = None) -> SimpleNamespace:
            nonlocal peak_rss_mib
            # Set-up repeats before every pass, so that its samples span the
            # whole invocation; each pass then runs on a fresh import of the
            # package, with empty memo caches, like a new panchain process.
            setup_s = []
            for _ in range(SETUP_REPEATS):
                start = probe.clock()
                pc, workload, configs = setup(name, seed, work)
                setup_s.append(probe.clock() - start)
            result = run_pass(pc, workload, configs, work / label, probe, tracer)
            if not passes:
                # Like one panchain process: later passes only add heap fragmentation.
                peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            result.setup_s = setup_s
            passes.append(result)
            return pc

        with probe:
            started = probe.clock()
            while len(passes) < (1 if trace else MIN_PASSES) or (
                not trace and probe.clock() - started < seconds
            ):
                next_pass(f"pass-{len(passes)}")
            if trace:
                tracer = Tracer(probe.clock)
                pc = next_pass("traced", tracer)
        record: dict = {"workload": name, "seed": seed, "trace": int(trace), "environment": environment()}
        kernel_runs = probe.samples
        if trace:
            untraced, traced = passes
            cache = pc.crypto._verify_cached.cache_info()
            metrics = layer_metrics(tracer, traced.transfers, traced.wall_s, untraced.wall_s,
                                    (cache.hits, cache.misses))
            sidecar = OUT / f"{name}-seed{seed}.trace.json"
            tracer.write_sidecar(sidecar, {"workload": name, "seed": seed})
            record["sidecar"] = sidecar.name
        else:
            metrics = end_to_end(passes, kernel_runs, peak_rss_mib)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    sims = [p.sim for p in passes]
    record.update({
        "passes": len(passes),
        "attempted": sum(p.runs for p in passes),
        "failed": sum(p.failed for p in passes),
        "fingerprint_repeats": all(s == sims[0] for s in sims),
        "simulation": sims[0],
        "problems": sorted({q for p in passes for q in p.problems}),
        "metrics": metrics,
        "units": {k: UNITS[k] for k in metrics},
        "kernel_s_samples": kernel_runs,
        "setup_s_samples": [p.setup_s for p in passes],
        "host_wall_s_samples": [p.host_wall_s for p in passes],
        "wall_s_samples": [p.wall_s for p in passes],
        "throughput_samples": [throughput(p) for p in passes],
    })
    # Runs the campaign itself reported as failed count in `failed` only.
    record["correct"] = record["fingerprint_repeats"] and not any(p.silent for p in passes)
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")

    env = record["environment"]
    print(f"workload {name}  seed {seed}  trace {int(trace)}  passes {len(passes)}")
    print(f"environment: nproc={env['nproc']} python={env['python']} cpu={env['cpu_model']!r}; {env['note']}")
    sim = record["simulation"]
    print(f"fingerprint {sim['digest'][:16]}  repeats across passes: {record['fingerprint_repeats']}")
    print(f"  transfers {sim['transfers']}  blocks {sim['blocks']}")
    print(f"  tx_counts {json.dumps(sim['tx_counts'])}  tx_counts_ok {json.dumps(sim['tx_counts_ok'])}")
    print(f"timings in reference seconds: host seconds x {REFERENCE_KERNEL_S} s / recent median kernel run")
    print_table(metrics)
    if not trace:
        top = wall_percentile(passes)
        print(f"  wall_s is the median of {len(passes)} passes"
              + (f"; wall_s.p{top[0]} = {top[1]:.6g} s" if top else
                 "; too few passes for a percentile with ten passes beyond it"))
    print(f"  error_rate {record['failed']}/{record['attempted']} simulation runs failed a check")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")
    return record


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    wanted = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    record = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    missing = [m["name"] for m in wanted if m["name"] not in record["metrics"]]
    if missing:
        print(f"bench: metrics not computed: {missing}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
