"""Span tracer that attributes host time to panchain's modules.

The tracer wraps the package's public functions and methods from outside,
at the name each caller looks them up by: the modules import by name, so
``panchain.crypto.sign`` is patched as ``panchain.agents.sign`` and
``panchain.protocol.sign`` as well. Nothing inside ``src/`` changes.

Two kinds of wrapper:

* span: one record ``(name, start, end, parent)`` per call, kept in memory;
* leaf: hot calls (``conflicts`` alone runs millions of times) are only
  aggregated per (parent span name, leaf name), never recorded one by one.

Self time is a call's duration minus the time its wrapped children took.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter, deque
from pathlib import Path

ROOT = "<root>"
MODULES = ("crypto", "protocol", "contract", "chain", "agents", "ecosystem", "cli", "configs")
TX_KINDS = ("claim", "contest", "finalize", "veto", "finalize_veto")


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (name id, start, end, parent span index or -1), host seconds
        self.spans: list[tuple[int, float, float, int]] = []
        # span name -> [calls, total_s, self_s]
        self.stats: dict[str, list] = {}
        # (parent span name, leaf name) -> [calls, total_s, self_s]
        self.leaves: dict[tuple[str, str], list] = {}
        self.counters: Counter = Counter()
        self.inclusion_waits: list[float] = []
        self.submit_times: dict[int, deque] = {}
        # frames: [child_s, span index, span name]
        self._stack: list[list] = [[0.0, -1, ROOT]]
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def span(self, name: str, fn, hook=None):
        """Wrap ``fn`` so every call records a span; ``hook(args, result,
        error)`` runs after the call, outside the timed interval."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, clock = self._stack, self.spans, self.clock

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            index = len(spans)
            spans.append(None)
            frame = [0.0, index, name]
            stack.append(frame)
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                error = err
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[0] += duration
                spans[index] = (name_id, start, end, parent[1])
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[0]
                if hook is not None:
                    hook(args, result, error)

        return wrapper

    def leaf(self, name: str, fn, hook=None):
        """Wrap a hot function: calls are aggregated per parent span name."""
        stack, leaves, clock = self._stack, self.leaves, self.clock

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1], name]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                parent[0] += duration
                entry = leaves.get((parent[2], name))
                if entry is None:
                    entry = leaves[(parent[2], name)] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[0]
                if hook is not None:
                    hook(args)

        return wrapper

    # -- patching -------------------------------------------------------------

    def patch(self, owner, attr: str, wrapper) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) until ``restore``."""
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = wrapper
        else:
            # A class attribute may be inherited; restore then deletes the patch.
            own = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr)
            self._patches.append((owner, attr, own))
            setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            elif original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    @staticmethod
    def _lookup(owner, attr: str):
        """The function at a call site. A site the program no longer has is an
        error: skipping it would read as zero calls and charge its time to
        the caller."""
        fn = owner.get(attr) if isinstance(owner, dict) else getattr(owner, attr, None)
        if fn is None:
            where = "a dict" if isinstance(owner, dict) else getattr(owner, "__name__", repr(owner))
            raise LookupError(f"tracing: call site {where}.{attr} not found; update perfbench/tracing.py")
        return fn

    def instrument(self, pc) -> None:
        """Wrap every public entry point of the panchain modules in ``pc``
        (a namespace holding the imported modules by their short names).
        Raises LookupError if a call site is missing."""
        crypto, protocol, contract, chain, agents, ecosystem, cli, configs = (
            getattr(pc, m) for m in MODULES
        )
        leaf_sites = {
            "crypto.sign": [(agents, "sign"), (protocol, "sign")],
            "crypto.verify": [(protocol, "verify"), (contract, "verify")],
            "crypto.keygen": [(ecosystem, "generate_keypair")],
            "protocol.encode": [
                (protocol, "encode_intent"), (protocol, "encode_poi"),
                (agents, "encode_poi"), (contract, "encode_poi"),
            ],
            "protocol.conflicts": [(protocol, "conflicts"), (agents, "conflicts"), (contract, "conflicts")],
            "chain.submit": [(chain.SimChain, "submit", self._on_submit)],
        }
        span_sites = {
            "protocol.verify_poi": [(contract, "verify_poi")],
            "protocol.make_poi": [(agents, "make_poi"), (ecosystem, "make_poi")],
            "protocol.make_tx": [
                (ecosystem, "make_claim"), (ecosystem, "make_finalize"),
                (ecosystem, "make_finalize_veto"), (agents, "make_veto"),
            ],
            **{f"contract.{kind}": [(contract.ChainState, f"apply_{kind}", self._apply_hook(kind))]
               for kind in TX_KINDS},
            "contract.snapshot": [(contract.ChainState, "snapshot")],
            "contract.audit": [(contract.ChainState, "audit")],
            "chain.produce_block": [(chain.SimChain, "produce_block", self._on_block)],
            "agents.observe": [(agents.Observer, "handle_new_poi", self._on_observe)],
            "agents.contest_submissions": [(agents.Observer, "contest_submissions", self._on_contests)],
            "agents.make_vetoes": [(agents.Observer, "make_vetoes")],
            "agents.plan_transfer": [(agents.Client, "plan_transfer")],
            "ecosystem.init": [(ecosystem.Ecosystem, "__init__")],
            "ecosystem.run": [(ecosystem.Ecosystem, "run", self._on_run_end)],
            "ecosystem.report_io": [(ecosystem.RunReport, "to_json"), (ecosystem.RunReport, "ledger_csv")],
            "cli.main": [(cli, "main")],
            "cli.campaign": [(cli._HANDLERS, c) for c in ("run", "sweep-validity", "contest-scaling")],
            "configs.load": [(cli, "load_experiment_file")],
            "configs.parse": [(cli, "config_from_dict"), (configs, "config_from_dict")],
            "configs.preset": [(cli, "sweep_config"), (cli, "contest_scaling_config")],
            "configs.to_dict": [(configs.EcosystemConfig, "to_dict")],
        }
        for wrap, table in ((self.leaf, leaf_sites), (self.span, span_sites)):
            for name, sites in table.items():
                for owner, attr, *hook in sites:
                    self.patch(owner, attr, wrap(name, self._lookup(owner, attr), *hook))

    # -- hooks: counters measured where the work happens ----------------------

    def _on_submit(self, args) -> None:
        chain, _tx, now = args
        queue = self.submit_times.get(id(chain))
        if queue is None:
            queue = self.submit_times[id(chain)] = deque()
        queue.append(now)

    def _on_block(self, args, block, error) -> None:
        if error is not None:
            return
        chain = args[0]
        drained = len(block.transactions)
        self.counters["chain.txs"] += drained
        self.counters["chain.empty_blocks"] += drained == 0
        depth = len(chain.mempool) + drained
        if depth > self.counters["chain.mempool_depth.max"]:
            self.counters["chain.mempool_depth.max"] = depth
        # The mempool is FIFO, so the block drained the oldest submissions.
        queue = self.submit_times.get(id(chain))
        for _ in range(drained if queue else 0):
            self.inclusion_waits.append(block.timestamp - queue.popleft())

    def _on_observe(self, args, _result, _error) -> None:
        memory = len(args[0].seen)
        if memory > self.counters["agents.observer_memory.max"]:
            self.counters["agents.observer_memory.max"] = memory

    def _on_contests(self, _args, result, _error) -> None:
        if result is not None:
            self.counters["agents.contests_posted"] += len(result)

    def _on_run_end(self, _args, _result, _error) -> None:
        # Chains die with their ecosystem; their ids may be reused.
        self.submit_times.clear()

    def _apply_hook(self, kind: str):
        def hook(_args, _result, error) -> None:
            self.counters[f"contract.{kind}.ok"] += error is None

        return hook

    # -- aggregation ----------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """name -> [calls, total_s, self_s], spans and leaves merged by name."""
        merged = {name: list(entry) for name, entry in self.stats.items()}
        for (_parent, name), entry in self.leaves.items():
            acc = merged.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += entry[i]
        return merged

    def write_sidecar(self, path: Path, extra: dict) -> None:
        """Write every span and aggregate once, after the traced pass."""
        payload = {
            **extra,
            "names": self.names,
            "span_fields": ["name_index", "start_s", "end_s", "parent_index"],
            "spans": self.spans,
            "by_name": {k: dict(zip(("calls", "total_s", "self_s"), v)) for k, v in sorted(self.totals().items())},
            "leaves_by_parent": [
                {"parent": p, "name": n, "calls": e[0], "total_s": e[1], "self_s": e[2]}
                for (p, n), e in sorted(self.leaves.items())
            ],
            "counters": dict(self.counters),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")


def _nearest_rank(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(q * len(sorted_values))) - 1]


def layer_metrics(tracer: Tracer, transfers: int, traced_wall_s: float,
                  untraced_wall_s: float, verify_cache: tuple[int, int]) -> dict[str, float]:
    """Per-layer figures of one traced pass, keyed by metric name."""
    totals = tracer.totals()
    counters = tracer.counters

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return totals.get(name, [0, 0.0, 0.0])[2]

    def total_s(name):
        return totals.get(name, [0, 0.0, 0.0])[1]

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {}
    for name in ("crypto.sign", "crypto.verify", "protocol.encode", "protocol.conflicts"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    hits, misses = verify_cache
    m["crypto.verify.cache_hit_ratio"] = ratio(hits, hits + misses)
    m["protocol.conflicts.per_transfer"] = ratio(calls("protocol.conflicts"), transfers)
    for kind in TX_KINDS:
        name = f"contract.{kind}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.ok_ratio"] = ratio(counters[f"{name}.ok"], calls(name))
        m[f"{name}.self_s"] = self_s(name)
    blocks = calls("chain.produce_block")
    m["chain.produce_block.calls"] = blocks
    m["chain.produce_block.self_s"] = self_s("chain.produce_block")
    m["chain.empty_block_ratio"] = ratio(counters["chain.empty_blocks"], blocks)
    m["chain.txs_per_block.mean"] = ratio(counters["chain.txs"], blocks)
    m["chain.mempool_depth.max"] = counters["chain.mempool_depth.max"]
    waits = sorted(tracer.inclusion_waits)
    m["chain.inclusion_wait_sim_s.p50"] = _nearest_rank(waits, 0.50)
    m["chain.inclusion_wait_sim_s.p99"] = _nearest_rank(waits, 0.99)
    observes = calls("agents.observe")
    m["agents.observe.calls"] = observes
    m["agents.observe.self_s"] = self_s("agents.observe")
    m["agents.observe.us_per_call"] = ratio(total_s("agents.observe"), observes) * 1e6
    m["agents.observer_memory.max"] = counters["agents.observer_memory.max"]
    m["agents.contest_submissions.self_s"] = self_s("agents.contest_submissions")
    m["agents.contests_posted.per_observe"] = ratio(counters["agents.contests_posted"], observes)
    for name in ("agents.make_vetoes", "agents.plan_transfer"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    m["ecosystem.init.s"] = total_s("ecosystem.init")
    m["ecosystem.run.self_s"] = self_s("ecosystem.run")
    m["ecosystem.report_io.s"] = total_s("ecosystem.report_io")
    m["cli.campaign.self_s"] = self_s("cli.campaign")
    m["configs.load.s"] = total_s("configs.load")
    module_self = dict.fromkeys(MODULES, 0.0)
    for name, (_calls, _total, own) in totals.items():
        module_self[name.split(".", 1)[0]] += own
    for module in MODULES:
        m[f"{module}.self_share"] = ratio(module_self[module], traced_wall_s)
    m["trace.overhead_ratio"] = ratio(traced_wall_s, untraced_wall_s)
    return m
