"""Ecosystem configuration: typed config objects, the one reader that builds
any of them from JSON, JSON loading with line diagnostics, and the built-in
scenario presets used by the experiment campaigns."""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cache
from pathlib import Path
from typing import Union, get_args, get_origin, get_type_hints


class ConfigError(ValueError):
    pass


# A run must end in practice: its clients look at most this many times, and
# nothing is scheduled past this many of its shortest block intervals. Nor
# does a config build more than this many chains or generated wallets.
RUN_BOUND = 10**6


@dataclass(frozen=True)
class WalletSpec:
    name: str
    balance: int


@dataclass(frozen=True)
class ObservationPolicy:
    """When observers get to see a newly confirmed proof.

    uniform: each observer sees it after an independent uniform delay in
    [low, high) per chain event. staggered: observers are lined up in a
    random order and see it one after another, ``spacing`` seconds apart,
    which serializes their contest decisions across blocks.
    """

    mode: str = "uniform"
    low: float = 0.0
    high: float = 2.0
    spacing: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in ("uniform", "staggered"):
            raise ConfigError(f"unknown observation mode: {self.mode!r}")
        if self.low < 0 or self.high < self.low:
            raise ConfigError("observation delay bounds must satisfy 0 <= low <= high")
        if self.mode == "staggered" and self.spacing <= 0:
            raise ConfigError("staggered observation needs a positive spacing")


@dataclass(frozen=True)
class TransferLeg:
    at: float
    recipient: str
    amount: int
    t0: int
    t1: int
    chain: int


@dataclass(frozen=True)
class ScriptedAction:
    """A scripted event: a single transfer, or a deliberate double spend
    (one sender signing several conflicting legs)."""

    sender: str
    legs: tuple[TransferLeg, ...]
    kind: str = "transfer"  # or "double_spend"

    def __post_init__(self) -> None:
        if self.kind not in ("transfer", "double_spend"):
            raise ConfigError(f"unknown scripted action kind: {self.kind!r}")
        if self.kind == "transfer" and len(self.legs) != 1:
            raise ConfigError("a scripted transfer has exactly one leg")
        if self.kind == "double_spend" and len(self.legs) < 2:
            raise ConfigError("a double spend needs at least two legs")


@dataclass(frozen=True)
class EcosystemConfig:
    chains: int = 3
    block_interval: float = 13.0
    # Capacity stands in for the block gas limit: the reference chain's
    # 8 MGas over the costliest transaction is on the order of 100.
    max_txs_per_block: int = 100
    jitter: float = 0.0  # fraction of the interval for uniform timing noise
    wallets: tuple[WalletSpec, ...] = ()
    clients: tuple[str, ...] = ()
    observers: tuple[str, ...] = ()
    validity_length: int = 65
    reward: int = 1
    duration: float = 1800.0
    seed: int = 0
    think_time: tuple[float, float] = (15.0, 30.0)
    observation: ObservationPolicy = field(default_factory=ObservationPolicy)
    script: tuple[ScriptedAction, ...] = ()

    def __post_init__(self) -> None:
        if self.chains < 1:
            raise ConfigError("need at least one chain")
        if self.chains > RUN_BOUND:
            raise ConfigError(f"chains {self.chains} is above the run bound {RUN_BOUND}")
        if self.block_interval <= 0:
            raise ConfigError("block_interval must be positive")
        if self.max_txs_per_block < 1:
            raise ConfigError("max_txs_per_block must be at least 1")
        if not 0 <= self.jitter < 1:
            raise ConfigError("jitter must be in [0, 1)")
        if self.duration < 0:
            raise ConfigError("duration must be non-negative")
        # Windows and amounts go on chain as unsigned 64-bit integers.
        if not 1 <= self.validity_length < 2**63:
            raise ConfigError("validity_length must be at least 1 second and below 2^63")
        if self.reward < 0:
            raise ConfigError("reward must be non-negative")
        lo, hi = self.think_time
        if lo <= 0 or hi < lo:
            raise ConfigError("think_time bounds must satisfy 0 < low <= high")
        names = [w.name for w in self.wallets]
        for role, listed in (("wallet", names), ("client", self.clients), ("observer", self.observers)):
            if len(set(listed)) != len(listed):
                raise ConfigError(f"duplicate {role} names")
        # A client's amount is at most its balance, and a balance, which grows
        # by what it receives, at most the total supply.
        if sum(w.balance for w in self.wallets) >= 2**64:
            raise ConfigError("the wallets' total balance must be below 2^64")
        known = set(names)
        for name in (*self.clients, *self.observers):
            if name not in known:
                raise ConfigError(f"unknown wallet referenced: {name!r}")
        for action in self.script:
            if action.sender not in known:
                raise ConfigError(f"scripted sender is not a wallet: {action.sender!r}")
            for leg in action.legs:
                # The clock starts at 0; an event before it would run the clock backwards.
                if leg.at < 0:
                    raise ConfigError(f"scripted leg time must be non-negative, got {leg.at}")
                if leg.recipient not in known:
                    raise ConfigError(f"scripted recipient is not a wallet: {leg.recipient!r}")
                if not 0 <= leg.chain < self.chains:
                    raise ConfigError(f"scripted leg targets chain {leg.chain}, have {self.chains}")
                if not 0 <= leg.t0 < leg.t1 < 2**64:
                    raise ConfigError(f"scripted leg window needs 0 <= t0 < t1 < 2^64, got [{leg.t0}, {leg.t1}]")
                if not self.reward < leg.amount < 2**64:
                    raise ConfigError(f"scripted leg amount {leg.amount} must exceed the reward {self.reward}")
        self.check_load(len(self.clients), len(self.observers))

    def check_load(self, clients: int, observers: int) -> None:
        """Refuse more than ``RUN_BOUND`` looks by ``clients`` clients, or a
        scripted time, a look, a window or ``observers`` observers' delay past
        ``RUN_BOUND`` shortest block intervals."""
        lo = self.think_time[0]
        if clients * self.duration > RUN_BOUND * lo:
            raise ConfigError(f"{clients} clients could look more than {RUN_BOUND} times "
                              f"in duration {self.duration} at think_time low {lo}")
        times = [(f"scripted leg {key}", getattr(leg, key))
                 for action in self.script for leg in action.legs for key in ("at", "t1")]
        if clients:
            times += [("duration", self.duration), ("validity_length", self.validity_length)]
        if observers:
            policy = self.observation
            delay = policy.high if policy.mode == "uniform" else policy.spacing * observers
            times.append(("observation delay", delay))
        for name, value in times:
            _check_ends(name, value, self.block_interval, self.jitter)

    def to_dict(self) -> dict:
        """The config as JSON data that config_from_dict reads back, with
        ``wallets`` as a name -> balance map."""
        data = {f.name: _plain(getattr(self, f.name)) for f in fields(self) if f.name != "wallets"}
        data["wallets"] = {w.name: w.balance for w in self.wallets}
        return data


def _check_ends(name: str, value: float, block_interval: float, jitter: float) -> None:
    """Refuse a scheduled time ``value`` past ``RUN_BOUND`` shortest block intervals."""
    shortest = block_interval * (1 - jitter)
    if value > RUN_BOUND * shortest:
        raise ConfigError(f"{name} {value} lies beyond {RUN_BOUND} shortest block intervals "
                          f"of {shortest} s, so the run would not end in practice")


def _plain(value):
    """A config value as JSON data: tuples become lists, dataclasses objects."""
    if isinstance(value, (str, int, float)):  # checked first: most values are names
        return value
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}


_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "true or false",
               dict: "a JSON object"}


def _is(value, kind: type) -> bool:
    """Whether the JSON ``value`` is a ``kind``: true/false is never a number,
    an integer is also a number, and a number is finite."""
    if isinstance(value, bool) != (kind is bool):
        return False
    if kind is float:
        return isinstance(value, int) or isinstance(value, float) and math.isfinite(value)
    return isinstance(value, kind)


def natural(value, where: str) -> int:
    """``value`` if it is a non-negative JSON integer, else a ConfigError."""
    if not _is(value, int) or value < 0:
        raise ConfigError(f"{where} must be a non-negative integer, got {value!r}")
    return value


@cache
def _hints(cls) -> dict:
    """The field types of ``cls``, resolved once: under postponed annotations
    every ``get_type_hints`` call compiles each annotation string again."""
    return get_type_hints(cls)


def read(cls, raw, where: str, **given):
    """Build the config dataclass ``cls`` from the JSON object ``raw``, reading
    each field by its type hint: a tuple from a list, a dataclass from an
    object, ``Optional`` also from null. ``given`` holds fields the caller has
    built. An unknown key, a wrong type, a missing field or a value ``cls``
    rejects is a ConfigError naming ``where``."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object, got {raw!r}")
    hints = _hints(cls)
    unknown = set(raw) - hints.keys()
    if unknown:
        raise ConfigError(f"unknown {where} fields: {sorted(unknown)}")
    missing = {
        f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING
    } - raw.keys() - given.keys()
    if missing:
        raise ConfigError(f"{where} is missing fields: {sorted(missing)}")
    values = {key: _value(hints[key], value, f"{where}.{key}") for key, value in raw.items()}
    try:
        return cls(**values, **given)
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err


def _value(hint, raw, where: str):
    """The JSON value ``raw`` read as a ``hint``."""
    if is_dataclass(hint):
        return read(hint, raw, where)
    args = get_args(hint)
    if get_origin(hint) is Union:  # Optional[X]
        return None if raw is None else _value(args[0], raw, where)
    if get_origin(hint) is tuple:
        if not isinstance(raw, (list, tuple)):
            raise ConfigError(f"{where} must be a list, got {raw!r}")
        kinds = args[:1] * len(raw) if args[-1] is Ellipsis else args
        if len(kinds) != len(raw):
            raise ConfigError(f"{where} must be a list of {len(kinds)}, got {raw!r}")
        return tuple(_value(kind, item, f"{where}[{i}]") for i, (kind, item) in enumerate(zip(kinds, raw)))
    if not _is(raw, hint):
        raise ConfigError(f"{where} must be {_TYPE_NAMES[hint]}, got {raw!r}")
    return raw


def config_from_dict(data: dict) -> EcosystemConfig:
    """Read the ecosystem section: EcosystemConfig's fields, except that
    ``wallets`` maps name -> balance and ``clients`` or ``observers`` may be a
    count of wallets to generate; generated clients hold ``client_balance``."""
    if not isinstance(data, dict):
        raise ConfigError("ecosystem config must be a JSON object")
    data = dict(data)

    wallets = data.pop("wallets", {})
    if not isinstance(wallets, dict):
        raise ConfigError("wallets must map name -> initial balance")
    wallets = dict(wallets)
    for name, balance in wallets.items():
        natural(balance, f"ecosystem.wallets.{name}")

    client_balance = natural(data.pop("client_balance", 100), "ecosystem.client_balance")
    counts = {key: natural(data[key], f"ecosystem.{key}") for key in ("clients", "observers")
              if _is(data.get(key), int)}
    for key, count in counts.items():
        if count > RUN_BOUND:  # refused before any name is made
            raise ConfigError(f"ecosystem.{key} {count} is above the run bound {RUN_BOUND}")
    if counts:  # and so is a load they put past it: the section is read without
        # its roles and its script, which may name the wallets they generate
        section = {key: value for key, value in data.items() if key not in ("clients", "observers", "script")}
        read(EcosystemConfig, section, "ecosystem").check_load(counts.get("clients", 0), counts.get("observers", 0))
    for key, prefix, balance in (("clients", "client", client_balance), ("observers", "obs", 0)):
        if key in counts:
            data[key] = [f"{prefix}-{i:02d}" for i in range(counts[key])]
            for name in data[key]:
                wallets.setdefault(name, balance)

    return read(
        EcosystemConfig, data, "ecosystem",
        wallets=tuple(WalletSpec(name, balance) for name, balance in wallets.items()),
    )


def load_experiment_file(path: str | Path) -> dict:
    """Parse a UTF-8 experiment JSON file; syntax errors carry line:column."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"{path}: {err}") from err
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
    except (ValueError, RecursionError) as err:  # an integer past the digit limit, or too deep a nesting
        raise ConfigError(f"{path}: {err}") from err
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return data


# --- built-in presets ---------------------------------------------------
# Each preset is an ecosystem section of an experiment file, read like one.
# Fields left out take EcosystemConfig's defaults: 3 chains, 13 s blocks,
# reward 1.


def _leg(recipient: str, amount: int, at: float = 1.0, t0: int = 1, t1: int = 53, chain: int = 0) -> dict:
    """A script leg; by default sent at 1 s to chain 0 with the window [1, 53)."""
    return {"at": at, "recipient": recipient, "amount": amount, "t0": t0, "t1": t1, "chain": chain}


def worked_example(seed: int = 0) -> EcosystemConfig:
    """Three chains, one scripted 20-unit transfer with a one-minute window,
    three named observers. Ends with (sender 60, recipient 19, winner 1)."""
    return config_from_dict({
        "wallets": {"sender": 80, "recipient": 0, "ursula": 0, "victor": 0, "wanda": 0},
        "observers": ["ursula", "victor", "wanda"],
        "duration": 100.0,
        "seed": seed,
        "script": [{"sender": "sender", "legs": [_leg("recipient", 20, t1=61)]}],
    })


def _double_spend(seed: int, duration: float, amount: int, second: dict) -> EcosystemConfig:
    """``mallory`` holds 10 units and signs two conflicting transfers, to
    ``alice`` on chain 0 and to ``bob`` on chain 1; three watchdogs."""
    return config_from_dict({
        "wallets": {"mallory": 10, "alice": 0, "bob": 0},
        "observers": 3,
        "duration": duration,
        "seed": seed,
        "script": [{"kind": "double_spend", "sender": "mallory", "legs": [
            _leg("alice", amount), _leg("bob", amount, chain=1, **second)]}],
    })


def veto_demo(seed: int = 0) -> EcosystemConfig:
    """Two conflicting 8-unit transfers claimed at once on two chains;
    watchdogs veto on every chain."""
    return _double_spend(seed, 250.0, 8, {})


def veto_demo_boundary(seed: int = 0) -> EcosystemConfig:
    """Partial-finalization veto: the first transfer completes before the
    conflict surfaces, leaving the sender with exactly the reward-sized
    balance when the veto lands, so the burn nets out to zero."""
    return _double_spend(seed, 300.0, 9, {"at": 250.0, "t0": 40, "t1": 300})


def contest_scaling_config(n: int, seed: int = 0, chains: int = 3) -> EcosystemConfig:
    """Single-transfer run sized so all n observers get a serialized look at
    the contest before the validity window closes."""
    interval = 1.0
    spacing = 2.5 * interval
    validity = int(math.ceil(2 + spacing * (n + 1) + 3 * interval + 5))
    if n <= RUN_BOUND:  # past it, config_from_dict refuses the count first
        _check_ends("scripted leg t1", 1 + validity, interval, 0.0)  # before any name is built
    return config_from_dict({
        "chains": chains,
        "block_interval": interval,
        "wallets": {"sender": 100, "recipient": 0},
        "observers": n,
        "duration": float(validity + 10),
        "seed": seed,
        "observation": {"mode": "staggered", "spacing": spacing},
        "script": [{"sender": "sender", "legs": [_leg("recipient", 20, t1=1 + validity)]}],
    })


def sweep_config(validity: int = 65, seed: int = 0) -> EcosystemConfig:
    """Workload run for the validity-period sweep: 10 clients, 30 simulated
    minutes, default observation delays."""
    return config_from_dict({"clients": 10, "observers": 5, "validity_length": validity, "seed": seed})
