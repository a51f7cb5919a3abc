"""Ecosystem configuration: typed config objects, JSON loading with line
diagnostics, and the built-in scenario presets used by the experiment
campaigns."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path


class ConfigError(ValueError):
    pass


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

    kind: str  # "transfer" | "double_spend"
    sender: str
    legs: tuple[TransferLeg, ...]

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
    max_txs_per_block: int = 100
    jitter: float = 0.0
    wallets: tuple[WalletSpec, ...] = ()
    clients: tuple[str, ...] = ()
    observers: tuple[str, ...] = ()
    validity_length: int = 65
    reward: int = 1
    duration: float = 1800.0
    seed: int = 0
    think_time: tuple[float, float] = (15.0, 30.0)
    observation: ObservationPolicy = field(default_factory=ObservationPolicy)
    post_iff_winnable: bool = True
    script: tuple[ScriptedAction, ...] = ()

    def __post_init__(self) -> None:
        if self.chains < 1:
            raise ConfigError("need at least one chain")
        if self.duration < 0:
            raise ConfigError("duration must be non-negative")
        if self.validity_length < 1:
            raise ConfigError("validity_length must be at least 1 second")
        if self.reward < 0:
            raise ConfigError("reward must be non-negative")
        lo, hi = self.think_time
        if lo <= 0 or hi < lo:
            raise ConfigError("think_time bounds must satisfy 0 < low <= high")
        names = [w.name for w in self.wallets]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate wallet names")
        known = set(names)
        for name in (*self.clients, *self.observers):
            if name not in known:
                raise ConfigError(f"unknown wallet referenced: {name!r}")
        for action in self.script:
            if action.sender not in known:
                raise ConfigError(f"scripted sender is not a wallet: {action.sender!r}")
            for leg in action.legs:
                if leg.recipient not in known:
                    raise ConfigError(f"scripted recipient is not a wallet: {leg.recipient!r}")
                if not 0 <= leg.chain < self.chains:
                    raise ConfigError(f"scripted leg targets chain {leg.chain}, have {self.chains}")

    def with_seed(self, seed: int) -> "EcosystemConfig":
        return replace(self, seed=seed)

    def to_dict(self) -> dict:
        return {
            "chains": self.chains,
            "block_interval": self.block_interval,
            "max_txs_per_block": self.max_txs_per_block,
            "jitter": self.jitter,
            "wallets": {w.name: w.balance for w in self.wallets},
            "clients": list(self.clients),
            "observers": list(self.observers),
            "validity_length": self.validity_length,
            "reward": self.reward,
            "duration": self.duration,
            "seed": self.seed,
            "think_time": list(self.think_time),
            "observation": {
                "mode": self.observation.mode,
                "low": self.observation.low,
                "high": self.observation.high,
                "spacing": self.observation.spacing,
            },
            "post_iff_winnable": self.post_iff_winnable,
            "script": [
                {
                    "kind": a.kind,
                    "sender": a.sender,
                    "legs": [
                        {
                            "at": leg.at,
                            "recipient": leg.recipient,
                            "amount": leg.amount,
                            "t0": leg.t0,
                            "t1": leg.t1,
                            "chain": leg.chain,
                        }
                        for leg in a.legs
                    ],
                }
                for a in self.script
            ],
        }


def _parse_participants(raw, prefix: str, default_balance: int, wallets: dict[str, int]) -> list[str]:
    """Accept either an explicit name list or a count of generated wallets."""
    if isinstance(raw, int):
        names = [f"{prefix}-{i:02d}" for i in range(raw)]
        for name in names:
            wallets.setdefault(name, default_balance)
        return names
    if isinstance(raw, list):
        for name in raw:
            if not isinstance(name, str):
                raise ConfigError(f"{prefix} entries must be wallet names")
        return list(raw)
    raise ConfigError(f"{prefix} must be a count or a list of wallet names")


# Field types of the JSON sections; a float field also takes an integer, and
# true/false is never taken for a number.
_SCALAR_FIELDS = {
    "chains": int, "block_interval": float, "max_txs_per_block": int, "jitter": float,
    "validity_length": int, "reward": int, "duration": float, "seed": int,
    "post_iff_winnable": bool,
}
_OBSERVATION_FIELDS = {"mode": str, "low": float, "high": float, "spacing": float}
_ACTION_FIELDS = {"kind": str, "sender": str, "legs": list}
_LEG_FIELDS = {"at": float, "recipient": str, "amount": int, "t0": int, "t1": int, "chain": int}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "true or false", list: "a list"}


def _is(value, kind: type) -> bool:
    if isinstance(value, bool) != (kind is bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _checked(raw, fields: dict[str, type], where: str, required: bool = False) -> dict:
    """``raw`` if it is an object holding only ``fields``, each of its type
    (and all of them, when ``required``); ConfigError otherwise."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(raw) - set(fields)
    if unknown:
        raise ConfigError(f"unknown {where} fields: {sorted(unknown)}")
    missing = set(fields) - set(raw) if required else ()
    if missing:
        raise ConfigError(f"{where} is missing fields: {sorted(missing)}")
    for key, value in raw.items():
        if not _is(value, fields[key]):
            raise ConfigError(f"{where} field {key!r} must be {_TYPE_NAMES[fields[key]]}, got {value!r}")
    return raw


def config_from_dict(data: dict) -> EcosystemConfig:
    if not isinstance(data, dict):
        raise ConfigError("ecosystem config must be a JSON object")
    data = dict(data)

    wallets_raw = data.pop("wallets", {})
    if not isinstance(wallets_raw, dict):
        raise ConfigError("wallets must map name -> initial balance")
    wallets: dict[str, int] = {}
    for name, balance in wallets_raw.items():
        if not isinstance(balance, int) or balance < 0:
            raise ConfigError(f"wallet {name!r} needs a non-negative integer balance")
        wallets[name] = balance

    client_balance = data.pop("client_balance", 100)
    if not _is(client_balance, int):
        raise ConfigError(f"client_balance must be an integer, got {client_balance!r}")
    clients = _parse_participants(data.pop("clients", []), "client", client_balance, wallets)
    observers = _parse_participants(data.pop("observers", []), "obs", 0, wallets)

    observation = data.pop("observation", None)
    if observation:
        policy = ObservationPolicy(**_checked(observation, _OBSERVATION_FIELDS, "observation"))
    else:
        policy = ObservationPolicy()

    think = data.pop("think_time", (15.0, 30.0))
    if not (isinstance(think, (list, tuple)) and len(think) == 2 and all(_is(t, float) for t in think)):
        raise ConfigError(f"think_time must be a pair of numbers, got {think!r}")
    script_raw = data.pop("script", [])
    if not isinstance(script_raw, list):
        raise ConfigError("script must be a list of actions")
    script = []
    for entry in script_raw:
        entry = _checked(entry, _ACTION_FIELDS, "script action")
        legs = tuple(
            TransferLeg(**_checked(leg, _LEG_FIELDS, "script leg", required=True))
            for leg in entry.get("legs", [])
        )
        script.append(ScriptedAction(kind=entry.get("kind", "transfer"),
                                     sender=entry.get("sender", ""), legs=legs))

    _checked(data, _SCALAR_FIELDS, "ecosystem config")

    return EcosystemConfig(
        wallets=tuple(WalletSpec(name, bal) for name, bal in wallets.items()),
        clients=tuple(clients),
        observers=tuple(observers),
        observation=policy,
        think_time=(float(think[0]), float(think[1])),
        script=tuple(script),
        **data,
    )


def load_experiment_file(path: str | Path) -> dict:
    """Parse an experiment JSON file; syntax errors carry line:column."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise ConfigError(f"{path}: {err}") from err
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return data


# --- built-in presets ---------------------------------------------------


def worked_example(seed: int = 0) -> EcosystemConfig:
    """Three chains, one scripted 20-unit transfer with a one-minute window,
    three named observers. Ends with (sender 60, recipient 19, winner 1)."""
    return EcosystemConfig(
        chains=3,
        block_interval=13.0,
        wallets=(
            WalletSpec("sender", 80),
            WalletSpec("recipient", 0),
            WalletSpec("ursula", 0),
            WalletSpec("victor", 0),
            WalletSpec("wanda", 0),
        ),
        observers=("ursula", "victor", "wanda"),
        reward=1,
        duration=100.0,
        seed=seed,
        script=(
            ScriptedAction(
                kind="transfer",
                sender="sender",
                legs=(TransferLeg(at=1.0, recipient="recipient", amount=20, t0=1, t1=61, chain=0),),
            ),
        ),
    )


def _observer_wallets(n: int) -> tuple[WalletSpec, ...]:
    return tuple(WalletSpec(f"obs-{i:02d}", 0) for i in range(n))


def veto_demo(seed: int = 0) -> EcosystemConfig:
    """A sender holding 10 units signs two conflicting 8-unit transfers,
    claimed on two different chains; watchdogs veto on every chain."""
    observers = _observer_wallets(3)
    return EcosystemConfig(
        chains=3,
        block_interval=13.0,
        wallets=(
            WalletSpec("mallory", 10),
            WalletSpec("alice", 0),
            WalletSpec("bob", 0),
            *observers,
        ),
        observers=tuple(w.name for w in observers),
        reward=1,
        duration=250.0,
        seed=seed,
        script=(
            ScriptedAction(
                kind="double_spend",
                sender="mallory",
                legs=(
                    TransferLeg(at=1.0, recipient="alice", amount=8, t0=1, t1=53, chain=0),
                    TransferLeg(at=1.0, recipient="bob", amount=8, t0=1, t1=53, chain=1),
                ),
            ),
        ),
    )


def veto_demo_boundary(seed: int = 0) -> EcosystemConfig:
    """Partial-finalization veto: the first transfer completes before the
    conflict surfaces, leaving the sender with exactly the reward-sized
    balance when the veto lands, so the burn nets out to zero."""
    observers = _observer_wallets(3)
    return EcosystemConfig(
        chains=3,
        block_interval=13.0,
        wallets=(
            WalletSpec("mallory", 10),
            WalletSpec("alice", 0),
            WalletSpec("bob", 0),
            *observers,
        ),
        observers=tuple(w.name for w in observers),
        reward=1,
        duration=300.0,
        seed=seed,
        script=(
            ScriptedAction(
                kind="double_spend",
                sender="mallory",
                legs=(
                    TransferLeg(at=1.0, recipient="alice", amount=9, t0=1, t1=53, chain=0),
                    TransferLeg(at=250.0, recipient="bob", amount=9, t0=40, t1=300, chain=1),
                ),
            ),
        ),
    )


def contest_scaling_config(n: int, seed: int = 0, chains: int = 3) -> EcosystemConfig:
    """Single-transfer run sized so all n observers get a serialized look at
    the contest before the validity window closes."""
    interval = 1.0
    spacing = 2.5 * interval
    validity = int(math.ceil(2 + spacing * (n + 1) + 3 * interval + 5))
    observers = _observer_wallets(n)
    return EcosystemConfig(
        chains=chains,
        block_interval=interval,
        wallets=(WalletSpec("sender", 100), WalletSpec("recipient", 0), *observers),
        observers=tuple(w.name for w in observers),
        reward=1,
        duration=float(validity + 10),
        seed=seed,
        observation=ObservationPolicy(mode="staggered", spacing=spacing),
        script=(
            ScriptedAction(
                kind="transfer",
                sender="sender",
                legs=(
                    TransferLeg(at=1.0, recipient="recipient", amount=20, t0=1, t1=1 + validity, chain=0),
                ),
            ),
        ),
    )


def sweep_config(validity: int, seed: int = 0) -> EcosystemConfig:
    """Workload run for the validity-period sweep: 10 clients, 30 simulated
    minutes, default observation delays."""
    return config_from_dict(
        {
            "chains": 3,
            "block_interval": 13.0,
            "clients": 10,
            "client_balance": 100,
            "observers": 5,
            "validity_length": validity,
            "duration": 1800.0,
            "seed": seed,
        }
    )
