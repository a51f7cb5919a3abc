"""Byte pins on every campaign output and every preset's config echo.

Each digest is the SHA-256 of a file the five campaigns write, or of a
preset's ``to_dict()`` JSON, taken from a known-good build. A change that
moves any output byte fails here, including one that turns a float field
into an integer (``250`` for ``250.0``) and so changes every report's
config echo while leaving the configs equal under ``==``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from panchain.cli import CAMPAIGNS, main
from panchain.configs import (
    contest_scaling_config,
    sweep_config,
    veto_demo,
    veto_demo_boundary,
    worked_example,
)


def _leg(**fields):
    return {"at": 1.0, "recipient": "b", "amount": 12, "t0": 1, "t1": 40, "chain": 0, **fields}


# Every section the campaigns read, with a script, a block log, and a run
# report joined into the cost report (``run`` writes it first).
CUSTOM = {
    "ecosystem": {
        "chains": 2, "block_interval": 5.0, "wallets": {"a": 40, "b": 0, "c": 0}, "clients": 2,
        "client_balance": 30, "observers": 2, "validity_length": 30, "duration": 120.0, "jitter": 0.25,
        "script": [
            {"sender": "b", "legs": [_leg(at=80.0, recipient="c", amount=3, t0=80, t1=110)]},
            {"kind": "double_spend", "sender": "a", "legs": [_leg(), _leg(recipient="c", chain=1)]},
        ],
    },
    "sweep": {"validity_points": [20, 40]},
    "scaling": {"n_values": [1, 4], "runs": 2},
    "cost": {"m": 3, "n": 5, "n_grid": [5, 50], "run_report": "out/run/run-0.json"},
    "block_log": True,
}

# Events that fire at the same instant run in the order they were scheduled:
# 1 s blocks, 1 s staggered observation and whole-second client windows put
# observes, submits and blocks on the same times, and one transaction per
# block keeps mempools busy across them. The preset contest-scaling runs add
# observes at k * 2.5 s on 1 s blocks.
TIES = {
    "ecosystem": {
        "chains": 3, "block_interval": 1, "max_txs_per_block": 1, "clients": 5, "observers": 4,
        "validity_length": 12, "think_time": [1, 3], "duration": 60,
        "observation": {"mode": "staggered", "spacing": 1.0},
    },
    "sweep": {"validity_points": [6, 12, 30]},
    "scaling": {"n_values": [1, 4, 9], "runs": 2},
    "block_log": True,
}

# case -> (config, --seeds, modular-power engine); "pow" forces the
# fallback that runs without libgmp, which must write the same bytes.
CASES = {
    "default": ({}, "0", "gmp"),
    "custom": (CUSTOM, "0,1", "gmp"),
    "custom-pow": (CUSTOM, "0,1", "pow"),
    "ties": (TIES, "0,1", "gmp"),
}


def campaign_digests(config: dict, seeds: str) -> dict:
    """Run every campaign on ``config`` in the current directory; the SHA-256
    of each file written under ``out``, by path."""
    with open("cfg.json", "w") as handle:
        json.dump(config, handle)
    for campaign in CAMPAIGNS:
        argv = ["--campaign", campaign, "--config", "cfg.json", "--out", "out", "--seeds", seeds]
        assert main(argv) == 0
    return {
        path.relative_to("out").as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path("out").rglob("*"))
        if path.is_file()
    }


PRESETS = {
    "worked_example": lambda: worked_example(seed=9),
    "veto_demo": lambda: veto_demo(seed=2),
    "veto_demo_boundary": lambda: veto_demo_boundary(seed=3),
    "contest_scaling_config": lambda: contest_scaling_config(16, seed=4),
    "sweep_config": lambda: sweep_config(validity=30, seed=5),
}


def preset_digest(name: str) -> str:
    return hashlib.sha256(json.dumps(PRESETS[name]().to_dict()).encode()).hexdigest()


CAMPAIGN_DIGESTS = {
    "custom": {
        "contest-scaling/contest-scaling-0.csv": "0ebde9110f3c79d2500964cb42e287642928bd3f2c490d6bccc0f0e2792b8376",
        "cost-report/cost-report.json": "d8824d4909c1f4d9e03732438389d08103dec6c9e4dad47e1f18179df74f4ee3",
        "cost-report/cost-report.txt": "a8fc35b7125cb4f8228bf4ee4bb7ac68b19bcc75de96369ae4051639a269b55a",
        "run/run-0.blocks.jsonl": "a69bb5ee122779941dd9c44d1956de64142d73fb78441f6b06cf89e2b819fc8b",
        "run/run-0.chains.json": "3a60f3aefa69c6dea1e39d7d9a7b65e5d10e67643cdcfc6a0d10ce336d838fdb",
        "run/run-0.csv": "25921fb830ae7580d2c9e01545196cfc21912e92b4610c5fc5b546ba01693554",
        "run/run-0.json": "328f023f46a1518c3e8da7422fd21f8eaf06f4760806f3c5ec99b09ceccd0496",
        "run/run-1.blocks.jsonl": "45b109e54fe9d09a3b8f4197181eba6642265ed90f7b2f7051a661e3b0dec844",
        "run/run-1.chains.json": "4bb54d25f3cd3070bfd8b3298d7a647d147650a1c0fbce6f5537f3768c7dd31b",
        "run/run-1.csv": "a74004d19b8f2bf60e5640b5da2b51d5a889b5a2b93a42a8e4cee1f9b95920bf",
        "run/run-1.json": "69d41ea15d0cefbe623c23fd75c0946e91d0f1e94c53f4569a6dd0cbea5f9468",
        "sweep-validity/sweep-validity-0.csv": "bf07bbcdb27d177307ee4441ac5374b4d4581c10b880957cb408936807de542a",
        "sweep-validity/sweep-validity-1.csv": "bf07bbcdb27d177307ee4441ac5374b4d4581c10b880957cb408936807de542a",
        "sweep-validity/sweep-validity-summary.csv":
            "694dbd19e7239f6d3c509007dab5a5e7658f661a4d9ec385c848fcb9f8a6d261",
        "veto-demo/veto-demo-0.json": "dbeba05384e184dd9f448ea947e1393433e33ad8b65a6d1ee47e451e7d67f46c",
        "veto-demo/veto-demo-1.json": "a925ac293397c24317dc51cb33f6d014180f71aa218c8db26f0c50e2fca48744",
    },
    "default": {
        "contest-scaling/contest-scaling-0.csv": "0352f52191ca33527dfd5c4b42149347c1ca316d33ba3682e064566fe05ed185",
        "cost-report/cost-report.json": "f59028f7439cbf73c15cee57bc0f8a3c574eb435405642429cf08d2983d3d391",
        "cost-report/cost-report.txt": "e13b268b49b2f093524267ed89b1be68b152019c03b561aacdaf2fa32ca13474",
        "run/run-0.chains.json": "4e296a92df563dfe7de457033bfd037cc63d0389d0f4513591c539dcf4d86c6b",
        "run/run-0.csv": "36d2df5d3d0b01aea0c83475a948446fdfb07e0cd84bd901e634fa0f8e5076b0",
        "run/run-0.json": "c14138457fedaa9da4c9fadff8fd5687eb2a7d766b16d84ba53c8fbf2eca09b0",
        "sweep-validity/sweep-validity-0.csv": "06a86a80c13c8cbbb025435122f52e1931c83976e1d7a158a44e0509ef224aa3",
        "sweep-validity/sweep-validity-summary.csv":
            "1c6d0ceac49704f141296d9b20bc62221db0cd6702590357e8cb7d39122c71d5",
        "veto-demo/veto-demo-0.json": "dbeba05384e184dd9f448ea947e1393433e33ad8b65a6d1ee47e451e7d67f46c",
    },
    "ties": {
        "contest-scaling/contest-scaling-0.csv": "0b4ce9d1e001c3944edb9454cfffa09a332fb2b7a9a75e96102695b4919802a4",
        "cost-report/cost-report.json": "f59028f7439cbf73c15cee57bc0f8a3c574eb435405642429cf08d2983d3d391",
        "cost-report/cost-report.txt": "e13b268b49b2f093524267ed89b1be68b152019c03b561aacdaf2fa32ca13474",
        "run/run-0.blocks.jsonl": "7132f048eec5d636d33c850fec57e2d3875337ce8d2b715cd6a3181eac78ff4a",
        "run/run-0.chains.json": "98630ee064658d183e6d760a96fdc383707c6a955a0f86a8eefba5678102a89c",
        "run/run-0.csv": "a1344462ed9e73f08154c295947301dd486b1eedc650ed421abff46a70e1aa26",
        "run/run-0.json": "aea6d7155bd8c33cb510ec56c0ab82583d0ce7807a0ff2a90e3b38a89bc15521",
        "run/run-1.blocks.jsonl": "8196a81de42d2bb8f2471e1d0ecbc8650289d65ecc3a3387439333310e8c61a7",
        "run/run-1.chains.json": "9023cc6ad72397aec8e87aade1c38d0e079b00ce539fd0b94915602cadac2cc7",
        "run/run-1.csv": "6f292982669f00c3eb9c8af96a577160cdbd8830e19543cc20663f58e3f747f0",
        "run/run-1.json": "32733456aeba4d12dfafc4a3ad8d338f01fa00344b7c3e4670adc1dcea759d77",
        "sweep-validity/sweep-validity-0.csv": "728accf9db3c0a9af304793da50b4dea8b4b3e7800c90515a27c5a7e76db5739",
        "sweep-validity/sweep-validity-1.csv": "b1fb415688f82ac8a94786a1d533de23e2e0efd427c3cfe54f98ceda990474da",
        "sweep-validity/sweep-validity-summary.csv":
            "4bc182b6495c69b806c569158eaa09cf51cf5e236ce9f5cc6f07b839459644d3",
        "veto-demo/veto-demo-0.json": "dbeba05384e184dd9f448ea947e1393433e33ad8b65a6d1ee47e451e7d67f46c",
        "veto-demo/veto-demo-1.json": "a925ac293397c24317dc51cb33f6d014180f71aa218c8db26f0c50e2fca48744",
    },
}

CAMPAIGN_DIGESTS["custom-pow"] = CAMPAIGN_DIGESTS["custom"]

PRESET_DIGESTS = {
    "contest_scaling_config": "2d62399c0422e5566effc6c5293777f15275bdc44f9d565a1a4a0d76519f181a",
    "sweep_config": "58ec935fd6656d042e97302a7d8539e2d66b715652994fb5270b99db38ad63fa",
    "veto_demo": "c8bf635a1a9bf094dbd1d5fad83117ba1b2b0d311cfe8fbc44c1245e9ccec07c",
    "veto_demo_boundary": "62a4bcdd2f643ba2ca08775f82618d05e1a961a19519334234f367d1ce0ecf66",
    "worked_example": "60c8db5fed1cb55af032e8570c7497e42181e7e20117581c2b7e3a7980f3cd75",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_campaign_outputs_are_byte_identical(request, tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    config, seeds, engine = CASES[case]
    if engine == "pow":
        request.getfixturevalue("pow_engine")
    assert campaign_digests(config, seeds) == CAMPAIGN_DIGESTS[case]
    capsys.readouterr()


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_config_echo_is_byte_identical(name):
    assert preset_digest(name) == PRESET_DIGESTS[name]
