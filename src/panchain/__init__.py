"""panchain: simulator and protocol library for claim-first pan-blockchain
token transfers with deterministic witness contests and veto-based
double-spend prevention."""

from .chain import Block, SimChain
from .configs import (
    ConfigError,
    EcosystemConfig,
    ObservationPolicy,
    ScriptedAction,
    TransferLeg,
    WalletSpec,
    config_from_dict,
    contest_scaling_config,
    sweep_config,
    veto_demo,
    veto_demo_boundary,
    worked_example,
)
from .contract import ChainState, PoiRecord, TxError, VetoRecord
from .costmodel import GasTable, PriceModel, min_viable_price, simulated_cost_report, transfer_cost
from .crypto import KeyPair, generate_keypair, sign, verify
from .ecosystem import run, wallet_keypair
from .protocol import (
    Claim,
    Contest,
    Finalize,
    FinalizeVeto,
    ProofOfIntent,
    Transaction,
    Veto,
    conflicts,
    encode_intent,
    encode_poi,
    encode_veto_payload,
    make_claim,
    make_contest,
    make_finalize,
    make_finalize_veto,
    make_poi,
    make_veto,
    verify_poi,
    veto_deadline,
)
from .report import RunReport, check_consistency

__version__ = "0.1.0"
