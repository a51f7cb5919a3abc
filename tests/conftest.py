import ctypes.util
import hashlib

import pytest

from panchain import crypto
from panchain.crypto import generate_keypair


def keypair(label: str):
    return generate_keypair(hashlib.sha256(label.encode()).digest())


@pytest.fixture
def sender_key():
    return keypair("sender")


@pytest.fixture
def recipient_key():
    return keypair("recipient")


@pytest.fixture
def observer_keys():
    return [keypair(f"observer-{i}") for i in range(3)]


def clear_verify_caches():
    """Forget the signatures this process made and every cached verification,
    so that the next verify of any signature runs the full check."""
    crypto._signed.clear()
    crypto._signed_before.clear()
    crypto._verify_cached.cache_clear()


@pytest.fixture
def pow_engine(monkeypatch):
    """Run every modular power and every exponent inverse in pow, as on a
    machine without libgmp: the engine reloads without it, and no wallet's
    exponents or signature's check come from a cache filled by GMP."""
    monkeypatch.setattr(ctypes.util, "find_library", lambda name: None)
    monkeypatch.setattr(crypto, "_ENGINE", None)
    monkeypatch.setattr(crypto, "_INVERT", None)
    crypto._derive_exponents.cache_clear()
    clear_verify_caches()
