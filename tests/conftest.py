import ctypes
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


def hide_libgmp(monkeypatch):
    """Make libgmp unloadable, as on a machine without it: ``ctypes.CDLL``
    fails on its soname, and find_library finds nothing. Every other library
    still loads."""
    real = ctypes.CDLL

    def cdll(name, *args, **kwargs):
        if name == "libgmp.so.10":
            raise OSError(f"{name}: cannot open shared object file")
        return real(name, *args, **kwargs)

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    monkeypatch.setattr(ctypes.util, "find_library", lambda name: None)


@pytest.fixture
def pow_engine(monkeypatch):
    """Run every modular power and every exponent inverse in pow, as on a
    machine without libgmp: the engine reloads without it, and no wallet's
    exponents or signature's check come from a cache filled by GMP."""
    hide_libgmp(monkeypatch)
    monkeypatch.setattr(crypto, "_ENGINE", None)
    monkeypatch.setattr(crypto, "_INVERT", None)
    crypto._derive_exponents.cache_clear()
    clear_verify_caches()
