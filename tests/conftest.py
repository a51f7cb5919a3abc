import ctypes
import ctypes.util
import hashlib
import signal

import pytest

from panchain import crypto
from panchain.crypto import generate_keypair


# The slowest test takes about 5 s; a test still running at this limit hangs.
TIME_LIMIT_S = 60


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past TIME_LIMIT_S, so a hang fails the suite
    instead of stalling it."""

    def expire(signum, frame):
        pytest.fail(f"test ran past its {TIME_LIMIT_S} s time limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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
    machine without libgmp: the engine is made again without it, and no
    signature's check comes from a cache filled by GMP. Each key derives its
    own exponents under whatever engine is installed then; both engines give
    the same integers."""
    hide_libgmp(monkeypatch)
    engine, invert = crypto._load_gmp()
    monkeypatch.setattr(crypto, "_ENGINE", engine)
    monkeypatch.setattr(crypto, "_INVERT", invert)
    clear_verify_caches()
