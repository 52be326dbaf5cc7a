"""Workloads, the seven targets, their seeded inputs and their output oracles.

Every target is one public kdfkit function called one-shot. The call looks
its function up on the kdfkit module at call time, so the tracer's run-time
wrappers see it. Each output is checked against an independent oracle that
is installed offline:

* ``HMAC``: the stdlib ``hmac`` module
* ``CMAC``: ``cryptography``'s CMAC
* ``HMAC_KDF``/``CMAC_KDF``: ``cryptography``'s ``KBKDFHMAC``/``KBKDFCMAC``
  with fixed input ``b"KDF\\x00" + msg + out_len.to_bytes(4, "big")``
* ``IEEE_KDF``: AES-ECB from ``cryptography`` over the three counter blocks

No installed library computes KMAC (``hashlib`` has no cSHAKE), so ``KMAC``
and ``KMAC_KDF`` are checked before timing, twice: against the bundled
SP 800-185 vectors (``kmac_vector_failures``), and at the workload's own
input and output lengths against outputs pinned from the kdfkit version
that passed those vectors (``kmac_pin_failures``). The vectors cover only
32-byte outputs of messages up to 200 bytes; the pins hold the 4 KiB
absorb and the multi-block squeeze to the same bytes. Per call, only their
output length is checked. The output digest makes their bytes comparable
between two commits.
"""

import hashlib
import hmac as std_hmac
import random
from dataclasses import dataclass

from cryptography.hazmat.primitives import cmac as crypto_cmac
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cryptography.hazmat.primitives.kdf.kbkdf import (
    CounterLocation, KBKDFCMAC, KBKDFHMAC, Mode)

from kdfkit import cmac as cmac_mod
from kdfkit import hmac as hmac_mod
from kdfkit import kdf as kdf_mod
from kdfkit import kmac as kmac_mod
from kdfkit import vectors

# The values of kdfkit.bench.TargetKind, in the paper's row order.
TARGET_NAMES = ("HMAC", "CMAC", "KMAC", "HMAC_KDF", "CMAC_KDF", "KMAC_KDF", "IEEE_KDF")

KEY_LEN = 16
IEEE_INPUT_LEN = 8  # i_value || j_value
IEEE_OUT_LEN = 48
MAC_OUT_LEN = {"HMAC": 32, "CMAC": 16, "KMAC": 32}

# Calls made per target before timing. Their inputs and outputs feed the
# digests, so the digests do not depend on how many calls a run fits in.
WARMUP_CALLS = 8


@dataclass(frozen=True)
class Workload:
    """Input shape shared by a workload's targets.

    ``msg_len`` is the message (KDF context) length of every target but
    ``IEEE_KDF``, whose input is always the 8-byte i||j. ``out_len`` is the
    output length of the counter and KMAC KDFs. ``fresh_key`` draws a new key
    for every call instead of one key per target.
    """

    msg_len: int
    out_len: int
    fresh_key: bool


# Why each workload exists, and the layer each one stresses:
# * paper-7: the paper's table. Per-call fixed costs dominate (AES key setup,
#   the bytepad blocks of KMAC, HMAC's pad XOR).
# * long-msg: per-byte and per-block work dominates (Keccak-f and the
#   byte-wise absorb, AES block chaining, SHA-256 over 4 KiB). Key setup is
#   amortised, so a key-setup change should show no change here.
# * bulk-derive: long KDF outputs (squeeze, the counter loop's per-block
#   PRF) under a fresh key for every call of every target, so a cache keyed
#   on key bytes gains nothing and only a real cut in per-call work shows.
# Every workload runs all seven targets, so every run reports every metric.
# IEEE_KDF takes no message and has a fixed output, so it runs at its only
# shape on every workload; the MACs ignore ``out_len``.
WORKLOADS = {
    "paper-7": Workload(msg_len=32, out_len=48, fresh_key=False),
    "long-msg": Workload(msg_len=4096, out_len=48, fresh_key=False),
    "bulk-derive": Workload(msg_len=32, out_len=1024, fresh_key=True),
}


def _kbkdf_fixed(msg: bytes, out_len: int) -> bytes:
    return b"KDF\x00" + msg + out_len.to_bytes(4, "big")


def _oracle_hmac(key, msg, out_len):
    return std_hmac.digest(key, msg, "sha256")


def _oracle_cmac(key, msg, out_len):
    mac = crypto_cmac.CMAC(algorithms.AES(key))
    mac.update(msg)
    return mac.finalize()


def _oracle_hmac_kdf(key, msg, out_len):
    return KBKDFHMAC(hashes.SHA256(), Mode.CounterMode, out_len, 4, None,
                     CounterLocation.BeforeFixed, None, None,
                     _kbkdf_fixed(msg, out_len)).derive(key)


def _oracle_cmac_kdf(key, msg, out_len):
    return KBKDFCMAC(algorithms.AES, Mode.CounterMode, out_len, 4, None,
                     CounterLocation.BeforeFixed, None, None,
                     _kbkdf_fixed(msg, out_len)).derive(key)


def _oracle_ieee_kdf(key, ij, out_len):
    # Signing purpose: four zero pad bytes, then i || j || 0^32, plus 1..3.
    base = int.from_bytes(bytes(4) + ij + bytes(4), "big")
    blocks = b"".join(((base + i) % (1 << 128)).to_bytes(16, "big") for i in (1, 2, 3))
    encrypted = Cipher(algorithms.AES(key), modes.ECB()).encryptor().update(blocks)
    return bytes(a ^ b for a, b in zip(encrypted, blocks))


def _call(name: str, out_len: int):
    """The one-shot kdfkit call under test, as ``call(key, data) -> bytes``."""
    if name == "HMAC":
        return lambda key, msg: hmac_mod.hmac(key, msg)
    if name == "CMAC":
        return lambda key, msg: cmac_mod.cmac(key, msg)
    if name == "KMAC":
        return lambda key, msg: kmac_mod.kmac128(key, msg)
    if name == "HMAC_KDF":
        return lambda key, msg: kdf_mod.counter_kdf(kdf_mod.PrfChoice.HMAC_SHA256, key, msg, out_len)
    if name == "CMAC_KDF":
        return lambda key, msg: kdf_mod.counter_kdf(kdf_mod.PrfChoice.CMAC_AES128, key, msg, out_len)
    if name == "KMAC_KDF":
        return lambda key, msg: kdf_mod.kmac_kdf(key, msg, 8 * out_len)
    if name == "IEEE_KDF":
        return lambda key, ij: kdf_mod.ieee_kdf(key, ij[:4], ij[4:], kdf_mod.PURPOSE_SIGNING)
    raise ValueError(f"unknown target: {name}")


_ORACLES = {
    "HMAC": _oracle_hmac,
    "CMAC": _oracle_cmac,
    "KMAC": None,
    "HMAC_KDF": _oracle_hmac_kdf,
    "CMAC_KDF": _oracle_cmac_kdf,
    "KMAC_KDF": None,
    "IEEE_KDF": _oracle_ieee_kdf,
}


class Target:
    """One timed construction with its seeded input stream and its check."""

    def __init__(self, name: str, workload: str, seed: int):
        shape = WORKLOADS[workload]
        self.name = name
        if name == "IEEE_KDF":
            self.msg_len, self.out_len = IEEE_INPUT_LEN, IEEE_OUT_LEN
        else:
            self.msg_len = shape.msg_len
            self.out_len = MAC_OUT_LEN.get(name, shape.out_len)
        self.fresh_key = shape.fresh_key
        self.call = _call(name, self.out_len)
        self._oracle = _ORACLES[name]
        # A string seed is hashed with SHA-512, so streams are stable across
        # interpreter runs and independent between targets.
        self._rng = random.Random(f"{seed}/{workload}/{name}")
        self._key = self._rng.randbytes(KEY_LEN)

    def next_input(self) -> tuple:
        """The (key, data) pair of the next call."""
        rng = self._rng
        key = rng.randbytes(KEY_LEN) if self.fresh_key else self._key
        return key, rng.randbytes(self.msg_len)

    def check(self, key: bytes, data: bytes, out) -> bool:
        """Whether ``out`` is the correct output for (key, data)."""
        if not isinstance(out, bytes) or len(out) != self.out_len:
            return False
        if self._oracle is None:
            return True
        return out == self._oracle(key, data, self.out_len)


def build_targets(workload: str, seed: int) -> list:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    return [Target(name, workload, seed) for name in TARGET_NAMES]


def kmac_vector_failures() -> list:
    """Ids of the bundled SP 800-185 cSHAKE/KMAC vectors kdfkit gets wrong."""
    cases = vectors.load_vector_file(vectors.bundled_vector_path())
    results = vectors.run_cases(cases, "kmac") + vectors.run_cases(cases, "cshake")
    if not results:
        return ["no SP 800-185 vectors bundled"]
    return [r.case.id for r in results if not r.passed]


# The key and input of the pinned KMAC outputs.
PIN_KEY = bytes(range(KEY_LEN))


def pin_input(length: int) -> bytes:
    return bytes((7 * i + 1) % 256 for i in range(length))


# (target, input length, output length) -> SHA-256 of kdfkit's output for
# PIN_KEY and pin_input(input length), from the kdfkit version this benchmark
# was defined on. Every workload's KMAC and KMAC_KDF shape is here.
KMAC_PINS = {
    ("KMAC", 32, 32): "ed2803da271c35527a64dcbba0804013e4186203b627359b4ca1203e7c9e2432",
    ("KMAC", 4096, 32): "302faf0eb0f8feb9ad222a0785688be8e4169d3cfac9dde822020920314f14a6",
    ("KMAC_KDF", 32, 48): "e6147e3156bbe4dc5fec981c046860ba9aeb4da41e8e9a73217bec41d6bcbbd4",
    ("KMAC_KDF", 4096, 48): "f4b0e72803de078c3ae8391804c25bc3252f645705d57241b68a2b70e19632a4",
    ("KMAC_KDF", 32, 1024): "fb83c76bcb25ee7f6b43c2c02d4849a0cfe3eea0a32104752ac09a662db0b1eb",
}


def kmac_pin_failures(workload: str) -> list:
    """The workload's KMAC shapes whose output differs from its pin."""
    failures = []
    for name in ("KMAC", "KMAC_KDF"):
        target = Target(name, workload, 0)
        shape = (name, target.msg_len, target.out_len)
        out = target.call(PIN_KEY, pin_input(target.msg_len))
        if not isinstance(out, bytes) or hashlib.sha256(out).hexdigest() != KMAC_PINS[shape]:
            failures.append(f"{name}/{target.msg_len}B-in/{target.out_len}B-out")
    return failures


class Digests:
    """SHA-256 over the warm-up calls' inputs and outputs, in call order."""

    def __init__(self):
        self.inputs = hashlib.sha256()
        self.outputs = hashlib.sha256()

    def add(self, name: str, key: bytes, data: bytes, out) -> None:
        self.inputs.update(name.encode() + key + data)
        self.outputs.update(name.encode() + (out if isinstance(out, bytes) else b"<error>"))
