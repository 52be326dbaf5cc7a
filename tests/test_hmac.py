"""HMAC-SHA256 against RFC 4231 vectors, the stdlib oracle, and its invariants."""

import hashlib
import hmac as stdlib_hmac
import random

import pytest

from kdfkit.hmac import hmac

RFC4231_CASES = [
    ("case-1", bytes([0x0B]) * 20, b"Hi There",
     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
    ("case-2", b"Jefe", b"what do ya want for nothing?",
     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"),
    ("case-3", bytes([0xAA]) * 20, bytes([0xDD]) * 50,
     "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"),
    ("case-4", bytes(range(1, 26)), bytes([0xCD]) * 50,
     "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"),
]


class TestHmac:
    @pytest.mark.parametrize("name, key, msg, expect", RFC4231_CASES)
    def test_rfc4231(self, name, key, msg, expect):
        assert hmac(key, msg).hex() == expect

    def test_deterministic(self):
        assert hmac(b"k", b"m") == hmac(b"k", b"m")

    def test_matches_stdlib_oracle(self):
        rng = random.Random(0x48AC)
        for _ in range(200):
            key = rng.randbytes(rng.randrange(0, 150))
            msg = rng.randbytes(rng.randrange(0, 300))
            assert hmac(key, msg) == stdlib_hmac.new(key, msg, hashlib.sha256).digest()

    def test_output_length_sweep(self):
        # full cross product of key lengths 0..=200 and message lengths 0..=300
        messages = [b"\xA5" * msg_len for msg_len in range(301)]
        for key_len in range(201):
            key = b"\x55" * key_len
            for msg in messages:
                assert len(hmac(key, msg)) == 32

    def test_long_key_hashed_first(self):
        key = bytes([0xAA]) * 131  # RFC 4231 case-6 key length
        msg = b"long key"
        assert hmac(key, msg) == hmac(hashlib.sha256(key).digest(), msg)

    def test_empty_key_is_zero_block(self):
        assert hmac(b"", b"msg") == hmac(bytes(64), b"msg")

    def test_short_key_padding_equivalence(self):
        rng = random.Random(11)
        for key_len in [0, 1, 20, 63]:
            key = rng.randbytes(key_len)
            msg = rng.randbytes(40)
            assert hmac(key, msg) == hmac(key + bytes(64 - key_len), msg)

    @pytest.mark.parametrize("wrap", [bytearray, memoryview])
    def test_bytes_like_key_and_message(self, wrap):
        # Short, block-length and hashed-first keys.
        rng = random.Random(0xB7E5)
        msg = rng.randbytes(100)
        for key_len in (0, 20, 64, 65, 131):
            key = rng.randbytes(key_len)
            assert hmac(wrap(key), msg) == hmac(key, msg), key_len
            assert hmac(key, wrap(msg)) == hmac(key, msg), key_len
            assert hmac(wrap(key), wrap(msg)) == hmac(key, msg), key_len

    def test_single_bit_flip_changes_tag(self):
        rng = random.Random(1337)
        msg = bytearray(rng.randbytes(200))
        key = rng.randbytes(32)
        baseline = hmac(key, bytes(msg))
        for _ in range(1000):
            pos = rng.randrange(len(msg))
            bit = 1 << rng.randrange(8)
            msg[pos] ^= bit
            assert hmac(key, bytes(msg)) != baseline
            msg[pos] ^= bit
