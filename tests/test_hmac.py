"""HMAC-SHA256 against RFC 4231 vectors, the stdlib oracle, and its invariants."""

import hashlib
import hmac as stdlib_hmac
import random

import pytest

from kdfkit.hmac import HmacKey, hmac, hmac_key
from test_properties import near

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

    @pytest.mark.parametrize("name, key, msg, expect", RFC4231_CASES)
    def test_rfc4231_hmac_key(self, name, key, msg, expect):
        assert hmac(hmac_key(key), msg).hex() == expect

    def test_deterministic(self):
        assert hmac(b"k", b"m") == hmac(b"k", b"m")

    def test_matches_stdlib_oracle(self):
        rng = random.Random(0x48AC)
        for _ in range(200):
            key = rng.randbytes(rng.randrange(0, 150))
            msg = rng.randbytes(rng.randrange(0, 300))
            assert hmac(key, msg) == stdlib_hmac.new(key, msg, hashlib.sha256).digest()

    def test_matches_stdlib_oracle_hmac_key(self):
        rng = random.Random(0x48AC)
        for _ in range(200):
            key = rng.randbytes(rng.randrange(0, 150))
            msg = rng.randbytes(rng.randrange(0, 300))
            assert hmac(hmac_key(key), msg) == stdlib_hmac.new(key, msg, hashlib.sha256).digest()

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


class TestHmacKey:
    """``hmac`` under an ``HmacKey`` equals the one-shot tag under its key."""

    KEY_LENGTHS = (0, 1, 63, 64, 65, 200)

    def test_key_and_message_edges_match_stdlib(self):
        # Keys padded, filling the block or hashed first; messages within
        # 4 B of each SHA-256 block edge.
        rng = random.Random(0x2104)
        for key_len in self.KEY_LENGTHS:
            key = rng.randbytes(key_len)
            schedule = hmac_key(key)
            for msg_len in near(0, 64, 128, 192):
                msg = rng.randbytes(msg_len)
                expect = stdlib_hmac.new(key, msg, hashlib.sha256).digest()
                assert hmac(schedule, msg) == hmac(key, msg) == expect, (key_len, msg_len)

    @pytest.mark.parametrize("wrap", [bytearray, memoryview])
    def test_bytes_like_key_and_message(self, wrap):
        rng = random.Random(0x4B5C)
        msg = rng.randbytes(100)
        for key_len in self.KEY_LENGTHS:
            key = rng.randbytes(key_len)
            assert hmac(hmac_key(wrap(key)), msg) == hmac(key, msg), key_len
            assert hmac(hmac_key(key), wrap(msg)) == hmac(key, msg), key_len

    def test_one_schedule_over_shuffled_messages(self):
        # Each tag copies the states, so no message leaks into the next tag,
        # whatever order the messages come in, and the states stay as built.
        rng = random.Random(0x5EED)
        key = rng.randbytes(32)
        schedule = hmac_key(key)
        pads = (schedule.inner.digest(), schedule.outer.digest())
        msgs = [rng.randbytes(n) for n in near(0, 64, 128) for _ in range(3)]
        expect = {msg: hmac(key, msg) for msg in msgs}
        for _ in range(3):
            rng.shuffle(msgs)
            for msg in msgs:
                assert hmac(schedule, msg) == expect[msg], len(msg)
        assert (schedule.inner.digest(), schedule.outer.digest()) == pads

    def test_states_absorbed_the_padded_key(self):
        key = b"Jefe"
        k0 = key.ljust(64, b"\x00")
        schedule = hmac_key(key)
        assert isinstance(schedule, HmacKey)
        assert schedule.inner.digest() == hashlib.sha256(bytes(b ^ 0x36 for b in k0)).digest()
        assert schedule.outer.digest() == hashlib.sha256(bytes(b ^ 0x5C for b in k0)).digest()
