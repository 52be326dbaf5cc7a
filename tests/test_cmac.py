"""AES-CMAC against RFC 4493 vectors, two independent oracles, and its invariants."""

import random

import pytest
from cryptography.hazmat.primitives.ciphers.algorithms import AES
from cryptography.hazmat.primitives.cmac import CMAC as LibCmac

from kdfkit.cmac import cmac, dbl, derive_subkeys, split_and_pad
from reference import cmac_reference

RFC4493_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
RFC4493_MSG = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710")
RFC4493_EXAMPLES = [
    (0, "bb1d6929e95937287fa37d129b756746"),
    (16, "070a16b46b4d4144f79bdd9dd04a287c"),
    (40, "dfa66747de9ae63030ca32611497c827"),
    (64, "51f0bebf7e3b9d92fc49741779363cfe"),
]


def _xor(a, b):
    return bytes(x ^ y for x, y in zip(a, b))


class TestDbl:
    def test_rfc4493_subkey_chain(self):
        k1, k2 = derive_subkeys(RFC4493_KEY)
        assert k1.hex() == "fbeed618357133667c85e08f7236a8de"
        assert k2.hex() == "f7ddac306ae266ccf90bc11ee46d513b"

    def test_msb_clear_is_plain_shift(self):
        block = bytes([0x40]) + bytes(15)
        assert dbl(block) == bytes([0x80]) + bytes(15)

    def test_msb_set_applies_reduction(self):
        block = bytes([0x80]) + bytes(15)
        assert dbl(block) == bytes(15) + bytes([0x87])

    def test_zero_fixed_point(self):
        assert dbl(dbl(bytes(16))) == bytes(16)

    def test_requires_full_block(self):
        with pytest.raises(ValueError):
            dbl(bytes(15))


class TestSplitAndPad:
    # The subkey that masks the final block shows whether it was complete:
    # K1 for a complete block, K2 for a padded one.
    @pytest.fixture
    def subkeys(self):
        return derive_subkeys(RFC4493_KEY)

    def test_complete_single_block(self, subkeys):
        k1, k2 = subkeys
        msg = RFC4493_MSG[:16]
        blocks = split_and_pad(msg, k1, k2)
        assert blocks == [_xor(msg, k1)]

    def test_empty_message(self, subkeys):
        k1, k2 = subkeys
        blocks = split_and_pad(b"", k1, k2)
        assert blocks == [_xor(b"\x80" + bytes(15), k2)]

    def test_40_byte_message(self, subkeys):
        k1, k2 = subkeys
        msg = RFC4493_MSG[:40]
        blocks = split_and_pad(msg, k1, k2)
        assert len(blocks) == 3
        assert blocks[0] == msg[:16]
        assert blocks[1] == msg[16:32]
        padded_tail = msg[32:] + b"\x80" + bytes(7)
        assert blocks[2] == _xor(padded_tail, k2)

    def test_block_sizes(self, subkeys):
        for length in range(0, 70):
            blocks = split_and_pad(bytes(length), *subkeys)
            assert all(len(block) == 16 for block in blocks)
            assert len(blocks) == max(1, -(-length // 16))


class TestCmac:
    @pytest.mark.parametrize("length, expect", RFC4493_EXAMPLES)
    def test_rfc4493_examples(self, length, expect):
        assert cmac(RFC4493_KEY, RFC4493_MSG[:length]).hex() == expect

    def test_deterministic(self):
        assert cmac(RFC4493_KEY, b"x") == cmac(RFC4493_KEY, b"x")

    def test_every_length_vs_reference(self):
        # in-repo brute-force oracle on an independent AES implementation
        rng = random.Random(0xC3AC)
        key = rng.randbytes(16)
        for length in range(65):
            msg = rng.randbytes(length)
            assert cmac(key, msg) == cmac_reference(key, msg), length

    def test_random_vs_library_oracle(self):
        rng = random.Random(0x11B)
        for _ in range(50):
            key = rng.randbytes(16)
            msg = rng.randbytes(rng.randrange(0, 200))
            lib = LibCmac(AES(key))
            lib.update(msg)
            assert cmac(key, msg) == lib.finalize()

    def test_tag_length_sweep(self):
        key = bytes(range(16))
        for length in range(0, 1001):
            assert len(cmac(key, b"\x5A" * length)) == 16

    def test_last_byte_change_alters_tag(self):
        rng = random.Random(5)
        key = rng.randbytes(16)
        for _ in range(1000):
            msg = bytearray(rng.randbytes(rng.randrange(1, 50)))
            tag = cmac(key, bytes(msg))
            msg[-1] ^= rng.randrange(1, 256)
            assert cmac(key, bytes(msg)) != tag

    @pytest.mark.parametrize("key_len", [0, 15, 24, 32])
    def test_invalid_key_length(self, key_len):
        with pytest.raises(ValueError):
            cmac(bytes(key_len), b"")
