"""Fixtures shared by the test modules under tests/."""

import pytest

from kdfkit.primitives import AesBlockCipher


@pytest.fixture
def aes_calls(monkeypatch):
    """Counts of ``AesBlockCipher`` key setups and block calls made from here on.

    The methods are wrapped on the class, as perfbench's aes_key_setup and
    aes_block ledgers wrap them, so every module's ciphers are counted.
    """
    calls = {"setup": 0, "block": 0}
    init, encrypt_block = AesBlockCipher.__init__, AesBlockCipher.encrypt_block

    def counting_init(cipher, key):
        calls["setup"] += 1
        init(cipher, key)

    def counting_block(cipher, block):
        calls["block"] += 1
        return encrypt_block(cipher, block)

    monkeypatch.setattr(AesBlockCipher, "__init__", counting_init)
    monkeypatch.setattr(AesBlockCipher, "encrypt_block", counting_block)
    return calls
