#!/usr/bin/env python3
"""Walk through the three MAC constructions on the same key and message.

Shows the three tags, KMAC's customization string, and the standard test
vectors each construction is checked against.
"""

from kdfkit.cmac import cmac
from kdfkit.hmac import hmac
from kdfkit.kmac import kmac128

key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
msg = b"example payload for all three MACs"

print("== one key, one message, three MACs ==")
print("key :", key.hex())
print("msg :", msg.decode())
print()
print("HMAC-SHA256 :", hmac(key, msg).hex())
print("AES-CMAC    :", cmac(key, msg).hex())
print("KMAC128     :", kmac128(key, msg, 256).hex())
print()

# KMAC separates applications through a customization string: same inputs,
# different S, unrelated tags.
print("== inside KMAC: customization ==")
print('S=""      :', kmac128(key, msg, 256, b"").hex())
print('S="KDF"   :', kmac128(key, msg, 256, b"KDF").hex())
print()

# The published vectors these implementations are held to:
print("== standard vectors ==")
rfc4231_tag = hmac(bytes([0x0B]) * 20, b"Hi There")
print("RFC 4231 case 1   :", rfc4231_tag.hex())
assert rfc4231_tag.hex().startswith("b0344c61")

rfc4493_tag = cmac(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"), b"")
print("RFC 4493 example 1:", rfc4493_tag.hex())
assert rfc4493_tag.hex().startswith("bb1d6929")

nist_tag = kmac128(bytes(range(0x40, 0x60)), bytes.fromhex("00010203"), 256)
print("SP 800-185 sample :", nist_tag.hex())
assert nist_tag.hex().startswith("e5780b0d")
print("all vectors OK")
