#!/usr/bin/env python3
"""Walk through the three MAC constructions on the same key and message.

Shows the standard test vectors each construction is checked against, plus
the moving parts: HMAC's padded-key derivation, CMAC's doubled subkeys, and
KMAC's customization string.
"""

from kdfkit.cmac import cmac, derive_subkeys
from kdfkit.hmac import HmacStream, derive_k0, hmac
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

# HMAC first normalizes the key to one 64-byte hash block.
print("== inside HMAC: key normalization ==")
k0 = derive_k0(key)
print(f"16-byte key becomes K0 = key || {64 - len(key)} zero bytes:")
print("K0  :", k0.hex())

# Feeding the message in pieces gives the same tag as one shot.
stream = HmacStream(key)
stream.update(msg[:10])
stream.update(msg[10:])
assert stream.final() == hmac(key, msg)
print("incremental HMAC agrees with one-shot: OK")
print()

# CMAC masks the final block with one of two subkeys derived by GF(2^128)
# doubling of AES(key, 0).
print("== inside CMAC: subkeys ==")
k1, k2 = derive_subkeys(key)
print("K1  :", k1.hex(), "(used when the last block is complete)")
print("K2  :", k2.hex(), "(used when the last block is padded)")
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
