"""Test-only HMAC-SHA256 and AES-CMAC oracles: the system Nettle, through ctypes.

Nettle's ``hmac_sha256`` and ``cmac_aes128`` share no code with kdfkit's MACs
or with the OpenSSL behind ``hashlib`` and ``cryptography``. ``load()``
returns the library, or None and the reason it cannot serve as the oracle.
"""

import ctypes
import functools

_P = ctypes.c_void_p


# Context layouts from Nettle 3.x's <nettle/{nettle-types,aes,sha2,cmac,hmac}.h>,
# so each buffer handed to Nettle is exactly its sizeof (248 and 336 bytes on
# x86-64).
_Block16 = ctypes.c_uint64 * 2  # union nettle_block16: 16 bytes, 8-byte aligned


class _CmacAes128Ctx(ctypes.Structure):  # struct cmac_aes128_ctx
    _fields_ = [("k1", _Block16), ("k2", _Block16),            # struct cmac128_key
                ("x", _Block16), ("block", _Block16), ("index", ctypes.c_size_t),
                ("cipher", ctypes.c_uint32 * 44)]              # struct aes128_ctx


class _Sha256Ctx(ctypes.Structure):  # struct sha256_ctx
    _fields_ = [("state", ctypes.c_uint32 * 8), ("count", ctypes.c_uint64),
                ("index", ctypes.c_uint), ("block", ctypes.c_uint8 * 64)]


class _HmacSha256Ctx(ctypes.Structure):  # struct hmac_sha256_ctx
    _fields_ = [("outer", _Sha256Ctx), ("inner", _Sha256Ctx), ("state", _Sha256Ctx)]


_SIGNATURES = {
    "nettle_cmac_aes128_set_key": [_P, ctypes.c_char_p],
    "nettle_cmac_aes128_update": [_P, ctypes.c_size_t, ctypes.c_char_p],
    "nettle_cmac_aes128_digest": [_P, ctypes.c_size_t, ctypes.c_char_p],
    "nettle_hmac_sha256_set_key": [_P, ctypes.c_size_t, ctypes.c_char_p],
    "nettle_hmac_sha256_update": [_P, ctypes.c_size_t, ctypes.c_char_p],
    "nettle_hmac_sha256_digest": [_P, ctypes.c_size_t, ctypes.c_char_p],
}


@functools.cache
def load():
    """(libnettle, None) when it exports the CMAC and HMAC calls, else (None, reason)."""
    # Loaded by soname: ctypes.util.find_library would run ldconfig in a subprocess.
    try:
        lib = ctypes.CDLL("libnettle.so.8")
    except OSError as exc:
        return None, f"cannot load libnettle.so.8: {exc}"
    for name, argtypes in _SIGNATURES.items():
        if not hasattr(lib, name):
            return None, f"libnettle.so.8 has no {name}"
        getattr(lib, name).restype = None
        getattr(lib, name).argtypes = argtypes
    return lib, None


def _lib():
    lib, reason = load()
    if lib is None:
        raise RuntimeError(reason)
    return lib


def nettle_cmac(key: bytes, msg: bytes) -> bytes:
    """AES-CMAC tag (16 bytes) of ``msg`` under a 16-byte ``key``."""
    if len(key) != 16:
        raise ValueError("Nettle's cmac_aes128 needs a 16-byte key")
    lib, ctx, out = _lib(), _CmacAes128Ctx(), ctypes.create_string_buffer(16)
    lib.nettle_cmac_aes128_set_key(ctypes.byref(ctx), key)
    lib.nettle_cmac_aes128_update(ctypes.byref(ctx), len(msg), msg)
    lib.nettle_cmac_aes128_digest(ctypes.byref(ctx), 16, out)
    return out.raw


def nettle_hmac(key: bytes, msg: bytes) -> bytes:
    """HMAC-SHA256 tag (32 bytes) of ``msg`` under ``key``."""
    lib, ctx, out = _lib(), _HmacSha256Ctx(), ctypes.create_string_buffer(32)
    lib.nettle_hmac_sha256_set_key(ctypes.byref(ctx), len(key), key)
    lib.nettle_hmac_sha256_update(ctypes.byref(ctx), len(msg), msg)
    lib.nettle_hmac_sha256_digest(ctypes.byref(ctx), 32, out)
    return out.raw
