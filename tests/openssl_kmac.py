"""Test-only KMAC128/KMAC256 oracle: the system OpenSSL's EVP_MAC, through ctypes.

It shares no code with kdfkit's sponge. ``load()`` returns the library, or
None and the reason it cannot serve as the oracle.
"""

import ctypes
import ctypes.util
import functools

_P = ctypes.c_void_p


class _Param(ctypes.Structure):  # OSSL_PARAM
    _fields_ = [("key", ctypes.c_char_p), ("data_type", ctypes.c_uint), ("data", _P),
                ("data_size", ctypes.c_size_t), ("return_size", ctypes.c_size_t)]


# name: (restype, argtypes). Pointer results need restype, or ctypes truncates them to int.
_SIGNATURES = {
    "EVP_MAC_fetch": (_P, [_P, ctypes.c_char_p, ctypes.c_char_p]),
    "EVP_MAC_free": (None, [_P]),
    "EVP_MAC_CTX_new": (_P, [_P]),
    "EVP_MAC_CTX_free": (None, [_P]),
    "EVP_MAC_init": (ctypes.c_int, [_P, ctypes.c_char_p, ctypes.c_size_t,
                                    ctypes.POINTER(_Param)]),
    "EVP_MAC_update": (ctypes.c_int, [_P, ctypes.c_char_p, ctypes.c_size_t]),
    "EVP_MAC_final": (ctypes.c_int, [_P, ctypes.c_char_p, ctypes.POINTER(ctypes.c_size_t),
                                     ctypes.c_size_t]),
    "OSSL_PARAM_construct_octet_string": (_Param, [ctypes.c_char_p, _P, ctypes.c_size_t]),
    "OSSL_PARAM_construct_uint": (_Param, [ctypes.c_char_p, ctypes.POINTER(ctypes.c_uint)]),
    "OSSL_PARAM_construct_end": (_Param, []),
}


@functools.cache
def load():
    """(libcrypto, None) when it provides KMAC-128 and KMAC-256, else (None, reason)."""
    path = ctypes.util.find_library("crypto")
    if path is None:
        return None, "no libcrypto found"
    lib = ctypes.CDLL(path)
    if not hasattr(lib, "EVP_MAC_fetch"):
        return None, f"{path} has no EVP_MAC_fetch (OpenSSL before 3.0)"
    for name, (restype, argtypes) in _SIGNATURES.items():
        getattr(lib, name).restype = restype
        getattr(lib, name).argtypes = argtypes
    for algorithm in (b"KMAC-128", b"KMAC-256"):
        mac = lib.EVP_MAC_fetch(None, algorithm, None)
        if not mac:
            return None, f"{path} does not provide {algorithm.decode()}"
        lib.EVP_MAC_free(mac)
    return lib, None


def openssl_kmac(bits: int, key: bytes, msg: bytes, out_len: int, custom: bytes) -> bytes:
    """KMAC128 or KMAC256 (``bits``) of ``msg``, ``out_len`` bytes, customization ``custom``."""
    lib, reason = load()
    if lib is None:
        raise RuntimeError(reason)
    size = ctypes.c_uint(out_len)
    params = (_Param * 3)(lib.OSSL_PARAM_construct_octet_string(b"custom", custom, len(custom)),
                          lib.OSSL_PARAM_construct_uint(b"size", ctypes.byref(size)),
                          lib.OSSL_PARAM_construct_end())
    out = ctypes.create_string_buffer(out_len)
    written = ctypes.c_size_t()
    mac = lib.EVP_MAC_fetch(None, f"KMAC-{bits}".encode(), None)
    ctx = lib.EVP_MAC_CTX_new(mac)
    try:
        ok = (ctx and lib.EVP_MAC_init(ctx, key, len(key), params)
              and lib.EVP_MAC_update(ctx, msg, len(msg))
              and lib.EVP_MAC_final(ctx, out, ctypes.byref(written), out_len))
    finally:
        lib.EVP_MAC_CTX_free(ctx)
        lib.EVP_MAC_free(mac)
    if not ok or written.value != out_len:
        raise RuntimeError(f"OpenSSL KMAC-{bits} failed (key {len(key)} B, out {out_len} B)")
    return out.raw
