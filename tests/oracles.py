"""Test-only oracles: installed C libraries that share no code with kdfkit, through ctypes.

- Nettle's ``hmac_sha256`` and ``cmac_aes128`` (``libnettle.so.8``) share no
  code with kdfkit's MACs or with the OpenSSL behind ``hashlib`` and
  ``cryptography``.
- libgcrypt's SHAKE128/256 (``libgcrypt.so.20``) shares no code with kdfkit's
  sponge, with the Nettle permutation under it, or with OpenSSL.
- OpenSSL's ``EVP_MAC`` KMAC128/256 (``libcrypto.so.3``) shares no code with
  kdfkit's sponge.

Each ``load_*()`` returns the library, or None and the reason it cannot serve
as the oracle; ``needs(load_*)`` skips a test with that reason.
"""

import ctypes
import functools

import pytest

_P = ctypes.c_void_p


def _load(soname, signatures):
    """(library, None) with each function's restype and argtypes set, else (None, reason)."""
    # Loaded by soname: ctypes.util.find_library would run ldconfig in a subprocess.
    try:
        lib = ctypes.CDLL(soname)
    except OSError as exc:
        return None, f"cannot load {soname}: {exc}"
    for name, (restype, argtypes) in signatures.items():
        if not hasattr(lib, name):
            return None, f"{soname} has no {name}"
        getattr(lib, name).restype = restype
        getattr(lib, name).argtypes = argtypes
    return lib, None


def needs(load):
    """Skip the test, with the reason, unless ``load()`` finds its library."""
    _, reason = load()
    return pytest.mark.skipif(reason is not None, reason=str(reason))


def _lib(load):
    lib, reason = load()
    if lib is None:
        raise RuntimeError(reason)
    return lib


# Nettle: context layouts from Nettle 3.x's <nettle/{nettle-types,aes,sha2,cmac,hmac}.h>,
# so each buffer handed to Nettle is exactly its sizeof (248 and 336 bytes on x86-64).
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


@functools.cache
def load_nettle():
    """(libnettle, None) when it exports the CMAC and HMAC calls, else (None, reason)."""
    sized = [_P, ctypes.c_size_t, ctypes.c_char_p]
    return _load("libnettle.so.8", {
        "nettle_cmac_aes128_set_key": (None, [_P, ctypes.c_char_p]),
        "nettle_cmac_aes128_update": (None, sized),
        "nettle_cmac_aes128_digest": (None, sized),
        "nettle_hmac_sha256_set_key": (None, sized),
        "nettle_hmac_sha256_update": (None, sized),
        "nettle_hmac_sha256_digest": (None, sized),
    })


def nettle_cmac(key: bytes, msg: bytes) -> bytes:
    """AES-CMAC tag (16 bytes) of ``msg`` under a 16-byte ``key``."""
    if len(key) != 16:
        raise ValueError("Nettle's cmac_aes128 needs a 16-byte key")
    lib, ctx, out = _lib(load_nettle), _CmacAes128Ctx(), ctypes.create_string_buffer(16)
    lib.nettle_cmac_aes128_set_key(ctypes.byref(ctx), key)
    lib.nettle_cmac_aes128_update(ctypes.byref(ctx), len(msg), msg)
    lib.nettle_cmac_aes128_digest(ctypes.byref(ctx), 16, out)
    return out.raw


def nettle_hmac(key: bytes, msg: bytes) -> bytes:
    """HMAC-SHA256 tag (32 bytes) of ``msg`` under ``key``."""
    lib, ctx, out = _lib(load_nettle), _HmacSha256Ctx(), ctypes.create_string_buffer(32)
    lib.nettle_hmac_sha256_set_key(ctypes.byref(ctx), len(key), key)
    lib.nettle_hmac_sha256_update(ctypes.byref(ctx), len(msg), msg)
    lib.nettle_hmac_sha256_digest(ctypes.byref(ctx), 32, out)
    return out.raw


# libgcrypt: enum gcry_md_algos in <gcrypt.h>.
SHAKE128 = 316
SHAKE256 = 317


@functools.cache
def load_gcrypt():
    """(libgcrypt, None) when it provides SHAKE128 and SHAKE256, else (None, reason)."""
    # gcry_error_t is an unsigned int, 0 on success.
    lib, reason = _load("libgcrypt.so.20", {
        "gcry_check_version": (ctypes.c_char_p, [ctypes.c_char_p]),
        "gcry_md_open": (ctypes.c_uint, [ctypes.POINTER(_P), ctypes.c_int, ctypes.c_uint]),
        "gcry_md_write": (None, [_P, ctypes.c_char_p, ctypes.c_size_t]),
        "gcry_md_extract": (ctypes.c_uint, [_P, ctypes.c_int, ctypes.c_char_p, ctypes.c_size_t]),
        "gcry_md_close": (None, [_P]),
    })
    if lib is None:
        return None, reason
    # The version check initialises the library; it must precede any other call.
    version = lib.gcry_check_version(None)
    for algo in (SHAKE128, SHAKE256):
        handle = _P()
        if lib.gcry_md_open(ctypes.byref(handle), algo, 0):
            return None, f"libgcrypt {version.decode()} has no md algorithm {algo}"
        lib.gcry_md_close(handle)
    return lib, None


def gcrypt_shake(algo: int, msg: bytes, out_len: int) -> bytes:
    """``out_len`` bytes of SHAKE128 (``SHAKE128``) or SHAKE256 (``SHAKE256``) of ``msg``."""
    lib, handle, out = _lib(load_gcrypt), _P(), ctypes.create_string_buffer(out_len)
    if lib.gcry_md_open(ctypes.byref(handle), algo, 0):
        raise RuntimeError(f"gcry_md_open failed for md algorithm {algo}")
    try:
        lib.gcry_md_write(handle, msg, len(msg))
        if lib.gcry_md_extract(handle, algo, out, out_len):
            raise RuntimeError(f"gcry_md_extract failed for md algorithm {algo}")
    finally:
        lib.gcry_md_close(handle)
    return out.raw


# OpenSSL.
class _Param(ctypes.Structure):  # OSSL_PARAM
    _fields_ = [("key", ctypes.c_char_p), ("data_type", ctypes.c_uint), ("data", _P),
                ("data_size", ctypes.c_size_t), ("return_size", ctypes.c_size_t)]


@functools.cache
def load_openssl():
    """(libcrypto, None) when it provides KMAC-128 and KMAC-256, else (None, reason)."""
    # Pointer results need a restype, or ctypes truncates them to int.
    lib, reason = _load("libcrypto.so.3", {
        "EVP_MAC_fetch": (_P, [_P, ctypes.c_char_p, ctypes.c_char_p]),
        "EVP_MAC_free": (None, [_P]),
        "EVP_MAC_CTX_new": (_P, [_P]),
        "EVP_MAC_CTX_free": (None, [_P]),
        "EVP_MAC_init": (ctypes.c_int, [_P, ctypes.c_char_p, ctypes.c_size_t,
                                        ctypes.POINTER(_Param)]),
        "EVP_MAC_update": (ctypes.c_int, [_P, ctypes.c_char_p, ctypes.c_size_t]),
        "EVP_MAC_final": (ctypes.c_int, [_P, ctypes.c_char_p,
                                         ctypes.POINTER(ctypes.c_size_t), ctypes.c_size_t]),
        "OSSL_PARAM_construct_octet_string": (_Param, [ctypes.c_char_p, _P, ctypes.c_size_t]),
        "OSSL_PARAM_construct_uint": (_Param, [ctypes.c_char_p, ctypes.POINTER(ctypes.c_uint)]),
        "OSSL_PARAM_construct_end": (_Param, []),
    })
    if lib is None:
        return None, reason
    for algorithm in (b"KMAC-128", b"KMAC-256"):
        mac = lib.EVP_MAC_fetch(None, algorithm, None)
        if not mac:
            return None, f"libcrypto.so.3 does not provide {algorithm.decode()}"
        lib.EVP_MAC_free(mac)
    return lib, None


def openssl_kmac(bits: int, key: bytes, msg: bytes, out_len: int, custom: bytes) -> bytes:
    """KMAC128 or KMAC256 (``bits``) of ``msg``, ``out_len`` bytes, customization ``custom``."""
    lib, size = _lib(load_openssl), ctypes.c_uint(out_len)
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
