"""Test-only SHAKE128/SHAKE256 oracle: the system libgcrypt, through ctypes.

libgcrypt's Keccak shares no code with kdfkit's sponge, with the Nettle
permutation under it, or with the OpenSSL behind ``hashlib``. ``load()``
returns the library, or None and the reason it cannot serve as the oracle.
"""

import ctypes
import functools

_P = ctypes.c_void_p

# enum gcry_md_algos in <gcrypt.h>.
SHAKE128 = 316
SHAKE256 = 317

# name: (restype, argtypes). gcry_error_t is an unsigned int, 0 on success.
_SIGNATURES = {
    "gcry_check_version": (ctypes.c_char_p, [ctypes.c_char_p]),
    "gcry_md_open": (ctypes.c_uint, [ctypes.POINTER(_P), ctypes.c_int, ctypes.c_uint]),
    "gcry_md_write": (None, [_P, ctypes.c_char_p, ctypes.c_size_t]),
    "gcry_md_extract": (ctypes.c_uint, [_P, ctypes.c_int, ctypes.c_char_p, ctypes.c_size_t]),
    "gcry_md_close": (None, [_P]),
}


@functools.cache
def load():
    """(libgcrypt, None) when it provides SHAKE128 and SHAKE256, else (None, reason)."""
    # Loaded by soname: ctypes.util.find_library would run ldconfig in a subprocess.
    try:
        lib = ctypes.CDLL("libgcrypt.so.20")
    except OSError as exc:
        return None, f"cannot load libgcrypt.so.20: {exc}"
    for name, (restype, argtypes) in _SIGNATURES.items():
        if not hasattr(lib, name):
            return None, f"libgcrypt.so.20 has no {name}"
        getattr(lib, name).restype = restype
        getattr(lib, name).argtypes = argtypes
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
    lib, reason = load()
    if lib is None:
        raise RuntimeError(reason)
    handle, out = _P(), ctypes.create_string_buffer(out_len)
    if lib.gcry_md_open(ctypes.byref(handle), algo, 0):
        raise RuntimeError(f"gcry_md_open failed for md algorithm {algo}")
    try:
        lib.gcry_md_write(handle, msg, len(msg))
        if lib.gcry_md_extract(handle, algo, out, out_len):
            raise RuntimeError(f"gcry_md_extract failed for md algorithm {algo}")
    finally:
        lib.gcry_md_close(handle)
    return out.raw
