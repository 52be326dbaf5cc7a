"""Known-answer vector files and the conformance runner behind ``selftest``.

A vector file is a JSON list of cases::

    {
      "id": "rfc4231-case-1",
      "construction": "hmac_sha256",
      "key": "0b0b..",          # hex, may be empty
      "msg": "4869..",          # hex, may be empty
      "params": {"L": 256, "S": "..", "N": "..", "U": 1, "i": "..", "j": ".."},
      "expect": "b034.."        # hex
    }

``L`` is passed straight to the function the case names, so its unit is
that function's: bits for ``shake128``, ``cshake128``, ``kmac128``,
``kmac256`` and ``kmac_kdf``, bytes for ``ctr_kdf_hmac`` and
``ctr_kdf_cmac``.

Hex is case-insensitive on input; all output is lowercase. The bundled file
``data/standard_vectors.json`` carries the published RFC/NIST vectors, and
``kmac_kdf`` cases confirmed by OpenSSL's KMAC128 (ids ``openssl-...``).
"""

import json
from pathlib import Path
from typing import NamedTuple

from . import cmac as cmac_mod
from . import hmac as hmac_mod
from . import kdf as kdf_mod
from . import kmac as kmac_mod
from .primitives import RATE_128, AesBlockCipher, sha256

BUNDLED_VECTOR_FILE = "standard_vectors.json"


class VectorCase(NamedTuple):
    id: str
    construction: str
    key: bytes
    msg: bytes
    expect: bytes
    params: dict


class CaseResult(NamedTuple):
    case: VectorCase
    passed: bool
    got: bytes


def bundled_vector_path() -> Path:
    return Path(__file__).parent / "data" / BUNDLED_VECTOR_FILE


def _hex_bytes(value, label):
    if not isinstance(value, str):
        raise ValueError(f"{label} must be a hex string")
    try:
        return bytes.fromhex(value)
    except ValueError:
        raise ValueError(f"{label} is not valid hex: {value!r}") from None


def parse_cases(raw) -> list:
    if not isinstance(raw, list):
        raise ValueError("vector file must contain a JSON list of cases")
    cases = []
    for idx, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ValueError(f"case {idx} is not a JSON object")
        try:
            construction = entry["construction"]
            expect = entry["expect"]
        except KeyError as missing:
            raise ValueError(f"case {idx} lacks required field {missing}") from None
        if not isinstance(construction, str):
            raise ValueError(f"case {idx} construction must be a string")
        params = entry.get("params", {})
        if not isinstance(params, dict):
            raise ValueError(f"case {idx} params must be a JSON object")
        cases.append(VectorCase(
            id=entry.get("id", f"case-{idx}"),
            construction=construction,
            key=_hex_bytes(entry.get("key", ""), f"case {idx} key"),
            msg=_hex_bytes(entry.get("msg", ""), f"case {idx} msg"),
            expect=_hex_bytes(expect, f"case {idx} expect"),
            params=params,
        ))
    return cases


def load_vector_file(path) -> list:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None
    return parse_cases(raw)


def compute_case(case: VectorCase) -> bytes:
    """Run the construction a case names and return the produced bytes.

    A missing or mistyped param raises ``ValueError`` naming the case and param.
    """

    def number(name):
        value = case.params.get(name)
        if type(value) is not int:
            raise ValueError(f"case {case.id} param {name} must be an integer, got {value!r}")
        return value

    def hex_param(name, default=None):
        return _hex_bytes(case.params.get(name, default), f"case {case.id} param {name}")

    kind = case.construction
    if kind == "aes128":
        return AesBlockCipher(case.key).encrypt_block(case.msg)
    if kind == "sha256":
        return sha256(case.msg)
    if kind == "shake128":
        return kmac_mod.cshake(case.msg, number("L"), b"", b"", RATE_128)
    if kind == "hmac_sha256":
        return hmac_mod.hmac(case.key, case.msg)
    if kind == "cmac_aes128":
        return cmac_mod.cmac(case.key, case.msg)
    if kind == "cshake128":
        return kmac_mod.cshake(case.msg, number("L"), hex_param("N", ""), hex_param("S", ""),
                               RATE_128)
    if kind in ("kmac128", "kmac256"):
        kmac = kmac_mod.kmac128 if kind == "kmac128" else kmac_mod.kmac256
        return kmac(case.key, case.msg, number("L"), hex_param("S", ""))
    if kind == "ctr_kdf_hmac":
        return kdf_mod.counter_kdf(kdf_mod.PrfChoice.HMAC_SHA256, case.key, case.msg, number("L"))
    if kind == "ctr_kdf_cmac":
        return kdf_mod.counter_kdf(kdf_mod.PrfChoice.CMAC_AES128, case.key, case.msg, number("L"))
    if kind == "kmac_kdf":
        return kdf_mod.kmac_kdf(case.key, case.msg, number("L"))
    if kind == "ieee_kdf":
        return kdf_mod.ieee_kdf(case.key, hex_param("i"), hex_param("j"), number("U"))
    raise ValueError(f"unknown construction: {kind}")


def run_cases(cases, construction=None) -> list:
    """Evaluate cases against expectations.

    ``construction`` restricts the run; it matches exactly or as a prefix,
    so ``cmac`` selects ``cmac_aes128``.
    """
    results = []
    for case in cases:
        if construction is not None and not case.construction.startswith(construction):
            continue
        got = compute_case(case)
        results.append(CaseResult(case=case, passed=got == case.expect, got=got))
    return results
