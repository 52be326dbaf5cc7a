"""Vector file parsing and the conformance runner."""

import json

import pytest
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cryptography.hazmat.primitives.kdf.kbkdf import (KBKDFCMAC, KBKDFHMAC, CounterLocation,
                                                      Mode)

from kdfkit import kdf, kmac, vectors


# Ids the bundled file must carry, one or more per standard; the acceptance
# gate reads the same set.
REQUIRED_IDS = frozenset({
    "fips197-c1",
    "fips180-4-sha256-empty", "fips180-4-sha256-abc",
    "fips202-shake128-empty",
    "rfc4231-case-1", "rfc4231-case-2", "rfc4231-case-3", "rfc4231-case-4",
    "rfc4231-case-6", "rfc4231-case-7",
    "rfc4493-example-1", "rfc4493-example-2",
    "rfc4493-example-3", "rfc4493-example-4",
    "sp800-185-cshake128-sample-1",
    "sp800-185-kmac128-sample-1", "sp800-185-kmac128-sample-2",
    "sp800-185-kmac256-sample-4", "sp800-185-kmac256-sample-5",
    "sp800-185-kmac256-sample-6",
    "openssl-evp-mac-kmac128-kdf-msg32-l384",
    "openssl-evp-mac-kmac128-kdf-msg200-l384",
    "openssl-evp-mac-kmac128-kdf-msg200-l1600",
})


@pytest.fixture(scope="module")
def bundled_cases():
    return vectors.load_vector_file(vectors.bundled_vector_path())


class TestBundledFile:
    def test_loads_and_passes(self, bundled_cases):
        results = vectors.run_cases(bundled_cases)
        assert len(results) == len(bundled_cases) > 0
        failing = [r.case.id for r in results if not r.passed]
        assert failing == []

    def test_covers_required_standards(self, bundled_cases):
        ids = {case.id for case in bundled_cases}
        assert REQUIRED_IDS <= ids

    def test_filter_restricts_to_construction(self, bundled_cases):
        results = vectors.run_cases(bundled_cases, construction="cmac_aes128")
        assert len(results) == 4
        assert all(r.case.construction == "cmac_aes128" for r in results)


class TestRunner:
    def test_corrupted_expectation_fails(self, bundled_cases):
        case = bundled_cases[0]
        tampered = vectors.VectorCase(
            id=case.id, construction=case.construction, key=case.key,
            msg=case.msg, expect=bytes([case.expect[0] ^ 0xFF]) + case.expect[1:],
            params=case.params)
        results = vectors.run_cases([tampered])
        assert not results[0].passed
        assert results[0].got == case.expect

    def test_default_params_are_empty_and_read_only(self):
        # The default is one object shared by every case built without params.
        case = vectors.VectorCase(id="x", construction="sha256", key=b"", msg=b"",
                                  expect=b"")
        assert dict(case.params) == {}
        with pytest.raises(TypeError):
            case.params["L"] = 256

    def test_parsed_params_are_the_file_dict(self):
        (case,) = vectors.parse_cases([{"construction": "kmac128", "expect": "00",
                                        "params": {"L": 8}}])
        assert type(case.params) is dict
        assert case.params == {"L": 8}

    def test_unknown_construction_rejected(self):
        case = vectors.VectorCase(id="x", construction="rot13", key=b"", msg=b"",
                                  expect=b"\x00")
        with pytest.raises(ValueError):
            vectors.run_cases([case])


def _kbkdf_expect(kbkdf_cls, prf, key, msg, out_len):
    """SP 800-108 counter mode from ``cryptography``: r = 4, counter before the fixed input."""
    fixed = b"KDF\x00" + msg + out_len.to_bytes(4, "big")  # [L] in bytes, as counter_kdf
    return kbkdf_cls(prf, Mode.CounterMode, out_len, 4, None, CounterLocation.BeforeFixed,
                     None, None, fixed).derive(key)


def _ieee_signing_expect(key, i_value, j_value):
    """AES-ECB over the three counter blocks pad || i || j || 0^32 + 1..3, XORed back."""
    base = int.from_bytes(bytes(4) + i_value + j_value + bytes(4), "big")
    blocks = b"".join(((base + i) % (1 << 128)).to_bytes(16, "big") for i in (1, 2, 3))
    encrypted = Cipher(algorithms.AES(key), modes.ECB()).encryptor().update(blocks)
    return bytes(a ^ b for a, b in zip(encrypted, blocks))


KEY16 = bytes(range(16))
KMAC_KEY = bytes(range(0x40, 0x60))
MSG = bytes(range(0x20, 0x45))

# One case per construction without a published vector, one kmac256 case at
# an L (392) and S ("KMAC") that its bundled SP 800-185 samples 4-6 lack, and
# one kmac_kdf case at a message length (37 B) its bundled OpenSSL-confirmed
# cases lack. The kmac256 and kmac_kdf expectations come from kdfkit itself, so they
# pin only the runner's dispatch and its bit unit for L;
# test_kmac.TestOpensslOracle checks both constructions against OpenSSL. The
# IEEE encryption pad (U = 2) is still unconfirmed, so only U = 1 is checked.
UNBUNDLED_CASES = [
    ("kmac256", KMAC_KEY, MSG, {"L": 392, "S": "4b4d4143"},
     lambda: kmac.kmac256(KMAC_KEY, MSG, 392, b"KMAC")),
    ("ctr_kdf_hmac", KEY16, MSG, {"L": 70},
     lambda: _kbkdf_expect(KBKDFHMAC, hashes.SHA256(), KEY16, MSG, 70)),
    ("ctr_kdf_cmac", KEY16, MSG, {"L": 40},
     lambda: _kbkdf_expect(KBKDFCMAC, algorithms.AES, KEY16, MSG, 40)),
    ("kmac_kdf", KMAC_KEY, MSG, {"L": 384}, lambda: kdf.kmac_kdf(KMAC_KEY, MSG, 384)),
    ("ieee_kdf", KEY16, b"", {"i": "0000002a", "j": "ffffffff", "U": 1},
     lambda: _ieee_signing_expect(KEY16, bytes.fromhex("0000002a"),
                                  bytes.fromhex("ffffffff"))),
]


@pytest.mark.parametrize("construction, key, msg, params, expect", UNBUNDLED_CASES,
                         ids=[case[0] for case in UNBUNDLED_CASES])
def test_runner_dispatches_unbundled_construction(construction, key, msg, params, expect):
    expected = expect()
    case = vectors.VectorCase(id=construction, construction=construction, key=key,
                              msg=msg, expect=expected, params=params)
    [result] = vectors.run_cases([case])
    assert result.passed, result.got.hex()


class TestParsing:
    def test_case_insensitive_hex(self):
        raw = [{"construction": "sha256", "key": "", "msg": "616263",
                "expect": "BA7816BF8F01CFEA414140DE5DAE2223"
                          "B00361A396177A9CB410FF61F20015AD"}]
        cases = vectors.parse_cases(raw)
        assert vectors.run_cases(cases)[0].passed

    def test_non_list_rejected(self):
        with pytest.raises(ValueError):
            vectors.parse_cases({"construction": "sha256"})

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError):
            vectors.parse_cases([{"construction": "sha256"}])

    def test_bad_hex_rejected(self):
        with pytest.raises(ValueError):
            vectors.parse_cases([{"construction": "sha256", "msg": "zz", "expect": ""}])

    def test_unreadable_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(json.JSONDecodeError):
            vectors.load_vector_file(path)
        with pytest.raises(OSError):
            vectors.load_vector_file(tmp_path / "missing.json")
