"""Vector file parsing and the conformance runner."""

import json

import pytest

from kdfkit import kdf, kmac, vectors
from test_kdf import aes_ecb_ieee, counter_fixed, kbkdf


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

    def test_parsed_params_are_the_file_dict(self):
        (case,) = vectors.parse_cases([{"construction": "kmac128", "expect": "00",
                                        "params": {"L": 8}}])
        assert type(case.params) is dict
        assert case.params == {"L": 8}

    def test_unknown_construction_rejected(self):
        case = vectors.VectorCase(id="x", construction="rot13", key=b"", msg=b"",
                                  expect=b"\x00", params={})
        with pytest.raises(ValueError):
            vectors.run_cases([case])


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
     lambda: kbkdf(kdf.PrfChoice.HMAC_SHA256, KEY16, 70, fixed=counter_fixed(MSG, 70))),
    ("ctr_kdf_cmac", KEY16, MSG, {"L": 40},
     lambda: kbkdf(kdf.PrfChoice.CMAC_AES128, KEY16, 40, fixed=counter_fixed(MSG, 40))),
    ("kmac_kdf", KMAC_KEY, MSG, {"L": 384}, lambda: kdf.kmac_kdf(KMAC_KEY, MSG, 384)),
    ("ieee_kdf", KEY16, b"", {"i": "0000002a", "j": "ffffffff", "U": 1},
     lambda: aes_ecb_ieee(KEY16, bytes.fromhex("0000002a"), bytes.fromhex("ffffffff"),
                          kdf.PURPOSE_SIGNING)),
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
