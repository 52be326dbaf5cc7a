"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Ordering expectations in the benchmark criterion are soft: they
print WARN lines instead of failing, since absolute timings and even
orderings depend on hardware and on which primitives are C-backed.
"""

import random
import time

from kdfkit import bench, vectors
from kdfkit.bench import KDF_KINDS, TargetKind
from kdfkit.cmac import cmac, dbl, derive_subkeys
from kdfkit.hmac import hmac
from kdfkit.kdf import PURPOSE_SIGNING, PrfChoice, counter_kdf, ieee_kdf, kmac_kdf
from kdfkit.kmac import kmac128
from kdfkit.primitives import sponge_absorb_squeeze
from test_kdf import manual_counter_blocks, manual_ieee


def _report(number, name, started):
    print(f"ACCEPTANCE {number} {name}: PASS ({time.perf_counter() - started:.2f}s)")


def test_criterion_1_known_answer_conformance():
    started = time.perf_counter()
    cases = vectors.load_vector_file(vectors.bundled_vector_path())
    results = vectors.run_cases(cases)
    failing = [r.case.id for r in results if not r.passed]
    assert failing == [], f"vector failures: {failing}"

    ids = {case.id for case in cases}
    required = {
        "fips197-c1",
        "fips180-4-sha256-empty", "fips180-4-sha256-abc",
        "fips202-shake128-empty",
        "rfc4231-case-1", "rfc4231-case-2", "rfc4231-case-3", "rfc4231-case-4",
        "rfc4493-example-1", "rfc4493-example-2",
        "rfc4493-example-3", "rfc4493-example-4",
        "sp800-185-cshake128-sample-1",
        "sp800-185-kmac128-sample-1", "sp800-185-kmac128-sample-2",
    }
    missing = required - ids
    assert not missing, f"bundled suite lacks required vectors: {missing}"

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"known-answer suite took {elapsed:.2f}s (budget 5s)"
    _report(1, "known-answer conformance", started)


def test_criterion_2_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(0xACCE)

    for prf in (PrfChoice.HMAC_SHA256, PrfChoice.CMAC_AES128):
        for out_len in range(1, 97):
            for _ in range(50):
                key = rng.randbytes(16)
                msg = rng.randbytes(rng.randrange(0, 48))
                assert counter_kdf(prf, key, msg, out_len) == \
                    manual_counter_blocks(prf, key, msg, out_len), (prf, out_len)

    key = rng.randbytes(16)
    for i in range(16):
        for j in range(16):
            i_value, j_value = i.to_bytes(4, "big"), j.to_bytes(4, "big")
            assert ieee_kdf(key, i_value, j_value, PURPOSE_SIGNING) == \
                manual_ieee(key, i_value, j_value, PURPOSE_SIGNING), (i, j)

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"oracle equivalence took {elapsed:.2f}s (budget 30s)"
    _report(2, "oracle equivalence", started)


def test_criterion_3_invariant_suites():
    started = time.perf_counter()
    rng = random.Random(0x1A4)
    key16 = rng.randbytes(16)

    # length contracts
    for key_len in (0, 16, 64, 65, 200):
        for msg_len in (0, 31, 64, 300):
            assert len(hmac(bytes(key_len), bytes(msg_len))) == 32
    for msg_len in range(0, 101):
        assert len(cmac(key16, bytes(msg_len))) == 16
    for bits in range(8, 1025, 8):
        assert len(kmac128(key16, b"m", bits)) == bits // 8
    for out_len in range(1, 65):
        assert len(counter_kdf(PrfChoice.HMAC_SHA256, key16, b"c", out_len)) == out_len
        assert len(counter_kdf(PrfChoice.CMAC_AES128, key16, b"c", out_len)) == out_len
    assert len(ieee_kdf(key16, bytes(4), bytes(4), PURPOSE_SIGNING)) == 48

    # determinism
    msg = rng.randbytes(40)
    assert hmac(key16, msg) == hmac(key16, msg)
    assert cmac(key16, msg) == cmac(key16, msg)
    assert kmac128(key16, msg) == kmac128(key16, msg)
    assert kmac_kdf(key16, msg, 384) == kmac_kdf(key16, msg, 384)

    # dbl fixed point and subkey chain
    assert dbl(dbl(bytes(16))) == bytes(16)
    k1, _ = derive_subkeys(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
    assert k1.hex() == "fbeed618357133667c85e08f7236a8de"

    # sponge prefix stability
    long_out = sponge_absorb_squeeze(b"stability", 168, 0x1F, 400)
    for short_len in (1, 32, 168, 169, 399):
        assert sponge_absorb_squeeze(b"stability", 168, 0x1F, short_len) == \
            long_out[:short_len]

    # KMAC domain separation
    assert kmac128(key16, msg, 256, b"") != kmac128(key16, msg, 256, b"KDF")
    assert kmac_kdf(key16, msg, 256) == kmac128(key16, msg, 256, b"KDF")

    # stats permutation invariance
    values = [rng.uniform(0.001, 3.0) for _ in range(101)]

    def stats_of(vals):
        sample = bench.TimingSampleSet(
            samples_ns=tuple(int(v * 1e6) for v in vals), iterations=len(vals),
            warmup_count=0, inputs_digest="", output_checksum=0)
        return bench.summarize(sample)

    baseline = stats_of(values)
    for _ in range(5):
        rng.shuffle(values)
        assert stats_of(values) == baseline

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"invariant suites took {elapsed:.2f}s (budget 60s)"
    _report(3, "invariant suites", started)


def test_criterion_4_benchmark_shape():
    started = time.perf_counter()
    results = []
    stats_by_kind = {}
    for target in bench.default_targets(seed=2026):
        assert target.msg_len == 32
        if target.kind in KDF_KINDS:
            assert target.out_len == 48
        samples = bench.run_bench(target, iterations=1000, warmup=100, seed=2026)
        assert len(samples.samples_ns) == 1000
        assert all(s > 0 for s in samples.samples_ns)
        stats = bench.summarize(samples)
        assert stats.min_ms <= stats.q1_ms <= stats.median_ms
        assert stats.median_ms <= stats.q3_ms <= stats.max_ms
        assert stats.min_ms <= stats.mean_ms <= stats.max_ms
        assert stats.stddev_ms >= 0
        results.append((target, stats))
        stats_by_kind[target.kind] = stats

    assert [t.kind for t, _ in results] == [
        TargetKind.HMAC, TargetKind.CMAC, TargetKind.KMAC,
        TargetKind.HMAC_KDF, TargetKind.CMAC_KDF, TargetKind.KMAC_KDF,
        TargetKind.IEEE_KDF]

    csv_rows = bench.export_results(results, "csv").decode().strip().splitlines()
    assert len(csv_rows) == 8  # header + 7 targets

    # Orderings and magnitudes are environment-bound: report, never fail.
    for warning in bench.ordering_warnings(stats_by_kind):
        print(warning)
    cmac_mean = stats_by_kind[TargetKind.CMAC].mean_ms
    if not 0.0007 <= cmac_mean <= 0.07:
        print(f"WARN: mean(CMAC)={cmac_mean:.6f} ms is more than an order of "
              f"magnitude from the 0.007 ms commodity-hardware reference")

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"benchmark criterion took {elapsed:.2f}s (budget 120s)"
    _report(4, "benchmark shape reproduction", started)


def test_criterion_5_negative_controls():
    started = time.perf_counter()
    rng = random.Random(0xBAD)
    cases = vectors.load_vector_file(vectors.bundled_vector_path())

    # fields that actually feed the computation (key is unused by the
    # unkeyed constructions, so corrupting it there could not flip a case)
    keyed = {"aes128", "hmac_sha256", "cmac_aes128", "kmac128", "kmac256"}
    candidates = []
    for idx, case in enumerate(cases):
        for fieldname in ("key", "msg", "expect"):
            value = getattr(case, fieldname)
            if not value:
                continue
            if fieldname == "key" and case.construction not in keyed:
                continue
            candidates.append((idx, fieldname))

    assert len(candidates) >= 20
    for idx, fieldname in rng.sample(candidates, 20):
        case = cases[idx]
        original = getattr(case, fieldname)
        position = rng.randrange(len(original))
        corrupted = bytearray(original)
        corrupted[position] ^= rng.randrange(1, 256)
        fields = {"id": case.id, "construction": case.construction, "key": case.key,
                  "msg": case.msg, "expect": case.expect, "params": case.params,
                  fieldname: bytes(corrupted)}
        mutated = vectors.VectorCase(**fields)
        result = vectors.run_cases([mutated])[0]
        assert not result.passed, (case.id, fieldname, position)

    _report(5, "negative controls", started)
