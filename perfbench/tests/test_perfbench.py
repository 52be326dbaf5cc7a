"""Tests of the benchmark itself. Run from the repository root with

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys

import pytest

from kdfkit.bench import TargetKind
from perfbench import ROOT, measure, targets, tracer

SMOKE_SECONDS = 0.2

# Per-call primitive counts of the kdfkit version this benchmark was defined
# on: (target, workload) -> {layer: calls per call}. A change that cuts
# primitive calls shows here first.
EXPECTED_CALLS = {
    ("KMAC", "paper-7"): {"keccak_f1600": 3},
    ("KMAC", "long-msg"): {"keccak_f1600": 27},
    ("KMAC_KDF", "bulk-derive"): {"keccak_f1600": 9},
    ("CMAC", "paper-7"): {"aes_key_setup": 1, "aes_block": 3},
    ("CMAC", "long-msg"): {"aes_key_setup": 1, "aes_block": 257},
    ("CMAC_KDF", "paper-7"): {"aes_key_setup": 3, "aes_block": 12},
    ("CMAC_KDF", "bulk-derive"): {"aes_key_setup": 64, "aes_block": 256},
    ("IEEE_KDF", "paper-7"): {"aes_key_setup": 1, "aes_block": 3},
    ("HMAC", "paper-7"): {"sha256": 2},
    ("HMAC_KDF", "paper-7"): {"sha256": 4},
    ("HMAC_KDF", "bulk-derive"): {"sha256": 64},
}


@pytest.fixture(autouse=True)
def one_setup_run(monkeypatch):
    monkeypatch.setattr(measure, "SETUP_RUNS", 1)


def _run(workload, trace, seed=1):
    return measure.run(workload, seed, SMOKE_SECONDS, trace)


def _digests(workload, seed):
    digests = targets.Digests()
    measure.warm_up(targets.build_targets(workload, seed), measure.Ledger(), digests)
    return digests.inputs.hexdigest(), digests.outputs.hexdigest()


def test_target_names_are_the_bench_target_kinds():
    assert targets.TARGET_NAMES == tuple(kind.value for kind in TargetKind)


@pytest.mark.parametrize("workload", sorted(targets.WORKLOADS))
def test_seed_fixes_inputs_and_outputs(workload):
    assert _digests(workload, 7) == _digests(workload, 7)
    assert _digests(workload, 7)[0] != _digests(workload, 8)[0]


@pytest.mark.parametrize("workload", sorted(targets.WORKLOADS))
def test_smoke_every_workload(workload):
    report = _run(workload, trace=False)
    result = report["result"]
    assert result["correct"] and result["failed"] == 0
    expected = {f"{name}.{stat}" for name in targets.TARGET_NAMES
                for stat in ("median_us", "p90_us")} | {"setup_s", "ok_ratio"}
    assert set(result["metrics"]) == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["provenance"]["fail_ratio"] == 0
    assert report["provenance"]["kmac_check_failures"] == []
    assert report["provenance"]["probe_us"]["quiet"] > 0
    assert isinstance(report["provenance"]["slow_machine"], bool)


@pytest.mark.parametrize("workload", sorted(targets.WORKLOADS))
def test_traced_call_counts_repeat_and_match_ledger(workload):
    first, second = _run(workload, trace=True), _run(workload, trace=True, seed=2)
    assert first["calls"] == second["calls"]
    assert first["absent"] == []
    for (name, where), counts in EXPECTED_CALLS.items():
        if where == workload:
            for layer, calls in counts.items():
                assert first["calls"][name][layer] == calls, (name, layer)
    metrics = first["result"]["metrics"]
    for name in targets.TARGET_NAMES:
        assert metrics[f"{name}.trace.overhead_ratio"]["value"] > 0
    assert metrics["setup.kdfkit.bench_s"]["value"] > metrics["setup.kdfkit.primitives_s"]["value"] > 0


def _flip_first_bit(out: bytes) -> bytes:
    return bytes([out[0] ^ 1]) + out[1:]


def test_corrupted_output_is_counted_as_failed(monkeypatch):
    real_call = targets._call

    def corrupting_call(name, out_len):
        call = real_call(name, out_len)
        if name != "HMAC":
            return call
        return lambda key, msg: _flip_first_bit(call(key, msg))

    monkeypatch.setattr(targets, "_call", corrupting_call)
    result = _run("paper-7", trace=False)["result"]
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["ok_ratio"]["value"] == 1 - result["failed"] / result["attempted"]


def test_wrong_kmac_fails_the_vector_check(monkeypatch):
    import kdfkit.kmac
    real_kmac = kdfkit.kmac.kmac
    assert targets.kmac_vector_failures() == []
    monkeypatch.setattr(kdfkit.kmac, "kmac", lambda *args: _flip_first_bit(real_kmac(*args)))
    assert "sp800-185-kmac128-sample-1" in targets.kmac_vector_failures()


@pytest.mark.parametrize("workload", sorted(targets.WORKLOADS))
def test_kmac_outputs_match_their_pins(workload):
    assert targets.kmac_pin_failures(workload) == []


def test_wrong_squeezed_byte_fails_the_pin_check(monkeypatch):
    import kdfkit.kdf
    real_kmac_kdf = kdfkit.kdf.kmac_kdf

    def corrupted(*args):
        # Byte 200 comes from the second Keccak-f squeeze (rate 168 bytes).
        out = bytearray(real_kmac_kdf(*args))
        if len(out) > 200:
            out[200] ^= 1
        return bytes(out)

    monkeypatch.setattr(kdfkit.kdf, "kmac_kdf", corrupted)
    assert targets.kmac_pin_failures("bulk-derive") == ["KMAC_KDF/32B-in/1024B-out"]
    assert targets.kmac_pin_failures("paper-7") == []
    report = _run("bulk-derive", trace=False)
    assert not report["result"]["correct"]
    assert report["provenance"]["kmac_check_failures"] == ["KMAC_KDF/32B-in/1024B-out"]


def test_quiet_slices_are_chosen_by_the_probe_alone(monkeypatch):
    monkeypatch.setattr(measure, "QUIET_SHARE", 0.5)
    slices = []
    for probe, samples in ((100, [1, 1, 9]), (50, [5, 5, 5]), (200, [1, 1, 1]), (60, [2, 9, 9])):
        part = measure.Slice(probe)
        part.samples = samples
        slices.append(part)
    assert measure.quiet_samples(slices) == [5, 5, 5, 2, 9, 9]


def test_raising_call_is_counted_as_failed():
    def broken(key, msg):
        raise RuntimeError("broken")

    target = targets.Target("CMAC", "paper-7", 1)
    target.call = broken
    ledger = measure.Ledger()
    measure.run_slice(target, 3, [], ledger)
    assert (ledger.attempted, ledger.failed) == (3, 3)
    assert "RuntimeError" in ledger.first_errors["CMAC"]


def test_missing_wrap_point_is_absent_not_zero(monkeypatch):
    points = tuple(("keccak_f1600", module, "keccak_f1600_renamed") if layer == "keccak_f1600"
                   else (layer, module, attribute)
                   for layer, module, attribute in tracer.WRAP_POINTS)
    monkeypatch.setattr(tracer, "WRAP_POINTS", points)
    report = _run("paper-7", trace=True)
    metrics = report["result"]["metrics"]
    assert "kdfkit.primitives.keccak_f1600_renamed" in report["provenance"]["missing_wrap_points"]
    for name in ("KMAC", "KMAC_KDF"):
        for stat in ("calls", "us"):
            assert f"{name}.primitives.keccak_f1600.{stat}" not in metrics
            assert f"{name}.primitives.keccak_f1600.{stat}" in report["absent"]
    assert metrics["KMAC.primitives.sponge.self_us"]["value"] > 0


def test_tracer_restores_every_binding():
    import kdfkit.kdf
    import kdfkit.primitives
    before = (kdfkit.primitives.keccak_f1600, kdfkit.primitives.AesBlockCipher.__init__,
              kdfkit.kdf.hmac_mod.hmac)
    with tracer.installed(tracer.Tracer()):
        assert kdfkit.primitives.keccak_f1600 is not before[0]
    after = (kdfkit.primitives.keccak_f1600, kdfkit.primitives.AesBlockCipher.__init__,
             kdfkit.kdf.hmac_mod.hmac)
    assert after == before


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paper-7",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
