"""Timing harness unit tests: sampling contract, statistics, export, warnings."""

import hashlib
import json
import math
import random

import pytest

from kdfkit.bench import (
    BenchStats,
    BenchTarget,
    CSV_COLUMNS,
    KDF_KINDS,
    MAC_KINDS,
    TargetKind,
    TimingSampleSet,
    default_targets,
    export_results,
    ordering_warnings,
    run_bench,
    run_table,
    summarize,
)
from kdfkit.kmac import kmac128


def sample_set(values_ms):
    return TimingSampleSet(samples_ns=tuple(int(v * 1e6) for v in values_ms),
                           inputs_digest="", output_checksum="")


class TestRunBench:
    def test_sample_count_and_positivity(self):
        target = default_targets(seed=1)[0]
        samples = run_bench(target, iterations=100, warmup=10, seed=1)
        assert len(samples.samples_ns) == 100
        assert all(s > 0 for s in samples.samples_ns)

    def test_seeded_replay_same_inputs(self):
        target = default_targets(seed=2)[1]
        first = run_bench(target, iterations=20, warmup=2, seed=9)
        second = run_bench(target, iterations=20, warmup=2, seed=9)
        assert first.inputs_digest == second.inputs_digest
        assert first.output_checksum == second.output_checksum

    def test_output_checksum_hashes_every_output_byte(self):
        # SHA-256 over the warmup and timed outputs in call order, so a change
        # after an output's first byte changes it.
        target = default_targets(seed=3)[2]
        assert target.kind is TargetKind.KMAC
        run = run_bench(target, iterations=4, warmup=2, seed=11)
        rng = random.Random(11)
        inputs = [rng.randbytes(target.msg_len) for _ in range(6)]
        assert run.inputs_digest == hashlib.sha256(b"".join(inputs)).hexdigest()
        outputs = b"".join(kmac128(target.key, msg) for msg in inputs)
        assert run.output_checksum == hashlib.sha256(outputs).hexdigest()

    def test_different_seed_different_inputs(self):
        target = default_targets(seed=2)[1]
        first = run_bench(target, iterations=20, warmup=2, seed=9)
        other = run_bench(target, iterations=20, warmup=2, seed=10)
        assert first.inputs_digest != other.inputs_digest

    def test_every_kind_runs(self):
        for target in default_targets(seed=3):
            samples = run_bench(target, iterations=3, warmup=1, seed=3)
            assert len(samples.samples_ns) == 3

    def test_default_target_set_shape(self):
        targets = default_targets(seed=0)
        assert [t.kind for t in targets] == list(MAC_KINDS) + list(KDF_KINDS)
        # (msg_len, out_len) follow from the kind: IEEE_KDF reads its 8-byte
        # i||j, and a MAC's tag length is its own.
        assert {t.kind: (t.msg_len, t.out_len) for t in targets} == {
            TargetKind.HMAC: (32, None), TargetKind.CMAC: (32, None),
            TargetKind.KMAC: (32, None), TargetKind.HMAC_KDF: (32, 48),
            TargetKind.CMAC_KDF: (32, 48), TargetKind.KMAC_KDF: (32, 48),
            TargetKind.IEEE_KDF: (8, 48),
        }
        with pytest.raises(TypeError):
            BenchTarget(kind=TargetKind.HMAC, key=b"k" * 16, out_len=48)

    def test_records_are_immutable_and_hashable(self):
        target = default_targets(seed=0)[0]
        assert hash(target) == hash(BenchTarget(kind=target.kind, key=target.key))
        for name in ("kind", "key", "msg_len", "out_len"):
            with pytest.raises(AttributeError):
                setattr(target, name, None)
        stats = summarize(sample_set([1, 2]))
        with pytest.raises(AttributeError):
            stats.mean_ms = 0.0
        assert {stats: 1}[stats] == 1

    def test_parameter_validation(self):
        target = default_targets(seed=0)[0]
        with pytest.raises(ValueError):
            run_bench(target, iterations=0)
        with pytest.raises(ValueError):
            run_bench(target, iterations=1, warmup=-1)


class TestSummarize:
    def test_hand_arithmetic(self):
        stats = summarize(sample_set([1, 2, 3, 4, 5]))
        assert stats.mean_ms == pytest.approx(3.0)
        assert stats.median_ms == pytest.approx(3.0)
        assert stats.stddev_ms == pytest.approx(math.sqrt(2))

    def test_constant_series(self):
        stats = summarize(sample_set([2, 2, 2, 2]))
        assert stats.mean_ms == pytest.approx(2.0)
        assert stats.median_ms == pytest.approx(2.0)
        assert stats.stddev_ms == pytest.approx(0.0)

    def test_single_sample(self):
        stats = summarize(sample_set([1.5]))
        assert stats.mean_ms == stats.median_ms == stats.q1_ms == stats.q3_ms == 1.5
        assert stats.min_ms == stats.max_ms == 1.5
        assert stats.stddev_ms == 0.0

    def test_even_count_median_midpoint(self):
        stats = summarize(sample_set([1, 3]))
        assert stats.median_ms == pytest.approx(2.0)

    def test_quartile_ordering_invariant(self):
        rng = random.Random(6)
        values = [rng.uniform(0.001, 5.0) for _ in range(137)]
        stats = summarize(sample_set(values))
        assert stats.min_ms <= stats.q1_ms <= stats.median_ms
        assert stats.median_ms <= stats.q3_ms <= stats.max_ms
        assert stats.min_ms <= stats.mean_ms <= stats.max_ms
        assert stats.stddev_ms >= 0

    def test_permutation_invariance(self):
        rng = random.Random(8)
        values = [rng.uniform(0.001, 2.0) for _ in range(51)]
        baseline = summarize(sample_set(values))
        for _ in range(10):
            rng.shuffle(values)
            assert summarize(sample_set(values)) == baseline

    def test_median_duplicate_insertion(self):
        rng = random.Random(13)
        for _ in range(20):
            values = sorted(rng.uniform(0.001, 2.0) for _ in range(rng.randrange(1, 40)))
            median = summarize(sample_set(values)).median_ms
            with_dup = values + [median]
            assert summarize(sample_set(with_dup)).median_ms == pytest.approx(median)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize(sample_set([]))


class TestExport:
    @pytest.fixture
    def results(self):
        stats = BenchStats(mean_ms=0.0123456789, median_ms=0.01, stddev_ms=0.002,
                           q1_ms=0.009, q3_ms=0.011, min_ms=0.008, max_ms=0.09)
        run = TimingSampleSet(samples_ns=(1,), inputs_digest="ab" * 32,
                              output_checksum="cd" * 32)
        return [
            (BenchTarget(kind=TargetKind.HMAC, key=b"k" * 16), run, stats),
            (BenchTarget(kind=TargetKind.IEEE_KDF, key=b"k" * 16), run, stats),
        ]

    def test_csv_shape(self, results):
        lines = export_results(results, "csv").decode().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "HMAC"
        assert first[2] == ""  # MAC kinds carry no out_len
        assert first[3] == "0.012346"  # six decimal places
        assert lines[2].startswith("IEEE_KDF,8,48,")  # its 8-byte i||j, 48 B derived

    def test_json_round_trip(self, results):
        parsed = json.loads(export_results(results, "json"))
        assert len(parsed) == 2
        assert parsed[0]["target"] == "HMAC"
        assert parsed[0]["out_len"] is None
        assert parsed[1]["msg_len"] == 8
        assert parsed[1]["out_len"] == 48
        assert parsed[0]["mean_ms"] == round(results[0][2].mean_ms, 6)
        assert list(parsed[0]) == [*CSV_COLUMNS, "inputs_digest", "output_checksum"]
        assert (parsed[0]["inputs_digest"], parsed[0]["output_checksum"]) == ("ab" * 32, "cd" * 32)
        # serialize -> parse -> serialize is a fixed point
        again = json.loads(json.dumps(parsed))
        assert again == parsed

    def test_json_records_replay_run_bench(self):
        # The digest and checksum in each record are those of a fresh
        # run_bench of the same target and seed.
        targets = default_targets(seed=4)
        records = json.loads(export_results(run_table(targets, 3, 1, 5), "json"))
        for target, record in zip(targets, records, strict=True):
            replay = run_bench(target, iterations=3, warmup=1, seed=5)
            assert record["target"] == target.kind.value
            assert record["inputs_digest"] == replay.inputs_digest
            assert record["output_checksum"] == replay.output_checksum

    def test_empty_and_bad_format(self, results):
        with pytest.raises(ValueError):
            export_results([], "csv")
        with pytest.raises(ValueError):
            export_results(results, "xml")


class TestOrderingWarnings:
    @staticmethod
    def stats(mean):
        return BenchStats(mean_ms=mean, median_ms=mean, stddev_ms=0.0,
                          q1_ms=mean, q3_ms=mean, min_ms=mean, max_ms=mean)

    def test_expected_shape_is_quiet(self):
        means = {TargetKind.HMAC: 0.007, TargetKind.CMAC: 0.007, TargetKind.KMAC: 0.015,
                 TargetKind.HMAC_KDF: 0.021, TargetKind.CMAC_KDF: 0.014,
                 TargetKind.KMAC_KDF: 0.038, TargetKind.IEEE_KDF: 0.069}
        warnings = ordering_warnings({k: self.stats(v) for k, v in means.items()})
        assert warnings == []

    def test_each_violation_warns(self):
        means = {TargetKind.HMAC: 0.002, TargetKind.CMAC: 0.007, TargetKind.KMAC: 0.200,
                 TargetKind.HMAC_KDF: 0.001, TargetKind.CMAC_KDF: 0.014,
                 TargetKind.KMAC_KDF: 0.500, TargetKind.IEEE_KDF: 0.069}
        warnings = ordering_warnings({k: self.stats(v) for k, v in means.items()})
        text = "\n".join(warnings)
        assert "mean(CMAC)" in text
        assert "ratio" in text
        assert "CMAC_KDF" in text
        assert "IEEE_KDF" in text

    @pytest.mark.parametrize("kmac, shown", [(1.1977, "1.198"), (1.1999999, "1.1999999"),
                                              (0.5, "0.50"), (5.004, "5.004")])
    def test_ratio_printed_outside_range(self, kmac, shown):
        # Rounded to two places, 1.1977 would read "1.20 outside [1.2, 5.0]".
        means = {TargetKind.HMAC: 0.5, TargetKind.CMAC: 1.0, TargetKind.KMAC: kmac}
        warnings = ordering_warnings({k: self.stats(v) for k, v in means.items()})
        assert f"WARN: KMAC/CMAC mean ratio {shown} outside [1.2, 5.0]" in warnings

    def test_partial_stats_tolerated(self):
        warnings = ordering_warnings({TargetKind.HMAC: self.stats(0.01)})
        assert warnings == []
