"""Timing harness unit tests: sampling contract, statistics, export, warnings."""

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
    summarize,
)


def sample_set(values_ms):
    return TimingSampleSet(samples_ns=tuple(int(v * 1e6) for v in values_ms),
                           iterations=len(values_ms), warmup_count=0,
                           inputs_digest="", output_checksum=0)


class TestRunBench:
    def test_sample_count_and_positivity(self):
        target = default_targets(seed=1)[0]
        samples = run_bench(target, iterations=100, warmup=10, seed=1)
        assert len(samples.samples_ns) == 100
        assert samples.iterations == 100
        assert samples.warmup_count == 10
        assert all(s > 0 for s in samples.samples_ns)

    def test_seeded_replay_same_inputs(self):
        target = default_targets(seed=2)[1]
        first = run_bench(target, iterations=20, warmup=2, seed=9)
        second = run_bench(target, iterations=20, warmup=2, seed=9)
        assert first.inputs_digest == second.inputs_digest
        assert first.output_checksum == second.output_checksum

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
        assert all(t.msg_len == 32 for t in targets)
        assert all(t.out_len == 48 for t in targets if t.kind in KDF_KINDS)

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
        return [
            (BenchTarget(kind=TargetKind.HMAC, key=b"k" * 16), stats),
            (BenchTarget(kind=TargetKind.IEEE_KDF, key=b"k" * 16, out_len=48), stats),
        ]

    def test_csv_shape(self, results):
        lines = export_results(results, "csv").decode().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "HMAC"
        assert first[2] == ""  # MAC kinds carry no out_len
        assert first[3] == "0.012346"  # six decimal places

    def test_json_round_trip(self, results):
        parsed = json.loads(export_results(results, "json"))
        assert len(parsed) == 2
        assert parsed[0]["target"] == "HMAC"
        assert parsed[0]["out_len"] is None
        assert parsed[1]["out_len"] == 48
        assert parsed[0]["mean_ms"] == round(results[0][1].mean_ms, 6)
        # serialize -> parse -> serialize is a fixed point
        again = json.loads(json.dumps(parsed))
        assert again == parsed

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

    def test_partial_stats_tolerated(self):
        warnings = ordering_warnings({TargetKind.HMAC: self.stats(0.01)})
        assert warnings == []
