"""Timing harness comparing the MAC and KDF constructions.

Each target is timed per invocation with a monotonic nanosecond clock after
a warmup phase. Inputs come from a seeded generator so runs are replayable;
a digest of the input stream and a checksum over the outputs are kept as
metadata (the checksum doubles as the result-consumption barrier).
Statistics are the usual box-plot set: mean, median, population standard
deviation, and linearly interpolated quartiles, all in milliseconds.

Orderings between constructions are hardware- and runtime-dependent, so
they are surfaced as WARN strings, never as failures. In particular, the
Keccak permutation here is pure Python while AES and SHA-256 are C-backed,
which skews KMAC-based targets upward relative to a uniformly native build.
"""

import csv
import enum
import hashlib
import io
import json
import random
import statistics
import time
from dataclasses import dataclass

from .cmac import cmac
from .hmac import hmac
from .kdf import PURPOSE_SIGNING, PrfChoice, counter_kdf, ieee_kdf, kmac_kdf
from .kmac import kmac128

DEFAULT_ITERATIONS = 1000
DEFAULT_WARMUP = 100
DEFAULT_MSG_LEN = 32
DEFAULT_KDF_OUT_LEN = 48

# Soft expectation for the KMAC/CMAC mean ratio on commodity hardware.
KMAC_CMAC_RATIO_RANGE = (1.2, 5.0)

CSV_COLUMNS = (
    "target", "msg_len", "out_len",
    "mean_ms", "median_ms", "stddev_ms", "q1_ms", "q3_ms", "min_ms", "max_ms",
)


class TargetKind(enum.Enum):
    HMAC = "HMAC"
    CMAC = "CMAC"
    KMAC = "KMAC"
    HMAC_KDF = "HMAC_KDF"
    CMAC_KDF = "CMAC_KDF"
    KMAC_KDF = "KMAC_KDF"
    IEEE_KDF = "IEEE_KDF"


MAC_KINDS = (TargetKind.HMAC, TargetKind.CMAC, TargetKind.KMAC)
KDF_KINDS = (TargetKind.HMAC_KDF, TargetKind.CMAC_KDF, TargetKind.KMAC_KDF,
             TargetKind.IEEE_KDF)


@dataclass(frozen=True)
class BenchTarget:
    """One timed construction: key is fixed, inputs vary per iteration."""

    kind: TargetKind
    key: bytes
    msg_len: int = DEFAULT_MSG_LEN
    out_len: int | None = None  # KDF kinds only; MAC kinds ignore it


@dataclass(frozen=True)
class TimingSampleSet:
    samples_ns: tuple
    iterations: int
    warmup_count: int
    inputs_digest: str  # sha256 over the generated input stream, for replay checks
    output_checksum: int


@dataclass(frozen=True)
class BenchStats:
    mean_ms: float
    median_ms: float
    stddev_ms: float
    q1_ms: float
    q3_ms: float
    min_ms: float
    max_ms: float


def default_targets(seed: int = 0) -> list:
    """The seven standard targets with fresh per-run-set random keys."""
    rng = random.Random(seed)
    targets = []
    for kind in MAC_KINDS:
        targets.append(BenchTarget(kind=kind, key=rng.randbytes(16)))
    for kind in KDF_KINDS:
        targets.append(BenchTarget(kind=kind, key=rng.randbytes(16),
                                   out_len=DEFAULT_KDF_OUT_LEN))
    return targets


def _make_op(target: BenchTarget):
    key = target.key
    kind = target.kind
    if kind is TargetKind.HMAC:
        return lambda msg: hmac(key, msg)
    if kind is TargetKind.CMAC:
        return lambda msg: cmac(key, msg)
    if kind is TargetKind.KMAC:
        return lambda msg: kmac128(key, msg)
    out_len = target.out_len if target.out_len is not None else DEFAULT_KDF_OUT_LEN
    if kind is TargetKind.HMAC_KDF:
        return lambda msg: counter_kdf(PrfChoice.HMAC_SHA256, key, msg, out_len)
    if kind is TargetKind.CMAC_KDF:
        return lambda msg: counter_kdf(PrfChoice.CMAC_AES128, key, msg, out_len)
    if kind is TargetKind.KMAC_KDF:
        return lambda msg: kmac_kdf(key, msg, 8 * out_len)
    if kind is TargetKind.IEEE_KDF:
        return lambda ij: ieee_kdf(key, ij[:4], ij[4:], PURPOSE_SIGNING)
    raise ValueError(f"unknown bench target kind: {kind}")


def _generate_inputs(target: BenchTarget, count: int, seed: int):
    rng = random.Random(seed)
    if target.kind is TargetKind.IEEE_KDF:
        inputs = [rng.randbytes(8) for _ in range(count)]  # i_value || j_value
    else:
        inputs = [rng.randbytes(target.msg_len) for _ in range(count)]
    digest = hashlib.sha256(b"".join(inputs)).hexdigest()
    return inputs, digest


def run_bench(target: BenchTarget, iterations: int = DEFAULT_ITERATIONS,
              warmup: int = DEFAULT_WARMUP, seed: int = 0) -> TimingSampleSet:
    """Time ``iterations`` invocations of the target, one sample each."""
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    if warmup < 0:
        raise ValueError("warmup must not be negative")
    op = _make_op(target)
    inputs, digest = _generate_inputs(target, warmup + iterations, seed)
    checksum = 0
    for data in inputs[:warmup]:
        checksum ^= op(data)[0]
    samples = []
    clock = time.perf_counter_ns
    for data in inputs[warmup:]:
        start = clock()
        result = op(data)
        samples.append(clock() - start)
        checksum ^= result[0]
    return TimingSampleSet(samples_ns=tuple(samples), iterations=iterations,
                           warmup_count=warmup, inputs_digest=digest,
                           output_checksum=checksum)


def summarize(sample_set: TimingSampleSet) -> BenchStats:
    """Box-plot statistics of a sample set, in milliseconds."""
    if not sample_set.samples_ns:
        raise ValueError("cannot summarize an empty sample set")
    # sorting first makes every statistic bit-identical under permutation
    ms = sorted(ns / 1e6 for ns in sample_set.samples_ns)
    # quantiles() needs two data points before Python 3.13
    q1, _, q3 = statistics.quantiles(ms, n=4, method="inclusive") if len(ms) > 1 else ms * 3
    return BenchStats(
        mean_ms=statistics.fmean(ms),
        median_ms=statistics.median(ms),
        stddev_ms=statistics.pstdev(ms),  # population stddev, outliers kept
        q1_ms=q1,
        q3_ms=q3,
        min_ms=ms[0],
        max_ms=ms[-1],
    )


def _stat_record(target: BenchTarget, stats: BenchStats) -> dict:
    return {
        "target": target.kind.value,
        "msg_len": target.msg_len,
        "out_len": target.out_len,
        "mean_ms": round(stats.mean_ms, 6),
        "median_ms": round(stats.median_ms, 6),
        "stddev_ms": round(stats.stddev_ms, 6),
        "q1_ms": round(stats.q1_ms, 6),
        "q3_ms": round(stats.q3_ms, 6),
        "min_ms": round(stats.min_ms, 6),
        "max_ms": round(stats.max_ms, 6),
    }


def export_results(results: list, fmt: str) -> bytes:
    """Serialize (BenchTarget, BenchStats) pairs as CSV or JSON.

    CSV columns follow ``CSV_COLUMNS``; all statistics are milliseconds with
    six decimal places. MAC targets leave ``out_len`` empty (CSV) or null
    (JSON).
    """
    if not results:
        raise ValueError("no results to export")
    records = [_stat_record(target, stats) for target, stats in results]
    if fmt == "json":
        return (json.dumps(records, indent=2) + "\n").encode()
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow([
                rec["target"], rec["msg_len"],
                "" if rec["out_len"] is None else rec["out_len"],
                *(f"{rec[col]:.6f}" for col in CSV_COLUMNS[3:]),
            ])
        return buf.getvalue().encode()
    raise ValueError(f"unknown export format: {fmt}")


def ordering_warnings(stats_by_kind: dict) -> list:
    """Soft sanity checks against the expected cost ordering.

    Returns WARN strings for violated expectations; an empty list means all
    expectations held. Never raises: absolute timings and even orderings
    vary across hardware and runtimes.
    """
    warnings = []

    def mean(kind):
        stats = stats_by_kind.get(kind)
        return stats.mean_ms if stats is not None else None

    h, c, k = mean(TargetKind.HMAC), mean(TargetKind.CMAC), mean(TargetKind.KMAC)
    if c is not None and h is not None and c > h:
        warnings.append(f"WARN: mean(CMAC)={c:.6f} ms exceeds mean(HMAC)={h:.6f} ms")
    if h is not None and k is not None and h > k:
        warnings.append(f"WARN: mean(HMAC)={h:.6f} ms exceeds mean(KMAC)={k:.6f} ms")
    if c is not None and k is not None and c > 0:
        ratio = k / c
        lo, hi = KMAC_CMAC_RATIO_RANGE
        if not lo <= ratio <= hi:
            warnings.append(
                f"WARN: KMAC/CMAC mean ratio {ratio:.2f} outside [{lo}, {hi}]")

    kdf_means = {kind: mean(kind) for kind in KDF_KINDS}
    known = {kind: m for kind, m in kdf_means.items() if m is not None}
    if len(known) == len(KDF_KINDS):
        if min(known, key=known.get) is not TargetKind.CMAC_KDF:
            warnings.append("WARN: CMAC_KDF is not the fastest KDF in this run")
        if max(known, key=known.get) is not TargetKind.IEEE_KDF:
            warnings.append("WARN: IEEE_KDF is not the slowest KDF in this run")
    return warnings
