"""Timing harness comparing the MAC and KDF constructions.

Each target is timed per invocation with a monotonic nanosecond clock after
a warmup phase. Inputs come from a seeded generator so runs are replayable;
a digest of the input stream and a SHA-256 digest of every output are kept
as metadata (the output digest doubles as the result-consumption barrier).
Statistics are the usual box-plot set: mean, median, population standard
deviation, and linearly interpolated quartiles, all in milliseconds.

Orderings between constructions are hardware- and runtime-dependent, so
they are surfaced as WARN strings, never as failures. All three primitives
are native (AES and SHA-256 in OpenSSL, Keccak-f[1600] in Nettle), but the
sponge, the paddings and every construction around them are Python, so
per-call framing and key setup weigh as much as the primitives' own work.
"""

import csv
import enum
import hashlib
import io
import json
import random
import statistics
import time
from typing import NamedTuple

from .cmac import cmac
from .hmac import hmac
from .kdf import (IEEE_INDEX_LEN, IEEE_OUTPUT_LEN, PURPOSE_SIGNING, PrfChoice, counter_kdf,
                  ieee_kdf, kmac_kdf)
from .kmac import kmac128

DEFAULT_ITERATIONS = 1000
DEFAULT_WARMUP = 100
MSG_LEN = 32

# Soft expectation for the KMAC/CMAC mean ratio on commodity hardware.
KMAC_CMAC_RATIO_RANGE = (1.2, 5.0)


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


class BenchTarget(NamedTuple):
    """One timed construction: key is fixed, inputs vary per iteration."""

    kind: TargetKind
    key: bytes

    @property
    def msg_len(self) -> int:
        """Input bytes per call: the IEEE KDF's i||j, else a 32-byte message."""
        return 2 * IEEE_INDEX_LEN if self.kind is TargetKind.IEEE_KDF else MSG_LEN

    @property
    def out_len(self) -> int | None:
        """Derived bytes per KDF call (the IEEE KDF's fixed 48); None for a MAC."""
        return None if self.kind in MAC_KINDS else IEEE_OUTPUT_LEN


class TimingSampleSet(NamedTuple):
    samples_ns: tuple
    inputs_digest: str  # sha256 over the generated input stream, for replay checks
    output_checksum: str  # sha256 over every output, warmup and timed, in call order


class BenchStats(NamedTuple):
    mean_ms: float
    median_ms: float
    stddev_ms: float
    q1_ms: float
    q3_ms: float
    min_ms: float
    max_ms: float


# Exported after the three target columns, in field order.
_STAT_NAMES = BenchStats._fields
CSV_COLUMNS = ("target", "msg_len", "out_len", *_STAT_NAMES)


def default_targets(seed: int = 0) -> list:
    """The seven standard targets with fresh per-run-set random keys."""
    rng = random.Random(seed)
    return [BenchTarget(kind=kind, key=rng.randbytes(16)) for kind in TargetKind]


def _make_op(target: BenchTarget):
    key, kind, out_len = target.key, target.kind, target.out_len
    if kind is TargetKind.HMAC:
        return lambda msg: hmac(key, msg)
    if kind is TargetKind.CMAC:
        return lambda msg: cmac(key, msg)
    if kind is TargetKind.KMAC:
        return lambda msg: kmac128(key, msg)
    if kind is TargetKind.HMAC_KDF:
        return lambda msg: counter_kdf(PrfChoice.HMAC_SHA256, key, msg, out_len)
    if kind is TargetKind.CMAC_KDF:
        return lambda msg: counter_kdf(PrfChoice.CMAC_AES128, key, msg, out_len)
    if kind is TargetKind.KMAC_KDF:
        return lambda msg: kmac_kdf(key, msg, 8 * out_len)
    if kind is TargetKind.IEEE_KDF:
        return lambda ij: ieee_kdf(key, ij[:IEEE_INDEX_LEN], ij[IEEE_INDEX_LEN:],
                                   PURPOSE_SIGNING)
    raise ValueError(f"unknown bench target kind: {kind}")


def check_counts(iterations: int, warmup: int) -> None:
    """Raise ValueError unless ``iterations`` >= 1 and ``warmup`` >= 0."""
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    if warmup < 0:
        raise ValueError("warmup must not be negative")


def run_bench(target: BenchTarget, iterations: int = DEFAULT_ITERATIONS,
              warmup: int = DEFAULT_WARMUP, seed: int = 0) -> TimingSampleSet:
    """Time ``iterations`` invocations of the target, one sample each."""
    check_counts(iterations, warmup)
    op = _make_op(target)
    rng = random.Random(seed)
    inputs = [rng.randbytes(target.msg_len) for _ in range(warmup + iterations)]
    checksum = hashlib.sha256()
    for data in inputs[:warmup]:
        checksum.update(op(data))
    samples = []
    clock = time.perf_counter_ns
    for data in inputs[warmup:]:
        start = clock()
        result = op(data)
        samples.append(clock() - start)
        checksum.update(result)
    return TimingSampleSet(samples_ns=tuple(samples),
                           inputs_digest=hashlib.sha256(b"".join(inputs)).hexdigest(),
                           output_checksum=checksum.hexdigest())


def run_table(targets, iterations: int, warmup: int, seed: int) -> list:
    """(target, sample set, stats) per target; each is timed to completion
    before the next starts."""
    results = []
    for target in targets:
        sample_set = run_bench(target, iterations, warmup, seed)
        results.append((target, sample_set, summarize(sample_set)))
    return results


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


def _stat_record(target: BenchTarget, sample_set: TimingSampleSet, stats: BenchStats) -> dict:
    return {
        "target": target.kind.value,
        "msg_len": target.msg_len,
        "out_len": target.out_len,
        **{name: round(getattr(stats, name), 6) for name in _STAT_NAMES},
        "inputs_digest": sample_set.inputs_digest,
        "output_checksum": sample_set.output_checksum,
    }


def export_results(results: list, fmt: str) -> bytes:
    """Serialize ``run_table``'s (BenchTarget, TimingSampleSet, BenchStats)
    triples as CSV or JSON.

    CSV columns follow ``CSV_COLUMNS``; all statistics are milliseconds with
    six decimal places. MAC targets leave ``out_len`` empty (CSV) or null
    (JSON). Each JSON record also carries the run's ``inputs_digest`` and
    ``output_checksum``, so a result can be replayed and checked.
    """
    if not results:
        raise ValueError("no results to export")
    records = [_stat_record(*result) for result in results]
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
                *(f"{rec[name]:.6f}" for name in _STAT_NAMES),
            ])
        return buf.getvalue().encode()
    raise ValueError(f"unknown export format: {fmt}")


def _outside_text(value: float, lo: float, hi: float) -> str:
    """``value`` to the fewest places, at least two, that still read outside [lo, hi].

    1.1977 against [1.2, 5.0] reads 1.198, not 1.20.
    """
    for places in range(2, 18):
        text = f"{value:.{places}f}"
        if not lo <= float(text) <= hi:
            return text
    return repr(value)


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
                f"WARN: KMAC/CMAC mean ratio {_outside_text(ratio, lo, hi)} outside [{lo}, {hi}]")

    kdf_means = {kind: mean(kind) for kind in KDF_KINDS}
    known = {kind: m for kind, m in kdf_means.items() if m is not None}
    if len(known) == len(KDF_KINDS):
        if min(known, key=known.get) is not TargetKind.CMAC_KDF:
            warnings.append("WARN: CMAC_KDF is not the fastest KDF in this run")
        if max(known, key=known.get) is not TargetKind.IEEE_KDF:
            warnings.append("WARN: IEEE_KDF is not the slowest KDF in this run")
    return warnings
