"""Timing loop, set-up timing and metric assembly for one benchmark run.

One process, one thread, one caller: each call starts after the previous
one returns. Time is cut into slices of about ``SLICE_S``. Each round gives
every target one slice of back-to-back calls, so slow phases of a shared
machine fall on all targets alike. A slice's inputs are drawn before it
and its outputs are checked after it, both outside the timed region.

A shared machine's speed drifts. On a shared 2-vCPU Xeon virtual machine
at 2.1 GHz, stretches of a fraction of a second to minutes run up to about
1.7 times slower, Python and OpenSSL code alike, and the slow share of a
30-second run ranged from a third to all of it. A median over all calls
flips between the two speeds. So every slice is bracketed by a fixed
reference task, the probe (``probe_ns``: a pure-Python loop and an OpenSSL
SHA-256), and a slice's quietness is the sum of its two probe times. A
target's ``median_us`` is the median over every call of its quietest
``QUIET_SHARE`` of slices: the call's cost when the machine is quiet. The
slices are chosen by the probe alone, never by the target's own times, so a
change that makes some calls slower and others faster moves the median as
it moves the calls. ``p90_us`` is taken over every call of the run,
outliers and interference included: the tail a caller on a shared machine
sees. Slow stretches can be as short as 10 ms, hence short slices; a slow
target's slice is a single call.

The probe also shows a run that fell wholly in a slow stretch, which no
statistic inside the run can correct: the provenance gives the probe's
quiet median and flags ``slow_machine`` when it is above
``PROBE_SLOW_US``. Such a run should be rerun.

Set-up time is sampled ``SETUP_RUNS`` times, spread evenly over the run so
that its median does not hang on one moment of the machine.

The traced run gives each target an untraced and a traced slice per round.
Its per-layer metrics are means over the calls of the quietest
``QUIET_SHARE`` of traced slices, and ``T.trace.overhead_ratio`` divides
the traced by the untraced ``median_us``.
"""

import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
import traceback

import cryptography
from cryptography.hazmat.backends.openssl.backend import backend as openssl_backend

from . import OUT_DIR, ROOT, SRC, targets, tracer

SLICE_S = 0.01
QUIET_SHARE = 0.05
# The probe: PROBE_LOOP iterations of a Python loop, then SHA-256 of 4 KiB.
PROBE_LOOP = 1000
PROBE_DATA = bytes(range(256)) * 16
# The probe's quiet median is 50-60 µs on a shared 2-vCPU Xeon virtual
# machine at 2.1 GHz; a run that fell wholly in a slow stretch reads above this.
PROBE_SLOW_US = 65.0
# p90 must leave at least ten samples above it.
MIN_SAMPLES = 100
# Fresh interpreters per set-up measurement; the median is reported.
SETUP_RUNS = 9
# Traced calls per target whose spans are written out.
KEPT_TRACED_CALLS = 20

SETUP_CODE = ("import time; t = time.perf_counter(); import kdfkit.cli; "
              "print(time.perf_counter() - t)")
SETUP_MODULES = ("kdfkit.bench", "kdfkit.primitives")

# Per-layer metrics of each target: "<layer path>.<stat>". Only layers on the
# target's path are listed.
_KMAC_LAYERS = ("primitives.keccak_f1600.calls", "primitives.keccak_f1600.us",
                "primitives.sponge.self_us", "kmac.self_us")
_AES_LAYERS = ("primitives.aes_key_setup.calls", "primitives.aes_key_setup.us",
               "primitives.aes_block.calls", "primitives.aes_block.us")
_SHA_LAYERS = ("primitives.sha256.calls", "primitives.sha256.us", "hmac.self_us")
LAYER_METRICS = {
    "HMAC": _SHA_LAYERS,
    "CMAC": _AES_LAYERS + ("cmac.self_us",),
    "KMAC": _KMAC_LAYERS,
    "HMAC_KDF": _SHA_LAYERS + ("kdf.self_us",),
    "CMAC_KDF": _AES_LAYERS + ("cmac.self_us", "kdf.self_us"),
    "KMAC_KDF": _KMAC_LAYERS + ("kdf.self_us",),
    "IEEE_KDF": _AES_LAYERS + ("kdf.self_us",),
}
_UNITS = {"calls": "count", "us": "us", "self_us": "us"}


class Ledger:
    """Calls attempted and failed, where failed means raised or wrong output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_errors = {}

    def record(self, target, key, data, out) -> None:
        self.attempted += 1
        if isinstance(out, BaseException):
            self.first_errors.setdefault(target.name, "".join(
                traceback.format_exception(type(out), out, out.__traceback__)))
        if isinstance(out, BaseException) or not target.check(key, data, out):
            self.failed += 1


def _call_all(target, inputs, samples, trace=None, call_spans=None):
    """Time each call of a slice; returns the outputs (or the raised exceptions)."""
    call, clock = target.call, time.perf_counter_ns
    outs = []
    for key, data in inputs:
        if trace is not None:
            trace.begin()
        start = clock()
        try:
            out = call(key, data)
        except Exception as exc:  # counted as a failed call by the ledger
            out = exc
        stop = clock()
        samples.append(stop - start)
        outs.append(out)
        if trace is not None:
            call_spans.append(trace.end(start, stop))
    return outs


def run_slice(target, n_calls, samples, ledger, trace=None) -> list:
    """Make ``n_calls`` timed, checked calls; returns each call's spans when traced."""
    inputs = [target.next_input() for _ in range(n_calls)]
    call_spans = []
    if trace is None:
        outs = _call_all(target, inputs, samples)
    else:
        with tracer.installed(trace):
            outs = _call_all(target, inputs, samples, trace, call_spans)
    for (key, data), out in zip(inputs, outs):
        ledger.record(target, key, data, out)
    return call_spans


def probe_ns() -> int:
    """Nanoseconds of the fixed reference task that ranks slices by quietness."""
    start = time.perf_counter_ns()
    acc = 0
    for i in range(PROBE_LOOP):
        acc += i * i
    hashlib.sha256(PROBE_DATA).digest()
    return time.perf_counter_ns() - start


def warm_up(target_list, ledger, digests) -> dict:
    """Make WARMUP_CALLS checked calls per target; returns calls per slice."""
    batch = {}
    for target in target_list:
        inputs = [target.next_input() for _ in range(targets.WARMUP_CALLS)]
        samples = []
        for (key, data), out in zip(inputs, _call_all(target, inputs, samples)):
            ledger.record(target, key, data, out)
            digests.add(target.name, key, data, out)
        # The fastest warm call, so that a slow stretch in warm-up does not
        # stretch the run's slices.
        per_call_s = min(samples[targets.WARMUP_CALLS // 2:]) / 1e9
        batch[target.name] = max(1, round(SLICE_S / max(per_call_s, 1e-7)))
    return batch


class Slice:
    """One slice of back-to-back calls of one target, and its bracketing probes."""

    def __init__(self, probe_before: int, traced: bool = False):
        self.samples = []
        self.probe_ns = probe_before
        self.layers = tracer.LayerTotals() if traced else None


def quiet_share(values: list, key=None) -> list:
    """The QUIET_SHARE of ``values`` with the lowest ``key``, at least one."""
    ranked = sorted(values, key=key)
    return ranked[:max(1, round(QUIET_SHARE * len(ranked)))]


def quiet_slices(slices: list) -> list:
    """The QUIET_SHARE of ``slices`` with the lowest probe time."""
    return quiet_share(slices, key=lambda part: part.probe_ns)


def quiet_samples(slices: list) -> list:
    return [x for part in quiet_slices(slices) for x in part.samples]


def p90(samples_ns: list) -> float:
    return statistics.quantiles(samples_ns, n=10)[-1] if len(samples_ns) > 1 else samples_ns[0]


def _fresh_interpreter(extra_args=()) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *extra_args, "-c", SETUP_CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)


_IMPORTTIME_LINE = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")


def setup_sample(importtime: bool):
    """One fresh interpreter's import of kdfkit.cli.

    Returns its seconds, or with ``importtime`` the cumulative import
    seconds of each of SETUP_MODULES that was imported.
    """
    if not importtime:
        return float(_fresh_interpreter().stdout)
    found = {}
    for line in _fresh_interpreter(("-X", "importtime")).stderr.splitlines():
        match = _IMPORTTIME_LINE.match(line)
        if match and match.group(2) in SETUP_MODULES:
            found[match.group(2)] = int(match.group(1)) / 1e6
    return found


def provenance(workload, seed, seconds, trace) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cryptography": cryptography.__version__,
        "openssl": openssl_backend.openssl_version_text(),
        "cpu_count": os.cpu_count(),
        "warmup_per_target": targets.WARMUP_CALLS,
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return its report.

    The report has the contract's ``result`` (correct, attempted, failed,
    metrics) plus ``provenance``, ``absent`` and, for a traced run,
    ``calls`` (per-layer call counts per call, per target).
    """
    target_list = targets.build_targets(workload, seed)
    info = provenance(workload, seed, seconds, trace)
    kmac_failures = targets.kmac_vector_failures() + targets.kmac_pin_failures(workload)
    info["kmac_check_failures"] = kmac_failures

    ledger = Ledger()
    digests = targets.Digests()
    batch = warm_up(target_list, ledger, digests)
    info["inputs_digest"] = digests.inputs.hexdigest()
    info["outputs_digest"] = digests.outputs.hexdigest()
    info["calls_per_slice"] = batch

    plain = {t.name: [] for t in target_list}
    traced = {t.name: [] for t in target_list}
    kept_spans, kept_calls = [], {t.name: 0 for t in target_list}
    trace_obj = tracer.Tracer() if trace else None
    setup_samples = []
    _fresh_interpreter()  # writes the bytecode cache, as a user's first run would

    probes = [probe_ns()]

    def timed_slice(slices, target, trace=None) -> list:
        part = Slice(probes[-1], traced=trace is not None)
        slices.append(part)
        call_spans = run_slice(target, batch[target.name], part.samples, ledger, trace)
        probes.append(probe_ns())
        part.probe_ns += probes[-1]
        if trace is not None:
            for spans in call_spans:
                part.layers.add(spans)
        return call_spans

    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        if len(setup_samples) * seconds < (time.perf_counter() - start) * SETUP_RUNS:
            setup_samples.append(setup_sample(trace))
            probes.append(probe_ns())
        for target in target_list:
            name = target.name
            timed_slice(plain[name], target)
            if trace_obj is None:
                continue
            for spans in timed_slice(traced[name], target, trace_obj):
                if kept_calls[name] < KEPT_TRACED_CALLS:
                    op_id = sum(kept_calls.values())
                    kept_spans.extend(tracer.span_records(op_id, name, spans))
                    kept_calls[name] += 1
    while len(setup_samples) < SETUP_RUNS:
        setup_samples.append(setup_sample(trace))

    info["samples_per_target"] = {name: sum(len(part.samples) for part in slices)
                                  for name, slices in plain.items()}
    info["quiet_samples_per_target"] = {name: len(quiet_samples(slices))
                                        for name, slices in plain.items()}
    thin = [name for name, count in info["samples_per_target"].items() if count < MIN_SAMPLES]
    if thin:
        info["warning"] = f"fewer than {MIN_SAMPLES} samples, p90 tail too thin: {thin}"
    probe_quiet_us = statistics.median(quiet_share(probes)) / 1e3
    info["probe_us"] = {"quiet": probe_quiet_us, "median": statistics.median(probes) / 1e3}
    info["slow_machine"] = probe_quiet_us > PROBE_SLOW_US
    info["fail_ratio"] = ledger.failed / ledger.attempted
    if ledger.first_errors:
        info["errors"] = ledger.first_errors

    if trace:
        metrics, absent, calls = _layer_metrics(plain, traced, setup_samples)
        info["missing_wrap_points"] = tracer.missing_points()
        info["spans_file"] = _write_spans(workload, seed, kept_spans)
    else:
        metrics, absent, calls = _end_to_end_metrics(plain, setup_samples), [], None
        metrics["ok_ratio"] = {"value": 1 - info["fail_ratio"], "unit": "ratio"}

    correct = ledger.failed == 0 and not kmac_failures
    return {
        "result": {"correct": correct, "attempted": ledger.attempted,
                   "failed": ledger.failed, "metrics": metrics},
        "provenance": info,
        "absent": absent,
        "calls": calls,
    }


def _end_to_end_metrics(plain: dict, setup_samples: list) -> dict:
    metrics = {}
    for name, slices in plain.items():
        every_call = [x for part in slices for x in part.samples]
        metrics[f"{name}.median_us"] = {
            "value": statistics.median(quiet_samples(slices)) / 1e3, "unit": "us"}
        metrics[f"{name}.p90_us"] = {"value": p90(every_call) / 1e3, "unit": "us"}
    metrics["setup_s"] = {"value": statistics.median(setup_samples), "unit": "s"}
    return metrics


def _layer_metrics(plain: dict, traced: dict, setup_samples: list) -> tuple:
    """(metrics, absent metric names, per-target layer call counts) of a traced run."""
    metrics, absent, calls = {}, [], {}
    for name, slices in traced.items():
        layer_totals = tracer.LayerTotals()
        for part in quiet_slices(slices):
            layer_totals.merge(part.layers)
        calls[name] = {}
        for suffix in LAYER_METRICS[name]:
            layer, stat = suffix.split(".")[-2:]
            value = (layer_totals.mean_calls(layer) if stat == "calls"
                     else layer_totals.mean_self_us(layer))
            if value is None:
                absent.append(f"{name}.{suffix}")
                continue
            if stat == "calls":
                calls[name][layer] = value
            metrics[f"{name}.{suffix}"] = {"value": value, "unit": _UNITS[stat]}
        overhead = (statistics.median(quiet_samples(slices))
                    / statistics.median(quiet_samples(plain[name])))
        metrics[f"{name}.trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    for module in SETUP_MODULES:
        values = [sample[module] for sample in setup_samples if module in sample]
        if values:
            metrics[f"setup.{module}_s"] = {"value": statistics.median(values), "unit": "s"}
        else:
            absent.append(f"setup.{module}_s")
    return metrics, absent, calls


def _write_spans(workload, seed, records) -> str:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    return str(path.relative_to(ROOT))
