#!/usr/bin/env python3
"""Run the timing comparison at a reduced scale and export the results.

Times every construction on 32-byte messages (the IEEE KDF on its 8-byte
i||j; 48-byte outputs for the KDFs), prints the mean/median/stddev table
plus box-plot quartiles, and writes CSV/JSON files. Expected-ordering
checks print WARN lines when this machine disagrees; they never fail the
run.

The full-scale run (1000 iterations) is available from the CLI:
    kdfkit bench --iterations 1000 --seed 1 --format csv --out results.csv
"""

import json

from kdfkit import bench

ITERATIONS = 200
SEED = 1

print(f"== timing {ITERATIONS} invocations per target (seed {SEED}) ==")
results = bench.run_table(bench.default_targets(seed=SEED), ITERATIONS, warmup=20, seed=SEED)

header = f"{'target':<10} {'mean':>10} {'median':>10} {'stddev':>10} {'q1':>10} {'q3':>10}"
print(header)
print("-" * len(header))
for target, _, stats in results:
    print(f"{target.kind.value:<10} {stats.mean_ms:>10.6f} {stats.median_ms:>10.6f} "
          f"{stats.stddev_ms:>10.6f} {stats.q1_ms:>10.6f} {stats.q3_ms:>10.6f}")
print("(all values in milliseconds)")
print()

warnings = bench.ordering_warnings({t.kind: s for t, _, s in results})
if warnings:
    print("ordering checks against the expected cost ranking:")
    for line in warnings:
        print(" ", line)
else:
    print("ordering checks: all expectations held on this machine")
print()

# Same seed, same inputs and outputs -- only the timings differ between runs.
_, first_run, _ = results[0]
replay = bench.run_bench(bench.default_targets(seed=SEED)[0],
                         iterations=ITERATIONS, warmup=20, seed=SEED)
assert (replay.inputs_digest, replay.output_checksum) == (
    first_run.inputs_digest, first_run.output_checksum)
print("seeded replay reproduces the input digest and output checksum: OK")
print()

csv_payload = bench.export_results(results, "csv")
json_payload = bench.export_results(results, "json")
with open("demo_bench.csv", "wb") as handle:
    handle.write(csv_payload)
with open("demo_bench.json", "wb") as handle:
    handle.write(json_payload)
records = json.loads(json_payload)
print(f"wrote demo_bench.csv and demo_bench.json ({len(records)} records)")
print("first record:", records[0])
