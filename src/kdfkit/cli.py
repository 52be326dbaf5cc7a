"""Command-line surface: one-shot MAC/KDF computation, vector self-test,
and benchmark orchestration.

Exit codes are stable for scripting: 0 success, 1 self-test failure,
2 usage or parameter error. All byte output is lowercase hex.
"""

import argparse
import sys

from . import bench as bench_mod
from . import vectors
from .cmac import cmac
from .hmac import hmac
from .kdf import counter_kdf, ieee_kdf, kmac_kdf, PrfChoice
from .kmac import kmac128, kmac256

EXIT_OK = 0
EXIT_SELFTEST_FAIL = 1
EXIT_USAGE = 2


def _hex_arg(value: str) -> bytes:
    try:
        return bytes.fromhex(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not valid hex: {value!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdfkit",
        description="Message authentication codes, key derivation functions, "
                    "and a timing harness for comparing them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mac = sub.add_parser("mac", help="compute a MAC tag")
    mac.add_argument("algorithm", choices=["hmac", "cmac", "kmac"])
    mac.add_argument("--key", type=_hex_arg, required=True, help="key as hex")
    mac.add_argument("--msg", type=_hex_arg, default=b"", help="message as hex")
    mac.add_argument("--bits", type=int, default=256,
                     help="kmac only: output length in bits (default 256)")
    mac.add_argument("--custom", type=_hex_arg, default=b"",
                     help="kmac only: customization string as hex")
    mac.add_argument("--variant", type=int, choices=[128, 256], default=128,
                     help="kmac only: security variant (default 128)")

    kdf = sub.add_parser("kdf", help="derive pseudorandom bytes")
    kdf.add_argument("family", choices=["ctr", "kmac", "ieee"])
    kdf.add_argument("--key", type=_hex_arg, required=True, help="key as hex")
    kdf.add_argument("--msg", type=_hex_arg, default=b"",
                     help="ctr/kmac: context message as hex")
    kdf.add_argument("--prf", choices=["hmac", "cmac"],
                     help="ctr only: pseudorandom function")
    kdf.add_argument("--len", dest="out_len", type=int,
                     help="ctr only: output length in bytes")
    kdf.add_argument("--bits", type=int,
                     help="kmac only: output length in bits")
    kdf.add_argument("--i", dest="i_value", type=_hex_arg,
                     help="ieee only: 4-byte period index as hex")
    kdf.add_argument("--j", dest="j_value", type=_hex_arg,
                     help="ieee only: 4-byte key index as hex")
    kdf.add_argument("--purpose", type=int, choices=[1, 2],
                     help="ieee only: 1 = signing, 2 = encryption")

    selftest = sub.add_parser("selftest", help="run known-answer vectors")
    selftest.add_argument("--vectors", default=None,
                          help="vector file (default: bundled standard vectors)")
    selftest.add_argument("--filter", default=None,
                          help="only run cases of this construction")

    bench = sub.add_parser("bench", help="run the timing comparison")
    bench.add_argument("--targets", choices=["all", "macs", "kdfs"], default="all")
    bench.add_argument("--iterations", type=int, default=bench_mod.DEFAULT_ITERATIONS,
                       help=f"timed runs per target (default {bench_mod.DEFAULT_ITERATIONS})")
    bench.add_argument("--warmup", type=int, default=bench_mod.DEFAULT_WARMUP)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", default=None,
                       help="result file path (default bench_results.<format>)")
    bench.add_argument("--format", choices=["csv", "json"], default="csv")
    return parser


def _cmd_mac(args) -> int:
    if args.algorithm == "hmac":
        tag = hmac(args.key, args.msg)
    elif args.algorithm == "cmac":
        tag = cmac(args.key, args.msg)
    else:
        kmac = kmac128 if args.variant == 128 else kmac256
        tag = kmac(args.key, args.msg, args.bits, args.custom)
    print(tag.hex())
    return EXIT_OK


def _cmd_kdf(args) -> int:
    if args.family == "ctr":
        if args.prf is None or args.out_len is None:
            raise ValueError("kdf ctr requires --prf and --len")
        prf = PrfChoice.HMAC_SHA256 if args.prf == "hmac" else PrfChoice.CMAC_AES128
        out = counter_kdf(prf, args.key, args.msg, args.out_len)
    elif args.family == "kmac":
        if args.bits is None:
            raise ValueError("kdf kmac requires --bits")
        out = kmac_kdf(args.key, args.msg, args.bits)
    else:
        if args.i_value is None or args.j_value is None or args.purpose is None:
            raise ValueError("kdf ieee requires --i, --j and --purpose")
        out = ieee_kdf(args.key, args.i_value, args.j_value, args.purpose)
    print(out.hex())
    return EXIT_OK


def _cmd_selftest(args) -> int:
    path = args.vectors if args.vectors is not None else vectors.bundled_vector_path()
    try:
        cases = vectors.load_vector_file(path)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load vector file {path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    results = vectors.run_cases(cases, construction=args.filter)
    if not results:
        selected = "" if args.filter is None else f" matches --filter {args.filter!r}"
        print(f"error: no case in vector file {path}{selected}", file=sys.stderr)
        return EXIT_USAGE
    passed = 0
    for result in results:
        if result.passed:
            passed += 1
            print(f"PASS {result.case.id}")
        else:
            print(f"FAIL {result.case.id} expected={result.case.expect.hex()} "
                  f"got={result.got.hex()}")
    print(f"{passed}/{len(results)} passed")
    return EXIT_OK if passed == len(results) else EXIT_SELFTEST_FAIL


def _cmd_bench(args) -> int:
    targets = bench_mod.default_targets(seed=args.seed)
    if args.targets == "macs":
        targets = [t for t in targets if t.kind in bench_mod.MAC_KINDS]
    elif args.targets == "kdfs":
        targets = [t for t in targets if t.kind in bench_mod.KDF_KINDS]

    results = []
    stats_by_kind = {}
    for target in targets:  # strictly sequential, never interleaved
        samples = bench_mod.run_bench(target, iterations=args.iterations,
                                      warmup=args.warmup, seed=args.seed)
        stats = bench_mod.summarize(samples)
        results.append((target, stats))
        stats_by_kind[target.kind] = stats

    header = f"{'target':<10} {'mean_ms':>10} {'median_ms':>10} {'stddev_ms':>10}"
    print(header)
    for target, stats in results:
        print(f"{target.kind.value:<10} {stats.mean_ms:>10.6f} "
              f"{stats.median_ms:>10.6f} {stats.stddev_ms:>10.6f}")
    for warning in bench_mod.ordering_warnings(stats_by_kind):
        print(warning)

    out_path = args.out if args.out is not None else f"bench_results.{args.format}"
    payload = bench_mod.export_results(results, args.format)
    try:
        with open(out_path, "wb") as handle:
            handle.write(payload)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"results written to {out_path} "
          f"(iterations={args.iterations}, warmup={args.warmup}, seed={args.seed})")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "mac": _cmd_mac,
        "kdf": _cmd_kdf,
        "selftest": _cmd_selftest,
        "bench": _cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
