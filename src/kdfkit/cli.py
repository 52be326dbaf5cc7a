"""Command-line surface: one-shot MAC/KDF computation, vector self-test,
and benchmark orchestration.

Exit codes are stable for scripting: 0 success, 1 self-test failure or
stdout closed by its reader, 2 usage or parameter error. All byte output
is lowercase hex.
"""

import argparse
import os
import sys

import cryptography

from . import bench as bench_mod
from . import vectors
from .cmac import cmac
from .hmac import hmac
from .kdf import counter_kdf, ieee_kdf, kmac_kdf, PrfChoice
from .kmac import kmac128, kmac256
from .primitives import NETTLE_VERSION

EXIT_OK = 0
EXIT_SELFTEST_FAIL = 1
EXIT_BROKEN_PIPE = 1
EXIT_USAGE = 2


def _hex_arg(value: str) -> bytes:
    try:
        return bytes.fromhex(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not valid hex: {value!r}") from None


def _construction(constructions, name: str, help_text: str, call,
                  msg_help="message as hex") -> argparse.ArgumentParser:
    """Sub-parser taking ``--key`` and, unless ``msg_help`` is None, ``--msg``.

    ``call(args)`` returns the bytes to print; the caller adds any other flags.
    """
    parser = constructions.add_parser(name, help=help_text)
    parser.add_argument("--key", type=_hex_arg, required=True, help="key as hex")
    if msg_help is not None:
        parser.add_argument("--msg", type=_hex_arg, default=b"", help=msg_help)
    parser.set_defaults(handler=_cmd_compute, call=call)
    return parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdfkit",
        description="Message authentication codes, key derivation functions, "
                    "and a timing harness for comparing them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    macs = sub.add_parser("mac", help="compute a MAC tag").add_subparsers(
        dest="algorithm", required=True)
    _construction(macs, "hmac", "HMAC-SHA256, 32 bytes",
                  lambda args: hmac(args.key, args.msg))
    _construction(macs, "cmac", "AES-128 CMAC, 16 bytes",
                  lambda args: cmac(args.key, args.msg))
    kmac = _construction(
        macs, "kmac", "KMAC128 or KMAC256",
        lambda args: (kmac128 if args.variant == 128 else kmac256)(
            args.key, args.msg, args.bits, args.custom))
    kmac.add_argument("--bits", type=int, default=256,
                      help="output length in bits (default 256)")
    kmac.add_argument("--custom", type=_hex_arg, default=b"",
                      help="customization string as hex")
    kmac.add_argument("--variant", type=int, choices=[128, 256], default=128,
                      help="security variant (default 128)")

    kdfs = sub.add_parser("kdf", help="derive pseudorandom bytes").add_subparsers(
        dest="family", required=True)
    ctr = _construction(
        kdfs, "ctr", "counter-mode KDF over HMAC-SHA256 or AES-128 CMAC",
        lambda args: counter_kdf(
            PrfChoice.HMAC_SHA256 if args.prf == "hmac" else PrfChoice.CMAC_AES128,
            args.key, args.msg, args.out_len),
        msg_help="context message as hex")
    ctr.add_argument("--prf", choices=["hmac", "cmac"], required=True,
                     help="pseudorandom function")
    ctr.add_argument("--len", dest="out_len", type=int, required=True,
                     help="output length in bytes")
    kmac_family = _construction(
        kdfs, "kmac", 'KMAC128 with customization "KDF"',
        lambda args: kmac_kdf(args.key, args.msg, args.bits),
        msg_help="context message as hex")
    kmac_family.add_argument("--bits", type=int, required=True,
                             help="output length in bits")
    ieee = _construction(
        kdfs, "ieee", "IEEE 1609.2.1 butterfly expansion KDF, 48 bytes",
        lambda args: ieee_kdf(args.key, args.i_value, args.j_value, args.purpose),
        msg_help=None)
    ieee.add_argument("--i", dest="i_value", type=_hex_arg, required=True,
                      help="4-byte period index as hex")
    ieee.add_argument("--j", dest="j_value", type=_hex_arg, required=True,
                      help="4-byte key index as hex")
    ieee.add_argument("--purpose", type=int, choices=[1, 2], required=True,
                      help="1 = signing, 2 = encryption")

    selftest = sub.add_parser("selftest", help="run known-answer vectors")
    selftest.add_argument("--vectors", default=None,
                          help="vector file (default: bundled standard vectors)")
    selftest.add_argument("--filter", default=None,
                          help="only run cases of this construction")
    selftest.set_defaults(handler=_cmd_selftest)

    bench = sub.add_parser("bench", help="run the timing comparison")
    bench.add_argument("--targets", choices=["all", "macs", "kdfs"], default="all")
    bench.add_argument("--iterations", type=int, default=bench_mod.DEFAULT_ITERATIONS,
                       help=f"timed runs per target (default {bench_mod.DEFAULT_ITERATIONS})")
    bench.add_argument("--warmup", type=int, default=bench_mod.DEFAULT_WARMUP)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", default=None,
                       help="result file path (default bench_results.<format>)")
    bench.add_argument("--format", choices=["csv", "json"], default="csv")
    bench.set_defaults(handler=_cmd_bench)
    return parser


def _cmd_compute(args) -> int:
    print(args.call(args).hex())
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
    # Rejected before --out is touched or the meta line printed.
    bench_mod.check_counts(args.iterations, args.warmup)
    targets = bench_mod.default_targets(seed=args.seed)
    if args.targets == "macs":
        targets = [t for t in targets if t.kind in bench_mod.MAC_KINDS]
    elif args.targets == "kdfs":
        targets = [t for t in targets if t.kind in bench_mod.KDF_KINDS]

    # Check the output first, so an unwritable path fails before any target is
    # timed; append mode keeps an existing file as it was if the run then fails.
    out_path = args.out if args.out is not None else f"bench_results.{args.format}"
    try:
        open(out_path, "ab").close()
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # Imported here: at module level they would add ~23 ms to `import kdfkit.cli`.
    import platform
    import ssl

    from cryptography.hazmat.backends.openssl.backend import backend

    # AES runs in cryptography's bundled OpenSSL, SHA-256 in hashlib's libcrypto
    # and Keccak-f[1600] in the system Nettle.
    print(f"meta python={platform.python_implementation()} {platform.python_version()}; "
          f"cryptography={cryptography.__version__}; "
          f"aes_openssl={backend.openssl_version_text()}; "
          f"sha256_openssl={ssl.OPENSSL_VERSION}; keccak=nettle {NETTLE_VERSION}; "
          f"cpus={os.cpu_count()}; "
          f"seed={args.seed}; iterations={args.iterations}; warmup={args.warmup}")
    results = bench_mod.run_table(targets, args.iterations, args.warmup, args.seed)
    # Written before the table is printed, so a reader that closes stdout
    # early (`| head`) does not cost the results.
    try:
        with open(out_path, "wb") as handle:
            handle.write(bench_mod.export_results(results, args.format))
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"{'target':<10} {'mean_ms':>10} {'median_ms':>10} {'stddev_ms':>10}")
    for target, _, stats in results:
        print(f"{target.kind.value:<10} {stats.mean_ms:>10.6f} "
              f"{stats.median_ms:>10.6f} {stats.stddev_ms:>10.6f}")
    for warning in bench_mod.ordering_warnings({t.kind: s for t, _, s in results}):
        print(warning)
    print(f"results written to {out_path} "
          f"(iterations={args.iterations}, warmup={args.warmup}, seed={args.seed})")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a buffered stdout meets a closed pipe here
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader closed stdout (`| head`). Point stdout at devnull so the
        # interpreter's flush at exit cannot raise again, as the Python docs'
        # SIGPIPE note recommends.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
