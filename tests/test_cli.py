"""CLI contract: hex in/out, exit codes, selftest report, bench orchestration."""

import json
import os
import platform
import ssl

import cryptography
import pytest
from cryptography.hazmat.backends.openssl.backend import backend as openssl_backend

from kdfkit import cli, vectors
from kdfkit.kdf import PURPOSE_SIGNING, ieee_kdf

CMAC_KEY = "2b7e151628aed2a6abf7158809cf4f3c"
KMAC_KEY = bytes(range(0x40, 0x60)).hex()


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMac:
    def test_cmac_empty_message(self, capsys):
        code, out, _ = run_cli(capsys, "mac", "cmac", "--key", CMAC_KEY, "--msg", "")
        assert code == 0
        assert out.strip() == "bb1d6929e95937287fa37d129b756746"

    def test_hmac_rfc4231_case_1(self, capsys):
        code, out, _ = run_cli(capsys, "mac", "hmac", "--key", "0b" * 20,
                               "--msg", "4869205468657265")
        assert code == 0
        assert out.strip() == ("b0344c61d8db38535ca8afceaf0bf12b"
                               "881dc200c9833da726e9376c2e32cff7")

    def test_kmac_sample_1(self, capsys):
        code, out, _ = run_cli(capsys, "mac", "kmac", "--key", KMAC_KEY,
                               "--msg", "00010203", "--bits", "256", "--custom", "")
        assert code == 0
        assert out.strip() == ("e5780b0d3ea6f7d3a429c5706aa43a00"
                               "fadbd7d49628839e3187243f456ee14e")

    def test_output_is_lowercase_round_trip_hex(self, capsys):
        _, out, _ = run_cli(capsys, "mac", "hmac", "--key", "AABB", "--msg", "CC")
        tag = out.strip()
        assert tag == tag.lower()
        assert bytes.fromhex(tag).hex() == tag

    def test_bad_hex_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["mac", "cmac", "--key", "xyz", "--msg", ""])
        assert exc.value.code == 2

    def test_cmac_key_length_violation_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "mac", "cmac", "--key", "aabb", "--msg", "")
        assert code == 2
        assert "error" in err


class TestKdf:
    def test_ctr_cmac_length(self, capsys):
        code, out, _ = run_cli(capsys, "kdf", "ctr", "--prf", "cmac", "--key", CMAC_KEY,
                               "--msg", "00112233", "--len", "48")
        assert code == 0
        assert len(out.strip()) == 96

    def test_ieee_matches_module(self, capsys):
        code, out, _ = run_cli(capsys, "kdf", "ieee", "--key", CMAC_KEY,
                               "--i", "00000000", "--j", "00000000", "--purpose", "1")
        assert code == 0
        expect = ieee_kdf(bytes.fromhex(CMAC_KEY), bytes(4), bytes(4), PURPOSE_SIGNING)
        assert out.strip() == expect.hex()
        assert len(out.strip()) == 96

    def test_kmac_family_equals_custom_kdf_string(self, capsys):
        _, kdf_out, _ = run_cli(capsys, "kdf", "kmac", "--key", KMAC_KEY,
                                "--msg", "a1b2", "--bits", "384")
        _, mac_out, _ = run_cli(capsys, "mac", "kmac", "--key", KMAC_KEY,
                                "--msg", "a1b2", "--bits", "384", "--custom", "4b4446")
        assert kdf_out == mac_out

    def test_missing_family_parameter_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["kdf", "ctr", "--key", CMAC_KEY, "--msg", ""])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--prf" in err and "--len" in err
        with pytest.raises(SystemExit) as exc:
            cli.main(["kdf", "ieee", "--key", CMAC_KEY, "--i", "00000000"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--j" in err and "--purpose" in err

    def test_bad_length_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "kdf", "ctr", "--prf", "hmac", "--key", "aa",
                             "--msg", "", "--len", "0")
        assert code == 2


class TestParsers:
    @pytest.mark.parametrize("argv", [
        ["mac", "hmac", "--key", "00", "--bits", "12"],
        ["mac", "cmac", "--key", CMAC_KEY, "--custom", "ff"],
        ["mac", "hmac", "--key", "00", "--variant", "256"],
        ["kdf", "ctr", "--key", "00", "--prf", "hmac", "--len", "8", "--bits", "64"],
        ["kdf", "kmac", "--key", "00", "--bits", "64", "--prf", "hmac"],
        ["kdf", "ieee", "--key", CMAC_KEY, "--i", "00000000", "--j", "00000000",
         "--purpose", "1", "--msg", "00"],
    ], ids=["hmac-bits", "cmac-custom", "hmac-variant", "ctr-bits", "kmac-kdf-prf",
            "ieee-msg"])
    def test_foreign_flag_exits_2(self, capsys, argv):
        # Each command line is valid without its last flag, which belongs to
        # another construction.
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        [], ["mac"], ["mac", "hmac"], ["mac", "cmac"], ["mac", "kmac"], ["kdf"],
        ["kdf", "ctr"], ["kdf", "kmac"], ["kdf", "ieee"], ["selftest"], ["bench"],
    ], ids=lambda command: " ".join(command) or "top")
    def test_help_renders(self, capsys, command):
        # argparse formats help strings only on request, so a bad one fails only here.
        with pytest.raises(SystemExit) as exc:
            cli.main([*command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(" ".join(["usage: kdfkit", *command]))


class TestSelftest:
    def test_bundled_vectors_pass(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1].endswith("passed")
        total = len(lines) - 1
        assert lines[-1] == f"{total}/{total} passed"

    def test_filter_runs_subset(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--filter", "cmac_aes128")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5  # 4 cases + summary
        assert all("rfc4493" in line for line in lines[:-1])

    def test_filter_prefix_match(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--filter", "cmac")
        assert code == 0
        assert out.strip().splitlines()[-1] == "4/4 passed"

    def test_corrupted_vector_fails(self, capsys, tmp_path):
        cases = json.loads(vectors.bundled_vector_path().read_text(encoding="utf-8"))
        cases[0]["expect"] = "00" * (len(cases[0]["expect"]) // 2)
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(cases))
        code, out, _ = run_cli(capsys, "selftest", "--vectors", str(path))
        assert code == 1
        assert "FAIL" in out

    def test_unreadable_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "selftest", "--vectors", str(tmp_path / "nope.json"))
        assert code == 2
        assert "error" in err
        bad = tmp_path / "bad.json"
        bad.write_text("{not-json")
        code, _, _ = run_cli(capsys, "selftest", "--vectors", str(bad))
        assert code == 2

    @pytest.mark.parametrize("vector_file, args, named", [
        (None, ["--filter", "cmca"], "'cmca'"),
        ("[]", [], "empty.json"),
    ], ids=["filter-typo", "empty-file"])
    def test_nothing_selected_exits_2(self, capsys, tmp_path, vector_file, args, named):
        if vector_file is not None:
            path = tmp_path / "empty.json"
            path.write_text(vector_file)
            args = ["--vectors", str(path), *args]
        code, out, err = run_cli(capsys, "selftest", *args)
        assert code == 2
        assert "0/0" not in out
        assert err.startswith("error:")
        assert named in err

    @pytest.mark.parametrize("fields, reason", [
        ({"params": {}}, "case bad-params param L"),
        ({"params": {"L": "256"}}, "case bad-params param L"),
        ({"params": ["L", 256]}, "params must be a JSON object"),
        ({"construction": 5}, "case 0 construction must be a string"),
        ({"construction": "shake128", "params": {"L": 12}}, "whole number of bytes"),
    ], ids=["missing-L", "string-L", "params-not-object", "int-construction",
            "shake-partial-byte-L"])
    def test_malformed_params_exit_2(self, capsys, tmp_path, fields, reason):
        case = {"id": "bad-params", "construction": "kmac128", "key": "00" * 32,
                "msg": "", "params": {"L": 256}, "expect": "00" * 32, **fields}
        path = tmp_path / "params.json"
        path.write_text(json.dumps([case]))
        # The prefix filter is applied to every case's construction.
        code, _, err = run_cli(capsys, "selftest", "--vectors", str(path), "--filter", "")
        assert code == 2
        assert err.startswith("error:")
        assert reason in err


class TestBench:
    def test_default_run_seven_rows(self, capsys, tmp_path):
        out_path = tmp_path / "results.csv"
        code, out, _ = run_cli(capsys, "bench", "--iterations", "5", "--warmup", "1",
                               "--out", str(out_path))
        assert code == 0
        rows = out_path.read_text().strip().splitlines()
        assert len(rows) == 8  # header + 7 targets
        for kind in ("HMAC", "CMAC", "KMAC", "HMAC_KDF", "CMAC_KDF", "KMAC_KDF",
                     "IEEE_KDF"):
            assert any(row.startswith(kind + ",") for row in rows[1:])

    def test_meta_line_precedes_table(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "bench", "--targets", "macs", "--iterations", "2",
                               "--warmup", "1", "--seed", "9",
                               "--out", str(tmp_path / "meta.csv"))
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("meta ") and lines[1].startswith("target ")
        assert sum(line.startswith("meta ") for line in lines) == 1
        fields = dict(field.split("=", 1) for field in lines[0][len("meta "):].split("; "))
        assert list(fields) == ["python", "cryptography", "aes_openssl", "sha256_openssl",
                                "cpus", "seed", "iterations", "warmup"]
        assert fields["python"].endswith(platform.python_version())
        assert fields["cryptography"] == cryptography.__version__
        assert fields["aes_openssl"] == openssl_backend.openssl_version_text()
        assert fields["sha256_openssl"] == ssl.OPENSSL_VERSION
        assert fields["cpus"] == str(os.cpu_count())
        assert (fields["seed"], fields["iterations"], fields["warmup"]) == ("9", "2", "1")

    def test_macs_subset(self, capsys, tmp_path):
        out_path = tmp_path / "macs.json"
        code, out, _ = run_cli(capsys, "bench", "--targets", "macs", "--iterations", "4",
                               "--warmup", "0", "--format", "json", "--out", str(out_path))
        assert code == 0
        records = json.loads(out_path.read_text())
        assert [r["target"] for r in records] == ["HMAC", "CMAC", "KMAC"]

    def test_seed_recorded_and_exit_zero_despite_warnings(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "bench", "--iterations", "3", "--warmup", "0",
                               "--seed", "42", "--out", str(tmp_path / "r.csv"))
        assert code == 0
        assert "seed=42" in out

    def test_single_iteration(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "bench", "--targets", "macs", "--iterations", "1",
                               "--warmup", "0", "--out", str(tmp_path / "one.csv"))
        assert code == 0
        assert "iterations=1" in out

    def test_zero_iterations_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "bench", "--targets", "macs", "--iterations", "0",
                               "--out", str(tmp_path / "zero.csv"))
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("bad", [("--iterations", "0"), ("--warmup", "-1")])
    def test_failed_run_keeps_existing_output(self, capsys, tmp_path, bad):
        out_path = tmp_path / "keep.csv"
        out_path.write_bytes(b"sentinel results\n")
        code, _, err = run_cli(capsys, "bench", "--targets", "macs", *bad,
                               "--out", str(out_path))
        assert code == 2
        assert "error:" in err
        assert out_path.read_bytes() == b"sentinel results\n"

    def test_unwritable_output_exits_2(self, capsys, tmp_path, monkeypatch):
        code, _, err = run_cli(capsys, "bench", "--targets", "macs", "--iterations", "2",
                               "--warmup", "0", "--out", str(tmp_path / "no/dir/x.csv"))
        assert code == 2
        assert "error" in err

        # The path is checked before any target is timed.
        def no_timing(*args, **kwargs):
            raise AssertionError("timed a target before checking --out")

        monkeypatch.setattr(cli.bench_mod, "run_table", no_timing)
        code, _, err = run_cli(capsys, "bench", "--out", str(tmp_path / "no/dir/x.csv"))
        assert code == 2
        assert "cannot write" in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
    def test_failed_final_write_exits_2(self, capsys):
        # /dev/full opens fine, so the pre-timing check passes and the write
        # after timing is what fails (ENOSPC).
        code, out, err = run_cli(capsys, "bench", "--targets", "macs", "--iterations", "1",
                                 "--warmup", "0", "--out", "/dev/full")
        assert code == 2
        assert "error: cannot write /dev/full" in err
        assert "results written" not in out
