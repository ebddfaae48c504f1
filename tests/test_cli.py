import hashlib
import json
import os
import re
import shutil
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tgt import (
    BitMatrix,
    BitVector,
    DefectiveSet,
    load_bundle,
    load_matrix,
    serialize_matrix,
    serialize_vector,
    verify_disjunct,
)
from tgt.cli import main
from tgt.errors import VerificationError


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def bundle_files(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def rewrite_manifest(directory: Path, edit) -> None:
    """Apply edit to the manifest and write it back as save_bundle would."""
    manifest = json.loads((directory / "scheme.json").read_text())
    edit(manifest)
    (directory / "scheme.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    path = tmp_path_factory.mktemp("bundles") / "b16"
    code = main([
        "gen", "--n", "16", "--d", "3", "--u", "2", "--e", "1",
        "--p", "0.65", "--seed", "7", "--out", str(path),
    ])
    assert code == 0
    return path


class TestGen:
    def test_bundle_contents_and_dimensions(self, bundle):
        manifest = json.loads((bundle / "scheme.json").read_text())
        assert manifest["t"] == (manifest["k"] + 1) * manifest["h"]
        assert sorted(p.name for p in bundle.iterdir()) == ["G.mat", "M.mat", "scheme.json"]
        assert manifest["m_certificate"]["verified"]
        assert manifest["g_validation"]["passed"]

    def test_deterministic_bundles(self, tmp_path, capsys):
        args = ["gen", "--n", "16", "--d", "3", "--u", "2", "--e", "0",
                "--p", "0.5", "--seed", "11"]
        code1, _ = run(capsys, *args, "--out", str(tmp_path / "a"))
        code2, _ = run(capsys, *args, "--out", str(tmp_path / "b"))
        assert code1 == code2 == 0
        assert bundle_files(tmp_path / "a") == bundle_files(tmp_path / "b")

    def test_usage_error_when_u_exceeds_d(self, tmp_path, capsys):
        code, _ = run(capsys, "gen", "--n", "16", "--d", "2", "--u", "3",
                      "--out", str(tmp_path / "x"))
        assert code == 2

    def test_missing_required_flag(self, tmp_path, capsys):
        code, _ = run(capsys, "gen", "--d", "3", "--u", "2",
                      "--out", str(tmp_path / "x"))
        assert code == 2

    @pytest.mark.parametrize("command, extra", [
        ("gen", ["--out", "{dir}/b"]),
        ("simulate", ["--trials", "1", "--out", "{dir}/run"]),
        ("bench", ["--trials", "1", "--out", "{dir}/bench.csv"]),
    ], ids=["gen", "simulate", "bench"])
    def test_failed_held_out_validation(self, tmp_path, capsys, command, extra):
        """At n=32, d=4, p=0.5 and half the default c_g, seed 0 builds a G that
        fails one of its held-out defective sets."""
        argv = [command, "--n", "32", "--d", "4", "--u", "2", "--e", "1", "--p", "0.5",
                "--c-g", "1", "--seed", "0", *(a.format(dir=tmp_path) for a in extra)]
        assert main(argv) == 4
        assert "held-out defective set" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestVerify:
    def test_identity_verifies(self, tmp_path, capsys):
        path = tmp_path / "id8.mat"
        path.write_bytes(serialize_matrix(BitMatrix.identity(8), "disjunct"))
        code, out = run(capsys, "verify", str(path), "--d", "7")
        assert code == 0
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["verified"] and payload["method"] == "exhaustive"
        assert json.loads((tmp_path / "id8.mat.cert.json").read_text())["verified"]

    def test_bundle_m_matches_stored_certificate(self, bundle, capsys):
        manifest = json.loads((bundle / "scheme.json").read_text())
        assert manifest["m_certificate"]["method"] == "identity"  # n=16, d=3: no smaller code
        code, out = run(capsys, "verify", str(bundle / "M.mat"),
                        "--d", str(manifest["d"] + 1), "--mode", "exhaustive")
        assert code == 0
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["verified"] == manifest["m_certificate"]["verified"] is True
        assert payload["d"] == manifest["m_certificate"]["d"]

    def test_verification_failure_exit_code(self, tmp_path, capsys):
        path = tmp_path / "ones.mat"
        path.write_bytes(serialize_matrix(BitMatrix.ones(1, 4), "disjunct"))
        code, _ = run(capsys, "verify", str(path), "--d", "1")
        assert code == 4

    def test_corrupt_file_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.mat"
        path.write_text("not a matrix\n")
        code, _ = run(capsys, "verify", str(path), "--d", "1")
        assert code == 2

    def test_budget_exceeded_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TGT_BUDGET", "10")
        path = tmp_path / "id8.mat"
        path.write_bytes(serialize_matrix(BitMatrix.identity(8), "disjunct"))
        code, _ = run(capsys, "verify", str(path), "--d", "7")
        assert code == 5

    @pytest.mark.parametrize("flags", [[], ["--check", "threshold", "--d", "3"]],
                             ids=["disjunct-without-d", "threshold-without-u"])
    def test_missing_order_flags(self, bundle, tmp_path, capsys, flags):
        code = main(["verify", str(bundle / "G.mat"), *flags, "--out", str(tmp_path / "c.json")])
        assert code == 2
        assert "required" in capsys.readouterr().err
        assert not (tmp_path / "c.json").exists()

    def test_threshold_check(self, tmp_path, capsys):
        import numpy as np
        from itertools import combinations
        rows = []
        for pair in combinations(range(6), 2):
            row = np.zeros(6, dtype=np.uint8)
            row[list(pair)] = 1
            rows.append(row)
        path = tmp_path / "wu.mat"
        path.write_bytes(serialize_matrix(BitMatrix(np.array(rows)), "good"))
        code, out = run(capsys, "verify", str(path), "--check", "threshold",
                        "--d", "2", "--u", "2", "--e", "0")
        assert code == 0
        assert json.loads(out.strip().splitlines()[-1])["min_count"] == 1


class TestUncertifiedWarning:
    """decode and simulate warn alike when --e exceeds the bundle's certified e=1."""

    @pytest.mark.parametrize("command", ["decode", "simulate"])
    @pytest.mark.parametrize("flags, warned", [
        (["--e", "2"], True), (["--e", "1"], False), ([], False),
    ], ids=["above", "certified", "default"])
    def test_warning_on_stderr(self, bundle, tmp_path, capsys, command, flags, warned):
        y_path = tmp_path / "y.vec"
        run(capsys, "encode", "--bundle", str(bundle), "--defectives", "2,9", "--out", str(y_path))
        inputs = ["--y", str(y_path)] if command == "decode" else ["--trials", "3", "--seed", "2"]
        assert main([command, "--bundle", str(bundle), *inputs, *flags]) == 0
        captured = capsys.readouterr()
        assert ("results are uncertified" in captured.err) == warned
        assert captured.err.startswith("warning:") == warned


class TestEncodeDecode:
    def test_roundtrip(self, bundle, tmp_path, capsys):
        y_path = tmp_path / "y.vec"
        code, out = run(capsys, "encode", "--bundle", str(bundle),
                        "--defectives", "2,9", "--out", str(y_path))
        assert code == 0
        info = json.loads(out.strip().splitlines()[-1])
        assert info["positives"] > 0
        code, out = run(capsys, "decode", "--bundle", str(bundle),
                        "--y", str(y_path), "--e", "0")
        assert code == 0
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["defectives"] == [2, 9]
        assert payload["status"] == "ok"

    def test_decode_report_file(self, bundle, tmp_path, capsys):
        y_path = tmp_path / "y.vec"
        run(capsys, "encode", "--bundle", str(bundle),
            "--defectives", "1,16", "--out", str(y_path))
        out_path = tmp_path / "report.json"
        code, _ = run(capsys, "decode", "--bundle", str(bundle),
                      "--y", str(y_path), "--out", str(out_path))
        assert code == 0
        assert json.loads(out_path.read_text())["defectives"] == [1, 16]

    def test_main_builds_no_parser(self, bundle, tmp_path, capsys, monkeypatch):
        """main parses with the parser built at import, so repeated in-process
        calls do not rebuild it."""
        def refuse():
            raise AssertionError("main built a parser")

        y_path = tmp_path / "y.vec"
        run(capsys, "encode", "--bundle", str(bundle), "--defectives", "2,9", "--out", str(y_path))
        monkeypatch.setattr("tgt.cli.build_parser", refuse)
        outputs = [run(capsys, "decode", "--bundle", str(bundle), "--y", str(y_path))
                   for _ in range(2)]
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0 and json.loads(outputs[0][1])["defectives"] == [2, 9]

    def test_encode_needs_an_input(self, bundle, tmp_path, capsys):
        code, _ = run(capsys, "encode", "--bundle", str(bundle),
                      "--out", str(tmp_path / "y.vec"))
        assert code == 2


class TestExportT:
    def test_writes_the_dense_test_matrix(self, bundle, tmp_path, capsys):
        out = tmp_path / "T.mat"
        code, stdout = run(capsys, "export-t", "--bundle", str(bundle), "--out", str(out))
        assert code == 0
        scheme, manifest = load_bundle(bundle)
        t, kind, params = load_matrix(out.read_bytes())
        assert (t, kind) == (scheme.t, "final") and t.rows == manifest["t"]
        assert params == load_matrix((bundle / "G.mat").read_bytes())[2]
        assert json.loads(stdout) == {"out": str(out), "rows": manifest["t"], "cols": 16}

    def test_oversized_export_is_a_budget_error(self, bundle, tmp_path, capsys, monkeypatch):
        """With physical memory reported as the most whole pages below 3 bytes per
        entry of the n=16 T (36,992 entries), the export exits 5 before T is
        allocated or --out made."""
        sysconf = os.sysconf
        pages = (3 * 36_992 - 1) // sysconf("SC_PAGE_SIZE")
        monkeypatch.setattr(os, "sysconf",
                            lambda name: pages if name == "SC_PHYS_PAGES" else sysconf(name))
        out = tmp_path / "T.mat"
        tracemalloc.start()
        try:
            code = main(["export-t", "--bundle", str(bundle), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith("budget exceeded:") and "physical memory" in err
        assert peak < 36_992 // 2
        assert not out.exists()


class TestSimulate:
    def test_error_free_recovery_rate(self, tmp_path, capsys):
        code, out = run(capsys, "simulate", "--n", "16", "--d", "3", "--u", "2",
                        "--e", "0", "--p", "0.5", "--seed", "3",
                        "--trials", "40", "--out", str(tmp_path / "run"))
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])["summary"]
        assert summary["exact_rate"] == 1.0
        assert summary["block_false_accepts"] == 0
        assert not summary["uncertified"]

    def test_csv_deterministic_jsonl_mirrors(self, tmp_path, capsys):
        args = ["simulate", "--n", "16", "--d", "3", "--u", "2", "--e", "0",
                "--p", "0.5", "--seed", "5", "--trials", "15"]
        run(capsys, *args, "--out", str(tmp_path / "r1"))
        run(capsys, *args, "--out", str(tmp_path / "r2"))
        assert (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()
        lines = (tmp_path / "r1.jsonl").read_text().strip().splitlines()
        assert len(lines) == 16  # 15 records + summary
        assert "decode_ns" in json.loads(lines[0])

    def test_existing_bundle_with_errors(self, bundle, capsys):
        code, out = run(capsys, "simulate", "--bundle", str(bundle),
                        "--trials", "25", "--seed", "9")
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])["summary"]
        assert summary["e"] == 1 and summary["exact_rate"] == 1.0

    def test_uncertified_flag(self, bundle, capsys):
        code, out = run(capsys, "simulate", "--bundle", str(bundle),
                        "--trials", "5", "--seed", "2", "--e", "3")
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])["summary"]
        assert summary["uncertified"]

    def test_subthreshold_sampling(self, bundle, capsys):
        code, out = run(capsys, "simulate", "--bundle", str(bundle),
                        "--trials", "30", "--seed", "4",
                        "--min-defectives", "0", "--e", "0")
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])["summary"]
        assert summary["subthreshold_trials"] > 0
        assert summary["subthreshold_empty"] == summary["subthreshold_trials"]

    def test_min_defectives_above_d(self, bundle, capsys):
        code = main(["simulate", "--bundle", str(bundle), "--trials", "1",
                     "--min-defectives", "4"])
        assert code == 2
        assert "min defectives" in capsys.readouterr().err

    def test_zero_trials_usage_error(self, capsys):
        code, _ = run(capsys, "simulate", "--n", "16", "--d", "3", "--u", "2",
                      "--trials", "0")
        assert code == 2


class TestBench:
    def test_single_point(self, tmp_path, capsys):
        code, out = run(capsys, "bench", "--n", "16", "--d", "3", "--u", "2",
                        "--e", "0", "--p", "0.5", "--trials", "5",
                        "--out", str(tmp_path / "bench.csv"))
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()
                if line.startswith("{")]
        assert len(rows) == 1
        assert rows[0]["t"] == (rows[0]["k"] + 1) * rows[0]["h"]
        assert "note:" in out
        assert (tmp_path / "bench.csv").read_text().count("\n") == 2

    def test_grid_product(self, capsys):
        code, out = run(capsys, "bench", "--n", "16,24", "--d", "3", "--u", "2",
                        "--e", "0", "--p", "0.5", "--trials", "3")
        assert code == 0
        rows = [json.loads(line) for line in out.strip().splitlines()
                if line.startswith("{")]
        assert [r["n"] for r in rows] == [16, 24]

    def test_empty_grid_usage_error(self, capsys):
        code, _ = run(capsys, "bench", "--n", "", "--d", "3", "--u", "2")
        assert code == 2


class TestMalformedInput:
    @pytest.mark.parametrize("items", ["0,3", "3,99", "3,x"])
    def test_bad_defectives(self, bundle, tmp_path, capsys, items):
        code, _ = run(capsys, "encode", "--bundle", str(bundle),
                      "--defectives", items, "--out", str(tmp_path / "y.vec"))
        assert code == 2

    @pytest.mark.parametrize("name", ["G.mat", "M.mat"])
    def test_bundle_missing_matrix(self, bundle, tmp_path, capsys, name):
        copy = tmp_path / "b"
        shutil.copytree(bundle, copy)
        (copy / name).unlink()
        code, _ = run(capsys, "encode", "--bundle", str(copy),
                      "--defectives", "2,9", "--out", str(tmp_path / "y.vec"))
        assert code == 2

    def test_manifest_missing_key(self, bundle, tmp_path, capsys):
        copy = tmp_path / "b"
        shutil.copytree(bundle, copy)
        manifest = json.loads((copy / "scheme.json").read_text())
        del manifest["u"]
        (copy / "scheme.json").write_text(json.dumps(manifest))
        code, _ = run(capsys, "encode", "--bundle", str(copy),
                      "--defectives", "2,9", "--out", str(tmp_path / "y.vec"))
        assert code == 2

    @pytest.mark.parametrize("key, value", [(None, []), ("n", "16"), ("e", 1.0), ("p", "0.5")])
    def test_manifest_of_wrong_type(self, bundle, tmp_path, capsys, key, value):
        copy = tmp_path / "b"
        shutil.copytree(bundle, copy)
        manifest = json.loads((copy / "scheme.json").read_text())
        if key is None:
            manifest = value
        else:
            manifest[key] = value
        (copy / "scheme.json").write_text(json.dumps(manifest))
        code, _ = run(capsys, "encode", "--bundle", str(copy),
                      "--defectives", "2,9", "--out", str(tmp_path / "y.vec"))
        assert code == 2

    def test_unknown_manifest_format(self, bundle, tmp_path, capsys):
        copy = tmp_path / "b"
        shutil.copytree(bundle, copy)
        manifest = json.loads((copy / "scheme.json").read_text())
        manifest["format"] = "tgt-scheme-v0"
        (copy / "scheme.json").write_text(json.dumps(manifest))
        code = main(["encode", "--bundle", str(copy),
                     "--defectives", "2,9", "--out", str(tmp_path / "y.vec")])
        assert code == 2
        assert "unknown scheme format" in capsys.readouterr().err

    @pytest.mark.parametrize("version", ["v1", "v2"])
    def test_v1_bundle_names_its_rebuild(self, bundle, tmp_path, capsys, version):
        """A tgt-scheme-v1 bundle (with T.mat, without digests) or a v2 bundle
        (whose T had 2k+1 rows per block) exits 2 with the `tgt gen` call that
        rebuilds it, which writes the same G.mat and M.mat."""
        copy = tmp_path / version
        shutil.copytree(bundle, copy)
        rewrite_manifest(copy, lambda manifest: manifest.update(format=f"tgt-scheme-{version}"))
        if version == "v1":
            assert main(["export-t", "--bundle", str(bundle), "--out", str(copy / "T.mat")]) == 0
            rewrite_manifest(copy, lambda manifest: manifest.pop("sha256"))
        capsys.readouterr()
        assert main(["decode", "--bundle", str(copy), "--y", str(tmp_path / "y.vec")]) == 2
        command = re.search(r"`tgt (gen .*) --out <new directory>`", capsys.readouterr().err)
        assert command is not None
        assert main([*command[1].split(), "--out", str(tmp_path / "new")]) == 0
        for name in ("G.mat", "M.mat"):
            assert (tmp_path / "new" / name).read_bytes() == (copy / name).read_bytes()

    @pytest.mark.parametrize("command, case", [
        *((command, "m-false") for command in ("encode", "decode", "simulate", "export-t")),
        ("decode", "m-empty"), ("decode", "g-false"), ("decode", "g-string"),
    ])
    def test_unverified_certificate_refused(self, bundle, tmp_path, capsys, command, case):
        key, flag, value = {
            "m-false": ("m_certificate", "verified", False),
            "m-empty": ("m_certificate", "verified", None),
            "g-false": ("g_validation", "passed", False),
            "g-string": ("g_validation", "passed", "true"),
        }[case]
        y_path = tmp_path / "y.vec"
        run(capsys, "encode", "--bundle", str(bundle), "--defectives", "2,9", "--out", str(y_path))
        copy = tmp_path / "b"
        shutil.copytree(bundle, copy)
        rewrite_manifest(copy, lambda manifest: manifest.update(
            {key: {} if value is None else {**manifest[key], flag: value}}))
        argv = {
            "encode": ["--defectives", "2,9", "--out", str(tmp_path / "z.vec")],
            "decode": ["--y", str(y_path)],
            "simulate": ["--trials", "1"],
            "export-t": ["--out", str(tmp_path / "T.mat")],
        }[command]
        assert main([command, "--bundle", str(copy), *argv]) == 4
        err = capsys.readouterr().err
        assert err.startswith("verification failed:") and f"{key}.{flag} is not true" in err

    @pytest.mark.parametrize("n, d, forge", [
        (16, 3, "reversed"), (64, 2, "reversed"), (64, 2, "identity"),
    ], ids=["identity-reversed", "kautz-singleton-reversed", "kautz-singleton-as-identity"])
    def test_forged_disjunct_m_refused(self, tmp_path, capsys, n, d, forge):
        """M.mat swapped for another (d+1)-disjunct matrix (M's columns reversed,
        or the identity with an identity certificate where a Kautz-Singleton code
        has fewer rows), its SHA-256, k, t and certificate rewritten to match,
        passes every byte check and is refused with exit 4."""
        directory = tmp_path / "b"
        assert main(["gen", "--n", str(n), "--d", str(d), "--u", "2", "--e", "1",
                     "--p", "0.65", "--seed", "7", "--out", str(directory)]) == 0
        data = (directory / "M.mat").read_bytes()
        m, kind, header = load_matrix(data)
        swapped = BitMatrix.identity(n) if forge == "identity" else BitMatrix(m.to_array()[:, ::-1])
        assert swapped != m and verify_disjunct(swapped, d + 1).verified
        forged = serialize_matrix(swapped, kind, header)
        (directory / "M.mat").write_bytes(forged)

        def edit(manifest):
            manifest["sha256"]["M.mat"] = hashlib.sha256(forged).hexdigest()
            manifest["k"], manifest["t"] = swapped.rows, (swapped.rows + 1) * manifest["h"]
            if forge == "identity":
                manifest["m_certificate"] = {"d": d + 1, "method": "identity", "trials": 0,
                                             "verified": True}
        rewrite_manifest(directory, edit)
        capsys.readouterr()
        code = main(["encode", "--bundle", str(directory), "--defectives", "1,2",
                     "--out", str(tmp_path / "y.vec")])
        assert code == 4
        assert "M.mat is not the" in capsys.readouterr().err
        with pytest.raises(VerificationError, match="that construct_disjunct builds"):
            load_bundle(directory)

    def test_matrices_swapped(self, bundle, tmp_path, capsys):
        copy = tmp_path / "b"
        shutil.copytree(bundle, copy)
        (copy / "G.mat").write_bytes((bundle / "M.mat").read_bytes())
        (copy / "M.mat").write_bytes((bundle / "G.mat").read_bytes())
        code = main(["encode", "--bundle", str(copy),
                     "--defectives", "2,9", "--out", str(tmp_path / "y.vec")])
        assert code == 2
        assert "G.mat does not match" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["G.mat", "M.mat"])
    def test_matrix_with_appended_lines(self, bundle, tmp_path, capsys, name):
        y_path = tmp_path / "y.vec"
        run(capsys, "encode", "--bundle", str(bundle), "--defectives", "2,9", "--out", str(y_path))
        copy = tmp_path / "b"
        shutil.copytree(bundle, copy)
        with (copy / name).open("ab") as fh:
            fh.write(b"garbage\nmore")
        assert main(["decode", "--bundle", str(copy), "--y", str(y_path)]) == 2
        assert "content after its payload line" in capsys.readouterr().err

    @pytest.mark.parametrize("name, edit", [
        ("scheme.json", lambda data: json.dumps(json.loads(data), sort_keys=True).encode()),
        ("scheme.json", lambda data: json.dumps({**json.loads(data), "solver": "random"},
                                                sort_keys=True, indent=2).encode() + b"\n"),
        ("G.mat", lambda data: data + b"\n"),
        ("M.mat", lambda data: data + b"\n"),
    ], ids=["manifest-without-indent", "manifest-extra-key", "G-newline", "M-newline"])
    def test_bundle_files_differ_from_what_save_bundle_writes(
        self, bundle, tmp_path, capsys, name, edit
    ):
        y_path = tmp_path / "y.vec"
        run(capsys, "encode", "--bundle", str(bundle), "--defectives", "2,9", "--out", str(y_path))
        copy = tmp_path / "b"
        shutil.copytree(bundle, copy)
        (copy / name).write_bytes(edit((copy / name).read_bytes()))
        assert main(["decode", "--bundle", str(copy), "--y", str(y_path)]) == 2
        assert f"{name} does not match" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, message", [
        ("encode", "--x", "item vector has length 5"), ("decode", "--y", "outcome has 5 bits"),
    ])
    def test_vector_of_wrong_length(self, bundle, tmp_path, capsys, command, flag, message):
        path = tmp_path / "short.vec"
        path.write_bytes(serialize_vector(BitVector.zeros(5)))
        out = ["--out", str(tmp_path / "y.vec")] if command == "encode" else []
        assert main([command, "--bundle", str(bundle), flag, str(path), *out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_encode_missing_item_vector(self, bundle, tmp_path, capsys):
        code, _ = run(capsys, "encode", "--bundle", str(bundle),
                      "--x", str(tmp_path / "missing.vec"), "--out", str(tmp_path / "y.vec"))
        assert code == 2

    def test_decode_missing_outcome_vector(self, bundle, tmp_path, capsys):
        code, _ = run(capsys, "decode", "--bundle", str(bundle),
                      "--y", str(tmp_path / "missing.vec"))
        assert code == 2

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_sampled_verify_without_draws(self, bundle, tmp_path, capsys, trials):
        code, _ = run(capsys, "verify", str(bundle / "M.mat"), "--d", "15",
                      "--mode", "sampled", "--trials", trials,
                      "--out", str(tmp_path / "cert.json"))
        assert code == 2

    @pytest.mark.parametrize("sets", ["0", "-3"])
    def test_gen_without_validation_sets(self, tmp_path, capsys, sets):
        code, _ = run(capsys, "gen", "--n", "16", "--d", "3", "--u", "2", "--e", "1",
                      "--p", "0.65", "--seed", "7", "--validation-sets", sets,
                      "--out", str(tmp_path / "b"))
        assert code == 2

    def test_negative_error_budget(self, bundle, tmp_path, capsys):
        # decode and both simulate modes refuse a negative --e by name, before any work.
        y_path = tmp_path / "y.vec"
        run(capsys, "encode", "--bundle", str(bundle),
            "--defectives", "2,9", "--out", str(y_path))
        for inputs in (["decode", "--y", str(y_path)], ["simulate", "--trials", "2"],
                       ["simulate", "--trials", "2", "--adversarial"]):
            command, *rest = inputs
            assert main([command, "--bundle", str(bundle), *rest, "--e", "-1"]) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", "error: --e must be nonnegative, got -1\n")

    @pytest.mark.parametrize("key, value", [
        ("h", 999), ("k", 7), ("t", 5), ("e", 3), ("seed", 8), ("c", 2.5), ("c_g", None),
        ("n", 17),
    ])
    def test_manifest_disagrees_with_matrices(self, bundle, tmp_path, capsys, key, value):
        copy = tmp_path / "b"
        shutil.copytree(bundle, copy)
        rewrite_manifest(copy, lambda manifest: manifest.update({key: value}))
        code = main(["decode", "--bundle", str(copy), "--y", str(tmp_path / "y.vec")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("value", [b"[" * 100_000, b"1" * 5_000], ids=["deep", "long-int"])
    def test_json_past_the_parser_limits(self, bundle, tmp_path, capsys, value):
        """Nesting past the recursion limit and integers past the digit limit
        are malformed JSON in a manifest and in a matrix header's params."""
        copy = tmp_path / "b"
        shutil.copytree(bundle, copy)
        (copy / "scheme.json").write_bytes(value)
        head, payload = (bundle / "M.mat").read_bytes().split(b"\n", 1)
        m_path = tmp_path / "M.mat"
        m_path.write_bytes(head.split(b" params=")[0] + b" params=" + value + b"\n" + payload)
        assert main(["encode", "--bundle", str(copy), "--defectives", "2,9",
                     "--out", str(tmp_path / "y.vec")]) == 2
        assert "cannot read scheme manifest" in capsys.readouterr().err
        assert main(["verify", str(m_path), "--d", "2"]) == 2
        assert "params field is not valid JSON" in capsys.readouterr().err

    def test_manifest_too_deep_to_write_back(self, bundle, tmp_path, capsys):
        """A seed nested just short of what the JSON reader accepts can be too
        deep to write back into the G.mat header that load_bundle compares:
        from the reader's limit down, every depth exits 2 without a traceback
        until the header is written and found to differ."""
        copy = tmp_path / "b"
        shutil.copytree(bundle, copy)
        text = (bundle / "scheme.json").read_text()
        assert '"seed": 7,' in text
        errors = []
        for depth in range(1000, 0, -1):
            deep = "[" * depth + "]" * depth
            (copy / "scheme.json").write_text(text.replace('"seed": 7,', f'"seed": {deep},'))
            assert main(["encode", "--bundle", str(copy), "--defectives", "2,9",
                         "--out", str(tmp_path / "y.vec")]) == 2
            errors.append(capsys.readouterr().err)
            if "G.mat does not match" in errors[-1]:
                break
        assert all(err.startswith("error:") for err in errors)

    def test_m_header_disagrees_with_manifest(self, bundle, tmp_path, capsys):
        copy = tmp_path / "b"
        shutil.copytree(bundle, copy)
        data = (copy / "M.mat").read_bytes()
        assert b'"e":1' in data
        (copy / "M.mat").write_bytes(data.replace(b'"e":1', b'"e":3', 1))
        code = main(["encode", "--bundle", str(copy),
                     "--defectives", "2,9", "--out", str(tmp_path / "y.vec")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["bench", "--n", "16", "--d", "3", "--u", "2", "--p", "0.6", "--trials", "0"],
        ["bench", "--n", "1x", "--d", "3", "--u", "2"],
        ["bench", "--n", "16", "--d", "3", "--u", "2", "--e", "x"],
        *(["gen", "--n", "16", "--d", "3", "--u", "2", flag, value, "--out", "unused"]
          for flag, value in [("--c-g", "-1"), ("--c-g", "0"), ("--c-g", "inf"), ("--c-g", "nan"),
                              ("--max-attempts", "0"), ("--max-attempts", "-2")]),
    ])
    def test_bad_scalar_is_a_usage_error(self, tmp_path, capsys, argv):
        code = main([str(tmp_path / a) if a == "unused" else a for a in argv])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "unused").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--p", "0.9999999999"), ("--c-g", "1e300"), ("--c-g", "1e308"),
        ("--n", "99999999999999"),
    ])
    def test_oversized_draw_is_a_budget_error(self, tmp_path, capsys, flag, value):
        """A locator candidate whose row count is not finite, or whose float64
        draw or solver matrix exceeds physical memory, exits 5 before it is drawn."""
        argv = {"--n": "16", "--d": "3", "--u": "2", flag: value, "--out": str(tmp_path / "b")}
        tracemalloc.start()
        try:
            code = main(["gen", *(token for pair in argv.items() for token in pair)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith("budget exceeded:") and "Traceback" not in err
        assert peak < 1 << 24
        assert not (tmp_path / "b").exists()

    def test_retired_c_flag(self, tmp_path, capsys):
        """--c is no flag, and with abbreviations off it does not set --c-g."""
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--n", "16", "--d", "3", "--u", "2", "--c", "3",
                  "--out", str(tmp_path / "b")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --c 3" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_negative_threshold_budget(self, bundle, tmp_path, capsys):
        code = main(["verify", str(bundle / "G.mat"), "--check", "threshold", "--d", "3",
                     "--u", "2", "--e", "-1", "--out", str(tmp_path / "c.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "c.json").exists()

    @pytest.mark.parametrize("argv", [
        ["gen", "--n", "16", "--d", "3", "--u", "2", "--seed", "-1", "--out", "{dir}/b"],
        ["simulate", "--bundle", "{bundle}", "--trials", "1", "--seed", "-1"],
        ["verify", "{bundle}/M.mat", "--d", "2", "--mode", "sampled", "--seed", "-1"],
        ["bench", "--n", "16", "--d", "3", "--u", "2", "--seed", "x"],
    ], ids=["gen", "simulate", "verify", "bench-not-an-integer"])
    def test_negative_seed(self, bundle, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([a.format(bundle=bundle, dir=tmp_path) for a in argv])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["encode", "--bundle", "{bundle}", "--defectives", "2,9", "--out", "{missing}/y.vec"],
        ["decode", "--bundle", "{bundle}", "--y", "{y}", "--out", "{missing}/d.json"],
        ["verify", "{bundle}/M.mat", "--d", "2", "--out", "{missing}/c.json"],
        ["verify", "{bundle}/M.mat", "--d", "2", "--out", "{dir}"],
        ["simulate", "--bundle", "{bundle}", "--trials", "1", "--out", "{missing}/run"],
        ["bench", "--n", "16", "--d", "3", "--u", "2", "--p", "0.5", "--trials", "1",
         "--out", "{missing}/b.csv"],
        ["gen", "--n", "16", "--d", "3", "--u", "2", "--e", "1", "--p", "0.65", "--seed", "7",
         "--out", "{y}/sub"],
        ["export-t", "--bundle", "{bundle}", "--out", "{missing}/T.mat"],
        ["export-t", "--bundle", "{bundle}", "--out", "{dir}"],
    ], ids=["encode", "decode", "verify", "verify-dir", "simulate", "bench", "gen", "export-t",
            "export-t-dir"])
    def test_unwritable_output(self, bundle, tmp_path, capsys, argv):
        y_path = tmp_path / "y.vec"
        run(capsys, "encode", "--bundle", str(bundle), "--defectives", "2,9", "--out", str(y_path))
        paths = {"bundle": bundle, "y": y_path, "dir": tmp_path, "missing": tmp_path / "missing"}
        code = main([a.format(**paths) for a in argv])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["gen", "--n", "16", "--d", "3", "--u", "2", "--out", "{file}/sub"],
        ["simulate", "--n", "16", "--d", "3", "--u", "2", "--trials", "1",
         "--out", "{file}/run"],
        ["bench", "--n", "16", "--d", "3", "--u", "2", "--trials", "1",
         "--out", "{file}/b.csv"],
    ], ids=["gen", "simulate", "bench"])
    def test_output_under_a_file_fails_first(self, tmp_path, capsys, monkeypatch, argv):
        def construct(*args, **kwargs):
            raise AssertionError("constructed a scheme before checking --out")

        monkeypatch.setattr("tgt.cli.generate_scheme", construct)
        afile = tmp_path / "afile"
        afile.write_text("")
        code = main([a.format(file=afile) for a in argv])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_bad_budget_variable(self, bundle, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TGT_BUDGET", "abc")
        code = main(["verify", str(bundle / "M.mat"), "--d", "2", "--out", str(tmp_path / "c.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_negative_budget_variable(self, bundle, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TGT_BUDGET", "-3")
        code = main(["verify", str(bundle / "M.mat"), "--d", "2", "--out", str(tmp_path / "c.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "c.json").exists()


def _flag(valid, invalid):
    """Values of one flag: a valid one nine times in ten, else an invalid one."""
    return st.integers(0, 9).flatmap(
        lambda i: st.sampled_from([str(v) for v in (invalid if i == 0 else valid)])
    )


_SCALES = ["0", "-1", "nan", "inf", "x"]
_REQUIRED = {
    "--n": _flag(range(6, 17), [-1, 0, 1, "x"]),
    "--d": _flag(range(2, 6), [-1, 0, 1, 17]),
    "--u": _flag([2, 3], [-1, 0, 1, 6]),
}
_OPTIONAL = {
    "--e": _flag([0, 1], [-1]),
    "--p": _flag([0, 0.5, 0.65], [-0.1, 1, "nan", "x"]),
    "--seed": _flag([0, 1, 7], ["x", -1]),
    "--c-g": _flag([2, 3], _SCALES),
    "--validation-sets": _flag([1, 20, 50], [0, -1]),
}
_COMMANDS = {
    "gen": ({}, {"--max-attempts": _flag([1, 3], [0, -1])}),
    "simulate": ({"--trials": _flag([1, 2, 3], [0, -1])},
                 {"--max-attempts": _flag([1, 3], [0, -1])}),
    "bench": ({"--trials": _flag([1, 2, 3], [0, -1]),
               "--n": _flag(range(6, 17), [-1, "x", "", "1x", "8,16"])},
              {"--e": _flag([0, 1, "0,1"], [-1, "x"])}),
}


# export-t takes only a bundle and an output file, each valid or not.
_EXPORT_T = {
    "--bundle": _flag(["{bundle}"], ["{tmp}", "{tmp}/missing"]),
    "--out": _flag(["{tmp}/T.mat"], ["{tmp}", "{tmp}/missing/T.mat"]),
}


@st.composite
def _argvs(draw):
    """gen, simulate or bench argv with n <= 16 and at most 3 trials, or an
    export-t argv with {bundle} and {tmp} still to fill in."""
    command = draw(st.sampled_from([*sorted(_COMMANDS), "export-t"]))
    if command == "export-t":
        flags = draw(st.fixed_dictionaries(_EXPORT_T))
    else:
        required, optional = _COMMANDS[command]
        flags = draw(st.fixed_dictionaries(
            {**_REQUIRED, **required}, optional={**_OPTIONAL, **optional}
        ))
    return [command, *(token for pair in flags.items() for token in pair)]


class TestArgvFuzz:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_argvs())
    def test_main_only_exits_with_documented_codes(self, bundle, argv):
        with tempfile.TemporaryDirectory() as tmp:
            argv = [a.format(bundle=bundle, tmp=tmp) for a in argv]
            if argv[0] == "gen":
                argv = [*argv, "--out", str(Path(tmp) / "b")]
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in {0, 2, 3, 4, 5}, argv


@pytest.fixture(scope="module")
def fuzz_inputs(bundle, tmp_path_factory):
    """A copy of the bundle beside an item vector and its outcome vector."""
    path = tmp_path_factory.mktemp("fuzz")
    shutil.copytree(bundle, path / "b")
    (path / "x.vec").write_bytes(serialize_vector(DefectiveSet([1, 8]).to_vector(16)))
    assert main(["encode", "--bundle", str(bundle), "--x", str(path / "x.vec"),
                 "--out", str(path / "y.vec")]) == 0
    return path


_READERS = {  # file -> the subcommands that read it
    "b/G.mat": ["verify", "encode", "decode", "export-t"],
    "b/M.mat": ["verify", "encode", "decode", "export-t"],
    "b/scheme.json": ["encode", "decode", "export-t"],
    "x.vec": ["encode"],
    "y.vec": ["decode"],
}
_SPLICES = st.one_of(
    st.binary(max_size=4),
    st.sampled_from([b"0", b"9", b"-1", b"1e308", b"NaN", b"_", b" ", b"\n", b"[", b"}", b'"']),
)


@st.composite
def _file_mutations(draw):
    """(file, subcommand, edit): the edit replaces `cut` bytes at `at` with
    `splice`; a cut of None truncates there."""
    name = draw(st.sampled_from(sorted(_READERS)))
    command = draw(st.sampled_from(_READERS[name]))
    at = draw(st.integers(0, 1 << 20))
    cut = draw(st.one_of(st.integers(0, 8), st.none()))
    return name, command, (at, cut, draw(_SPLICES))


class TestFileFuzz:
    @settings(max_examples=80, deadline=None)
    @given(_file_mutations())
    def test_mutated_inputs_exit_with_documented_codes(self, fuzz_inputs, case):
        name, command, (at, cut, splice) = case
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "in"
            shutil.copytree(fuzz_inputs, root)
            data = (root / name).read_bytes()
            at %= len(data) + 1
            end = len(data) if cut is None else at + cut
            (root / name).write_bytes(data[:at] + splice + data[end:])
            argv = {
                "verify": ["verify", str(root / name), "--d", "3", "--out", f"{tmp}/c.json"],
                "encode": ["encode", "--bundle", str(root / "b"), "--x", str(root / "x.vec"),
                           "--out", f"{tmp}/y.vec"],
                "decode": ["decode", "--bundle", str(root / "b"), "--y", str(root / "y.vec")],
                "export-t": ["export-t", "--bundle", str(root / "b"), "--out", f"{tmp}/T.mat"],
            }[command]
            start = time.perf_counter()
            code = main(argv)
            assert time.perf_counter() - start < 5, case
        assert code in {0, 2, 3, 4, 5}, case
