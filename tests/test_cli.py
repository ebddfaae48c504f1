import json
import shutil
from pathlib import Path

import pytest

from tgt import BitMatrix, serialize_matrix
from tgt.cli import main


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def bundle_files(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


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
        assert manifest["t"] == (2 * manifest["k"] + 1) * manifest["h"]
        for name in ("G.mat", "M.mat", "T.mat"):
            assert (bundle / name).exists()
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
        code, out = run(capsys, "verify", str(bundle / "M.mat"),
                        "--d", str(manifest["d"] + 1), "--mode",
                        manifest["m_certificate"]["method"])
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

    def test_encode_needs_an_input(self, bundle, tmp_path, capsys):
        code, _ = run(capsys, "encode", "--bundle", str(bundle),
                      "--out", str(tmp_path / "y.vec"))
        assert code == 2


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
        assert rows[0]["t"] == (2 * rows[0]["k"] + 1) * rows[0]["h"]
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

    @pytest.mark.parametrize("name", ["G.mat", "M.mat", "T.mat"])
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

    def test_negative_error_budget(self, bundle, tmp_path, capsys):
        y_path = tmp_path / "y.vec"
        run(capsys, "encode", "--bundle", str(bundle),
            "--defectives", "2,9", "--out", str(y_path))
        code, _ = run(capsys, "decode", "--bundle", str(bundle),
                      "--y", str(y_path), "--e", "-1")
        assert code == 2
