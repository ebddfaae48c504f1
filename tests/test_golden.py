"""Same-seed CLI outputs pinned by SHA-256, and bundle integrity on load.

Bundles, simulation CSVs, outcome vectors and decode reports are pure
functions of their arguments, so their digests only move when the file
format or the results change.  n=13 exercises rows whose bit count is
not a multiple of 8.
"""

import base64
import hashlib
import json
import re
import shutil
from itertools import combinations

import numpy as np
import pytest

from tgt import BitMatrix, load_bundle, serialize_matrix
from tgt.cli import main
from tgt.errors import ParseError

GEN = ["gen", "--d", "3", "--u", "2", "--e", "1", "--p", "0.65", "--seed", "7"]

BUNDLE_DIGESTS = {
    16: {
        "G.mat": "80e1a0e1d29b2455aba3c22a1caada8023e5079ac6a71d78c6ce353226d084b4",
        "M.mat": "1964436b27526eef5022b161146cf84091dd420e3bbba40bfb1f222f20622acc",
        "scheme.json": "f4c3bc1bcf63496affc346d2916912e33ca197a647cb04131b8a935ca107d5fa",
    },
    13: {
        "G.mat": "1814037f70975622b0bc6f7f4fdc2d5e85aa75bef7e41686b7158f3d7488ab2f",
        "M.mat": "96108b5e3927f538509583d6bcd015d52ac2aaaf4065288971b06852d1571a4a",
        "scheme.json": "363176b4d741e0a2872c5531ec760d3b8585f7d3811dd511aedfa874e6a7deca",
    },
}
# `tgt export-t` of the bundles above: T with (k+1)h rows.
T_DIGESTS = {
    16: "c673b723e2b61b96cb270444374b204a17833509fd37f4354ceb53c56843f0a9",
    13: "e387c17b1be093ac7ccc1580e1cd15821700213fe13122bf5c6dd7964e1e1c25",
}
SIMULATE_CSV = "0a16a8655af22efece5eb6095a50e681ff4f19ec85d937ee65b08adf7d5d652a"
ADVERSARIAL_CSV = "9df495800f1576a9408083f920ebf5e8afe6b42582e65c74dd78c8590aa5b9df"
ENCODE_VEC = "9dc4498cb44100a430391044ded0dd33cc772ebc3c14244c21cb2c67d156e26c"
DECODE_JSON = "a0f8f07873ac54b7214fc0ec586e5a957ee0d1d03ca0a36088b0d5f7f2a8cc2f"

# `tgt simulate` summaries (minus the timing) with sub-threshold trials, which
# the golden CSVs above do not reach.
SIMULATE_SUMMARY = {
    "block_false_accepts": 0, "e": 1, "evaluated": 20, "exact_rate": 1.0,
    "subthreshold_empty": 10, "subthreshold_trials": 10, "trials": 30, "uncertified": False,
}

# `tgt verify` payloads (minus "path") for the n=16 bundle's files, with exit
# codes.  Its M is the 16 x 16 identity, disjunct to every order below 16, so
# the failing walks run on G.mat, which is 2-disjunct and not 3-disjunct.
VERIFY_PAYLOADS = {
    "d7-exhaustive": ("M.mat", ["--d", "7"], 0, {
        "check": "disjunct", "d": 7, "kind": "disjunct", "method": "exhaustive",
        "trials": 102960, "verified": True,
    }),
    "d8-exhaustive": ("M.mat", ["--d", "8"], 0, {
        "check": "disjunct", "d": 8, "kind": "disjunct", "method": "exhaustive",
        "trials": 102960, "verified": True,
    }),
    "d8-sampled": ("M.mat", ["--d", "8", "--mode", "sampled", "--trials", "20000", "--seed", "3"],
                   0, {
        "check": "disjunct", "d": 8, "kind": "disjunct", "method": "sampled",
        "trials": 20000, "verified": True,
    }),
    "d6-sampled": ("M.mat", ["--d", "6", "--mode", "sampled", "--trials", "20000", "--seed", "3"],
                   0, {
        "check": "disjunct", "d": 6, "kind": "disjunct", "method": "sampled",
        "trials": 20000, "verified": True,
    }),
    "g-d2-exhaustive": ("G.mat", ["--d", "2"], 0, {
        "check": "disjunct", "d": 2, "kind": "good", "method": "exhaustive",
        "trials": 1680, "verified": True,
    }),
    "g-d2-sampled": ("G.mat", ["--d", "2", "--mode", "sampled", "--trials", "20000", "--seed", "3"],
                     0, {
        "check": "disjunct", "d": 2, "kind": "good", "method": "sampled",
        "trials": 20000, "verified": True,
    }),
    "g-d3-exhaustive": ("G.mat", ["--d", "3"], 4, {
        "check": "disjunct", "d": 3, "kind": "good", "method": "exhaustive",
        "trials": 39, "verified": False, "witness": {"column": 6, "s1": [1, 2, 5]},
    }),
    "g-d3-sampled": ("G.mat", ["--d", "3", "--mode", "sampled", "--trials", "20000", "--seed", "3"],
                     4, {
        "check": "disjunct", "d": 3, "kind": "good", "method": "sampled",
        "trials": 58, "verified": False, "witness": {"column": 8, "s1": [1, 3, 9]},
    }),
}

# `tgt verify --check threshold` payloads (minus "path") for the n=16 bundle's
# G.mat, with exit codes; both fail on the same (S, Z, j) triple.
THRESHOLD_PAYLOADS = {
    "d3-u2-e1": (["--d", "3", "--u", "2", "--e", "1"], 4, {
        "check": "threshold", "d": 3, "u": 2, "e": 1, "kind": "good", "min_count": 0,
        "triples_checked": 660480, "verified": False,
        "witness": {"critical": [1, 2], "zero": [6, 7], "column": 1},
    }),
    "d2-u2-e0": (["--d", "2", "--u", "2", "--e", "0"], 4, {
        "check": "threshold", "d": 2, "u": 2, "e": 0, "kind": "good", "min_count": 0,
        "triples_checked": 25440, "verified": False,
        "witness": {"critical": [1, 2], "zero": [6, 7], "column": 1},
    }),
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    for n in BUNDLE_DIGESTS:
        assert main(GEN + ["--n", str(n), "--out", str(root / f"b{n}")]) == 0
    return root


@pytest.mark.parametrize("n", sorted(BUNDLE_DIGESTS))
def test_gen_bundle_digests(bundles, n):
    directory = bundles / f"b{n}"
    assert {p.name: sha256(p) for p in directory.iterdir()} == BUNDLE_DIGESTS[n]


@pytest.mark.parametrize("n", sorted(T_DIGESTS))
def test_export_t_digests(bundles, tmp_path, n):
    out = tmp_path / "T.mat"
    assert main(["export-t", "--bundle", str(bundles / f"b{n}"), "--out", str(out)]) == 0
    assert sha256(out) == T_DIGESTS[n]


def test_simulate_csv_digest(bundles, tmp_path):
    args = ["simulate", "--bundle", str(bundles / "b16"), "--trials", "30", "--seed", "13"]
    assert main(args + ["--out", str(tmp_path / "sim")]) == 0
    assert sha256(tmp_path / "sim.csv") == SIMULATE_CSV


def test_adversarial_simulate_csv_digest(bundles, tmp_path):
    """The flips column pins the positions adversarial_flip_positions picks."""
    args = ["simulate", "--bundle", str(bundles / "b16"), "--trials", "30", "--seed", "13"]
    assert main(args + ["--adversarial", "--out", str(tmp_path / "adv")]) == 0
    assert sha256(tmp_path / "adv.csv") == ADVERSARIAL_CSV


@pytest.mark.parametrize("flags", [[], ["--adversarial"]], ids=["uniform", "adversarial"])
def test_simulate_summary(bundles, capsys, flags):
    args = ["simulate", "--bundle", str(bundles / "b16"), "--trials", "30", "--seed", "13",
            "--min-defectives", "0", *flags]
    capsys.readouterr()
    assert main(args) == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    del summary["mean_decode_ns"]
    assert summary == SIMULATE_SUMMARY


def test_encode_and_decode_digests(bundles, tmp_path):
    bundle = str(bundles / "b13")
    y, report = tmp_path / "y.vec", tmp_path / "report.json"
    assert main(["encode", "--bundle", bundle, "--defectives", "2,9,11", "--out", str(y)]) == 0
    assert main(["decode", "--bundle", bundle, "--y", str(y), "--out", str(report)]) == 0
    assert sha256(y) == ENCODE_VEC
    assert sha256(report) == DECODE_JSON


@pytest.mark.parametrize("case", sorted(VERIFY_PAYLOADS))
def test_verify_payloads(bundles, tmp_path, capsys, case):
    name, flags, code, expected = VERIFY_PAYLOADS[case]
    capsys.readouterr()
    args = ["verify", str(bundles / "b16" / name), *flags, "--out", str(tmp_path / "c.json")]
    assert main(args) == code
    payload = json.loads(capsys.readouterr().out)
    del payload["path"]
    assert payload == expected


@pytest.mark.parametrize("case", sorted(THRESHOLD_PAYLOADS))
def test_threshold_payloads(bundles, tmp_path, capsys, case):
    flags, code, expected = THRESHOLD_PAYLOADS[case]
    capsys.readouterr()
    args = ["verify", str(bundles / "b16" / "G.mat"), "--check", "threshold", *flags,
            "--out", str(tmp_path / "c.json")]
    assert main(args) == code
    payload = json.loads(capsys.readouterr().out)
    del payload["path"]
    assert payload == expected


def test_threshold_payload_passing(tmp_path, capsys):
    """Demo 03's complete weight-2 matrix on 6 items passes at (2, 2; 0)."""
    rows = np.zeros((15, 6), dtype=np.uint8)
    for row, pair in enumerate(combinations(range(6), 2)):
        rows[row, list(pair)] = 1
    path = tmp_path / "w2.mat"
    path.write_bytes(serialize_matrix(BitMatrix(rows), "good"))
    capsys.readouterr()
    args = ["verify", str(path), "--check", "threshold", "--d", "2", "--u", "2", "--e", "0",
            "--out", str(tmp_path / "c.json")]
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    del payload["path"]
    assert payload == {
        "check": "threshold", "d": 2, "u": 2, "e": 0, "kind": "good", "min_count": 1,
        "triples_checked": 330, "verified": True,
    }


def _tamper_payload(data: bytes, edit) -> bytes:
    header, body, _ = data.split(b"\n")
    payload = bytearray(base64.b64decode(body))
    edit(payload)
    return header + b"\n" + base64.b64encode(bytes(payload)) + b"\n"


def _flip_first_bit(payload: bytearray) -> None:
    payload[0] ^= 1


def _set_padding_bit(payload: bytearray) -> None:
    payload[-1] |= 0x80  # 123 x 13 and 13 x 13 bits leave padding in the last word


def _wrong_rows(data: bytes) -> bytes:
    return re.sub(rb"rows=(\d+)", lambda m: b"rows=%d" % (int(m[1]) - 1), data, count=1)


@pytest.mark.parametrize("name", ["G.mat", "M.mat"])
@pytest.mark.parametrize("tamper", [
    lambda data: _tamper_payload(data, _flip_first_bit),
    lambda data: _tamper_payload(data, _set_padding_bit),
    _wrong_rows,
], ids=["payload-bit", "padding-bit", "rows"])
def test_tampered_matrix_rejected(bundles, tmp_path, capsys, name, tamper):
    """Each tamper exits 2.  A flipped payload bit still parses; the SHA-256
    in scheme.json is what rejects it."""
    directory = tmp_path / "b13"
    shutil.copytree(bundles / "b13", directory)
    y = tmp_path / "y.vec"
    assert main(["encode", "--bundle", str(directory), "--defectives", "2,9", "--out", str(y)]) == 0
    original = (directory / name).read_bytes()
    tampered = tamper(original)
    assert tampered != original
    (directory / name).write_bytes(tampered)
    capsys.readouterr()
    assert main(["decode", "--bundle", str(directory), "--y", str(y)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    with pytest.raises(ParseError):
        load_bundle(directory)
