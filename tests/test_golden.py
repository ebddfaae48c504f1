"""Same-seed CLI outputs pinned by SHA-256, and T.mat integrity on load.

Bundles, simulation CSVs, outcome vectors and decode reports are pure
functions of their arguments, so their digests only move when the file
format or the results change.  n=13 exercises rows whose bit count is
not a multiple of 8.
"""

import base64
import hashlib
import shutil

import pytest

from tgt import load_bundle
from tgt.cli import main
from tgt.errors import ParseError

GEN = ["gen", "--d", "3", "--u", "2", "--e", "1", "--p", "0.65", "--seed", "7"]

BUNDLE_DIGESTS = {
    16: {
        "G.mat": "797f0a294d114553f8d0fe0dc6eeb984330efde28d49b74523e4561382935ec1",
        "M.mat": "7bc2aae94d1c1ef0cfbbb9dd7f8fd725327ef4dbf646d1752e4f6c7e9e2cc308",
        "T.mat": "2699eadd17d26717d3161134a3de28856805ec9e5fa77c77238629f717c2aa1b",
        "scheme.json": "8b8c055c96f3ae37377f67a20f4f1eaf73c8f05d2dc1971ab7ae48bb20819ad5",
    },
    13: {
        "G.mat": "052b2c65dfb0a6892a528cf19b43227fd1aba726b2c3407a6c6d7c56f7746156",
        "M.mat": "771104ffd8fdb7a9b7fb075f91addd2fd5b126e08ce79b059dbd26c11a796425",
        "T.mat": "c35d07b77bab9661719955d21713c926b240f1c5ae4bc3659b44c688101150a7",
        "scheme.json": "02e8d84bd4a7a25f1a7aae0f29d16fa7babd5573ff97140d3fdaf5e4fbdf6107",
    },
}
SIMULATE_CSV = "92f48aa6b608a90c4d2dba910690e2e8edbb96f8209bba9b9c2cfdb46ae6708a"
ENCODE_VEC = "3278fd322c7f604c550ff66a2d911f8de61d26510417d1334383de45112b1492"
DECODE_JSON = "560ab91419e037b7372f40ff4d2dd91936e7bec7c24196cb32efc7501290e7ac"


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


def test_simulate_csv_digest(bundles, tmp_path):
    args = ["simulate", "--bundle", str(bundles / "b16"), "--trials", "30", "--seed", "13"]
    assert main(args + ["--out", str(tmp_path / "sim")]) == 0
    assert sha256(tmp_path / "sim.csv") == SIMULATE_CSV


def test_encode_and_decode_digests(bundles, tmp_path):
    bundle = str(bundles / "b13")
    y, report = tmp_path / "y.vec", tmp_path / "report.json"
    assert main(["encode", "--bundle", bundle, "--defectives", "2,9,11", "--out", str(y)]) == 0
    assert main(["decode", "--bundle", bundle, "--y", str(y), "--out", str(report)]) == 0
    assert sha256(y) == ENCODE_VEC
    assert sha256(report) == DECODE_JSON


def _tamper_payload(data: bytes, edit) -> bytes:
    header, body, _ = data.split(b"\n")
    payload = bytearray(base64.b64decode(body))
    edit(payload)
    return header + b"\n" + base64.b64encode(bytes(payload)) + b"\n"


def _flip_first_bit(payload: bytearray) -> None:
    payload[0] ^= 1


def _set_padding_bit(payload: bytearray) -> None:
    payload[-1] |= 0x80  # 47601 x 13 bits leave 3 padding bits in the last word


def _wrong_rows(data: bytes) -> bytes:
    return data.replace(b"rows=47601", b"rows=47600", 1)


@pytest.mark.parametrize("tamper", [
    lambda data: _tamper_payload(data, _flip_first_bit),
    lambda data: _tamper_payload(data, _set_padding_bit),
    _wrong_rows,
], ids=["payload-bit", "padding-bit", "rows"])
def test_tampered_final_matrix_rejected(bundles, tmp_path, tamper):
    directory = tmp_path / "b13"
    shutil.copytree(bundles / "b13", directory)
    load_bundle(directory)
    original = (directory / "T.mat").read_bytes()
    tampered = tamper(original)
    assert tampered != original
    (directory / "T.mat").write_bytes(tampered)
    with pytest.raises(ParseError):
        load_bundle(directory)
