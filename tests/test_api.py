"""The public surface: what `tgt` exports and what the benchmark reads."""

import hashlib
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

import tgt
from tgt import BitMatrix, DefectiveSet, Scheme, SchemeParams, decode_blocks, encode
from tgt.oracle import ConsistencySet

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
WORKLOADS = SPANS.with_name("workloads.py")


def test_every_exported_name_resolves():
    assert [name for name in tgt.__all__ if not hasattr(tgt, name)] == []


def test_benchmark_wrapped_functions_exist():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans  # dataclasses look their module up by name
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{name}"
        for module, names in spans.WRAPPED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"tgt.{module}"), name, None))
    ]
    assert missing == []


def test_benchmark_read_attributes_exist():
    # perfbench/workloads.py tallies trace reasons and accepted blocks, and
    # checks decodes against a ConsistencySet with `in` and is_singleton().
    scheme = Scheme(SchemeParams(n=4, d=3, u=2), BitMatrix.ones(1, 4), BitMatrix.identity(4))
    truth = DefectiveSet([0, 2])
    (trace,) = decode_blocks(scheme, encode(scheme, truth.to_vector(4))).traces
    assert (trace.reason, trace.accepted) == ("accepted", True)
    found = ConsistencySet((truth,))
    assert truth in found and found.is_singleton()


def test_generate_scheme_seed_layout():
    # M and G draw from the first two children of SeedSequence(seed).spawn(3).
    params = SchemeParams(n=16, d=3, u=2, e=1, p=0.65)
    scheme, cert, _ = tgt.generate_scheme(params, 7)
    seed_m, seed_g, _ = np.random.SeedSequence(7).spawn(3)
    m, cert_m = tgt.construct_disjunct(params.n, params.d, np.random.default_rng(seed_m))
    assert scheme.m == m and cert == cert_m
    assert scheme.g == tgt.construct_good(params, np.random.default_rng(seed_g))


# The benchmark's seven construction points, (n, d, u, e, p, seed): the grid-small
# five at seed 20250811, then large-n and bundle-cli at seed 20250810.
BENCHMARK_POINTS = (
    (16, 3, 2, 1, 0.72, 20250811), (32, 4, 2, 1, 0.71, 20250811),
    (32, 4, 3, 1, 0.53, 20250811), (64, 5, 2, 1, 0.61, 20250811),
    (64, 5, 4, 1, 0.31, 20250811), (1024, 4, 2, 1, 0.6, 20250810),
    (256, 4, 2, 1, 0.6, 20250810),
)
BENCHMARK_SCHEMES_SHA256 = "937ddd127fa30d4bc3b9ab047fb82d55a476289777112b1054a6a4b07eb362c0"
# G's payloads and held-out validations alone, recorded with G drawn at one density
# u/d and each construction attempt checked from a stream of its own.
BENCHMARK_LOCATORS_SHA256 = "64ca60b1cc25e28041d054d52f9f1b2fc9fbb999e51152cecf3d9510ada11e75"


def test_benchmark_schemes_are_pinned():
    # G's and M's payloads, M's certificate and G's held-out validation, all
    # seven points in one digest: any change to a draw or a certifier shows here.
    digest = hashlib.sha256()
    for n, d, u, e, p, seed in BENCHMARK_POINTS:
        scheme, cert, validation = tgt.generate_scheme(SchemeParams(n=n, d=d, u=u, e=e, p=p), seed)
        digest.update(scheme.g.packed() + scheme.m.packed())
        digest.update(json.dumps([cert.to_json(), validation], sort_keys=True).encode())
    assert digest.hexdigest() == BENCHMARK_SCHEMES_SHA256


def test_benchmark_locators_are_pinned():
    digest = hashlib.sha256()
    for n, d, u, e, p, seed in BENCHMARK_POINTS:
        scheme, _, validation = tgt.generate_scheme(SchemeParams(n=n, d=d, u=u, e=e, p=p), seed)
        digest.update(scheme.g.packed())
        digest.update(json.dumps(validation, sort_keys=True).encode())
    assert digest.hexdigest() == BENCHMARK_LOCATORS_SHA256


def _load(monkeypatch, name, path):
    """Run a benchmark file as module `name`, in sys.modules while the test runs
    (workloads.py runs `import spans`; dataclasses look their module up)."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_builds_the_library_schemes(monkeypatch):
    # perfbench/workloads.py keeps its own copy of the construction recipe;
    # every benchmark scheme must equal generate_scheme's at the defaults.
    _load(monkeypatch, "spans", SPANS)
    workloads = _load(monkeypatch, "perfbench_workloads", WORKLOADS)
    points = [point for workload in workloads.WORKLOADS.values() for point in workload.points]
    assert points
    for point in points:
        built = workloads.build(point)
        params = SchemeParams(n=point.n, d=point.d, u=point.u, e=point.e, p=point.p)
        scheme, cert, validation = tgt.generate_scheme(params, point.seed)
        assert built.scheme.g == scheme.g and built.scheme.m == scheme.m
        assert built.cert == cert.to_json() and built.validation == validation
