"""The public surface: what `tgt` exports and what the benchmark reads."""

import importlib
import importlib.util
import sys
from pathlib import Path

import tgt
from tgt import BitMatrix, DefectiveSet, Scheme, SchemeParams, decode_blocks, encode
from tgt.oracle import ConsistencySet

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
