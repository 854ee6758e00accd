"""Self-time arithmetic of the span recorder.

    python3 -m pytest perfbench/test_spans.py
"""

import json
import math
import threading
from pathlib import Path

import pytest

from spans import Span, Tracer, covered, run_metrics, self_times

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAMES = [m["name"] for m in SPEC["per_layer"]]


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == 3.0
    # overlapping children count once; parts outside [start, end] not at all
    assert covered(0.0, 10.0, [(2.0, 5.0), (1.0, 3.0), (4.0, 6.0)]) == 5.0
    assert covered(0.0, 10.0, [(-2.0, 1.0), (9.0, 12.0)]) == 2.0
    assert covered(0.0, 10.0, [(2.0, 8.0), (3.0, 4.0)]) == 6.0


def _span(id, parent, start, end, name="x.f", phase="pass:0", attrs=None):
    return Span(id=id, parent=parent, name=name, thread=0, phase=phase, start=start, end=end,
                attrs=attrs or {})


def test_self_time_subtracts_only_direct_children():
    tree = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 1, 2.0, 3.0),  # grandchild: inside 1, not subtracted from 0 twice
        _span(3, 0, 6.0, 7.5),
    ]
    own = self_times(tree)
    assert own == {0: 10.0 - 3.0 - 1.5, 1: 3.0 - 1.0, 2: 1.0, 3: 1.5}
    # self times of a tree add up to the root's duration
    assert math.isclose(sum(own.values()), 10.0)


def test_tracer_records_parents_per_thread():
    tracer = Tracer()
    inner = tracer.wrap("x.inner", lambda: None)

    def outer_fn():
        inner()
        worker = threading.Thread(target=inner)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    tracer.wrap("x.outer", outer_fn)()
    outer = next(s for s in tracer.spans if s.name == "x.outer")
    inners = [s for s in tracer.spans if s.name == "x.inner"]
    assert [s.parent for s in inners] == [outer.id, None]
    assert all(outer.start <= s.start <= s.end <= outer.end for s in inners)


def test_run_metrics_adds_setup_and_pass_medians_and_forms_rates():
    def read(id, phase, start, seconds, nbytes):
        return _span(id, None, start, start + seconds, "pointset.read_pointset", phase, {"bytes": nbytes})

    group = [
        read(0, "setup:0", 0.0, 1.0, 1e6),
        read(1, "setup:1", 0.0, 3.0, 1e6),
        read(2, "setup:2", 0.0, 2.0, 1e6),
        read(3, "pass:0", 0.0, 4.0, 3e6),
        read(4, "pass:1", 0.0, 6.0, 3e6),
        read(5, "pass:1", 7.0, 2.0, 3e6),  # a pass with two reads
        read(6, "check", 0.0, 100.0, 1e9),  # outside set-up and passes: ignored
    ]
    m = run_metrics(group, NAMES)
    assert set(m) == set(NAMES)
    # setup median 2 s + pass median (4 s, 8 s) -> 6 s; bytes 1e6 + median(3e6, 6e6)
    assert m["pointset.read_s"] == pytest.approx(2.0 + 6.0)
    assert m["pointset.bytes_read"] == pytest.approx(1e6 + 4.5e6)
    assert m["pointset.read_mb_per_s"] == pytest.approx(5.5 / 8.0)
    assert m["certify.pairs_per_s"] == 0.0


def test_optimize_self_time_excludes_pca_and_gives_ms_per_iteration():
    group = [
        _span(0, None, 0.0, 5.0, "embeddings.optimize_map", attrs={"iterations": 1000}),
        _span(1, 0, 0.0, 1.0, "embeddings.pca_map"),
    ]
    m = run_metrics(group, NAMES)
    assert m["embeddings.optimize_map_s"] == pytest.approx(4.0)
    assert m["embeddings.pca_map_s"] == pytest.approx(1.0)
    assert m["embeddings.optimize_ms_per_iter"] == pytest.approx(4.0)


def test_every_listed_metric_is_filled_and_no_other():
    calls = [
        ("seeds.generator", {}),
        ("pointset.hard_instance", {}),
        ("pointset.write_pointset", {"bytes": 10}),
        ("pointset.read_pointset", {"bytes": 10}),
        ("embeddings.pca_map", {}),
        ("embeddings.optimize_map", {"iterations": 3}),
        ("embeddings.write_map", {}),
        ("certify.distortion", {"mode": "norm", "pairs": 1}),
        ("certify.distortion", {"mode": "pairwise", "pairs": 6}),
        ("certify.spectral_certificate", {}),
        ("certify.audit_embedding", {}),
        ("concentration.norm_deviation_sample", {"normals": 100}),
        ("concentration.map_samples", {"normals": 100}),
        ("concentration.norm_tail_estimate", {}),
        ("concentration.calibrate_constants", {}),
        ("net.quantize", {}),
        *((f"cli.cmd_{sub}", {}) for sub in ("gen", "embed", "certify", "audit", "tails", "frontier", "net")),
    ]
    group = [_span(i, None, 2.0 * i, 2.0 * i + 1.0, name, attrs=attrs) for i, (name, attrs) in enumerate(calls)]
    m = run_metrics(group, NAMES)
    assert set(m) == set(NAMES)
    assert [name for name in NAMES if not m[name] > 0] == []
    # a quantity the code fills under a name BENCHMARK.json does not list is an error
    with pytest.raises(KeyError):
        run_metrics(group, [n for n in NAMES if n != "net.quantize_s"])
