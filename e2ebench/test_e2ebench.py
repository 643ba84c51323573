"""Self-tests of the benchmark: seeded inputs, span accounting, tracing.

Run from the repository root with ``python3 -m pytest e2ebench -q``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import threading
from pathlib import Path

import pytest

import run
import spans
from workloads import WORKLOADS, write_inputs

sys.path.insert(0, str(run.ROOT / "src"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_byte_identical_per_seed(tmp_path, name):
    workload = WORKLOADS[name]

    def make(tag, seed, n):
        gt, pred = tmp_path / f"{tag}_gt", tmp_path / f"{tag}_pred"
        write_inputs(workload, seed, n, gt, pred)
        return gt.read_bytes() + b"|" + pred.read_bytes()

    first = make("a", 7, 3)
    assert make("b", 7, 3) == first
    assert make("c", 8, 3) != first
    short = make("d", 7, 2)
    gt_short = short.split(b"|")[0]
    assert first.startswith(gt_short)  # a shorter file is a prefix


def _span(sid, name, thread, parent, start, end):
    return spans.Span(sid, name, thread, parent, start, end)


def test_self_time_on_hand_built_tree():
    # main thread 1: root [0, 10] > a [1, 3], b [3, 9]
    # workers 2, 3 (pool of 2) under b: c [3, 7] > e [5, 6]; d [4, 8]
    tree = [
        _span(0, "root", 1, None, 0.0, 10.0),
        _span(1, "a", 1, 0, 1.0, 3.0),
        _span(2, "b", 1, 0, 3.0, 9.0),
        _span(3, "c", 2, 2, 3.0, 7.0),
        _span(4, "e", 2, 3, 5.0, 6.0),
        _span(5, "d", 3, 2, 4.0, 8.0),
    ]
    table = spans.account(tree, main=1, workers=2)
    busy = {name: row["busy_self_s"] for name, row in table.items()}
    assert busy == {"root": 2.0, "a": 2.0, "b": 6.0, "c": 3.0, "e": 1.0,
                    "d": 4.0}
    share = {name: row["self_s"] for name, row in table.items()}
    assert share == {"root": 2.0, "a": 2.0, "b": 2.0, "c": 1.5, "e": 0.5,
                     "d": 2.0}
    assert sum(share.values()) == 10.0  # accounts for the root's wall time
    assert table["b"]["s"] == 6.0 and table["c"]["s"] == 4.0


def test_worker_span_takes_innermost_main_span_as_parent():
    recorder = spans.Recorder()
    outer = recorder.open("outer")
    inner = recorder.open("inner")
    seen = {}

    def worker():
        task = recorder.open("task")
        nested = recorder.open("nested")
        recorder.close(nested)
        recorder.close(task)
        seen.update(task=task, nested=nested)

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    recorder.close(inner)
    recorder.close(outer)
    assert seen["task"].parent == inner.id
    assert seen["nested"].parent == seen["task"].id
    assert inner.parent == outer.id and outer.parent is None
    table = spans.account(recorder.spans, recorder.main, workers=1)
    wall = outer.end - outer.start
    total = sum(row["self_s"] for row in table.values())
    assert total == pytest.approx(wall, rel=1e-9, abs=1e-12)


def _run_cli(cli, argv, out: Path) -> str:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_tracing_leaves_report_digests_unchanged(tmp_path):
    import lane3d.chamfer
    import lane3d.cli

    gt, pred = tmp_path / "gt.jsonl", tmp_path / "pred.jsonl"
    write_inputs(WORKLOADS["synth_unc"], 3, 3, gt, pred)
    out = tmp_path / "out"
    base = ["--gt", str(gt), "--pred", str(pred), "--out", str(out)]
    argvs = [
        ["eval", "--protocol", "bcd", *base],
        ["eval", "--protocol", "once", *base],
        ["sweep", "--protocol", "openlane", "--taus", "0.5,1.5", *base],
        ["loss", *base],
    ]
    original = lane3d.chamfer.pair_mean_matrices
    for argv in argvs:
        plain = _run_cli(lane3d.cli, argv, out)
        recorder = spans.Recorder()
        with spans.Tracer(recorder):
            traced = _run_cli(lane3d.cli, argv, out)
        assert traced == plain, argv
        assert recorder.spans, argv
    assert lane3d.chamfer.pair_mean_matrices is original  # unwrapped again
    names = {s.name for s in recorder.spans}
    assert {"scenario_io.read_frames", "geometry.fit_curves",
            "gaussians.symmetric_kld", "losses.loss_total"} <= names


def test_missing_function_is_reported_absent(monkeypatch):
    import lane3d  # noqa: F401 - the tracer wraps loaded modules

    monkeypatch.setattr(spans, "LAYERS",
                        spans.LAYERS + (("kernels", "no_such_function"),))
    with spans.Tracer(spans.Recorder()) as tracer:
        pass
    assert tracer.absent == ["kernels.no_such_function"]


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)


def test_stolen_share_of_busy_ticks():
    assert run.stolen_share((5, 100), (15, 140)) == 0.25
    assert run.stolen_share((0, 0), (0, 0)) == 0.0  # no /proc/stat
    # every busy tick stolen: no estimate, the wall time stands
    assert run.stolen_share((5, 100), (15, 110)) == 0.0
