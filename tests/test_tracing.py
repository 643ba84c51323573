"""The benchmark's outside-in tracer leaves every report as it is.

``e2ebench/spans.py`` rebinds the library functions it lists at every
module binding.  It is loaded here by path, unchanged, and each command
is run plainly and under its ``Tracer``: the report bytes must be equal,
and every function the tracer lists must still exist.  The commands are
those the benchmark times, except ``synth``, which writes no report.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from lane3d import cli

SPANS = Path(__file__).resolve().parents[1] / "e2ebench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("e2ebench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    root = tmp_path_factory.mktemp("tracing")
    gt, pred = root / "gt.jsonl", root / "pred.jsonl"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["synth", "--frames", "4", "--lanes", "3",
                         "--sigma-w0", "0.1", "--seed", "5", "--out", str(gt),
                         "--emit-pred", str(pred)]) == 0
    return root, ["--gt", str(gt), "--pred", str(pred)]


def _report(argv, out: Path) -> bytes:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*argv, "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("command", [
    ["eval", "--protocol", "bcd"],
    ["eval", "--protocol", "once"],
    ["eval", "--protocol", "openlane"],
    ["eval", "--protocol", "mbd"],
    ["sweep", "--protocol", "bcd", "--taus", "0.5,1.5"],
    ["sweep", "--protocol", "openlane", "--taus", "0.5,1.5"],
    ["loss"],
])
def test_traced_run_writes_the_same_report(spans, scenario, command):
    root, inputs = scenario
    plain = _report([*command, *inputs], root / "plain.json")
    recorder = spans.Recorder()
    with spans.Tracer(recorder) as tracer:
        traced = _report([*command, *inputs], root / "traced.json")
    assert traced == plain
    assert tracer.absent == []
    assert recorder.spans
