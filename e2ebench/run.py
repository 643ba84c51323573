"""End-to-end benchmark of the lane3d CLI over three frame shapes.

Run from the repository root:

    python3 e2ebench/run.py --workload dense_bcd --seed 1 --seconds 30 --trace 0
    python3 -m pytest e2ebench -q      # the benchmark's own self-tests

One process, one caller, a closed loop: every CLI call runs in-process as
``lane3d.cli.main([...])`` with the default configuration and default
thread count, from JSONL read to report write.  Each workload generates
its inputs from ``--seed`` with the benchmark's own generators
(``workloads.py``) and runs all eight commands on them, so every
end-to-end metric exists on every workload.  Calls go round-robin, each
command getting at least ``ROUND_S`` seconds of calls per round, until
``--seconds`` have passed; a command's frame rate is the frames of all
its calls in the run divided by the summed time of those calls, so every
call of the run counts and the rate averages over the host's slower and
faster spells.  ``setup_s`` is the median of ``SETUP_RUNS`` timings of a
fresh interpreter running ``import lane3d``, which every CLI invocation
pays, taken before the timed calls.  ``peak_rss_mb`` is the process
high-water mark.

Times are wall times less the share of them the hypervisor stole: on a
shared virtual machine other guests can take a large and changing share
of the processors' busy time, and wall-clock rates follow it from run to
run.  Each call's wall time is scaled by ``1 - stolen / busy``, both
counted in ``/proc/stat`` ticks over the call (``busy`` includes
``stolen``).  Where nothing is stolen, or ``/proc/stat`` is missing, this
is the plain wall time; the plain wall-time rates are printed beside the
results.  Per-layer span times are plain wall times.

Every call is one operation.  It fails on a non-zero exit code, when its
report bytes differ from the command's first call in the run (timed or
traced), or when its report is wrong: counts that do not add up to the
input's lanes and frames, or a sweep whose row at the eval's threshold
disagrees with that eval's precision/recall/F1.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced calls and prints the per-layer metrics (see
``spans.py`` for the accounting), the trace overhead, and checks of the
workload design; the spans of the median traced call of each command are
written to ``.e2ebench/trace-<workload>-<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spans
from workloads import TAUS, WORKLOADS, write_inputs

ROOT = Path(__file__).resolve().parent.parent
ROUND_S = 0.1  # least time each command gets per round
SETUP_RUNS = 5  # import-time samples per run
ROOT_PREFIX = "cli."

# (command, group): the group names the input file (frames per group in
# ``workloads.py``) and the protocol an eval/sweep runs.
COMMANDS = (
    ("eval_bcd", "bcd"),
    ("sweep_bcd", "bcd"),
    ("eval_openlane", "openlane"),
    ("sweep_openlane", "openlane"),
    ("eval_once", "once"),
    ("eval_mbd", "mbd"),
    ("synth", "synth"),
    ("loss", "loss"),
)

# The commands each workload was chosen for; every workload runs all eight
# so that every end-to-end metric exists on each.
PRIMARY = {
    "dense_bcd": ("eval_bcd", "sweep_bcd", "eval_openlane", "sweep_openlane"),
    "synth_unc": ("eval_once", "eval_mbd", "eval_bcd", "synth", "loss"),
}

END_TO_END = (
    ("setup_s", "s"),
    *((f"{name}_fps", "frames/s") for name, _ in COMMANDS),
    ("peak_rss_mb", "MiB"),
)

PER_LAYER = (
    ("scenario_io.read_frames.s", "s"),
    ("scenario_io.read_frames.frames", "count"),
    ("scenario_io.read_frames.mb", "MB"),
    ("scenario_io.generate_frames.s", "s"),
    ("scenario_io.write_frames.s", "s"),
    ("scenario_io.write_report.s", "s"),
    ("geometry.interpolate_lane.calls", "count"),
    ("geometry.interpolate_lane.self_s", "s"),
    ("kernels.resample_polyline.calls", "count"),
    ("kernels.resample_polyline.s", "s"),
    ("geometry.resample_at_y.calls", "count"),
    ("geometry.resample_at_y.s", "s"),
    ("geometry.fit_curves.calls", "count"),
    ("geometry.fit_curves.s", "s"),
    ("geometry.sample_curve.calls", "count"),
    ("geometry.sample_curve.s", "s"),
    ("kernels.pair_mean_matrices.calls", "count"),
    ("kernels.pair_mean_matrices.s", "s"),
    ("kernels.pair_mean_matrices.pairs", "count"),
    ("kernels.pair_mean_matrices.dist_evals", "count"),
    ("kernels.point_to_polyline_stats.calls", "count"),
    ("kernels.point_to_polyline_stats.s", "s"),
    ("kernels.directed_point_stats.calls", "count"),
    ("kernels.directed_point_stats.s", "s"),
    ("chamfer.once_report.self_s", "s"),
    ("chamfer.mbd_report.self_s", "s"),
    ("chamfer.bcd_report.self_s", "s"),
    ("chamfer.threshold_sweep.self_s", "s"),
    ("matching.hungarian.calls", "count"),
    ("matching.hungarian.s", "s"),
    ("matching.hungarian.cells", "count"),
    ("pointwise.openlane_report.self_s", "s"),
    ("pointwise.pointwise_sweep.self_s", "s"),
    ("losses.loss_total.calls", "count"),
    ("losses.loss_total.s", "s"),
    ("losses.loss_total.self_s", "s"),
    ("losses.curve_match_cost.s", "s"),
    ("losses.loss_unc.s", "s"),
    ("gaussians.paired_segment_gaussians.calls", "count"),
    ("gaussians.paired_segment_gaussians.s", "s"),
    ("gaussians.symmetric_kld.calls", "count"),
    ("gaussians.symmetric_kld.s", "s"),
    *((f"{ROOT_PREFIX}{name}.self_s", "s") for name, _ in COMMANDS),
    *((f"trace_overhead.{name}_fps", "ratio") for name, _ in COMMANDS),
)


@dataclass
class Command:
    name: str
    argv: list
    frames: int
    outputs: list
    check: object  # report bytes -> error text or None
    net: list = field(default_factory=list)  # seconds per call, less steal
    wall: list = field(default_factory=list)  # the same before removing steal
    traced_net: list = field(default_factory=list)
    traced: list = field(default_factory=list)  # (wall, recorder) per call
    digest: str | None = None
    verdicts: dict = field(default_factory=dict)  # digest -> error or None

    def fps(self, seconds: list) -> float:
        """Frames per second over all the calls timed in ``seconds``."""
        return self.frames * len(seconds) / sum(seconds) if seconds else 0.0


class Bench:
    def __init__(self, workload, seed: int, work: Path, cli):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.evals: dict[str, dict] = {}  # protocol -> parsed eval report
        self.inputs: dict[int, tuple[Path, Path]] = {}
        self.absent: set[str] = set()  # traced functions the library lacks

    # -- inputs and commands -------------------------------------------

    def input_pair(self, n_frames: int) -> tuple[Path, Path]:
        if n_frames not in self.inputs:
            gt = self.work / f"gt_{n_frames}.jsonl"
            pred = self.work / f"pred_{n_frames}.jsonl"
            write_inputs(self.workload, self.seed, n_frames, gt, pred)
            self.inputs[n_frames] = (gt, pred)
        return self.inputs[n_frames]

    def command(self, name: str, group: str) -> Command:
        frames = self.workload.frames[group]
        if name == "synth":
            gt, pred = self.work / "synth_gt.jsonl", self.work / "synth_pred.jsonl"

            argv = ["synth", "--frames", str(frames), *self.workload.synth_args,
                    "--seed", str(self.seed), "--out", str(gt),
                    "--emit-pred", str(pred)]
            return Command(name, argv, frames, [gt, pred],
                           lambda data: self.check_synth(data, frames))
        out = self.work / f"{name}.out"
        verb = name.split("_")[0]

        gt, pred = self.input_pair(frames)
        argv = [verb, "--gt", str(gt), "--pred", str(pred)]
        if verb != "loss":
            argv += ["--protocol", group]
        if verb == "sweep":
            argv += ["--taus", TAUS]
        argv += ["--out", str(out)]

        check = {
            "eval": lambda data: self.check_eval(data, group, frames),
            "sweep": lambda data: self.check_sweep(data, group),
            "loss": lambda data: self.check_loss(data, frames),
        }[verb]
        return Command(name, argv, frames, [out], check)

    # -- output checks: each returns an error text or None ---------------

    def check_eval(self, data: bytes, protocol: str, frames: int):
        report = json.loads(data)
        lanes = frames * self.workload.lanes
        if report["protocol"] != protocol or len(report["per_frame"]) != frames:
            return "report does not cover the input frames"
        if report["tp"] + report["fn"] != lanes or \
                report["tp"] + report["fp"] != lanes:
            return "tp/fp/fn do not add up to the input lanes"
        self.evals[protocol] = report
        return None

    def check_sweep(self, data: bytes, protocol: str):
        lines = data.decode().splitlines()
        rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
        if lines[0] != "tau,precision,recall,f1" or len(rows) != 30:
            return "sweep is not the 30-row table"
        report = self.evals.get(protocol)
        if report is None:
            return f"no {protocol} eval to check the sweep against"
        tau = report["config"]["tau_bcd" if protocol == "bcd" else "tau_dist"]
        at = [row for row in rows if abs(row[0] - tau) < 1e-9]
        want = (report["precision"], report["recall"], report["f1"])
        if len(at) != 1 or at[0][1:] != want:
            return f"sweep row at tau={tau} disagrees with the eval"
        return None

    def check_loss(self, data: bytes, frames: int):
        payload = json.loads(data)
        total = payload["aggregate"]["total"]
        if len(payload["per_frame"]) != frames or not math.isfinite(total):
            return "loss report does not cover the frames or is not finite"
        return None

    def check_synth(self, data: bytes, frames: int):
        if data.count(b"\n") != 2 * frames:
            return "synth files do not hold the requested frames"
        return None

    # -- calls -----------------------------------------------------------

    def call(self, argv: list) -> tuple[int, float, float, str]:
        """Exit code, wall time, wall time less steal, standard error."""
        out, err = io.StringIO(), io.StringIO()
        ticks = machine_ticks()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - a failed operation, not a crash
            code = 1
            err.write(traceback.format_exc())
        wall = time.perf_counter() - start
        return code, wall, unstolen(wall, ticks), err.getvalue()

    def fail(self, cmd: Command, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{cmd.name}: {why}")

    def run(self, cmd: Command, traced: bool = False, keep: bool = True) -> float:
        """One checked call; returns its wall time.

        With ``keep`` the time (and, when traced, the spans) of a
        successful call join the command's samples.
        """
        self.attempted += 1
        if traced:
            recorder = spans.Recorder()
            with spans.Tracer(recorder) as tracer:
                root = recorder.open(f"{ROOT_PREFIX}{cmd.name}")
                try:
                    code, wall, net, err = self.call(cmd.argv)
                finally:
                    recorder.close(root)
            self.absent.update(tracer.absent)
        else:
            code, wall, net, err = self.call(cmd.argv)
        if code != 0:
            self.fail(cmd, f"exit {code}: {err.strip()[-300:]}")
            return wall
        data = b"".join(Path(p).read_bytes() for p in cmd.outputs)
        digest = hashlib.sha256(data).hexdigest()
        if cmd.digest is None:
            cmd.digest = digest
        if digest != cmd.digest:
            self.fail(cmd, "report bytes differ between calls")
            return wall
        if digest not in cmd.verdicts:
            try:
                cmd.verdicts[digest] = cmd.check(data)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                cmd.verdicts[digest] = f"unreadable report: {exc!r}"
        if cmd.verdicts[digest] is not None:
            self.fail(cmd, cmd.verdicts[digest])
            return wall
        if keep and traced:
            cmd.traced_net.append(net)
            cmd.traced.append((wall, recorder))
        elif keep:
            cmd.net.append(net)
            cmd.wall.append(wall)
        return wall


def time_import(env: dict) -> float:
    """Time, less steal, for a fresh interpreter to ``import lane3d``."""
    ticks = machine_ticks()
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", "import lane3d"], cwd=ROOT,
                          env=env, capture_output=True, timeout=60)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError("import lane3d failed: "
                           + done.stderr.decode()[-300:])
    return unstolen(elapsed, ticks)


def machine_ticks() -> tuple[int, int]:
    """(stolen, busy) clock ticks of all processors; busy includes stolen.

    (0, 0) where ``/proc/stat`` cannot be read.
    """
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            user, nice, system, _, _, irq, softirq, steal = (
                int(v) for v in handle.readline().split()[1:9])
    except (OSError, ValueError):
        return 0, 0
    return steal, user + nice + system + irq + softirq + steal


def stolen_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    busy = after[1] - before[1]
    stolen = after[0] - before[0]
    return stolen / busy if 0 <= stolen < busy else 0.0


def unstolen(wall: float, before: tuple[int, int]) -> float:
    """``wall`` less the share of it stolen since the ticks ``before``."""
    return wall * (1.0 - stolen_share(before, machine_ticks()))


def environment(lane3d) -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "backend": lane3d.active_backend(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def layer_metrics(tables: dict, commands: list[Command]) -> dict:
    """Per-layer stats summed over each command's median traced call."""
    values: dict = defaultdict(float)
    for table in tables.values():
        for layer, row in table.items():
            for stat, value in row.items():
                values[f"{layer}.{stat}"] += value
    for cmd in commands:
        if cmd.net and cmd.traced_net:
            values[f"trace_overhead.{cmd.name}_fps"] = (
                cmd.fps(cmd.traced_net) / cmd.fps(cmd.net))
    return values


def design_checks(workload: str, tables: dict) -> list[tuple[str, bool]]:
    """Does the trace confirm why the workload was chosen?"""

    def largest(command: str) -> str:
        table = tables.get(command, {})
        shares = {layer: row.get("self_s", 0.0) for layer, row in table.items()}
        return max(shares, key=shares.get) if shares else "none"

    checks = []
    if workload == "dense_bcd":
        top = largest("eval_bcd")
        checks.append((f"eval_bcd: largest self_s layer is "
                       f"kernels.pair_mean_matrices (got {top})",
                       top == "kernels.pair_mean_matrices"))
        unwanted = ("geometry.fit_curves", "geometry.sample_curve",
                    "chamfer.once_report", "chamfer.mbd_report",
                    "gaussians.paired_segment_gaussians",
                    "gaussians.symmetric_kld")
        seen = sorted({layer for cmd in PRIMARY[workload]
                       for layer in tables.get(cmd, {}) if layer in unwanted})
        checks.append((f"{'/'.join(PRIMARY[workload])}: no raster, fit or "
                       f"Gaussian spans (got {seen or 'none'})", not seen))
    elif workload == "synth_unc":
        top = largest("eval_once")
        checks.append((f"eval_once: largest self_s layer is "
                       f"chamfer.once_report (got {top})",
                       top == "chamfer.once_report"))
        table = tables.get("loss", {})
        fit_gauss = sum(row.get("self_s", 0.0) for layer, row in table.items()
                        if layer == "geometry.fit_curves"
                        or layer.startswith("gaussians."))
        rest = {layer: row.get("self_s", 0.0) for layer, row in table.items()
                if layer != "geometry.fit_curves"
                and not layer.startswith("gaussians.")}
        top = max(rest, key=rest.get) if rest else "none"
        checks.append((f"loss: geometry.fit_curves + gaussians.* self_s "
                       f"{fit_gauss:.4f} s exceeds every other layer "
                       f"(next {top} {rest.get(top, 0.0):.4f} s)",
                       fit_gauss > rest.get(top, 0.0)))
    return checks


def print_layers(name: str, table: dict) -> None:
    root = table.get(f"{ROOT_PREFIX}{name}", {})
    wall = root.get("s", 0.0)
    covered = sum(row.get("self_s", 0.0) for row in table.values())
    print(f"# trace {name}: main-thread wall {wall:.4f} s, self_s sum "
          f"{covered:.4f} s ({covered / wall if wall else 0:.6f} of wall)")
    for layer, row in sorted(table.items(),
                             key=lambda kv: -kv[1].get("self_s", 0.0)):
        extra = " ".join(f"{k}={row[k]:g}" for k in sorted(row)
                         if k not in ("calls", "s", "self_s", "busy_self_s"))
        print(f"#   {layer:42s} calls={row['calls']:7.0f} "
              f"s={row['s']:8.4f} busy_self_s={row['busy_self_s']:8.4f} "
              f"self_s={row.get('self_s', 0.0):8.4f} {extra}".rstrip())


def write_trace(path: Path, commands: list[Command], tables: dict) -> None:
    payload = {}
    for cmd in commands:
        if not cmd.traced:
            continue
        _, recorder = _median_traced(cmd)
        payload[cmd.name] = {
            "layers": tables[cmd.name],
            "spans": [[s.id, s.name, s.thread, s.parent, s.start, s.end,
                       s.counts] for s in recorder.spans],
        }
    path.write_text(json.dumps(payload))


def _median_traced(cmd: Command):
    ordered = sorted(cmd.traced, key=lambda item: item[0])
    return ordered[len(ordered) // 2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "lane3d" / "__init__.py").is_file():
        print(f"error: no lane3d sources under {src}", file=sys.stderr)
        return 2
    # The CLI runs with its defaults: no LANE3D_* overrides.
    for key in [k for k in os.environ if k.startswith("LANE3D_")]:
        del os.environ[key]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    time_import(env)  # also writes the bytecode cache; not a sample
    sys.path.insert(0, str(src))
    import lane3d
    import lane3d.cli

    workload = WORKLOADS[args.workload]
    out_dir = ROOT / ".e2ebench"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(workload, args.seed, work, lane3d.cli)
        commands = [bench.command(name, group) for name, group in COMMANDS]
        env_block = environment(lane3d)
        print("# environment " + " ".join(f"{k}={v}" for k, v in env_block.items()))
        print(f"# workload {workload.name} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}: {workload.shape}; "
              f"chosen for {', '.join(PRIMARY[workload.name])}")
        for n, (gt, pred) in sorted(bench.inputs.items()):
            size = (gt.stat().st_size + pred.stat().st_size) / 1e6
            print(f"# input {n} frames: {size:.3f} MB (gt + pred JSONL)")

        # One untimed round first: lazy imports and the processor settle.
        for cmd in commands:
            bench.run(cmd, keep=False)
        setup = [] if args.trace else \
            [time_import(env) for _ in range(SETUP_RUNS)]
        start = time.perf_counter()
        ticks = machine_ticks()
        rounds = 0
        while rounds < (1 if args.trace else 2) or \
                time.perf_counter() - start < args.seconds:
            for cmd in commands:
                if args.trace:
                    bench.run(cmd)
                    bench.run(cmd, traced=True)
                    continue
                spent = 0.0
                for _ in range(8):
                    spent += bench.run(cmd)
                    if spent >= ROUND_S:
                        break
            rounds += 1
        elapsed = time.perf_counter() - start
        stolen = stolen_share(ticks, machine_ticks())

        for cmd in commands:
            median = (cmd.frames / statistics.median(cmd.net)
                      if cmd.net else 0.0)
            print(f"# command {cmd.name:15s} frames={cmd.frames:4d} "
                  f"calls={len(cmd.net) + len(cmd.traced_net):3d} "
                  f"fps={cmd.fps(cmd.net):10.3f} "
                  f"wall_fps={cmd.fps(cmd.wall):10.3f} "
                  f"median_call_fps={median:10.3f} "
                  f"report_sha256={cmd.digest}")
        print(f"# rounds={rounds} measured_s={elapsed:.2f} "
              f"stolen_share_of_busy={stolen:.4f} "
              f"ops_attempted={bench.attempted} ops_failed={bench.failed}")
        for line in bench.failures:
            print(f"# FAILED {line}")

        if args.trace:
            workers = os.cpu_count() or 1  # the CLI default: all cores
            tables = {}
            for cmd in commands:
                if cmd.traced:
                    _, recorder = _median_traced(cmd)
                    tables[cmd.name] = spans.account(
                        recorder.spans, recorder.main, workers)
                    print_layers(cmd.name, tables[cmd.name])
            print("# absent functions: "
                  + (", ".join(sorted(bench.absent)) or "none"))
            for text, ok in design_checks(workload.name, tables):
                print(f"# design check {'ok  ' if ok else 'MISS'} {text}")
            write_trace(out_dir / f"trace-{workload.name}-{args.seed}.json",
                        commands, tables)
            values = layer_metrics(tables, commands)
            metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
                       for name, unit in PER_LAYER}
        else:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            values = {"setup_s": statistics.median(setup), "peak_rss_mb": peak}
            for cmd in commands:
                values[f"{cmd.name}_fps"] = cmd.fps(cmd.net)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
