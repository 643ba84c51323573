"""Command-line front end: eval, sweep, synth, loss, and fit subcommands.

Configuration resolution
------------------------
Values merge in precedence order: built-in defaults (those of
``EvalConfig``, ``PointwiseConfig`` and ``LossConfig``), then a JSON config
file (``--config``), then ``LANE3D_*`` environment variables, then
explicit flags.  The resolved configuration is echoed into every report
together with the list of safety-relevant values that were left at
their defaults (``assumed_defaults``): the IoU gate, lane stroke width,
and rasterization resolution are artifact choices rather than
reference-pinned values, so reports always disclose when they were
assumed.  A structured report written by this tool can itself serve as
a config file (its ``config`` block is reused).

Exit codes
----------
0 success; 2 configuration error (also used by the argument parser);
3 parse error in an input file (including schema version mismatches);
4 prediction frame without ground-truth counterpart; 5 record missing a
required component; 6 underdetermined curve fit; 7 file I/O failure;
1 any other library failure.

Output files are written to a temporary name and renamed into place, so
a failing command never leaves a partial file.  Standard output is
machine-parsable ``key = value`` lines (plus one line per pair/row in
tables).  Frames are evaluated one after another on one thread; ``loss``
gathers, fits and scores up to ``_LOSS_BLOCK`` frames together.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .chamfer import (
    MBD_VARIANTS,
    EvalConfig,
    bcd_report,
    mbd_report,
    once_report,
    threshold_sweep,
)
from .errors import (
    ConfigError,
    IoError,
    Lane3DError,
    MissingField,
    MissingFrame,
    ParseError,
    Underdetermined,
)
from .geometry import (
    EPS_DEPTH,
    Lane3D,
    SampleGrid,
    _camera_coords,
    _check_frame,
    _fit_problems,
    _resample_lanes_at_y,
    _stack_problem,
    fit_curves,
    project_ground_to_image,
    resample_at_y,
)
from .losses import LossConfig, _Block, _score_block, _Side
from .pointwise import PointwiseConfig, openlane_report
from .report import MetricReport, ordering_hash
from .scenario_io import (
    NoiseModel,
    _atomic_write,
    _parse_camera,
    align,
    generate_scenario,
    read_frames,
    write_report,
)

__all__ = ["main", "CliConfig"]

_EVAL_KEYS = tuple(f.name for f in fields(EvalConfig))
_POINTWISE_KEYS = ("tau_dist", "tp_fraction", "cap_multiplier")

# The library configs' own defaults (a dataclass keeps each field's default
# as a class attribute).
_DEFAULTS = {
    **{key: getattr(EvalConfig, key) for key in _EVAL_KEYS},
    **{key: getattr(PointwiseConfig, key) for key in _POINTWISE_KEYS},
    "gammas": LossConfig.gamma,
    "background_weight": LossConfig.background_weight,
}

# Values with no reference anchor: always disclosed when left at default.
_ASSUMED_KEYS = ("tau_iou", "lane_width", "bev_resolution")

_ENV_PREFIX = "LANE3D_"


def _parse_gammas(value) -> tuple[float, ...]:
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip()]
    else:
        parts = list(value)
    try:
        gammas = tuple(float(p) for p in parts)
    except (TypeError, ValueError):
        raise ConfigError(f"gammas must be 6 numbers, got {value!r}") from None
    if len(gammas) != 6:
        raise ConfigError(f"gammas must have exactly 6 entries, got {len(gammas)}")
    return gammas


def _coerce(key: str, value):
    if key == "gammas":
        return _parse_gammas(value)
    if key == "mbd_variant":
        return str(value)
    if key == "n_interp":
        try:
            return int(value)
        except (TypeError, ValueError):
            raise ConfigError(f"{key} must be an integer, got {value!r}") from None
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {value!r}") from None


@dataclass
class CliConfig:
    """Fully resolved configuration plus the source of every value."""

    values: dict
    sources: dict

    @classmethod
    def resolve(cls, args) -> "CliConfig":
        values = dict(_DEFAULTS)
        sources = {key: "default" for key in values}

        config_path = getattr(args, "config", None)
        if config_path:
            try:
                with open(config_path, encoding="utf-8") as handle:
                    loaded = json.load(handle)
            except OSError as exc:
                raise IoError(f"cannot read {config_path}: {exc}") from None
            except json.JSONDecodeError as exc:
                raise ConfigError(
                    f"config file {config_path} is not valid JSON: {exc.msg}"
                ) from None
            if not isinstance(loaded, dict):
                raise ConfigError("config file must hold a JSON object")
            if "format_version" in loaded and isinstance(
                loaded.get("config"), dict
            ):
                loaded = loaded["config"]  # reuse a report's config echo
            for key, value in loaded.items():
                if key == "assumed_defaults":
                    continue
                if key not in values:
                    raise ConfigError(f"unknown config key {key!r}")
                values[key] = _coerce(key, value)
                sources[key] = "file"

        for key in values:
            raw = os.environ.get(_ENV_PREFIX + key.upper())
            if raw is None:
                continue
            try:
                parsed = json.loads(raw)
            except json.JSONDecodeError:
                parsed = raw
            values[key] = _coerce(key, parsed)
            sources[key] = "env"

        for key in values:
            flag = getattr(args, key, None)
            if flag is not None:
                values[key] = _coerce(key, flag)
                sources[key] = "flag"

        return cls(values=values, sources=sources)

    @property
    def eval_config(self) -> EvalConfig:
        return EvalConfig(**{key: self.values[key] for key in _EVAL_KEYS})

    @property
    def pointwise_config(self) -> PointwiseConfig:
        return PointwiseConfig(**{key: self.values[key] for key in _POINTWISE_KEYS})

    @property
    def loss_config(self) -> LossConfig:
        return LossConfig(
            gamma=self.values["gammas"],
            background_weight=self.values["background_weight"],
        )

    def echo(self) -> dict:
        out = {key: (list(v) if isinstance(v := self.values[key], tuple) else v)
               for key in sorted(self.values)}
        out["assumed_defaults"] = [
            key for key in _ASSUMED_KEYS if self.sources[key] == "default"
        ]
        return out


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _print_kv(pairs) -> None:
    width = max((len(k) for k, _ in pairs), default=0)
    for key, value in pairs:
        print(f"{key:<{width}} = {value}")


def _fmt(value) -> str:
    if value is None:
        return "absent"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _load_records(gt_path, pred_path):
    gt_records = list(read_frames(gt_path))
    if pred_path:
        pred_records = list(read_frames(pred_path))
        return align(gt_records, pred_records)
    for record in gt_records:
        if record.pred_lanes is None:
            raise MissingField(
                f"frame {record.frame_id!r} has no pred_lanes; supply a "
                "--pred file or embed pred_lanes in the ground-truth file"
            )
    return gt_records


def _parse_taus(text: str) -> list[float]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(
                f"--taus range must be start:stop:step, got {text!r}"
            )
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise ConfigError(f"--taus range {text!r} is not numeric") from None
        if step <= 0:
            raise ConfigError(f"--taus step must be > 0, got {step!r}")
        if stop < start:
            raise ConfigError("--taus stop must be >= start")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return [start + k * step for k in range(count)]
    values = [p for p in text.split(",") if p.strip()]
    if not values:
        raise ConfigError("--taus list is empty")
    try:
        return [float(p) for p in values]
    except ValueError:
        raise ConfigError(f"--taus list {text!r} is not numeric") from None


def _report_counts_hash(records) -> str:
    return ordering_hash(
        [r.frame_id for r in records],
        [len(r.gt_lanes) for r in records],
        [len(r.pred_lanes or []) for r in records],
    )


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def cmd_eval(args) -> int:
    config = CliConfig.resolve(args)
    records = _load_records(args.gt, args.pred)
    frames = [(r.gt_lanes, r.pred_lanes) for r in records]
    ids = [r.frame_id for r in records]
    if args.protocol == "openlane":
        report = openlane_report(frames, config.pointwise_config, frame_ids=ids)
    else:
        report_fn = {
            "once": once_report, "bcd": bcd_report, "mbd": mbd_report
        }[args.protocol]
        report = report_fn(frames, config.eval_config, ids)
    if args.out:
        write_report(report, args.out, args.format, config.echo())
    pairs = [
        ("protocol", report.protocol),
        ("frames", len(frames)),
        ("tp", report.tp),
        ("fp", report.fp),
        ("fn", report.fn),
        ("precision", _fmt(report.precision)),
        ("recall", _fmt(report.recall)),
        ("f1", _fmt(report.f1)),
        (report.error_name, _fmt(report.error_stat)),
    ]
    if report.variant:
        pairs.append(("variant", report.variant))
    for key in sorted(report.extra_stats):
        pairs.append((key, _fmt(report.extra_stats[key])))
    assumed = config.echo()["assumed_defaults"]
    if assumed:
        pairs.append(("assumed_defaults", ",".join(assumed)))
    pairs.append(("ordering_hash", report.ordering))
    _print_kv(pairs)
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def cmd_sweep(args) -> int:
    config = CliConfig.resolve(args)
    taus = _parse_taus(args.taus)
    records = _load_records(args.gt, args.pred)
    frames = [(r.gt_lanes, r.pred_lanes) for r in records]
    rows = threshold_sweep(
        frames,
        taus,
        args.protocol,
        config.eval_config,
        pointwise_config=config.pointwise_config,
    )
    # The sweep's product is its rows; headline ratios echo the last row
    # and counts are intentionally zero (they are per-threshold values).
    last = rows[-1]
    report = MetricReport(
        protocol=args.protocol,
        tp=0,
        fp=0,
        fn=0,
        precision=last[1],
        recall=last[2],
        f1=last[3],
        error_name="sweep",
        error_stat=None,
        ordering=_report_counts_hash(records),
        sweep_rows=rows,
    )
    if args.out:
        write_report(report, args.out, args.format, config.echo())
    _print_kv([
        ("protocol", args.protocol),
        ("frames", len(frames)),
        ("rows", len(rows)),
    ])
    for tau, precision, recall, f1 in rows:
        print(
            f"tau={tau!r} precision={precision!r} "
            f"recall={recall!r} f1={f1!r}"
        )
    return 0


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    try:
        lo, hi = (float(p) for p in args.curvature.split(":"))
    except ValueError:
        raise ConfigError(
            f"--curvature must be lo:hi, got {args.curvature!r}"
        ) from None
    noise = NoiseModel(
        sigma_w0=args.sigma_w0,
        sigma_w_slope=args.sigma_w_slope,
        sigma_h0=args.sigma_h0,
        sigma_h_slope=args.sigma_h_slope,
        seed=args.seed,
    )
    gt_path, pred_path = generate_scenario(
        args.frames, args.lanes, (lo, hi), noise, args.out, args.emit_pred
    )
    _print_kv([
        ("frames", args.frames),
        ("lanes_per_frame", args.lanes),
        ("curvature_low", _fmt(lo)),
        ("curvature_high", _fmt(hi)),
        ("sigma_w0", _fmt(noise.sigma_w0)),
        ("sigma_w_slope", _fmt(noise.sigma_w_slope)),
        ("sigma_h0", _fmt(noise.sigma_h0)),
        ("sigma_h_slope", _fmt(noise.sigma_h_slope)),
        ("seed", noise.seed),
        ("gt_file", gt_path),
        ("pred_file", pred_path if pred_path else "absent"),
        ("format_version", 1),
    ])
    return 0


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


# Frames gathered and scored together, whose curve fits are searched in
# one lockstep call.  Bounds the stacked search the way chamfer._BLOCK_PAIRS
# bounds the raster: its grid step holds 2 columns x 33 candidates x the
# block's most points floats per fit, up to two fits per frame (3.4 MB per
# array for 32 frames of 100-point sides).
_LOSS_BLOCK = 32


def _on_grid(lane: Lane3D, anchors: np.ndarray) -> bool:
    y = lane.points[:, 1]
    return y.shape == anchors.shape and float(np.abs(y - anchors).max()) <= 1e-9


def _grid_lane(lane: Lane3D, anchors: np.ndarray) -> Lane3D:
    if _on_grid(lane, anchors):
        return lane
    x, z, vis = resample_at_y(lane, anchors)
    return Lane3D(
        points=np.stack([x, anchors, z], axis=1),
        visibility=vis,
        score=lane.score,
    )


def _fits(n_lanes: int, stored) -> bool:
    """Whether a side's curves are fit: it has lanes and a missing curve."""
    return n_lanes > 0 and (stored is None or any(c is None for c in stored))


def _has_widths(record) -> bool:
    return record.pred_uncertainties is not None and all(
        u is not None for u in record.pred_uncertainties)


def _check_lanes(record, anchors: np.ndarray) -> None:
    """Check one frame lane by lane and raise the first error.

    The checks run in the order ``_gather``'s array checks stand for: each
    lane put on the grid (ground truths, then predictions), then each side
    to fit projected and checked, then the widths' grid.  Fitting uses each
    lane's visible points that project inside the image; a lane with no
    stored curve and no in-image points cannot be fit.  Only a frame the
    array checks reject is walked, to name its first failing lane.
    """
    h, w = record.camera.image_size
    sides = [[_grid_lane(lane, anchors) for lane in lanes]
             for lanes in (record.gt_lanes, record.pred_lanes)]
    for lanes, stored, who in zip(sides, (record.gt_curves, record.pred_curves),
                                  ("ground-truth", "prediction")):
        if not _fits(len(lanes), stored):
            continue
        uv = []
        for i, lane in enumerate(lanes):
            pixels = np.atleast_2d(
                project_ground_to_image(record.camera, lane.visible_points()))
            inside = ((pixels[:, 0] >= 0) & (pixels[:, 0] < w)
                      & (pixels[:, 1] >= 0) & (pixels[:, 1] < h))
            if not inside.any():
                raise MissingField(
                    f"{who} lane {i} has no stored curve and no visible point "
                    "projects inside the image, so none can be fit"
                )
            uv.append(pixels[inside])
        _check_frame(uv, record.camera.image_size, "rational")
    if _has_widths(record) and not all(
            _on_grid(lane, anchors) for lane in record.pred_lanes):
        raise ConfigError(
            "per-segment uncertainties require prediction lanes "
            "already sampled on the anchor grid"
        )
    raise AssertionError(f"frame {record.frame_id!r} passes its lane checks")


def _grid_lanes(points, vis, sizes, anchors: np.ndarray):
    """Every lane on the anchor grid as ``_grid_lane`` puts it, in array
    passes: each lane's ``sizes`` rows of ``points`` and ``vis`` follow
    the last lane's.

    Returns (on_grid, degenerate, points (lanes, anchors, 3), visibility
    (lanes, anchors)).  A lane on the grid keeps its own points; one off
    it is resampled, unless it has fewer than two visible points
    (``degenerate``; left at zero).
    """
    n_lanes, n_anchors = sizes.shape[0], anchors.shape[0]
    starts = np.concatenate([[0], np.cumsum(sizes)])
    near = np.flatnonzero(sizes == n_anchors)
    rows = starts[near, None] + np.arange(n_anchors)
    close = np.abs(points[rows, 1] - anchors).max(axis=1) <= 1e-9
    on_grid = np.zeros(n_lanes, dtype=bool)
    on_grid[near[close]] = True
    grid_pts = np.zeros((n_lanes, n_anchors, 3))
    grid_vis = np.zeros((n_lanes, n_anchors))
    grid_pts[near[close]], grid_vis[near[close]] = points[rows[close]], vis[rows[close]]
    lane_of = np.repeat(np.arange(n_lanes), sizes)
    seen = vis > 0.5
    n_seen = np.bincount(lane_of[seen], minlength=n_lanes)
    degenerate = ~on_grid & (n_seen < 2)
    off = ~on_grid & ~degenerate
    take = seen & off[lane_of]
    x, z, off_vis = _resample_lanes_at_y(
        points[take, 1], points[take, 0], points[take, 2],
        np.concatenate([[0], np.cumsum(n_seen[off])]), anchors)
    grid_pts[off] = np.stack([x, np.broadcast_to(anchors, x.shape), z], axis=-1)
    grid_vis[off] = off_vis
    return on_grid, degenerate, grid_pts, grid_vis


def _image_points(cameras, points, frame_of):
    """Project ground points, each by its frame's camera, as
    ``project_ground_to_image`` does; returns (behind, u, v, inside)."""
    cams = np.array([(math.sin(c.pitch), math.cos(c.pitch), c.height, c.fx, c.fy,
                      c.cx, c.cy, *c.image_size) for c in cameras]).reshape(-1, 9)
    sin, cos, height, fx, fy, cx, cy, h, w = cams[frame_of].T
    xc, yc, zc = _camera_coords(points, sin, cos, height)
    behind = zc <= EPS_DEPTH
    zc = np.where(behind, 1.0, zc)  # the frame of a point behind fails
    u = cx + fx * xc / zc
    v = cy + fy * yc / zc
    return behind, u, v, ~behind & (u >= 0) & (u < w) & (v >= 0) & (v < h)


def _gather(records, anchors: np.ndarray):
    """Gather, check and fit consecutive frames in array passes over all
    their lanes.

    Returns the block of the frames before the first that fails a check,
    with every side's curves (stored, fitted, or none for a side without
    lanes), and that frame's error, or None.  Each check is one of
    ``_check_lanes`` taken elementwise, and each value bitwise that of
    the lane alone.
    """
    n_frames = len(records)
    lanes = [lane for r in records for side in (r.gt_lanes, r.pred_lanes)
             for lane in side]
    # side s holds frame s // 2's ground truths (s even) or predictions
    per_side = np.array([(len(r.gt_lanes), len(r.pred_lanes)) for r in records],
                        dtype=np.int64).reshape(-1)
    side_first = np.concatenate([[0], np.cumsum(per_side)])
    side_of = np.repeat(np.arange(2 * n_frames), per_side)
    on_grid, degenerate, grid_pts, grid_vis = _grid_lanes(
        np.concatenate([lane.points for lane in lanes] or [np.empty((0, 3))]),
        np.concatenate([lane.visibility for lane in lanes] or [np.empty(0)]),
        np.array([lane.points.shape[0] for lane in lanes], dtype=np.int64),
        anchors)

    # The visible points of every side to fit, in the image.
    stored = [c for r in records for c in (r.gt_curves, r.pred_curves)]
    fit_side = np.array([_fits(n, c) for n, c in zip(per_side.tolist(), stored)],
                        dtype=bool)
    fit_lanes = np.flatnonzero(fit_side[side_of])
    shown = grid_vis[fit_lanes] > 0.5
    pt_lane = fit_lanes[np.nonzero(shown)[0]]
    behind, u, v, inside = _image_points([r.camera for r in records],
                                         grid_pts[fit_lanes][shown],
                                         side_of[pt_lane] // 2)
    in_lane, u, v = pt_lane[inside], u[inside], v[inside]
    n_in = np.bincount(in_lane, minlength=len(lanes))
    single = np.zeros(len(lanes), dtype=bool)
    has = np.flatnonzero(n_in)
    if has.size:
        first = (np.cumsum(n_in) - n_in)[has]
        single[has] = np.minimum.reduceat(v, first) == np.maximum.reduceat(v, first)
    side_pts = np.bincount(side_of, weights=n_in, minlength=2 * n_frames)

    # The first frame that fails any check; _check_lanes names its error.
    wide = np.array([_has_widths(r) for r in records], dtype=bool)
    bad_lane = degenerate | single | ((n_in < 4) & fit_side[side_of])
    bad_lane[pt_lane[behind]] = True
    bad_lane |= ~on_grid & (side_of % 2 == 1) & wide[side_of // 2]
    bad = np.zeros(n_frames, dtype=bool)
    bad[side_of[bad_lane] // 2] = True
    bad[np.flatnonzero(fit_side & (side_pts < 3 + 2 * per_side)) // 2] = True
    stop = int(np.argmax(bad)) if bad.any() else n_frames
    error = None
    if stop < n_frames:
        try:
            _check_lanes(records[stop], anchors)
        except Lane3DError as exc:
            error = exc

    # Each side's curves: stored, none, or fitted from its in-image points.
    curves = [list(c) if n and not fit else []
              for n, c, fit in zip(per_side.tolist(), stored, fit_side.tolist())]
    fitted = np.flatnonzero(fit_side[:2 * stop]).tolist()
    cut = np.concatenate([[0], np.cumsum(side_pts.astype(np.int64))])
    problems = []
    for s in fitted:
        a, b = cut[s], cut[s + 1]
        per_lane = np.cumsum(n_in[side_first[s]:side_first[s + 1]])[:-1]
        problems.append(_stack_problem(
            np.split(np.stack([u[a:b], v[a:b]], axis=1), per_lane),
            u[a:b], v[a:b], in_lane[a:b] - side_first[s]))
    for s, fit in zip(fitted, _fit_problems(problems)):
        for lane, curve in zip(lanes[side_first[s]:side_first[s + 1]], fit.curves):
            if lane.score is not None:
                curve.confidence = lane.score
        curves[s] = fit.curves

    def side(parity: int) -> _Side:
        kept = np.flatnonzero(side_of[:side_first[2 * stop]] % 2 == parity)
        return _Side(grid_pts[kept].reshape(-1, 3), grid_vis[kept].reshape(-1),
                     anchors.shape[0] * np.arange(kept.shape[0] + 1),
                     np.concatenate([[0], np.cumsum(per_side[parity:2 * stop:2])]),
                     [c for s in range(parity, 2 * stop, 2) for c in curves[s]])

    gt, pred = side(0), side(1)
    uncs = [u for r, w in zip(records[:stop], wide.tolist()) if w
            for u in r.pred_uncertainties]
    widths = None
    if uncs:  # each on a prediction lane on the grid
        widths = np.zeros((pred.starts.shape[0] - 1, anchors.shape[0], 2))
        widths[np.repeat(wide[:stop], per_side[1:2 * stop:2]), :-1] = np.stack(uncs)
        widths = widths.reshape(-1, 2)
    sizes = np.array([r.camera.image_size for r in records[:stop]],
                     dtype=np.int64).reshape(-1, 2)
    return _Block(gt, pred, widths, wide[:stop], sizes), error


def _loss_block(records, grid: SampleGrid, config: LossConfig):
    """Loss breakdowns of consecutive frames, gathered, fitted and scored
    together.

    The frames before the first that fails to check are scored, and then
    its error is raised, so a run fails with the error a frame-by-frame
    run would meet first.
    """
    block, error = _gather(records, np.asarray(grid.y_anchors))
    breakdowns = _score_block(block, grid, config)
    if error is not None:
        raise error
    return breakdowns


def cmd_loss(args) -> int:
    config = CliConfig.resolve(args)
    records = _load_records(args.gt, args.pred)
    if not records:
        raise ConfigError("no frames to compute losses for")
    grid = SampleGrid()
    loss_config = config.loss_config
    breakdowns = []
    for start in range(0, len(records), _LOSS_BLOCK):
        block = records[start:start + _LOSS_BLOCK]
        breakdowns += zip((r.frame_id for r in block),
                          _loss_block(block, grid, loss_config))
    for frame_id, b in breakdowns:
        print(
            f"frame={frame_id} unc={_fmt(b.loss_unc)} vis={_fmt(b.loss_vis)} "
            f"loc={_fmt(b.loss_loc)} point={_fmt(b.loss_point)} "
            f"ce={_fmt(b.loss_ce)} fit={_fmt(b.loss_fit)} "
            f"curve={_fmt(b.loss_curve)} total={_fmt(b.total)}"
        )

    def agg(values):
        values = list(values)
        return math.fsum(values) / len(values) if values else None

    unc_values = [b.loss_unc for _, b in breakdowns if b.loss_unc is not None]
    aggregate = {
        "loss_unc": agg(unc_values),
        "loss_vis": agg(b.loss_vis for _, b in breakdowns),
        "loss_loc": agg(b.loss_loc for _, b in breakdowns),
        "loss_point": agg(b.loss_point for _, b in breakdowns),
        "loss_ce": agg(b.loss_ce for _, b in breakdowns),
        "loss_fit": agg(b.loss_fit for _, b in breakdowns),
        "loss_curve": agg(b.loss_curve for _, b in breakdowns),
        "total": agg(b.total for _, b in breakdowns),
    }
    gammas = config.values["gammas"]
    _print_kv([
        ("frames", len(breakdowns)),
        ("gammas", ",".join(_fmt(g) for g in gammas)),
        *[(key, _fmt(value)) for key, value in aggregate.items()],
    ])
    if args.out:
        payload = {
            "format_version": 1,
            "config": config.echo(),
            "per_frame": [
                {"frame_id": frame_id, **b.as_dict()}
                for frame_id, b in breakdowns
            ],
            "aggregate": aggregate,
        }
        _atomic_write(args.out, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def _load_json(path, what: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what} is not valid JSON: {exc.msg}", 1) from None


def cmd_fit(args) -> int:
    frame = _load_json(args.frame_2d, "frame-2d file")
    if not isinstance(frame, dict) or "lanes" not in frame:
        raise ParseError("frame-2d file must be an object with a 'lanes' key",
                         1, "lanes")
    if not isinstance(frame["lanes"], list):
        raise ParseError("'lanes' must be an array", 1, "lanes")
    lanes = []
    for i, lane in enumerate(frame["lanes"]):
        try:
            arr = np.asarray(lane, dtype=np.float64)
        except (TypeError, ValueError):  # ragged or non-numeric
            arr = None
        if arr is None or arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] == 0:
            raise ParseError("each lane must be a non-empty array of [u, v]",
                             1, f"lanes[{i}]")
        if not np.isfinite(arr).all():
            raise ParseError("lane points must be finite", 1, f"lanes[{i}]")
        lanes.append(arr)
    if not lanes:
        raise ParseError("frame-2d file holds no lanes", 1, "lanes")
    camera_obj = _load_json(args.camera, "camera file")
    camera = _parse_camera(camera_obj, 1)
    h, w = camera.image_size
    for i, arr in enumerate(lanes):
        if (np.any(arr < 0) or np.any(arr[:, 0] >= w)
                or np.any(arr[:, 1] >= h)):
            raise ParseError("lane points must lie inside the image", 1,
                             f"lanes[{i}]")
    result = fit_curves(lanes, camera.image_size, form=args.form)
    rho = result.curves[0].rho
    _print_kv([
        ("lanes", len(lanes)),
        ("form", args.form),
        ("rho", ",".join(repr(r) for r in rho)),
        ("rms", _fmt(result.rms)),
    ])
    for i, (curve, rms) in enumerate(zip(result.curves, result.lane_rms)):
        print(
            f"lane={i} beta_prime={curve.beta_prime!r} "
            f"beta_dprime={curve.beta_dprime!r} v_low={curve.v_low!r} "
            f"v_up={curve.v_up!r} rms={rms!r}"
        )
    if args.out:
        payload = {
            "format_version": 1,
            "form": args.form,
            "rho": list(rho),
            "rms": result.rms,
            "lanes": [
                {
                    "beta_prime": c.beta_prime,
                    "beta_dprime": c.beta_dprime,
                    "v_low": c.v_low,
                    "v_up": c.v_up,
                    "rms": r,
                }
                for c, r in zip(result.curves, result.lane_rms)
            ],
        }
        _atomic_write(args.out, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("configuration")
    group.add_argument("--config", help="JSON config file (or a structured "
                       "report whose config block is reused)")
    group.add_argument("--tau-cd", dest="tau_cd", type=float, default=None,
                       help="unilateral-CD acceptance threshold, meters "
                       f"(default {_DEFAULTS['tau_cd']})")
    group.add_argument("--tau-iou", dest="tau_iou", type=float, default=None,
                       help=f"BEV IoU gate (default {_DEFAULTS['tau_iou']}, assumed)")
    group.add_argument("--tau-bcd", dest="tau_bcd", type=float, default=None,
                       help="bidirectional-CD acceptance threshold, meters "
                       f"(default {_DEFAULTS['tau_bcd']})")
    group.add_argument("--lane-width", dest="lane_width", type=float,
                       default=None,
                       help="BEV stroke width, meters "
                       f"(default {_DEFAULTS['lane_width']}, assumed)")
    group.add_argument("--bev-resolution", dest="bev_resolution", type=float,
                       default=None,
                       help="BEV cell size, meters "
                       f"(default {_DEFAULTS['bev_resolution']}, assumed)")
    group.add_argument("--n-interp", dest="n_interp", type=int, default=None,
                       help="points per lane interpolation "
                       f"(default {_DEFAULTS['n_interp']})")
    group.add_argument("--mbd-variant", dest="mbd_variant",
                       choices=MBD_VARIANTS, default=None,
                       help="worst-case statistic variant "
                       f"(default {_DEFAULTS['mbd_variant']})")
    group.add_argument("--tau-dist", dest="tau_dist", type=float, default=None,
                       help="pointwise anchor distance threshold, meters "
                       f"(default {_DEFAULTS['tau_dist']})")
    group.add_argument("--tp-fraction", dest="tp_fraction", type=float,
                       default=None,
                       help="fraction of visible anchors that must be "
                       f"in-threshold (default {_DEFAULTS['tp_fraction']})")
    group.add_argument("--cap-multiplier", dest="cap_multiplier", type=float,
                       default=None,
                       help="pointwise per-anchor cost cap as a multiple of "
                       f"tau-dist (default {_DEFAULTS['cap_multiplier']})")
    group.add_argument("--gammas", default=None,
                       help="six comma-separated loss weights "
                       f"(default {','.join(f'{g:g}' for g in _DEFAULTS['gammas'])})")
    group.add_argument("--background-weight", dest="background_weight",
                       type=float, default=None,
                       help="weight of unmatched-prediction confidence "
                       f"penalty (default {_DEFAULTS['background_weight']})")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it
    unchanged)."""
    parser = argparse.ArgumentParser(
        prog="lane3d",
        description="3D lane representations, losses, and evaluation "
        "protocols over canonical frame files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser(
        "eval", help="evaluate predictions against ground truth",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p_eval.add_argument("--gt", required=True, help="ground-truth frame file")
    p_eval.add_argument("--pred", default=None,
                        help="prediction frame file (omit if the ground-truth "
                        "file embeds pred_lanes)")
    p_eval.add_argument("--protocol", required=True,
                        choices=("once", "bcd", "openlane", "mbd"))
    p_eval.add_argument("--out", default=None, help="report file to write")
    p_eval.add_argument("--format", default="structured",
                        choices=("structured", "csv"))
    _add_config_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser(
        "sweep", help="evaluate across a range of distance thresholds",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p_sweep.add_argument("--gt", required=True)
    p_sweep.add_argument("--pred", default=None)
    p_sweep.add_argument("--protocol", required=True,
                         choices=("once", "bcd", "openlane", "mbd"))
    p_sweep.add_argument("--taus", required=True,
                         help="start:stop:step (inclusive) or comma list")
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--format", default="csv",
                         choices=("structured", "csv"))
    _add_config_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_synth = sub.add_parser(
        "synth", help="generate a synthetic scenario",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p_synth.add_argument("--frames", type=int, required=True)
    p_synth.add_argument("--lanes", type=int, default=4,
                         help="lanes per frame")
    p_synth.add_argument("--curvature", default="-0.002:0.002",
                         help="curvature range lo:hi, 1/meters")
    p_synth.add_argument("--sigma-w0", dest="sigma_w0", type=float,
                         default=0.0, help="lateral noise sigma at y=0")
    p_synth.add_argument("--sigma-w-slope", dest="sigma_w_slope", type=float,
                         default=0.0, help="lateral noise growth per meter")
    p_synth.add_argument("--sigma-h0", dest="sigma_h0", type=float,
                         default=0.0, help="vertical noise sigma at y=0")
    p_synth.add_argument("--sigma-h-slope", dest="sigma_h_slope", type=float,
                         default=0.0, help="vertical noise growth per meter")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True, help="ground-truth file")
    p_synth.add_argument("--emit-pred", dest="emit_pred", default=None,
                         help="also write noisy predictions to this file")
    p_synth.set_defaults(func=cmd_synth)

    p_loss = sub.add_parser(
        "loss", help="itemized reference losses per frame",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p_loss.add_argument("--gt", required=True)
    p_loss.add_argument("--pred", default=None)
    p_loss.add_argument("--out", default=None)
    _add_config_flags(p_loss)
    p_loss.set_defaults(func=cmd_loss)

    p_fit = sub.add_parser(
        "fit", help="fit shared-rho front-view curves to 2D lanes",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p_fit.add_argument("--frame-2d", dest="frame_2d", required=True,
                       help="JSON file: {\"lanes\": [[[u, v], ...], ...]}")
    p_fit.add_argument("--camera", required=True,
                       help="JSON file with the camera object")
    p_fit.add_argument("--form", default="rational",
                       choices=("rational", "poly3"))
    p_fit.add_argument("--out", default=None)
    p_fit.set_defaults(func=cmd_fit)

    return parser


# Exit code of each error class; any other class takes that of its
# nearest listed base (SchemaVersionMismatch: ParseError's).
_EXIT_CODES = {
    ConfigError: 2,
    ParseError: 3,
    MissingFrame: 4,
    MissingField: 5,
    Underdetermined: 6,
    IoError: 7,
    Lane3DError: 1,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Lane3DError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[c] for c in type(exc).__mro__ if c in _EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
