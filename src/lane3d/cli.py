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
8 BEV stroke beyond the raster's bounds; 1 any other library failure.
The input files are read and aligned before any frame is scored.  Then
every command scores frames in blocks through one driver
(``report._blockwise``): ``eval`` and ``sweep`` in blocks of bounded
lane points, ``loss`` 32 frames at a time (``losses._loss_records``).  A
block that fails is scored again frame by frame, so a run's error is
that of the first frame that fails on its own.

Output files are written to a temporary name and renamed into place, so
a failing command never leaves a partial file.  Standard output is
machine-parsable ``key = value`` lines (plus one line per pair/row in
tables).  Frames are scored in order on one thread.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields

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
    RasterOverflow,
    Underdetermined,
)
from .geometry import SampleGrid, fit_curves
from .losses import LossConfig, _loss_records
from .pointwise import PointwiseConfig, openlane_report
from .report import MetricReport, ordering_hash
from .scenario_io import (
    NoiseModel,
    _parse_camera,
    _write_json,
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


def _real(value) -> float:
    """``float(value)`` of a number or a numeric string; a boolean is neither."""
    if isinstance(value, bool):
        raise TypeError(value)
    return float(value)


def _parse_gammas(value) -> tuple[float, ...]:
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip()]
    else:
        parts = value
    try:
        gammas = tuple(_real(p) for p in parts)
    except (TypeError, ValueError, OverflowError):
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
            if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
                raise ValueError(value)
            return int(value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"{key} must be an integer, got {value!r}") from None
    try:
        return _real(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be a number, got {value!r}") from None


@dataclass
class CliConfig:
    """Fully resolved configuration plus the source of every value, and
    the library configs built from it: every value is checked, whichever
    command runs."""

    values: dict
    sources: dict
    eval_config: EvalConfig = field(init=False)
    pointwise_config: PointwiseConfig = field(init=False)
    loss_config: LossConfig = field(init=False)

    def __post_init__(self):
        self.eval_config = EvalConfig(**{key: self.values[key] for key in _EVAL_KEYS})
        self.pointwise_config = PointwiseConfig(
            **{key: self.values[key] for key in _POINTWISE_KEYS})
        try:
            self.loss_config = LossConfig(
                gamma=self.values["gammas"],
                background_weight=self.values["background_weight"],
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

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


_MAX_TAUS = 2**20  # the most thresholds a --taus range may hold


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
        if not all(math.isfinite(x) for x in (start, stop, step)):
            raise ConfigError(f"--taus range {text!r} must be finite")
        if step <= 0:
            raise ConfigError(f"--taus step must be > 0, got {step!r}")
        if stop < start:
            raise ConfigError("--taus stop must be >= start")
        steps = (stop - start) / step + 1e-9
        if not steps < _MAX_TAUS:  # an overflow to inf fails too
            raise ConfigError(
                f"--taus range {text!r} holds more than {_MAX_TAUS} thresholds"
            )
        return [start + k * step for k in range(int(math.floor(steps)) + 1)]
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
        write_report(report, args.out, config=config.echo())
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
        frame_ids=[r.frame_id for r in records],
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


def cmd_loss(args) -> int:
    config = CliConfig.resolve(args)
    records = _load_records(args.gt, args.pred)
    if not records:
        raise ConfigError("no frames to compute losses for")
    breakdowns = list(zip((r.frame_id for r in records),
                          _loss_records(records, SampleGrid(), config.loss_config)))
    for frame_id, b in breakdowns:
        print(
            f"frame={frame_id} unc={_fmt(b.loss_unc)} vis={_fmt(b.loss_vis)} "
            f"loc={_fmt(b.loss_loc)} point={_fmt(b.loss_point)} "
            f"ce={_fmt(b.loss_ce)} fit={_fmt(b.loss_fit)} "
            f"curve={_fmt(b.loss_curve)} total={_fmt(b.total)}"
        )
    # each term's mean over the frames that have it (loss_unc may be absent)
    terms = [b.as_dict() for _, b in breakdowns]
    aggregate = {}
    for key in terms[0]:
        values = [t[key] for t in terms if t[key] is not None]
        aggregate[key] = math.fsum(values) / len(values) if values else None
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
            "per_frame": [{"frame_id": frame_id, **t}
                          for (frame_id, _), t in zip(breakdowns, terms)],
            "aggregate": aggregate,
        }
        _write_json(args.out, payload)
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
        except (TypeError, ValueError, OverflowError):
            arr = None  # ragged, non-numeric or beyond a double
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
        _write_json(args.out, payload)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


# (key, type or choices, help) of each configuration flag, ``--tau-cd``
# for ``tau_cd``; its help ends with the key's default.
_CONFIG_FLAGS = (
    ("tau_cd", float, "unilateral-CD acceptance threshold, meters"),
    ("tau_iou", float, "BEV IoU gate"),
    ("tau_bcd", float, "bidirectional-CD acceptance threshold, meters"),
    ("lane_width", float, "BEV stroke width, meters"),
    ("bev_resolution", float, "BEV cell size, meters"),
    ("n_interp", int, "points per lane interpolation"),
    ("mbd_variant", MBD_VARIANTS, "worst-case statistic variant"),
    ("tau_dist", float, "pointwise anchor distance threshold, meters"),
    ("tp_fraction", float, "fraction of visible anchors that must be in-threshold"),
    ("cap_multiplier", float,
     "pointwise per-anchor cost cap as a multiple of tau-dist"),
    ("gammas", str, "six comma-separated loss weights"),
    ("background_weight", float, "weight of unmatched-prediction confidence penalty"),
)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("configuration")
    group.add_argument("--config", help="JSON config file (or a structured "
                       "report whose config block is reused)")
    for key, kind, text in _CONFIG_FLAGS:
        default = _DEFAULTS[key]
        if key == "gammas":
            default = ",".join(f"{g:g}" for g in default)
        if key in _ASSUMED_KEYS:
            default = f"{default}, assumed"
        group.add_argument("--" + key.replace("_", "-"), dest=key, default=None,
                           help=f"{text} (default {default})",
                           **({"choices": kind} if isinstance(kind, tuple)
                              else {"type": kind}))


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Appends each flag's default to its help, unless it has none."""

    def _get_help_string(self, action):
        if action.default is None:
            return action.help
        return super()._get_help_string(action)


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
        formatter_class=_HelpFormatter)
    p_eval.add_argument("--gt", required=True, help="ground-truth frame file")
    p_eval.add_argument("--pred", default=None,
                        help="prediction frame file (omit if the ground-truth "
                        "file embeds pred_lanes)")
    p_eval.add_argument("--protocol", required=True,
                        choices=("once", "bcd", "openlane", "mbd"))
    p_eval.add_argument("--out", default=None,
                        help="structured JSON report file to write")
    _add_config_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser(
        "sweep", help="evaluate across a range of distance thresholds",
        formatter_class=_HelpFormatter)
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
        formatter_class=_HelpFormatter)
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
        formatter_class=_HelpFormatter)
    p_loss.add_argument("--gt", required=True)
    p_loss.add_argument("--pred", default=None)
    p_loss.add_argument("--out", default=None)
    _add_config_flags(p_loss)
    p_loss.set_defaults(func=cmd_loss)

    p_fit = sub.add_parser(
        "fit", help="fit shared-rho front-view curves to 2D lanes",
        formatter_class=_HelpFormatter)
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
    RasterOverflow: 8,
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
