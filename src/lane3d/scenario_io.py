"""Frame interchange files, report serialization, and scenario synthesis.

Frame file format (normative)
-----------------------------
One UTF-8 JSON object per line; every line is independent (streaming
readers never need the whole file).  Field names:

``version``
    integer format version; this module reads and writes version 1.
``frame_id``
    string, unique within a file.
``camera``
    object with ``fx, fy, cx, cy`` (pixels), ``height`` (meters),
    ``pitch`` (radians, downward positive), ``image_h, image_w``
    (pixels).
``lanes``
    array of lane objects.  A lane object has ``points`` (array of
    ``[x, y, z]`` ground-frame meters, strictly increasing y),
    ``visibility`` (array of values in [0, 1], same length), and the
    optional keys ``score`` (detection confidence in [0, 1]),
    ``curve`` (front-view curve parameters: ``rho`` — 4 numbers,
    ``beta_prime``, ``beta_dprime``, ``v_low``, ``v_up``,
    ``confidence``, ``form``), and ``uncertainty`` (array of
    ``[lateral, vertical]`` width pairs, one per consecutive point
    pair).
``pred_lanes``
    optional array of lane objects: predictions bundled with their
    ground truth in a single self-contained file.

A standalone prediction file is an ordinary frame file whose ``lanes``
array holds the predictions; ``align`` pairs such a file with a
ground-truth file by ``frame_id``.

Floats are serialized with ``repr`` semantics (shortest decimal that
round-trips), so ``read(write(x))`` reproduces every coordinate exactly.
Writers emit keys in sorted order and never include timestamps, making
output files byte-deterministic.

The standard ``json`` module defines which lines are accepted and what
they read as; ``orjson``, where it imports, is only a faster decoder of
the same lines.  ``read_frames`` hands a line to ``json`` where the two
could part (see ``_fast_record``); the one gap left is a line under
``_ORJSON_MAX_LINE`` characters nested deeper than ``json`` goes (about
1,000 levels) in a key the reader ignores, which ``orjson`` reads.
Writing uses ``json`` alone.

Each side of a frame takes one ``np.asarray`` per field and one set of
array checks; a side that fails one is walked lane by lane only to raise
the first failing lane's error (see ``_parse_lanes``).

Synthetic scenarios
-------------------
``generate_scenario`` builds smooth polynomial ground-truth lanes and
optional noisy predictions.  Lateral noise displaces each point along
the local ground-plane normal to the lane heading, vertical noise along
z, both zero-mean Gaussian with depth-dependent standard deviation
``sigma0 + slope * y``.  Two draws per call fix the files' bytes: from
the seed's ground-truth stream, uniforms of shape (frames, lanes, 5)
(x offset, heading, curvature, z offset, z slope); from its noise
stream, standard normals of shape (frames, lanes, 2, points) (lateral,
then vertical).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    IoError,
    MissingFrame,
    ParseError,
    SchemaVersionMismatch,
)
from .geometry import DEFAULT_CAMERA, CameraModel, Curve2D, Lane3D

__all__ = [
    "FORMAT_VERSION",
    "FrameRecord",
    "NoiseModel",
    "read_frames",
    "write_frames",
    "align",
    "write_report",
    "apply_noise",
    "generate_frames",
    "generate_scenario",
]

FORMAT_VERSION = 1

_CAMERA_FIELDS = ("fx", "fy", "cx", "cy", "height", "pitch", "image_h", "image_w")


@dataclass
class FrameRecord:
    """One frame: camera, ground-truth lanes, optional predictions.

    The per-lane attachment lists (curves, uncertainties) parallel their
    lane list; an attachment list is either None or exactly as long as
    the lanes, with None entries where a lane has no attachment.
    """

    frame_id: str
    camera: CameraModel
    gt_lanes: list[Lane3D]
    pred_lanes: list[Lane3D] | None = None
    gt_curves: list[Curve2D | None] | None = None
    gt_uncertainties: list[np.ndarray | None] | None = None
    pred_curves: list[Curve2D | None] | None = None
    pred_uncertainties: list[np.ndarray | None] | None = None

    def __post_init__(self):
        for name, attachments, lanes in (
            ("gt_curves", self.gt_curves, self.gt_lanes),
            ("gt_uncertainties", self.gt_uncertainties, self.gt_lanes),
            ("pred_curves", self.pred_curves, self.pred_lanes),
            ("pred_uncertainties", self.pred_uncertainties, self.pred_lanes),
        ):
            if attachments is None:
                continue
            if lanes is None or len(attachments) != len(lanes):
                raise ValueError(
                    f"{name} must parallel its lane list "
                    f"({len(attachments)} attachments)"
                )


@dataclass(frozen=True)
class NoiseModel:
    """Depth-dependent injection noise: sigma(y) = sigma0 + slope * y."""

    sigma_w0: float = 0.0
    sigma_w_slope: float = 0.0
    sigma_h0: float = 0.0
    sigma_h_slope: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("sigma_w0", "sigma_w_slope", "sigma_h0", "sigma_h_slope"):
            value = float(getattr(self, name))
            if not 0 <= value < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {value!r}")
            object.__setattr__(self, name, value)
        seed = int(self.seed)
        if seed < 0:
            raise ConfigError(f"seed must be >= 0, got {seed}")
        object.__setattr__(self, "seed", seed)


# ---------------------------------------------------------------------------
# reading
# ---------------------------------------------------------------------------


def _need(obj: dict, key: str, line: int, prefix: str = ""):
    if key not in obj:
        raise ParseError("missing required field", line, prefix + key)
    return obj[key]


def _parse_camera(obj, line: int) -> CameraModel:
    if not isinstance(obj, dict):
        raise ParseError("camera must be an object", line, "camera")
    values = {k: _need(obj, k, line, "camera.") for k in _CAMERA_FIELDS}
    unknown = set(obj) - set(_CAMERA_FIELDS)
    if unknown:
        raise ParseError(
            f"unknown camera keys {sorted(unknown)}", line, "camera"
        )
    try:
        return CameraModel(
            fx=float(values["fx"]),
            fy=float(values["fy"]),
            cx=float(values["cx"]),
            cy=float(values["cy"]),
            height=float(values["height"]),
            pitch=float(values["pitch"]),
            image_size=(int(values["image_h"]), int(values["image_w"])),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(str(exc), line, "camera") from None


def _parse_curve(obj, line: int, where: str) -> Curve2D:
    if not isinstance(obj, dict):
        raise ParseError("curve must be an object", line, where)
    try:
        return Curve2D(
            rho=tuple(_need(obj, "rho", line, where + ".")),
            beta_prime=float(_need(obj, "beta_prime", line, where + ".")),
            beta_dprime=float(_need(obj, "beta_dprime", line, where + ".")),
            v_low=float(_need(obj, "v_low", line, where + ".")),
            v_up=float(_need(obj, "v_up", line, where + ".")),
            confidence=float(obj.get("confidence", 1.0)),
            form=obj.get("form", "rational"),
        )
    except ParseError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(str(exc), line, where) from None


def _parse_lanes(objs, line: int, key: str):
    """Side ``key`` (``lanes``/``pred_lanes``) of a frame: its lanes,
    curves and uncertainties.  ``_side_lanes`` converts and checks the
    points, visibility and uncertainties of the whole side, and each lane
    holds row slices of its arrays; where a check fails, ``_walk_lanes``
    raises the first failing lane's error.  Curves are read lane by lane.
    """
    if not isinstance(objs, list):
        raise ParseError(f"{key} must be an array", line, key)
    side = _side_lanes(objs) if objs else ([], None)
    if side is None:
        _walk_lanes(objs, line, key)
        raise AssertionError(f"{key} on line {line} failed a check no lane fails")
    curves = [_parse_curve(obj["curve"], line, f"{key}[{i}].curve")
              if "curve" in obj else None for i, obj in enumerate(objs)]
    return side[0], None if all(c is None for c in curves) else curves, side[1]


def _side_lanes(objs):
    """``_parse_lanes``' lanes and uncertainties from one conversion and
    one set of checks per field, or None where any check fails."""
    if not all(isinstance(obj, dict) and isinstance(obj.get("points"), list)
               and isinstance(obj.get("visibility"), list)
               and len(obj["visibility"]) == len(obj["points"]) > 0
               and ("uncertainty" not in obj or isinstance(obj["uncertainty"], list)
                    and len(obj["uncertainty"]) == len(obj["points"]) - 1 > 0)
               for obj in objs):
        return None
    sizes = [len(obj["points"]) for obj in objs]
    segments = [n - 1 if "uncertainty" in obj else 0 for obj, n in zip(objs, sizes)]
    try:
        points, vis, unc = (
            np.asarray([row for obj in objs for row in obj.get(field, ())],
                       dtype=np.float64)
            for field in ("points", "visibility", "uncertainty"))
        scores = [None if obj.get("score") is None else float(obj["score"])
                  for obj in objs]
    except (TypeError, ValueError, OverflowError):
        return None
    if points.ndim != 2 or points.shape[1] != 3 or vis.ndim != 1:
        return None
    ends = np.add.accumulate(sizes)
    rising = points[1:, 1] > points[:-1, 1]
    rising[ends[:-1] - 1] = True  # the steps from one lane to the next
    if not (np.isfinite(points).all() and rising.all()
            and 0.0 <= vis.min() and vis.max() <= 1.0  # False on a NaN
            and all(s is None or 0.0 <= s <= 1.0 for s in scores)):
        return None
    lanes = [Lane3D._checked(points[b - n:b], vis[b - n:b], s)
             for b, n, s in zip(ends.tolist(), sizes, scores)]
    if not any(segments):
        return lanes, None
    if unc.ndim != 2 or unc.shape[1] != 2 or not np.isfinite(unc).all():
        return None
    cuts = np.add.accumulate(segments).tolist()
    return lanes, [unc[b - k:b] if k else None for b, k in zip(cuts, segments)]


def _walk_lanes(objs, line: int, key: str):
    """``_parse_lanes`` lane by lane, each lane converted and checked
    alone: the reader's error path, which raises the first failing lane's
    error, and the reference its array passes are tested against."""
    lanes: list[Lane3D] = []
    curves: list[Curve2D | None] = []
    uncs: list[np.ndarray | None] = []
    for i, obj in enumerate(objs):
        where = f"{key}[{i}]"
        if not isinstance(obj, dict):
            raise ParseError("lane must be an object", line, where)
        points = _need(obj, "points", line, where + ".")
        visibility = _need(obj, "visibility", line, where + ".")
        score = obj.get("score")
        try:
            lanes.append(
                Lane3D(
                    points=np.asarray(points, dtype=np.float64),
                    visibility=np.asarray(visibility, dtype=np.float64),
                    score=None if score is None else float(score),
                )
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(str(exc), line, where) from None
        if "curve" in obj:
            curves.append(_parse_curve(obj["curve"], line, where + ".curve"))
        else:
            curves.append(None)
        if "uncertainty" in obj:
            try:
                arr = np.asarray(obj["uncertainty"], dtype=np.float64)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ParseError(str(exc), line, where + ".uncertainty") from None
            segments = lanes[-1].points.shape[0] - 1
            if arr.shape != (segments, 2) or not np.isfinite(arr).all():
                raise ParseError(
                    "uncertainty must be an array of finite [lateral, "
                    f"vertical] pairs, one per segment ({segments})",
                    line,
                    where + ".uncertainty",
                )
            uncs.append(arr)
        else:
            uncs.append(None)
    if all(c is None for c in curves):
        curves = None
    if all(u is None for u in uncs):
        uncs = None
    return lanes, curves, uncs


def _parse_record(obj, line: int, seen: set[str]) -> FrameRecord:
    if not isinstance(obj, dict):
        raise ParseError("record must be an object", line)
    version = _need(obj, "version", line)
    if version != FORMAT_VERSION:
        raise SchemaVersionMismatch(
            f"unsupported format version {version!r} "
            f"(this reader supports {FORMAT_VERSION})",
            line,
            "version",
        )
    frame_id = _need(obj, "frame_id", line)
    if not isinstance(frame_id, str):
        raise ParseError("frame_id must be a string", line, "frame_id")
    if frame_id in seen:
        raise ParseError(f"duplicate frame_id {frame_id!r}", line, "frame_id")
    camera = _parse_camera(_need(obj, "camera", line), line)
    lanes, curves, uncs = _parse_lanes(_need(obj, "lanes", line), line, "lanes")
    pred_lanes = pred_curves = pred_uncs = None
    if "pred_lanes" in obj:
        pred_lanes, pred_curves, pred_uncs = _parse_lanes(
            obj["pred_lanes"], line, "pred_lanes"
        )
    return FrameRecord(
        frame_id=frame_id,
        camera=camera,
        gt_lanes=lanes,
        pred_lanes=pred_lanes,
        gt_curves=curves,
        gt_uncertainties=uncs,
        pred_curves=pred_curves,
        pred_uncertainties=pred_uncs,
    )


def _json_decode(raw: str, line: int):
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line) from None
    except RecursionError:
        raise ParseError("invalid JSON: nesting too deep", line) from None


# Lines this long go to ``json`` alone: ``orjson`` 3.8 has no nesting limit,
# and a line nested past its stack (about 260,000 characters on an 8 MiB
# stack, x86-64) kills the process.
_ORJSON_MAX_LINE = 1 << 16


def _fast_record(raw: str, loads, line: int, seen: set[str]):
    """The record of a line decoded by ``orjson``, or None where ``json``
    must read the line: one of ``_ORJSON_MAX_LINE`` characters or more,
    one ``orjson`` rejects (``NaN``/``Infinity``, numbers beyond the double
    range, lone surrogates), a camera ``image_h``/``image_w`` ``orjson``
    read as a float (an integer literal beyond 64 bits), or a record that
    fails a check (the error is ``json``'s reading)."""
    if len(raw) >= _ORJSON_MAX_LINE:
        return None
    try:
        obj = loads(raw)
    except ValueError:
        return None
    camera = obj.get("camera") if isinstance(obj, dict) else None
    if isinstance(camera, dict) and (
        isinstance(camera.get("image_h"), float)
        or isinstance(camera.get("image_w"), float)
    ):
        return None
    try:
        return _parse_record(obj, line, seen)
    except ParseError:
        return None


def read_frames(path):
    """Yield FrameRecords from a frame file, validating as it streams.

    Lines decode with ``orjson`` where it imports, at the first read;
    ``json`` reads the lines ``_fast_record`` turns down.

    Raises ParseError (with 1-based line number and field path),
    SchemaVersionMismatch, or IoError.
    """
    try:
        handle = open(path, encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from None

    def records():
        try:
            from orjson import loads
        except ImportError:
            loads = None
        seen: set[str] = set()
        with handle:
            for line_no, raw in enumerate(handle, start=1):
                if not raw.strip():
                    continue
                record = None if loads is None else _fast_record(
                    raw, loads, line_no, seen)
                if record is None:
                    record = _parse_record(_json_decode(raw, line_no), line_no, seen)
                seen.add(record.frame_id)
                yield record

    return records()


# ---------------------------------------------------------------------------
# writing
# ---------------------------------------------------------------------------


def _lane_to_obj(lane: Lane3D, curve: Curve2D | None, unc, where: str) -> dict:
    obj = {
        "points": np.asarray(lane.points, dtype=np.float64).tolist(),
        "visibility": np.asarray(lane.visibility, dtype=np.float64).tolist(),
    }
    if lane.score is not None:
        obj["score"] = float(lane.score)
    if curve is not None:
        obj["curve"] = {
            "rho": list(curve.rho),
            "beta_prime": curve.beta_prime,
            "beta_dprime": curve.beta_dprime,
            "v_low": curve.v_low,
            "v_up": curve.v_up,
            "confidence": curve.confidence,
            "form": curve.form,
        }
    if unc is not None:
        arr = np.asarray(unc, dtype=np.float64)
        segments = lane.points.shape[0] - 1
        if arr.shape != (segments, 2) or not np.isfinite(arr).all():
            raise ValueError(
                f"{where}.uncertainty must be an array of finite [lateral, "
                f"vertical] pairs, one per segment ({segments})"
            )
        obj["uncertainty"] = arr.tolist()
    return obj


def _camera_to_obj(camera: CameraModel) -> dict:
    h, w = camera.image_size
    return {
        "fx": camera.fx, "fy": camera.fy, "cx": camera.cx, "cy": camera.cy,
        "height": camera.height, "pitch": camera.pitch,
        "image_h": h, "image_w": w,
    }


def _record_to_line(record: FrameRecord) -> str:
    def lane_objs(key, lanes, curves, uncs):
        curves = curves or [None] * len(lanes)
        uncs = uncs or [None] * len(lanes)
        return [
            _lane_to_obj(lane, c, u, f"frame {record.frame_id!r} {key}[{i}]")
            for i, (lane, c, u) in enumerate(zip(lanes, curves, uncs))
        ]

    obj = {
        "version": FORMAT_VERSION,
        "frame_id": record.frame_id,
        "camera": _camera_to_obj(record.camera),
        "lanes": lane_objs(
            "lanes", record.gt_lanes, record.gt_curves, record.gt_uncertainties
        ),
    }
    if record.pred_lanes is not None:
        obj["pred_lanes"] = lane_objs(
            "pred_lanes", record.pred_lanes, record.pred_curves,
            record.pred_uncertainties,
        )
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _atomic_write(path, chunks) -> None:
    """Write the strings ``chunks`` yields to ``path`` through a temp file
    and a rename; a failure, also one raised while ``chunks`` makes them,
    leaves neither file behind."""
    path = os.fspath(path)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        if isinstance(exc, OSError):
            raise IoError(f"cannot write {path}: {exc}") from None
        raise


def _write_json(path, payload) -> None:
    """Every JSON report's writer: sorted keys, indent 2, final newline, atomic."""
    _atomic_write(path, [json.dumps(payload, sort_keys=True, indent=2) + "\n"])


def write_frames(path, records) -> None:
    """Write records as one JSON object per line, atomically.

    Each line goes to a temp file as it is made, and the file appears
    only when fully written (a rename); a failure leaves no partial file
    behind.
    """
    def lines():
        seen: set[str] = set()
        for record in records:
            if record.frame_id in seen:
                raise ValueError(f"duplicate frame_id {record.frame_id!r}")
            seen.add(record.frame_id)
            yield _record_to_line(record) + "\n"

    _atomic_write(path, lines())


def align(gt_records, pred_records) -> list[FrameRecord]:
    """Pair a ground-truth file with a standalone prediction file.

    The prediction file's ``lanes`` are its predictions.  Every
    prediction frame must name a ground-truth frame (else MissingFrame);
    ground-truth frames with no prediction counterpart get an empty
    prediction list.  Ground-truth order is preserved.
    """
    gt_records = list(gt_records)
    by_id: dict[str, FrameRecord] = {}
    for record in pred_records:
        by_id[record.frame_id] = record
    gt_ids = {record.frame_id for record in gt_records}
    for frame_id in by_id:
        if frame_id not in gt_ids:
            raise MissingFrame(
                f"prediction frame {frame_id!r} has no ground-truth frame"
            )
    out = []
    for record in gt_records:
        pred = by_id.get(record.frame_id)
        out.append(
            FrameRecord(
                frame_id=record.frame_id,
                camera=record.camera,
                gt_lanes=record.gt_lanes,
                pred_lanes=(pred.gt_lanes if pred is not None else []),
                gt_curves=record.gt_curves,
                gt_uncertainties=record.gt_uncertainties,
                pred_curves=(pred.gt_curves if pred is not None else None),
                pred_uncertainties=(
                    pred.gt_uncertainties if pred is not None else None
                ),
            )
        )
    return out


def write_report(report, path, format: str = "structured",
                 config: dict | None = None) -> None:
    """Serialize a MetricReport to disk, atomically and deterministically.

    ``structured`` writes indented JSON with sorted keys, the report's
    format version, and (when given) the configuration echo; the output
    contains no timestamps, so identical inputs produce byte-identical
    files.  ``csv`` writes the threshold-sweep table with header
    ``tau,precision,recall,f1`` and requires the report to carry sweep
    rows.
    """
    if format == "structured":
        payload = report.as_dict()
        if config is not None:
            payload["config"] = config
        _write_json(path, payload)
    elif format == "csv":
        if report.sweep_rows is None:
            raise ConfigError("csv format requires a report with sweep rows")
        lines = ["tau,precision,recall,f1"]
        for tau, precision, recall, f1 in report.sweep_rows:
            lines.append(f"{tau!r},{precision!r},{recall!r},{f1!r}")
        _atomic_write(path, ["\n".join(lines) + "\n"])
    else:
        raise ConfigError(f"unknown report format {format!r}")


# ---------------------------------------------------------------------------
# synthetic scenarios
# ---------------------------------------------------------------------------


def _noisy(points: np.ndarray, noise: NoiseModel, rng) -> np.ndarray:
    """Lanes ``points`` (..., n, 3) displaced as ``apply_noise`` says, with
    one draw: each lane's n lateral, then its n vertical normals."""
    y = points[..., 1]
    eps = rng.standard_normal((*y.shape[:-1], 2, y.shape[-1]))
    out = points.copy()
    # A huge sigma overflows to a non-finite point, which the caller rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        tangent = np.gradient(points[..., :2], axis=-2)
        norm = np.hypot(tangent[..., 0], tangent[..., 1])
        unit = tangent / norm[..., None]
        normal = np.stack([unit[..., 1], -unit[..., 0]], axis=-1)
        sigma_w = noise.sigma_w0 + noise.sigma_w_slope * y
        sigma_h = noise.sigma_h0 + noise.sigma_h_slope * y
        eps_w = eps[..., 0, :] * sigma_w
        eps_h = eps[..., 1, :] * sigma_h
        out[..., :2] += eps_w[..., None] * normal
        out[..., 2] += eps_h
    return out


def apply_noise(lane: Lane3D, noise: NoiseModel, rng) -> Lane3D:
    """Displace each point laterally (normal to the local ground-plane
    heading) and vertically by zero-mean Gaussian noise with
    sigma(y) = sigma0 + slope * y."""
    return Lane3D(points=_noisy(lane.points[None], noise, rng)[0],
                  visibility=lane.visibility.copy(), score=1.0)


def generate_frames(
    n_frames: int,
    lanes_per_frame: int,
    curvature_range: tuple[float, float],
    noise: NoiseModel,
    camera: CameraModel | None = None,
) -> tuple[list[FrameRecord], list[FrameRecord]]:
    """Deterministic synthetic ground truths plus noisy predictions.

    Returns (gt_records, pred_records); prediction records carry their
    lanes in the primary ``lanes`` slot, ready to be written as a
    standalone prediction file.  Ground-truth synthesis and noise
    injection use independent streams spawned from the seed, so the
    ground truths do not depend on whether predictions are consumed.
    A curvature range that overflows a ground-truth lane, or noise that
    makes a prediction an invalid lane (folded back in y), raises
    ConfigError; the latter names the first such frame and lane.
    """
    if n_frames <= 0 or lanes_per_frame <= 0:
        raise ConfigError("n_frames and lanes_per_frame must be positive")
    lo, hi = (float(curvature_range[0]), float(curvature_range[1]))
    if not (math.isfinite(hi - lo) and lo <= hi):
        raise ConfigError(
            f"curvature_range must be finite (low, high) with a finite "
            f"width, got {lo, hi}"
        )
    camera = camera or DEFAULT_CAMERA
    gt_seq, noise_seq = np.random.SeedSequence(noise.seed).spawn(2)
    draws = np.random.default_rng(gt_seq).uniform(
        [-0.3, -0.02, lo, 0.0, -0.005], [0.3, 0.02, hi, 0.05, 0.005],
        (n_frames, lanes_per_frame, 5))[..., None]
    x0, heading, curvature, z0, z_slope = np.moveaxis(draws, 2, 0)
    slot = np.arange(lanes_per_frame)[:, None] - (lanes_per_frame - 1) / 2.0
    x0 = slot * 3.7 + x0
    y = np.linspace(3.0, 103.0, 20)
    with np.errstate(over="ignore"):
        x = x0 + heading * y + 0.5 * curvature * y * y
    if not np.isfinite(x).all():
        raise ConfigError(f"curvature_range {lo, hi} overflows a lane's points")
    gt = np.stack([x, np.broadcast_to(y, x.shape), z0 + z_slope * y], axis=-1)
    preds = _noisy(gt, noise, np.random.default_rng(noise_seq))
    valid = (np.isfinite(preds).all(axis=(2, 3))
             & (preds[..., 1:, 1] > preds[..., :-1, 1]).all(axis=2))
    if not valid.all():
        k, i = np.argwhere(~valid)[0].tolist()
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                Lane3D(points=preds[k, i], visibility=np.ones(y.size))
        except ValueError as exc:
            raise ConfigError(
                f"frame 'frame_{k:06d}' lane {i}: the noise makes an invalid "
                f"prediction ({exc})"
            ) from None
    gt_records, pred_records = (
        [FrameRecord(frame_id=f"frame_{k:06d}", camera=camera,
                     gt_lanes=[Lane3D._checked(p, v, score)
                               for p, v in zip(lanes, vis)])
         for k, (lanes, vis) in enumerate(zip(side, np.ones(side.shape[:-1])))]
        for side, score in ((gt, None), (preds, 1.0)))
    return gt_records, pred_records


def generate_scenario(
    n_frames: int,
    lanes_per_frame: int,
    curvature_range: tuple[float, float],
    noise: NoiseModel,
    gt_path,
    pred_path=None,
    camera: CameraModel | None = None,
):
    """Write a synthetic ground-truth file and, optionally, predictions.

    Returns (gt_path, pred_path or None).  Identical parameters and seed
    produce byte-identical files.
    """
    gt_records, pred_records = generate_frames(
        n_frames, lanes_per_frame, curvature_range, noise, camera
    )
    write_frames(gt_path, gt_records)
    if pred_path is not None:
        write_frames(pred_path, pred_records)
        return gt_path, pred_path
    return gt_path, None
