"""`loss` frame by frame, lane by lane and pair by pair: the oracle of the
block scorer (``losses.loss_frames``) and of the CLI's block gather.

A condensed copy of the per-frame implementation the block pipeline
replaced.  Each frame is gathered on its own (lanes resampled and
projected one at a time, fit inputs checked by ``_check_frame``), fitted
alone, and scored by ``loss_total`` below: every curve sampled by its own
call, each fitting cost summed pair by pair, each loss term collected
term by term.
"""

import math

import numpy as np

from lane3d.errors import (
    AnchorMismatch,
    BehindCamera,
    ConfigError,
    MissingField,
)
from lane3d.gaussians import segment_symmetric_klds
from lane3d.geometry import (
    EPS_DEN,
    EPS_DEPTH,
    Lane3D,
    _check_frame,
    _fit_problems,
    _FitProblem,
    curve_eval,
    resample_at_y,
)
from lane3d.losses import PROB_CLAMP, LossBreakdown
from lane3d.matching import hungarian


# -- scoring -----------------------------------------------------------------

def sample_curve(curve, camera, grid):
    h, w = camera.image_size
    v = (np.arange(grid.j_prime, dtype=np.float64) + 0.5) * (h / grid.j_prime)
    u = np.full(grid.j_prime, -1.0)
    m = np.zeros(grid.j_prime, dtype=np.int64)
    if curve.form == "rational" and (curve.rho[0] != 0.0 or curve.rho[2] != 0.0):
        ok = np.abs(v - curve.rho[1]) >= EPS_DEN
    else:
        ok = np.ones(grid.j_prime, dtype=bool)
    if np.any(ok):
        u_ok = curve_eval(curve, v[ok])
        valid = ((v[ok] >= curve.v_low) & (v[ok] <= curve.v_up)
                 & (u_ok >= 0.0) & (u_ok < w))
        idx = np.flatnonzero(ok)[valid]
        u[idx] = u_ok[valid]
        m[idx] = 1
    return u, v, m


def clamped_log(p):
    return math.log(min(max(p, PROB_CLAMP), 1.0 - PROB_CLAMP))


def fit_matrix(gt_curves, pred_curves, camera, grid, config):
    gt_samples = [sample_curve(c, camera, grid) for c in gt_curves]
    pred_samples = [sample_curve(c, camera, grid) for c in pred_curves]
    fit = np.zeros((len(gt_curves), len(pred_curves)))
    for k, (gt, (u_gt, _, m_gt)) in enumerate(zip(gt_curves, gt_samples)):
        for j, (pred, (u_pred, _, m_pred)) in enumerate(zip(pred_curves, pred_samples)):
            both = (m_gt & m_pred).astype(bool)
            u_term = float(np.abs(u_pred[both] - u_gt[both]).sum())
            extent = abs(pred.v_low - gt.v_low) + abs(pred.v_up - gt.v_up)
            fit[k, j] = config.gamma[4] * u_term + config.gamma[5] * extent
    return fit


def paired_lanes(gt_lanes, pred_lanes, match):
    out = []
    for k, j in match.pairs:
        gt, pred = gt_lanes[k], pred_lanes[j]
        if len(gt.points) != len(pred.points):
            raise AnchorMismatch(
                f"matched lanes gt[{k}] and pred[{j}] have "
                f"{len(gt.points)} vs {len(pred.points)} anchor points")
        if np.abs(gt.points[:, 1] - pred.points[:, 1]).max() > 1e-9:
            raise AnchorMismatch(
                f"matched lanes gt[{k}] and pred[{j}] are not on the same "
                "y-anchors; resample before computing losses")
        out.append((k, gt, pred))
    return out


def loss_total(gt, pred, camera, grid, config):
    fit = fit_matrix(gt.curves, pred.curves, camera, grid, config)
    confidence = np.array([c.confidence for c in pred.curves])
    match = hungarian(config.gamma[3] * (1.0 - confidence) + fit)
    vis_terms = []
    for _, g, p in paired_lanes(gt.lanes, pred.lanes, match):
        for label, prob in zip(g.visibility, p.visibility):
            vis_terms.append(-(label * clamped_log(prob)
                               + (1.0 - label) * clamped_log(1.0 - prob)))
    vis = math.fsum(vis_terms) / len(vis_terms) if vis_terms else 0.0
    loc_terms = []
    for _, g, p in paired_lanes(gt.lanes, pred.lanes, match):
        seen = g.visibility > 0.5
        loc_terms.extend(config.gamma[1] * d
                         for d in np.abs(p.points[seen, 0] - g.points[seen, 0]))
        loc_terms.extend(config.gamma[2] * d
                         for d in np.abs(p.points[seen, 2] - g.points[seen, 2]))
    loc = math.fsum(loc_terms)
    unc = None
    if pred.uncertainties is not None:
        ends, widths = [], []
        for k, g, p in paired_lanes(gt.lanes, pred.lanes, match):
            seen = g.visibility > 0.5
            for s in np.flatnonzero(seen[:-1] & seen[1:]):
                ends.append((p.points[s], p.points[s + 1], g.points[s], g.points[s + 1]))
                widths.append(pred.uncertainties[match.assignment[k]][s])
        unc = 0.0
        if widths:
            unc = math.fsum(segment_symmetric_klds(
                *(np.array(e) for e in zip(*ends)), widths).tolist())
    ce_terms, fit_terms = [], []
    for k, j in match.pairs:
        ce_terms.append(config.gamma[3] * -clamped_log(pred.curves[j].confidence))
        if gt.curves[k].confidence != 0.0:
            fit_terms.append(float(fit[k, j]))
    for j, curve in enumerate(pred.curves):
        if j not in match.matched_cols:
            ce_terms.append(config.gamma[3] * config.background_weight
                            * -clamped_log(1.0 - curve.confidence))
    ce, fit_sum = math.fsum(ce_terms), math.fsum(fit_terms)
    point = vis + loc if unc is None else config.gamma[0] * unc + vis + loc
    curve = ce + fit_sum
    return LossBreakdown(unc, vis, loc, point, ce, fit_sum, curve, point + curve,
                         match)


# -- gathering ---------------------------------------------------------------

def project(camera, p):
    s, c = math.sin(camera.pitch), math.cos(camera.pitch)
    dy, dz = p[:, 1], p[:, 2] - camera.height
    xc, yc, zc = p[:, 0], -s * dy - c * dz, c * dy - s * dz
    if np.any(zc <= EPS_DEPTH):
        raise BehindCamera(f"camera-frame depth <= {EPS_DEPTH} m")
    return np.stack([camera.cx + camera.fx * xc / zc,
                     camera.cy + camera.fy * yc / zc], axis=1)


def on_grid(lane, anchors):
    y = lane.points[:, 1]
    return y.shape == anchors.shape and float(np.abs(y - anchors).max()) <= 1e-9


def grid_lane(lane, anchors):
    if on_grid(lane, anchors):
        return lane
    x, z, vis = resample_at_y(lane, anchors)
    return Lane3D(np.stack([x, anchors, z], axis=1), vis, lane.score)


def side_curves(lanes, existing, camera, who):
    if existing is not None and all(c is not None for c in existing):
        return list(existing)
    if not lanes:
        return []
    h, w = camera.image_size
    uv = []
    for i, lane in enumerate(lanes):
        pixels = project(camera, lane.visible_points())
        inside = ((pixels[:, 0] >= 0) & (pixels[:, 0] < w)
                  & (pixels[:, 1] >= 0) & (pixels[:, 1] < h))
        if not inside.any():
            raise MissingField(
                f"{who} lane {i} has no stored curve and no visible point "
                "projects inside the image, so none can be fit")
        uv.append(pixels[inside])
    return _check_frame(uv, camera.image_size, "rational")


def frame_inputs(record, anchors):
    """One record's (gt lanes, gt curves, pred lanes, pred curves,
    uncertainties), its sides fitted alone."""
    lanes = ([grid_lane(lane, anchors) for lane in record.gt_lanes],
             [grid_lane(lane, anchors) for lane in record.pred_lanes])
    curves = [side_curves(lanes[0], record.gt_curves, record.camera, "ground-truth"),
              side_curves(lanes[1], record.pred_curves, record.camera, "prediction")]
    uncertainties = None
    if record.pred_uncertainties is not None and all(
            u is not None for u in record.pred_uncertainties):
        if not all(on_grid(lane, anchors) for lane in record.pred_lanes):
            raise ConfigError(
                "per-segment uncertainties require prediction lanes "
                "already sampled on the anchor grid")
        uncertainties = [[(float(w), float(h)) for w, h in np.asarray(unc)]
                         for unc in record.pred_uncertainties]
    for side in (0, 1):
        if isinstance(curves[side], _FitProblem):
            fit = _fit_problems([curves[side]])[0]
            for lane, curve in zip(lanes[side], fit.curves):
                if lane.score is not None:
                    curve.confidence = lane.score
            curves[side] = fit.curves
    return lanes[0], curves[0], lanes[1], curves[1], uncertainties
