"""Shared fixtures: cameras, straight/curved lanes, deterministic RNGs."""

import sys

import numpy as np
import pytest

from lane3d.geometry import CameraModel, Lane3D


@pytest.fixture
def camera() -> CameraModel:
    """Flat camera 1.5 m above the ground, no pitch, 720x960 image."""
    return CameraModel(fx=1000.0, fy=1000.0, cx=480.0, cy=360.0,
                       height=1.5, pitch=0.0, image_size=(720, 960))


@pytest.fixture
def without_orjson(monkeypatch):
    """Hide orjson: frame files decode with json alone, as where it is
    not installed."""
    monkeypatch.setitem(sys.modules, "orjson", None)


@pytest.fixture
def pitched_camera() -> CameraModel:
    return CameraModel(fx=1000.0, fy=1000.0, cx=480.0, cy=360.0,
                       height=1.5, pitch=0.05, image_size=(720, 960))


def straight_lane(x: float = 0.0, y0: float = 0.0, y1: float = 99.0,
                  n: int = 100, z: float = 0.0) -> Lane3D:
    y = np.linspace(y0, y1, n)
    pts = np.stack([np.full(n, x), y, np.full(n, z)], axis=1)
    return Lane3D(points=pts, visibility=np.ones(n))


def curved_lane(rng: np.random.Generator, n: int = 20,
                y0: float = 3.0, y1: float = 103.0) -> Lane3D:
    """Gentle random polynomial lane, everything visible."""
    y = np.linspace(y0, y1, n)
    x0 = rng.uniform(-6.0, 6.0)
    c1 = rng.uniform(-0.05, 0.05)
    c2 = rng.uniform(-2e-3, 2e-3)
    x = x0 + c1 * (y - y0) + c2 * (y - y0) ** 2
    z = rng.uniform(-0.01, 0.01) * y
    pts = np.stack([x, y, z], axis=1)
    return Lane3D(points=pts, visibility=np.ones(n))
