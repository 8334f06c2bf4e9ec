"""Small angle/vector helpers shared by the geometry modules.

Azimuth is measured in the x-y plane from +x toward +y, elevation from
the horizon toward +z; both in degrees. Azimuths live in (-180, 180],
elevations in [-90, 90].
"""

from __future__ import annotations

import numpy as np

SPEED_OF_LIGHT_M_S = 299792458.0


def read_only(a: np.ndarray) -> np.ndarray:
    """`a`, no longer writeable."""
    a.flags.writeable = False
    return a


def distances(a: np.ndarray, b: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """|a - b| of broadcast points (..., 3), plane by plane: x^2 + y^2 +
    z^2, then sqrt: the bits of np.linalg.norm(a - b, axis=-1) without its
    (..., 3) temporary. `out` and `scratch`, float64 arrays of the
    broadcast shape, take the result and the y and z planes when given."""
    acc = np.subtract(a[..., 0], b[..., 0], out=out)
    np.multiply(acc, acc, out=acc)
    for j in (1, 2):
        scratch = np.subtract(a[..., j], b[..., j], out=scratch)
        acc += np.multiply(scratch, scratch, out=scratch)
    return np.sqrt(acc, out=acc)


def wrap_azimuth_deg(angle):
    """Wrap angle(s) in degrees to the half-open interval (-180, 180]."""
    a = np.asarray(angle, dtype=float)
    wrapped = np.mod(a + 180.0, 360.0) - 180.0
    wrapped = np.where(wrapped == -180.0, 180.0, wrapped)
    if np.isscalar(angle) or np.ndim(angle) == 0:
        return float(wrapped)
    return wrapped


def clip_elevation_deg(angle):
    """Clip elevation angle(s) in degrees to [-90, 90]."""
    a = np.clip(np.asarray(angle, dtype=float), -90.0, 90.0)
    if np.isscalar(angle) or np.ndim(angle) == 0:
        return float(a)
    return a


def unit_from_angles(az_deg, el_deg) -> np.ndarray:
    """Unit 3-vector(s) for (azimuth, elevation) in degrees; arrays of
    angles give one vector per angle along a new last axis."""
    az = np.radians(az_deg)
    el = np.radians(el_deg)
    ce = np.cos(el)
    return np.stack([ce * np.cos(az), ce * np.sin(az), np.sin(el)], axis=-1)


def angles_from_vector(vec):
    """(azimuth, elevation) in degrees of a direction vector, as floats;
    vectors (..., 3) give two arrays (...).

    The zero vector maps to (0, 0); azimuth of a purely vertical vector
    is 0 by the atan2 convention.
    """
    x, y, z = np.moveaxis(np.asarray(vec, dtype=float), -1, 0)
    az = wrap_azimuth_deg(np.degrees(np.arctan2(y, x)))
    el = np.degrees(np.arctan2(z, np.hypot(x, y)))
    return az, (float(el) if np.ndim(el) == 0 else el)


def azimuth_rotation(delta_deg):
    """(cos, sin) of azimuth angle(s) in degrees, for `rotate_azimuth`."""
    d = np.radians(delta_deg)
    return np.cos(d), np.sin(d)


def rotate_azimuth(vec, *, rotation) -> np.ndarray:
    """Rotate 3-vector(s) about the z axis by the angle(s) of `rotation`,
    an `azimuth_rotation(delta_deg)` (right-handed).

    Broadcasts: vectors (..., 3) against angles (...) give (..., 3).
    """
    c, s = rotation
    vec = np.asarray(vec, dtype=float)
    x, y = vec[..., 0], vec[..., 1]
    out = np.empty(np.broadcast_shapes(vec.shape, np.shape(c) + (3,)))
    out[..., 0] = c * x - s * y
    out[..., 1] = s * x + c * y
    out[..., 2] = vec[..., 2]
    return out
