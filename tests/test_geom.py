import numpy as np
import pytest

from auramimo.geom import (
    angles_from_vector,
    azimuth_rotation,
    clip_elevation_deg,
    distances,
    rotate_azimuth,
    unit_from_angles,
    wrap_azimuth_deg,
)


@pytest.mark.parametrize(
    "raw,expected",
    [(190.0, -170.0), (-180.0, 180.0), (180.0, 180.0), (540.0, 180.0), (0.0, 0.0)],
)
def test_wrap_azimuth(raw, expected):
    assert wrap_azimuth_deg(raw) == expected


def test_wrap_azimuth_array():
    out = wrap_azimuth_deg(np.array([-190.0, 170.0]))
    np.testing.assert_allclose(out, [170.0, 170.0])


def test_clip_elevation():
    assert clip_elevation_deg(95.0) == 90.0
    assert clip_elevation_deg(-95.0) == -90.0
    assert clip_elevation_deg(12.5) == 12.5


def test_unit_from_angles_axes():
    np.testing.assert_allclose(unit_from_angles(0.0, 0.0), [1, 0, 0], atol=1e-15)
    np.testing.assert_allclose(unit_from_angles(90.0, 0.0), [0, 1, 0], atol=1e-15)
    np.testing.assert_allclose(unit_from_angles(0.0, 90.0), [0, 0, 1], atol=1e-15)


def test_angles_from_vector_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(100):
        az = rng.uniform(-179.9, 180.0)
        el = rng.uniform(-89.9, 89.9)
        got_az, got_el = angles_from_vector(unit_from_angles(az, el))
        assert got_az == pytest.approx(az, abs=1e-9)
        assert got_el == pytest.approx(el, abs=1e-9)


def test_angles_from_zero_vector():
    assert angles_from_vector(np.zeros(3)) == (0.0, 0.0)


def test_rotate_azimuth_quarter_turn():
    np.testing.assert_allclose(
        rotate_azimuth(np.array([1.0, 0.0, 2.0]), rotation=azimuth_rotation(90.0)), [0, 1, 2], atol=1e-15
    )
    # Rotation preserves length and z.
    v = np.array([3.0, -4.0, 5.0])
    w = rotate_azimuth(v, rotation=azimuth_rotation(37.0))
    assert np.linalg.norm(w) == pytest.approx(np.linalg.norm(v))
    assert w[2] == v[2]


# ---------------------------------------------------------------------------
# Array forms equal the scalar forms bit for bit
# ---------------------------------------------------------------------------


def _scalar_angles_from_vector(vec):
    # The per-vector form the array code replaced.
    x, y, z = (float(v) for v in vec)
    horiz = np.hypot(x, y)
    az = float(np.degrees(np.arctan2(y, x)))
    el = float(np.degrees(np.arctan2(z, horiz)))
    return wrap_azimuth_deg(az), el


def test_rotate_azimuth_array_equals_scalar_calls():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n_vec, n_ang = rng.integers(1, 8, size=2)
        vecs = rng.normal(size=(n_vec, 1, 3)) * rng.uniform(1e-3, 300.0)
        angles = rng.uniform(-20.0, 20.0, size=n_ang)
        got = rotate_azimuth(vecs, rotation=azimuth_rotation(angles))
        assert got.shape == (n_vec, n_ang, 3)
        want = np.array(
            [
                [rotate_azimuth(v[0], rotation=azimuth_rotation(float(a))) for a in angles]
                for v in vecs
            ]
        )
        assert np.array_equal(got, want)
        # Precomputed cos/sin give the same bits as the angles.
        rotation = (np.cos(np.radians(angles)), np.sin(np.radians(angles)))
        assert np.array_equal(rotate_azimuth(vecs, rotation=rotation), got)


def test_unit_from_angles_array_equals_scalar_calls():
    rng = np.random.default_rng(12)
    az = rng.uniform(-180.0, 180.0, size=2000)
    el = rng.uniform(-90.0, 90.0, size=2000)
    want = np.array([unit_from_angles(float(a), float(e)) for a, e in zip(az, el)])
    assert np.array_equal(unit_from_angles(az, el), want)


def test_angles_from_vector_array_equals_scalar_form():
    rng = np.random.default_rng(13)
    vecs = rng.normal(size=(2000, 3)) * rng.uniform(1e-3, 300.0, size=(2000, 1))
    vecs[:20, :2] = 0.0  # vertical
    vecs[20:40, 2] = 0.0  # horizontal
    vecs[40:45] = 0.0  # zero vector
    az, el = angles_from_vector(vecs)
    want = np.array([_scalar_angles_from_vector(v) for v in vecs])
    assert np.array_equal(az, want[:, 0])
    assert np.array_equal(el, want[:, 1])
    # A single vector still gives plain floats.
    single = angles_from_vector(vecs[100])
    assert all(type(x) is float for x in single)
    assert single == _scalar_angles_from_vector(vecs[100])


def test_norms_equal_linalg_norm():
    # Plane-by-plane distances of broadcast points keep the bits of the
    # norms of their differences.
    rng = np.random.default_rng(14)
    a = rng.normal(size=(64, 1, 3)) * 50.0
    b = rng.normal(size=(20, 3)) * 50.0
    want = np.linalg.norm(a - b, axis=2)
    assert np.array_equal(distances(a, b), want)
