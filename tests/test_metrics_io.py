import dataclasses
import os

import numpy as np
import pytest

from auramimo import (
    ChannelTensor,
    correlation_metrics,
    read_tensor_binary,
    write_tensor_binary,
    write_tensor_text,
)
from auramimo import tensorio
from auramimo.cli import main
from auramimo.tensorio import _HEADER_DTYPE, MAGIC


def _tensor(coeff, delays=None, user_ids=None, carrier=3.5e9, seed=7):
    coeff = np.asarray(coeff, dtype=np.complex128)
    u, _, _, c, s = coeff.shape
    if delays is None:
        delays = np.zeros((u, c, s))
    return ChannelTensor(
        user_ids=user_ids or tuple(range(u)),
        coefficients=coeff,
        delays=delays,
        carrier_hz=carrier,
        seed=seed,
    )


def test_identical_channels_fully_correlated():
    rng = np.random.default_rng(0)
    h = rng.normal(size=(1, 1, 8, 3, 5)) + 1j * rng.normal(size=(1, 1, 8, 3, 5))
    tensor = _tensor(np.concatenate([h, h], axis=0), user_ids=(1, 2))
    report = correlation_metrics(tensor)
    np.testing.assert_allclose(report.pair_correlation[(1, 2)], 1.0, atol=1e-12)
    assert report.pair_correlation_mean[(1, 2)] == pytest.approx(1.0, abs=1e-12)


def test_orthogonal_channels_uncorrelated():
    h = np.zeros((2, 1, 1, 2, 1), dtype=np.complex128)
    h[0, 0, 0, 0, 0] = 1.0  # user 0 lives on cluster 0
    h[1, 0, 0, 1, 0] = 1.0  # user 1 lives on cluster 1
    report = correlation_metrics(_tensor(h))
    assert report.pair_correlation[(0, 1)][0] == 0.0


def test_zero_channel_reports_zero_not_nan():
    h = np.zeros((2, 1, 4, 2, 3), dtype=np.complex128)
    corr = correlation_metrics(_tensor(h)).pair_correlation[(0, 1)]
    np.testing.assert_array_equal(corr, np.zeros(3))
    # Both users zero in one snapshot only.
    h[...] = np.random.default_rng(2).normal(size=h.shape)
    h[..., 1] = 0.0
    corr = correlation_metrics(_tensor(h)).pair_correlation[(0, 1)]
    assert corr[1] == 0.0
    assert np.all(corr[[0, 2]] > 0.0)


def test_gaussian_channels_match_known_mean(rng):
    # For iid complex Gaussian vectors of length n the expected normalized
    # inner product is ~ sqrt(pi)/(2 sqrt(n)).  n = 448 mirrors a 64-element,
    # 7-cluster configuration.
    shape = (2, 1, 64, 7, 400)  # 400 trials as snapshots
    h = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    corr = correlation_metrics(_tensor(h)).pair_correlation[(0, 1)]
    expected = np.sqrt(np.pi) / 2 / np.sqrt(64 * 7)
    assert corr.mean() == pytest.approx(expected, rel=0.15)


def test_binary_round_trip(tmp_path, rng):
    coeff = rng.normal(size=(2, 1, 8, 3, 4)) + 1j * rng.normal(size=(2, 1, 8, 3, 4))
    delays = np.abs(rng.normal(size=(2, 3, 4))) * 1e-7
    tensor = _tensor(coeff, delays, user_ids=(1, 2), carrier=2.6e9, seed=123)
    path = tmp_path / "t.bin"
    write_tensor_binary(tensor, path)
    back = read_tensor_binary(path)
    assert back.coefficients.shape == tensor.coefficients.shape
    assert back.carrier_hz == 2.6e9
    assert back.seed == 123
    # Coefficients survive at float32 precision, delays at full float64.
    np.testing.assert_array_equal(
        back.coefficients, tensor.coefficients.astype(np.complex64)
    )
    np.testing.assert_array_equal(back.delays, tensor.delays)


def test_binary_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        read_tensor_binary(path)


def test_binary_rejects_truncation(tmp_path, rng):
    coeff = rng.normal(size=(1, 1, 4, 2, 2)) + 0j
    tensor = _tensor(coeff)
    path = tmp_path / "t.bin"
    write_tensor_binary(tensor, path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 40])
    with pytest.raises(ValueError, match="truncated"):
        read_tensor_binary(path)


def test_text_export_row_count(tmp_path, rng):
    coeff = rng.normal(size=(2, 1, 3, 2, 2)) + 0j
    tensor = _tensor(coeff, user_ids=(4, 9))
    path = tmp_path / "t.tsv"
    write_tensor_text(tensor, path)
    lines = path.read_text().splitlines()
    assert lines[2].split("\t")[:5] == ["user", "rx", "tx", "cluster", "snapshot"]
    body = lines[3:]
    assert len(body) == 2 * 1 * 3 * 2 * 2
    # repr floats round-trip exactly.
    first = body[0].split("\t")
    assert float(first[5]) == tensor.coefficients[0, 0, 0, 0, 0].real
    assert first[0] == "4"


def test_tensor_validation():
    bad = np.full((1, 1, 1, 1, 1), np.nan + 0j)
    with pytest.raises(ValueError):
        _tensor(bad)
    with pytest.raises(ValueError):
        _tensor(
            np.zeros((1, 1, 1, 1, 1), dtype=complex),
            delays=np.array([[[-1e-9]]]),
        )


def _per_pair_correlation(tensor):
    # One elementwise product and reduction per pair, with both users'
    # norms formed anew: the loop that the Gram products replaced.
    n_users, n_rx, n_tx, n_clusters, n_snap = tensor.coefficients.shape
    corr = {}
    for i in range(n_users):
        for j in range(i + 1, n_users):
            h_i = tensor.coefficients[i].reshape(n_rx * n_tx * n_clusters, n_snap)
            h_j = tensor.coefficients[j].reshape(n_rx * n_tx * n_clusters, n_snap)
            num = np.abs(np.sum(np.conj(h_i) * h_j, axis=0))
            den = np.linalg.norm(h_i, axis=0) * np.linalg.norm(h_j, axis=0)
            out = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
            corr[(tensor.user_ids[i], tensor.user_ids[j])] = np.minimum(out, 1.0)
    return corr


def _one_snapshot_gram(tensor):
    # One snapshot copied out of the tensor at a time: the copy that the
    # blocks of snapshots replaced, with the same products.
    n_users, n_rx, n_tx, n_clusters, n_snap = tensor.coefficients.shape
    h = tensor.coefficients.reshape(n_users, n_rx * n_tx * n_clusters, n_snap)
    x, x_conj = np.empty((2, *h.shape[:2]), dtype=np.complex128)
    gram = np.empty((n_snap, n_users, n_users), dtype=np.complex128)
    for s in range(n_snap):
        np.copyto(x, h[..., s])
        np.conj(x, out=x_conj)
        np.matmul(x_conj, x.T, out=gram[s])
    return gram


def _random_tensor(rng, shape):
    coeff = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    # Zero-norm snapshots of single users and of every user, and a shared
    # channel.
    coeff[rng.random(shape[0]) < 0.3, ..., 0] = 0.0
    if rng.random() < 0.3:
        coeff[..., -1] = 0.0
    coeff[-1] = coeff[0]
    return _tensor(coeff, user_ids=tuple(range(10, 10 + shape[0])))


def test_correlation_metrics_equal_per_pair_reference():
    # The Gram products sum in another order than the per-pair loop; the
    # tolerance is a few thousand float64 roundings of values <= 1.
    rng = np.random.default_rng(31)
    for trial in range(60):
        u = int(rng.integers(2, 7))
        shape = (u, int(rng.integers(1, 3)), int(rng.integers(1, 20)),
                 int(rng.integers(1, 5)), int(rng.integers(1, 12)))
        tensor = _random_tensor(rng, shape)
        report = correlation_metrics(tensor)
        want = _per_pair_correlation(tensor)
        assert list(report.pair_correlation) == list(want)
        # Copying snapshots in blocks keeps every bit of the products.
        gram = _one_snapshot_gram(tensor)
        i, j = np.triu_indices(u, 1)
        norm = np.sqrt(gram[:, range(u), range(u)].real)
        num, den = np.abs(gram[:, i, j]), norm[:, i] * norm[:, j]
        exact = np.minimum(np.divide(num, den, out=np.zeros_like(num), where=den > 0), 1.0)
        assert np.array_equal(np.array(list(report.pair_correlation.values())), exact.T)
        for key, corr in want.items():
            got = report.pair_correlation[key]
            assert got.shape == corr.shape
            assert np.max(np.abs(got - corr)) <= 1e-12, trial
            assert abs(report.pair_correlation_mean[key] - corr.mean()) <= 1e-12
            assert np.all((got >= 0.0) & (got <= 1.0)), trial


def test_one_user_tensor_reports_no_pairs():
    h = np.ones((1, 1, 4, 2, 3), dtype=np.complex128)
    report = correlation_metrics(_tensor(h))
    assert report.pair_correlation == {}
    assert report.pair_correlation_mean == {}


def test_binary_body_is_the_whole_tensor_in_float32(tmp_path, rng):
    # Written user by user, read back user by user: the file holds the
    # bytes of the whole-tensor conversion.
    coeff = rng.normal(size=(3, 1, 5, 2, 4)) + 1j * rng.normal(size=(3, 1, 5, 2, 4))
    tensor = _tensor(coeff, user_ids=(1, 2, 3))
    path = tmp_path / "t.bin"
    write_tensor_binary(tensor, path)
    body = np.ascontiguousarray(coeff, dtype="<c8").tobytes()
    data = path.read_bytes()
    head = 8 + 36  # magic and header
    assert data[head : head + len(body)] == body
    assert len(data) == head + len(body) + tensor.delays.nbytes
    back = read_tensor_binary(path)
    assert np.array_equal(back.coefficients, coeff.astype(np.complex64))


def test_complex128_and_its_complex64_rounding_write_the_same_bytes(tmp_path, rng):
    coeff = rng.normal(size=(3, 1, 5, 2, 4)) + 1j * rng.normal(size=(3, 1, 5, 2, 4))
    delays = np.abs(rng.normal(size=(3, 2, 4))) * 1e-7
    full = _tensor(coeff, delays)
    rounded = dataclasses.replace(full, coefficients=coeff.astype(np.complex64))
    write_tensor_binary(full, tmp_path / "full.bin")
    write_tensor_binary(rounded, tmp_path / "rounded.bin")
    assert (tmp_path / "full.bin").read_bytes() == (tmp_path / "rounded.bin").read_bytes()
    back = read_tensor_binary(tmp_path / "rounded.bin")
    assert back.coefficients.dtype == np.complex64
    assert back.coefficients.tobytes() == rounded.coefficients.tobytes()


@pytest.mark.parametrize(
    "cut, block",
    [(8, "delay"), (8 * 64 + 4, "coefficient")],  # 64 delays
)
def test_binary_cut_short_after_the_size_check_raises(
    tmp_path, monkeypatch, capsys, rng, cut, block
):
    # The file shrinks between fstat and the reads: a short readinto must
    # raise, not hand back the uninitialised rest of the array. 32 KiB of
    # coefficients: more than the reader buffers when it reads the header.
    shape = (2, 1, 64, 2, 16)
    coeff = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    path = tmp_path / "t.bin"
    write_tensor_binary(_tensor(coeff), path)
    whole = path.read_bytes()
    real_fstat = os.fstat

    def fstat_then_cut(fd):
        stat = real_fstat(fd)
        os.truncate(path, stat.st_size - cut)
        return stat

    def cut_short(read):
        path.write_bytes(whole)
        with monkeypatch.context() as patch:
            patch.setattr(tensorio.os, "fstat", fstat_then_cut)
            return read(path)

    with pytest.raises(ValueError, match=f"^truncated {block} block: "):
        cut_short(read_tensor_binary)
    assert cut_short(lambda p: main(["metrics", "--tensor", str(p)])) == 3
    assert capsys.readouterr().err.startswith(f"ValueError: truncated {block} block: ")


def test_binary_rejects_truncated_coefficients(tmp_path, rng):
    coeff = rng.normal(size=(2, 1, 4, 2, 2)) + 0j
    path = tmp_path / "t.bin"
    write_tensor_binary(_tensor(coeff), path)
    data = path.read_bytes()
    path.write_bytes(data[: 8 + 36 + 8 * 8 + 4])  # inside the second user's block
    with pytest.raises(ValueError, match="truncated coefficient"):
        read_tensor_binary(path)


def _header_only_file(path, dims, body=b"\x00" * 100):
    header = np.zeros(1, dtype=_HEADER_DTYPE)
    header["dims"][0] = dims
    path.write_bytes(MAGIC + header.tobytes() + body)


def test_binary_rejects_dims_larger_than_the_file(tmp_path):
    # The header claims ~1.4 PiB of coefficients; nothing is allocated.
    path = tmp_path / "huge.bin"
    _header_only_file(path, (1000, 1, 100000, 1000, 1000))
    with pytest.raises(ValueError, match="truncated coefficient block"):
        read_tensor_binary(path)
    # Coefficients complete, delays short.
    _header_only_file(path, (1, 1, 2, 2, 1), body=b"\x00" * (8 * 4 + 8))
    with pytest.raises(ValueError, match="truncated delay block"):
        read_tensor_binary(path)


def test_binary_rejects_trailing_bytes(tmp_path, rng):
    # A header whose dims understate the body must not read as a smaller
    # tensor.
    coeff = rng.normal(size=(2, 1, 4, 2, 2)) + 0j
    path = tmp_path / "t.bin"
    write_tensor_binary(_tensor(coeff), path)
    path.write_bytes(path.read_bytes() + b"\x00" * 16)
    with pytest.raises(ValueError, match="trailing bytes: 16 beyond"):
        read_tensor_binary(path)
