"""Channel tensor file formats.

Binary layout (all little-endian):

    8 bytes   magic "AMIMOCH1"
    5 uint32  dims: users, rx antennas, tx elements, clusters, snapshots
    1 float64 carrier frequency, Hz
    1 uint64  seed
    body      float32 re/im interleaved, (user, rx, tx, cluster,
              snapshot) row-major
    delays    float64, (user, cluster, snapshot) row-major

A run computes its tensor in complex128 and holds it in complex64, the
body's precision: it is written without conversion and reads back bit-equal.

The text mode is a plain TSV for small runs: one row per tensor entry.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .coefficients import ChannelTensor

MAGIC = b"AMIMOCH1"
_HEADER_DTYPE = np.dtype(
    [("dims", "<u4", 5), ("carrier_hz", "<f8"), ("seed", "<u8")]
)


def write_tensor_binary(tensor: ChannelTensor, path) -> None:
    header = np.zeros(1, dtype=_HEADER_DTYPE)
    header["dims"][0] = tensor.coefficients.shape
    header["carrier_hz"][0] = tensor.carrier_hz
    header["seed"][0] = tensor.seed
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(header.tobytes())
        # One user at a time: a complex64 tensor is written without a copy.
        for user_block in tensor.coefficients:
            f.write(np.ascontiguousarray(user_block, dtype="<c8"))
        f.write(np.ascontiguousarray(tensor.delays, dtype="<f8").tobytes())


def read_tensor_binary(path) -> ChannelTensor:
    with open(path, "rb") as f:
        magic = f.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"not a channel tensor file: magic {magic!r}")
        raw = f.read(_HEADER_DTYPE.itemsize)
        if len(raw) < _HEADER_DTYPE.itemsize:
            raise ValueError(f"truncated header: {len(raw)} of {_HEADER_DTYPE.itemsize} bytes")
        header = np.frombuffer(raw, dtype=_HEADER_DTYPE)[0]
        dims = tuple(int(d) for d in header["dims"])
        delay_dims = dims[:1] + dims[3:]  # user, cluster, snapshot
        n_coeff, n_delay = math.prod(dims), math.prod(delay_dims)
        # Sizes from the header are checked before anything is allocated.
        body = os.fstat(f.fileno()).st_size - f.tell()
        size = 8 * (n_coeff + n_delay)
        if body < 8 * n_coeff:
            raise ValueError(f"truncated coefficient block: {body} of {8 * n_coeff} bytes")
        if body < size:
            raise ValueError("truncated delay block")
        if body > size:
            raise ValueError(f"trailing bytes: {body - size} beyond the {size}-byte body")
        coeff, delays = np.empty(dims, "<c8"), np.empty(delay_dims, "<f8")
        for name, block in (("coefficient", coeff), ("delay", delays)):
            if (n := f.readinto(block)) != block.nbytes:  # cut short since fstat
                raise ValueError(f"truncated {name} block: {n} of {block.nbytes} bytes")
    return ChannelTensor(
        user_ids=tuple(range(dims[0])),
        coefficients=coeff,
        delays=delays,
        carrier_hz=float(header["carrier_hz"]),
        seed=int(header["seed"]),
    )


def write_tensor_text(tensor: ChannelTensor, path) -> None:
    """One row per coefficient; delays repeated per tx element for
    self-containedness. Meant for small runs only."""
    u_n, r_n, t_n, c_n, s_n = tensor.coefficients.shape
    with open(path, "w") as f:
        f.write(f"# carrier_hz={tensor.carrier_hz!r} seed={tensor.seed}\n")
        f.write(f"# dims user={u_n} rx={r_n} tx={t_n} cluster={c_n} snapshot={s_n}\n")
        f.write("user\trx\ttx\tcluster\tsnapshot\tre\tim\tdelay_s\n")
        for iu, ir, it, ic, isn in np.ndindex(tensor.coefficients.shape):
            z = complex(tensor.coefficients[iu, ir, it, ic, isn])
            f.write(
                f"{tensor.user_ids[iu]}\t{ir}\t{it}\t{ic}\t{isn}\t"
                f"{z.real!r}\t{z.imag!r}\t{float(tensor.delays[iu, ic, isn])!r}\n"
            )
