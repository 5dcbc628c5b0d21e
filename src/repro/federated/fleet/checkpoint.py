"""Streaming round checkpoints for million-client fleets.

Snapshot format: one ZIP (stored, uncompressed) containing

* ``meta.json`` — round counter, clock, topology, ledger, history, and
  the column manifest;
* ``col_<name>.npy`` — one real ``.npy`` member per fleet column,
  readable by ``np.load`` on its own.

The writer streams each column through a fixed-size chunk buffer
straight into the open zip member, and the reader ``readinto``s chunks
directly into the preallocated column, so peak extra memory is O(chunk)
— never a second copy of a 1M-row column, never an in-memory zip.
Combined with the simulator's stateless keyed RNG design, restoring a
snapshot reproduces the uninterrupted run bit-for-bit.
"""

from __future__ import annotations

import json
import os
import zipfile

import numpy as np
from numpy.lib import format as npy_format

from ..comm import CommunicationLedger
from .state import COLUMNS, FleetState

__all__ = ["save_fleet_checkpoint", "load_fleet_checkpoint",
           "load_fleet_state"]

FORMAT = "fleet-checkpoint-v1"

# 64k rows/chunk: 512 KiB of staging for int64/float64 columns.
DEFAULT_CHUNK_ROWS = 1 << 16
_CHUNK_BYTES = DEFAULT_CHUNK_ROWS * 8


def save_fleet_checkpoint(path, sim, chunk_rows=DEFAULT_CHUNK_ROWS):
    """Write ``sim`` (a :class:`FleetSimulator`) to ``path`` atomically."""
    state = sim.state
    meta = {
        "format": FORMAT,
        "round_index": sim.round_index,
        "clock_now": sim.clock.now,
        "num_clients": state.num_clients,
        "num_edges": state.num_edges,
        "ledger": sim.ledger.to_dict(),
        "history": sim.history,
        "columns": [name for name, _ in COLUMNS],
    }
    tmp = "{}.tmp.{}".format(path, os.getpid())
    try:
        with zipfile.ZipFile(tmp, "w", zipfile.ZIP_STORED,
                             allowZip64=True) as zf:
            zf.writestr("meta.json", json.dumps(meta, indent=2))
            for name, column in state.columns().items():
                _write_column(zf, name, column, chunk_rows)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_fleet_checkpoint(path, sim):
    """Restore ``sim`` in place from a snapshot written by the saver.

    The simulator must be configured identically to the one that wrote
    the snapshot (same fleet size and topology); columns stream into
    the existing arrays, so no second fleet is ever resident.  Every
    column member is verified (layout, length, zip CRC) in a streaming
    pass before the first one is written, so a corrupt or truncated
    snapshot raises ``ValueError`` and leaves ``sim`` untouched.
    """
    state = sim.state
    columns = state.columns()
    with _open_checkpoint(path) as zf:
        meta = _read_meta(zf)
        if meta["num_clients"] != state.num_clients:
            raise ValueError(
                "checkpoint holds {} clients but the simulator has "
                "{}".format(meta["num_clients"], state.num_clients))
        if meta["num_edges"] != state.num_edges:
            raise ValueError(
                "checkpoint holds {} edges but the simulator has "
                "{}".format(meta["num_edges"], state.num_edges))
        for name, column in columns.items():
            _read_column(zf, name, column, verify_only=True)
        for name, column in columns.items():
            _read_column(zf, name, column)
    sim.round_index = int(meta["round_index"])
    sim.clock.now = float(meta["clock_now"])
    sim.ledger = CommunicationLedger.from_dict(meta["ledger"])
    sim.history = meta["history"]
    return sim


def load_fleet_state(path, num_edges=None):
    """Standalone restore: allocate fresh columns and return a FleetState.

    For tooling that wants the fleet without a simulator around it.
    """
    with _open_checkpoint(path) as zf:
        meta = _read_meta(zf)
        n = int(meta["num_clients"])
        columns = {name: np.zeros(n, dtype=dtype)
                   for name, dtype in COLUMNS}
        for name, column in columns.items():
            _read_column(zf, name, column)
    edges = int(num_edges if num_edges is not None else meta["num_edges"])
    return FleetState.from_columns(edges, columns)


def _open_checkpoint(path):
    try:
        return zipfile.ZipFile(path, "r")
    except zipfile.BadZipFile as exc:
        raise ValueError(
            "{!r} is not a readable fleet checkpoint: {}".format(
                path, exc)) from exc


def _read_meta(zf):
    try:
        meta = json.loads(zf.read("meta.json"))
    except (KeyError, zipfile.BadZipFile, ValueError) as exc:
        raise ValueError(
            "checkpoint member 'meta.json' is unreadable: {}".format(
                exc)) from exc
    if meta.get("format") != FORMAT:
        raise ValueError(
            "unrecognized checkpoint format {!r}".format(meta.get("format")))
    return meta


def _write_column(zf, name, column, chunk_rows):
    """Stream one column into the zip as a real .npy member."""
    column = np.ascontiguousarray(column)
    header = {
        "descr": npy_format.dtype_to_descr(column.dtype),
        "fortran_order": False,
        "shape": column.shape,
    }
    with zf.open("col_{}.npy".format(name), "w", force_zip64=True) as member:
        npy_format.write_array_header_1_0(member, header)
        for start in range(0, column.shape[0], chunk_rows):
            member.write(column[start:start + chunk_rows].tobytes())


def _read_column(zf, name, column, verify_only=False):
    """Stream one .npy member into a preallocated column.

    The body moves one chunk at a time, so staging stays O(chunk) for
    any column length.  With ``verify_only`` the chunks are read and
    dropped and ``column`` is left as it is; the layout, the length and
    the zip CRC are checked either way.
    """
    member_name = "col_{}.npy".format(name)
    try:
        with zf.open(member_name, "r") as member:
            version = npy_format.read_magic(member)
            if version != (1, 0):
                raise ValueError(
                    "column {!r} uses npy format {}, expected "
                    "(1, 0)".format(name, version))
            shape, fortran, dtype = npy_format.read_array_header_1_0(member)
            if shape != column.shape or fortran or dtype != column.dtype:
                raise ValueError(
                    "column {!r} layout mismatch: checkpoint has {} {}, "
                    "fleet has {} {}".format(name, shape, dtype,
                                             column.shape, column.dtype))
            view = None if verify_only else memoryview(column).cast("B")
            offset = 0
            while offset < column.nbytes:
                size = min(_CHUNK_BYTES, column.nbytes - offset)
                if view is None:
                    read = len(member.read(size))
                else:
                    read = member.readinto(view[offset:offset + size])
                if not read:
                    raise ValueError(
                        "column {!r} truncated at byte {}".format(
                            name, offset))
                offset += read
            if member.read(1):
                raise ValueError(
                    "column {!r} has bytes past its {} rows".format(
                        name, column.shape[0]))
    except (KeyError, EOFError, zipfile.BadZipFile) as exc:
        raise ValueError("checkpoint member {!r} is unreadable: {}".format(
            member_name, exc)) from exc
