"""Snapshot I/O: save/load OP2 problems as .npz archives.

The paper's OP2 uses HDF5-based parallel I/O; this sandbox has no
h5py, so snapshots use numpy's npz container with the same structure:
set sizes, map tables, and dat payloads, each namespaced by kind.
Round-tripping a GlobalProblem is exact. All writers commit atomically
(tmp file + ``os.replace``), so a crash mid-save leaves the previous
archive intact instead of a torn zip that :func:`load_problem`
explodes on.
"""

from __future__ import annotations

import os

import numpy as np

from repro.op2.dat import Dat
from repro.op2.distribute import GlobalProblem
from repro.util.atomicio import atomic_savez, load_npz


def save_problem(path: str | os.PathLike, problem: GlobalProblem) -> None:
    """Write a GlobalProblem to ``path`` (.npz appended if missing)."""
    payload: dict[str, np.ndarray] = {}
    for sname, size in problem.sets.items():
        payload[f"set:{sname}"] = np.array([size], dtype=np.int64)
    for mname, (from_s, to_s, values) in problem.maps.items():
        payload[f"map:{mname}:table"] = values
        payload[f"map:{mname}:sets"] = np.array([from_s, to_s])
    for dname, (sname, data) in problem.dats.items():
        payload[f"dat:{dname}:data"] = data
        payload[f"dat:{dname}:set"] = np.array([sname])
    atomic_savez(path, compressed=True, **payload)


def load_problem(path: str | os.PathLike) -> GlobalProblem:
    """Read a GlobalProblem written by :func:`save_problem`."""
    with load_npz(path, allow_pickle=False) as archive:
        gp = GlobalProblem()
        for key in archive.files:
            if key.startswith("set:"):
                gp.add_set(key[4:], int(archive[key][0]))
        for key in archive.files:
            if key.startswith("map:") and key.endswith(":table"):
                name = key[4:-6]
                from_s, to_s = archive[f"map:{name}:sets"]
                gp.add_map(name, str(from_s), str(to_s), archive[key])
        for key in archive.files:
            if key.startswith("dat:") and key.endswith(":data"):
                name = key[4:-5]
                sname = str(archive[f"dat:{name}:set"][0])
                gp.add_dat(name, sname, archive[key])
        return gp


def save_dat(path: str | os.PathLike, dat: Dat) -> None:
    """Write one dat's owned values (e.g. a checkpointed flow field)."""
    atomic_savez(path, compressed=True, name=np.array([dat.name]),
                 set=np.array([dat.set.name]), data=dat.data_ro)


def load_dat_values(path: str | os.PathLike) -> tuple[str, str, np.ndarray]:
    """Read (dat name, set name, values) written by :func:`save_dat`."""
    with load_npz(path, allow_pickle=False) as archive:
        return (str(archive["name"][0]), str(archive["set"][0]),
                archive["data"])
