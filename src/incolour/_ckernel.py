"""Building, loading and calling ``kernel.c``, the C port of the search in
:mod:`incolour.kernel`.  That module imports this one at its first search
only, so importing the library loads neither ``ctypes`` nor this code.

:func:`load` builds the library with the system C compiler
(``cc -O2 -shared -fPIC``) into a per-user cache,
``~/.cache/incolour/kernel-<machine>-<source hash>.so``: compiled to a
temporary name and renamed into place, so that processes building at once
never load a partial file.  Later processes load the cached file.  Where
the cache directory cannot be written, the build goes to a private
temporary directory, removed once the library is loaded.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import tempfile
import time
from array import array
from functools import partial
from itertools import chain
from pathlib import Path

from .kernel import CUTOFF, FOUND

_PAUSED = 3     # kernel.c: at a node whose count is a multiple of 1,024

_CC = ("cc", "-O2", "-shared", "-fPIC")
_SOURCE = Path(__file__).with_name("kernel.c")


def load():
    """The C search, ``search`` with the library bound, or None when there
    is no compiler or the build or the load fails."""
    try:
        digest = hashlib.sha256(_SOURCE.read_bytes()).hexdigest()[:16]
        name = f"kernel-{platform.machine()}-{digest}.so"
        try:
            cache = _cache_dir()
            cache.mkdir(parents=True, exist_ok=True)
            writable = os.access(cache, os.W_OK)
        except (OSError, RuntimeError):     # RuntimeError: no home directory
            writable = False
        if writable:
            path = cache / name
            if not path.exists():
                _build(path)
            return partial(search, _bind(path))
        with tempfile.TemporaryDirectory(ignore_cleanup_errors=True) as private:
            path = Path(private) / name
            _build(path)
            return partial(search, _bind(path))    # a loaded library outlives its file
    except (OSError, subprocess.SubprocessError):
        return None


def _cache_dir() -> Path:
    return Path.home() / ".cache" / "incolour"


def _build(path: Path) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run([*_CC, "-o", tmp, str(_SOURCE)], check=True,
                       stdin=subprocess.DEVNULL, capture_output=True, timeout=300)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _bind(path: Path) -> ctypes.CDLL:
    lib = ctypes.CDLL(str(path))
    ptr, i32, i64 = ctypes.c_void_p, ctypes.c_int32, ctypes.c_int64
    lib.ks_new.argtypes = (i32, ptr, ptr, ptr, ptr, i32)
    lib.ks_new.restype = ptr
    lib.ks_run.argtypes = (ptr, i64, ptr, ptr)
    lib.ks_run.restype = i32
    lib.ks_free.argtypes = (ptr,)
    lib.ks_free.restype = None
    return lib


def search(lib, domains, nbrs, uniform, node_budget, deadline):
    """:func:`incolour.kernel.search` in ``kernel.c``, which hands control
    back at every 1,024th node for the deadline check (and so that Ctrl-C
    stops a long search).  Under ``uniform`` it reads ``domains[0]`` only,
    as the one domain of every variable."""
    nv = len(domains)
    if nv == 0:
        return FOUND, [], 0
    first = domains[0]
    try:
        col = array("q", first) * nv if uniform else array("q", chain.from_iterable(domains))
    except OverflowError:
        # colours beyond 64 bits: kernel.c only compares them, so their
        # ranks among all the colours do as well
        rank = {c: r for r, c in enumerate(sorted(set().union(*domains)))}
        col = array("q", map(rank.__getitem__, chain.from_iterable(domains)))
    size = array("i", [len(first)]) * nv if uniform else array("i", map(len, domains))
    deg = array("i", map(len, nbrs))
    nbr = array("i", chain.from_iterable(nbrs))
    # kernel.c indexes by these ids unchecked
    if len(deg) != nv or nbr and not (min(nbr) >= 0 and max(nbr) < nv):
        raise ValueError("neighbour ids must name the variables 0..nv-1")
    state = lib.ks_new(nv, _addr(size), _addr(col), _addr(deg), _addr(nbr), uniform)
    if not state:
        raise MemoryError("no memory for the search tables")
    limit = min(node_budget, 1 << 62) if node_budget is not None else 1 << 62
    nodes = array("q", [0])
    pos = array("i", [0]) * nv
    out = (_addr(nodes), _addr(pos))
    try:
        status = lib.ks_run(state, limit, *out)
        while status == _PAUSED:
            if deadline is not None and time.monotonic() > deadline:
                status = CUTOFF
                break
            status = lib.ks_run(state, limit, *out)
    finally:
        lib.ks_free(state)
    if status != FOUND:
        return status, None, nodes[0]
    if uniform:
        return FOUND, list(map(first.__getitem__, pos)), nodes[0]
    return FOUND, [dom[p] for dom, p in zip(domains, pos)], nodes[0]


def _addr(buf: array) -> int:
    """The address of an array's buffer."""
    return buf.buffer_info()[0]
