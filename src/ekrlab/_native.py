"""The compiled search kernel (_kernel.c): build, cache, load and call.

Its entry point ekr_search runs the omega, nontrivial or generic search
(search()), or in a fourth mode, STATS, no search: it reads the edges'
degree maxima (stats()).  Its second entry point, ekr_trial, runs a whole
bernoulli or conditioned Monte Carlo trial (trial()): from the sampler's
numpy draws it dedups Floyd's draws, unranks the colex ranks into vertex
words, and runs STATS and verifier._decide's searches, all in one call.

kernel() builds the kernel on first use with the system gcc, into a
per-user cache directory ($XDG_CACHE_HOME/ekrlab or ~/.cache/ekrlab, mode
0700), under a name keyed by the sha256 of the source and the build
command, and loads it through ctypes.  It returns None when there is no
compiler, the build fails, or the cache directory cannot be written or is
not private to the user; the searches then run on the Python kernel
(verifier._branch_and_bound), which gives the same results, and a trial on
the Python sampler and verifier.  Nothing is built or loaded at import.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess
import tempfile
from typing import NamedTuple

import numpy as np

from .errors import ResourceLimitError

OMEGA, NONTRIVIAL, GENERIC, STATS = 0, 1, 2, 3
DONE, OUT_OF_BUDGET, OUT_OF_MEMORY = 0, 1, 2

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
_CC = "gcc"
_CFLAGS = ("-O2", "-shared", "-fPIC")
_VERTEX_BYTES = 32                      # 4 words: n <= hypergraph.MAX_N = 256

_lib = None     # the kernel's entry points once loaded; False if they cannot be


class Kernel(NamedTuple):
    """The loaded kernel's two entry points, as ctypes functions."""

    ekr_search: object
    ekr_trial: object


def kernel():
    """The native Kernel, or None when it cannot be built or loaded."""
    global _lib
    if _lib is None:
        _lib = _load() or False
    return _lib or None


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "ekrlab")


def _private(path: str) -> bool:
    """Owned by this user and writable by no one else."""
    st = os.stat(path)
    return st.st_uid == os.getuid() and not st.st_mode & 0o022


def _sha256(data: bytes) -> str:
    # the interpreter's own sha256: importing hashlib maps OpenSSL, ~3.5 MB RSS
    try:
        from _sha2 import sha256            # Python >= 3.12
    except ImportError:
        try:
            from _sha256 import sha256      # Python <= 3.11
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


def _load():
    cc = shutil.which(_CC) if os.name == "posix" else None
    if cc is None:
        return None
    command = [cc, *_CFLAGS]
    try:
        with open(_SOURCE, "rb") as f:
            source = f.read()
        key = _sha256(source + " ".join(command + [os.uname().machine]).encode())
        cache = _cache_dir()
        os.makedirs(cache, mode=0o700, exist_ok=True)
        if not _private(cache):
            return None
        path = os.path.join(cache, f"kernel-{key[:24]}.so")
        if not os.path.exists(path):
            # build beside the target and rename, so a process building at the
            # same time never loads a half-written library
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
            os.close(fd)
            try:
                subprocess.run(command + ["-o", tmp, _SOURCE], check=True,
                               capture_output=True, timeout=300)
                os.chmod(tmp, 0o700)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        if not _private(path):
            return None
        lib = ctypes.CDLL(path)
    except (OSError, subprocess.SubprocessError):
        return None
    i64, u64p, i32p = ctypes.c_int64, ctypes.POINTER(ctypes.c_uint64), ctypes.POINTER(ctypes.c_int32)
    cint = ctypes.c_int
    lib.ekr_search.argtypes = [cint, cint, u64p, cint, i64, i64, ctypes.c_double, i64, i32p,
                               ctypes.POINTER(i64)]
    lib.ekr_trial.argtypes = [cint, cint, ctypes.c_void_p, i64, i64, ctypes.POINTER(i64), cint,
                              cint, i64, i64, u64p, i32p, ctypes.POINTER(i64)]
    for fn in (lib.ekr_search, lib.ekr_trial):
        fn.restype = cint
    return Kernel(lib.ekr_search, lib.ekr_trial)


def vertex_words(bits):
    """The edges' vertex bitsets (ints, n <= 256) as the kernel reads them:
    4 little-endian words per edge."""
    data = b"".join([x.to_bytes(_VERTEX_BYTES, "little") for x in bits])
    return (ctypes.c_uint64 * (len(data) // 8)).from_buffer_copy(data)


def edge_bits(words) -> tuple[int, ...]:
    """The edge bitsets (ints) of vertex_words' layout, its inverse."""
    data = bytes(words)
    return tuple(int.from_bytes(data[i:i + _VERTEX_BYTES], "little")
                 for i in range(0, len(data), _VERTEX_BYTES))


def check(status: int) -> None:
    """Raise the error of a kernel status other than DONE."""
    if status == OUT_OF_BUDGET:
        raise ResourceLimitError("branch-and-bound node budget exceeded")
    if status:
        raise MemoryError("native kernel")


def search(lib, mode: int, words, *, floor: int, target: int, node_budget: int,
           dense: bool = False, zeta_cap: float = 0.0):
    """verifier._branch_and_bound's (best, recorded clique or None, nodes)
    for one of the three searches, on the native kernel.

    words holds the edges' vertex_words; the kernel builds the intersection
    adjacency from them, and for the omega search its relabel by descending
    degree, whose clique comes back in the original edge indices.  The
    fourth mode, STATS, is stats(), not a search.
    """
    m = len(words) * 8 // _VERTEX_BYTES
    clique = (ctypes.c_int32 * max(m, 1))()
    result = (ctypes.c_int64 * 3)()
    # beyond these ranges a value acts as its clamp: best <= m, so a floor of
    # m or more records nothing and a target above m is never met; a clique
    # has at most MAX_N vertices of degree 3
    check(lib.ekr_search(mode, m, words, dense, max(min(floor, m), -1), min(target, m + 1),
                         float(max(min(zeta_cap, 256), -1)), min(node_budget, 2**62), clique,
                         result))
    best, size, nodes = result
    if size < 0:
        return floor, None, nodes
    return best, clique[:size], nodes


def stats(lib, words) -> tuple[int, int, int, int]:
    """(Delta, the lowest vertex of degree Delta or -1 when there is no edge,
    max d(x, y) over x != y, max |W_x| with W_x = {y : d(x, y) >= 2}) of the
    edges in words, degrees counting multiplicity: the kernel's STATS mode,
    read off its per-vertex star words, with no search."""
    m = len(words) * 8 // _VERTEX_BYTES
    result = (ctypes.c_int64 * 4)()
    if lib.ekr_search(STATS, m, words, 0, 0, 0, 0.0, 0, None, result):
        raise MemoryError("native kernel statistics")
    return tuple(result)


def trial(lib, n: int, k: int, columns, N: int, draws, *, floyd: bool, dense: bool,
          edge_cap: int, node_budget: int):
    """One bernoulli or conditioned trial of montecarlo.run_one_trial in one
    ekr_trial call, on m = len(draws) sampled k-sets of [n], N = C(n, k) <
    2**63.  draws are Floyd's t_j (hypergraph._floyd_draws) when floyd is
    set, and are then overwritten with the ranks; otherwise they are the
    ranks, ascending (hypergraph._draws).  columns is (array, its address)
    for the array hypergraph._unrank_tables(n, k)[0].

    Returns (status, (Delta, centre, max d(x, y), max |W_x|, omega,
    witness size), clique, words): status DONE or OUT_OF_BUDGET (see
    check()); omega and the size are -1 when m > edge_cap, where no search
    runs, and the size is also -1 when EKR holds; the failing clique is
    clique[:size], in search order, and words holds the edges' vertex_words.
    """
    draws = np.ascontiguousarray(draws, dtype=np.int64)      # writable, or from_buffer raises
    m = len(draws)
    words = (ctypes.c_uint64 * (4 * m))()
    clique = (ctypes.c_int32 * max(m, 1))()
    result = (ctypes.c_int64 * 6)()
    status = lib.ekr_trial(n, k, columns[1], N, m, ctypes.c_int64.from_buffer(draws) if m else None,
                           floyd, dense, min(edge_cap, 2**62), min(node_budget, 2**62), words,
                           clique, result)
    if status == OUT_OF_MEMORY:
        raise MemoryError("native kernel trial")
    return status, result, clique, words
