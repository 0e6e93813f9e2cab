"""The compiled search kernel (_kernel.c): build, cache, load and call.

Its entry point ekr_search runs the omega, nontrivial or generic search
(search()), or in a fourth mode, STATS, no search: it reads the edges'
degree maxima (stats()).  Its second entry point, ekr_trials, runs a batch
of bernoulli or conditioned Monte Carlo trials in one call (trials()).  It
seeds and draws each trial as numpy would, with numpy's binomial and
bounded-integer samplers from numpy's libnpyrandom.a, then dedups and
unranks the draws and runs STATS and verifier._decide's searches.

kernel() builds the kernel on first use with the system gcc, linked with
libnpyrandom.a, into a per-user cache directory ($XDG_CACHE_HOME/ekrlab or
~/.cache/ekrlab, mode 0700), under a name keyed by the sha256 of the
source, the library and the build command, and loads it through ctypes.
It returns None when there is no compiler or library, the build fails, or
the cache directory cannot be written or is not private to the user; the
searches then run on the Python kernel (verifier._branch_and_bound), which
gives the same results, and a trial on the Python sampler and verifier.
Nothing is built or loaded at import.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess
import tempfile
from typing import NamedTuple

import numpy as np

from . import hypergraph
from .errors import ResourceLimitError

OMEGA, NONTRIVIAL, GENERIC, STATS = 0, 1, 2, 3
DONE, OUT_OF_BUDGET, OUT_OF_MEMORY = 0, 1, 2

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
_NPYRANDOM = os.path.join(os.path.dirname(np.__file__), "random", "lib", "libnpyrandom.a")
_CC = "gcc"
_CFLAGS = ("-O2", "-shared", "-fPIC")
_VERTEX_BYTES = 32                      # 4 words: n <= hypergraph.MAX_N = 256

_lib = None     # the kernel's entry points once loaded; False if they cannot be


class Kernel(NamedTuple):
    """The loaded kernel's two entry points, as ctypes functions."""

    ekr_search: object
    ekr_trials: object


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
    # the source's path stays out of the name: checkouts share a build
    command, link = [cc, *_CFLAGS, "-I", np.get_include()], [_NPYRANDOM, "-lm"]
    try:
        data = b""
        for path in (_SOURCE, _NPYRANDOM):
            with open(path, "rb") as f:
                data += f.read()
        key = _sha256(data + " ".join(command + link + [os.uname().machine]).encode())
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
                subprocess.run(command + ["-o", tmp, _SOURCE] + link, check=True,
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
    cint, ptr = ctypes.c_int, ctypes.c_void_p
    lib.ekr_search.argtypes = [cint, cint, u64p, u64p, cint, i64, i64, ctypes.c_double, i64,
                               i32p, ctypes.POINTER(i64)]
    lib.ekr_search.restype = cint
    lib.ekr_trials.argtypes = [ptr, i64, i64, i64, cint, cint, ptr, i64, ctypes.c_double, cint,
                               cint, i64, i64, cint, ptr, ptr, i64]
    lib.ekr_trials.restype = i64
    return Kernel(lib.ekr_search, lib.ekr_trials)


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
    check(lib.ekr_search(mode, m, words, None, dense, max(min(floor, m), -1),
                         min(target, m + 1), float(max(min(zeta_cap, 256), -1)),
                         min(node_budget, 2**62), clique, result))
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
    if lib.ekr_search(STATS, m, words, None, 0, 0, 0, 0.0, 0, None, result):
        raise MemoryError("native kernel statistics")
    return tuple(result)


def _uint32_words(x: int) -> list[int]:
    """numpy's _int_to_uint32_array: x >= 0 in little-endian 32-bit words."""
    return [x >> s & 0xFFFFFFFF for s in range(0, max(x.bit_length(), 1), 32)]


def trials(lib, seed: int, stream, lo: int, hi: int, n: int, k: int, N: int, p: float, *,
           conditioned: bool, dense: bool, edge_cap: int, node_budget: int,
           keep_all: bool = False):
    """Trials [lo, hi) of montecarlo.run_one_trial, each on the k-sets of [n]
    that hypergraph.sample_conditioned (or sample_bernoulli) draws under
    SeedSequence(seed >= 0, spawn_key=(*stream, t)), N = C(n, k) < 2**63.

    Per trial: (m, Delta, (max d(x, y), max |W_x|), omega, size, status,
    clique, edges), status DONE or OUT_OF_BUDGET (check()).  omega is -1
    when m > edge_cap; size, the failing clique's, is -1 when EKR holds or
    no search decided; edges are a failing trial's (any trial's with
    keep_all) edge bitsets, else None.
    """
    ent = _uint32_words(seed)
    ent += [0] * (4 - len(ent))             # as SeedSequence pads them when spawned
    ent = np.array(ent + [w for x in stream for w in _uint32_words(x)], dtype=np.uint32)
    columns = hypergraph._unrank_tables(n, k)[0]
    rows = np.empty((hi - lo, 8), dtype=np.int64)
    out = np.empty(1 << 16, dtype=np.uint64)
    done = []
    while lo < hi:
        count = lib.ekr_trials(ent.ctypes.data, len(ent), lo, hi, n, k, columns.ctypes.data, N, p,
                               conditioned, dense, min(edge_cap, 2**62),
                               min(node_budget, 2**62), keep_all, rows.ctypes.data,
                               out.ctypes.data, len(out))
        if count < 0:
            raise MemoryError("native kernel trials")
        at = 0
        for m, Delta, _, pair, w, omega, size, status in rows[:count].tolist():
            kept = keep_all or size >= 0
            edges = edge_bits(out[at:at + 4 * m]) if kept else None
            clique = out[at + 4 * m:at + 4 * m + size].tolist() if size > 0 else []
            if kept:
                at += 4 * m + max(size, 0)
            done.append((m, Delta, (pair, w), omega, size, status, clique, edges))
        lo += count
        if lo < hi:     # trial lo's words may not fit: grow out, go on from it
            out = np.empty(2 * max(len(out), 5 * rows[count, 0]), np.uint64)
    return done
