"""The compiled search kernel (_kernel.c): build, cache, load and call.

Its entry point ekr_search runs the omega, nontrivial or generic search
(search()), or in a fourth mode, DECIDE, verifier._decide: Delta, then the
nontrivial search and, only on a family it does not decide, the omega
search, on one graph (decide()).  Its second entry point, ekr_trials, runs
a batch of bernoulli or conditioned Monte Carlo trials in one call
(trials()).  It seeds and draws each trial as numpy would, with numpy's
binomial and bounded-integer samplers from numpy's libnpyrandom.a, then
dedups and unranks the draws and runs the same decision on each.

kernel() builds the kernel on first use with the system gcc (-O2, plus
-mpopcnt on an x86-64 CPU whose /proc/cpuinfo flags report POPCNT, so that
every popcount is one instruction), linked with libnpyrandom.a, into a
per-user cache directory ($XDG_CACHE_HOME/ekrlab or ~/.cache/ekrlab, mode
0700), under a name keyed by the sha256 of the source, the library and the
build command, flags included, so that hosts sharing a home directory each
load their own build, and loads it through ctypes.
It returns None when there is no compiler or library, the build fails, or
the cache directory cannot be written or is not private to the user; the
searches then run on the Python kernel (verifier._branch_and_bound), which
gives the same results, and a trial on the Python sampler and verifier.
Nothing is built or loaded at import.

The entry points are called through ctypes.CDLL, which releases the GIL
for each call, so a sweep's thread pool (montecarlo._trial_batches) runs
ekr_trials from several threads at once.  The kernel must therefore stay
reentrant: no mutable static or global state, each call's memory its own.
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

OMEGA, NONTRIVIAL, GENERIC, DECIDE = 0, 1, 2, 3
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


def _cpu_flags() -> list[str]:
    """The first flags line of /proc/cpuinfo, split; empty where there is none."""
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            for line in f:
                if line.startswith("flags"):
                    return line.split(":", 1)[-1].split()
    except OSError:
        pass
    return []


def _command(cc: str) -> list[str]:
    """The compile command, less its output and source.  It adds -mpopcnt on
    an x86-64 CPU that reports POPCNT, so that every popcount is one
    instruction, not a call to libgcc's __popcountdi2; on a CPU without
    POPCNT that instruction would die with SIGILL, so any other host builds
    without it."""
    popcnt = os.uname().machine == "x86_64" and "popcnt" in _cpu_flags()
    return [cc, *_CFLAGS, *(["-mpopcnt"] if popcnt else []), "-I", np.get_include()]


def _library_name(args: list[str]) -> str:
    """The cached build's file name: keyed by the sha256 of the source, of
    numpy's library and of the build arguments, so a host whose command
    differs loads its own build.  The source's path stays out of the name,
    so checkouts share a build."""
    data = b""
    for path in (_SOURCE, _NPYRANDOM):
        with open(path, "rb") as f:
            data += f.read()
    key = _sha256(data + " ".join(args + [os.uname().machine]).encode())
    return f"kernel-{key[:24]}.so"


def _load():
    cc = shutil.which(_CC) if os.name == "posix" else None
    if cc is None:
        return None
    command, link = _command(cc), [_NPYRANDOM, "-lm"]
    try:
        name = _library_name(command + link)
        cache = _cache_dir()
        os.makedirs(cache, mode=0o700, exist_ok=True)
        if not _private(cache):
            return None
        path = os.path.join(cache, name)
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
    lib.ekr_search.argtypes = [cint, cint, u64p, cint, i64, i64, ctypes.c_double, i64, i32p,
                               ctypes.POINTER(i64)]
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


def _ekr_search(lib, mode: int, words, dense: bool, floor: int, target: int,
                zeta_cap: float, node_budget: int):
    """ekr_search's result (four slots, of which one search fills three)
    and clique buffer, its status checked."""
    m = len(words) * 8 // _VERTEX_BYTES
    clique = (ctypes.c_int32 * max(m, 1))()
    result = (ctypes.c_int64 * 4)()
    # beyond these ranges a value acts as its clamp: best <= m, so a floor of
    # m or more records nothing and a target above m is never met; a clique
    # has at most MAX_N vertices of degree 3
    check(lib.ekr_search(mode, m, words, dense, max(min(floor, m), -1),
                         min(target, m + 1), float(max(min(zeta_cap, 256), -1)),
                         min(node_budget, 2**62), clique, result))
    return tuple(result), clique


def search(lib, mode: int, words, *, floor: int, target: int, node_budget: int,
           dense: bool = False, zeta_cap: float = 0.0):
    """verifier._branch_and_bound's (best, recorded clique or None, nodes)
    for one of the three searches, on the native kernel.

    words holds the edges' vertex_words; the kernel builds the intersection
    adjacency from them, and for the omega and nontrivial searches its
    relabel by descending degree, whose clique comes back as ascending
    original edge indices.  The omega search floors itself at Delta, not
    floor, and returns the star of the lowest vertex of that degree when no
    clique beats it.
    """
    (best, size, nodes, _), clique = _ekr_search(lib, mode, words, dense, floor, target,
                                                 zeta_cap, node_budget)
    return (floor, None, nodes) if size < 0 else (best, clique[:size], nodes)


def decide(lib, words, *, dense: bool, node_budget: int):
    """verifier._decide on the native kernel, in one call: (Delta, omega,
    failing clique as ascending edge indices or None, nodes of both
    searches) of the distinct edges in words, each search on its own node
    budget.

    The nontrivial search runs first, for a clique of t = max(Delta, 3) or
    more edges with an empty intersection.  A clique above Delta has no
    common vertex, so when it finds none EKR holds, omega = Delta, and no
    omega search runs.  When it finds one or runs out, the omega search
    decides: omega > Delta fails with its maximum clique; omega = Delta
    fails with the nontrivial clique, or is undecided if that search ran
    out.
    """
    (Delta, omega, size, nodes), clique = _ekr_search(lib, DECIDE, words, dense, 0, 0, 0,
                                                      node_budget)
    return Delta, omega, (tuple(clique[:size]) if size >= 0 else None), nodes


def _uint32_words(x: int) -> list[int]:
    """numpy's _int_to_uint32_array: x >= 0 in little-endian 32-bit words."""
    return [x >> s & 0xFFFFFFFF for s in range(0, max(x.bit_length(), 1), 32)]


def trials(lib, seed: int, stream, lo: int, hi: int, n: int, k: int, N: int, p: float, *,
           conditioned: bool, dense: bool, edge_cap: int, node_budget: int,
           keep_all: bool = False):
    """Trials [lo, hi) of montecarlo.run_one_trial, each on the k-sets of [n]
    that hypergraph.sample_conditioned (or sample_bernoulli) draws under
    SeedSequence(seed >= 0, spawn_key=(*stream, t)), N = C(n, k) < 2**63.

    Per trial a row, the list [m, Delta, omega, size, status] straight from
    the kernel, status DONE or OUT_OF_BUDGET (check()).  omega is -1 when
    m > edge_cap; size, the failing clique's, is -1 when EKR holds or no
    search decided.  A failing trial's row (any trial's with keep_all) goes
    on with its clique, as ascending edge indices, and its edge bitsets:
    [m, Delta, omega, size, status, clique, edges].  Python reads only
    those rows one by one; the others are left as tolist() gives them.
    """
    ent = _uint32_words(seed)
    ent += [0] * (4 - len(ent))             # as SeedSequence pads them when spawned
    ent = np.array(ent + [w for x in stream for w in _uint32_words(x)], dtype=np.uint32)
    columns = hypergraph._unrank_tables(n, k)[0]
    rows = np.empty((hi - lo, 5), dtype=np.int64)
    out = np.empty(1 << 16, dtype=np.uint64)
    done = []
    while lo < hi:
        count = lib.ekr_trials(ent.ctypes.data, len(ent), lo, hi, n, k, columns.ctypes.data, N, p,
                               conditioned, dense, min(edge_cap, 2**62),
                               min(node_budget, 2**62), keep_all, rows.ctypes.data,
                               out.ctypes.data, len(out))
        if count < 0:
            raise MemoryError("native kernel trials")
        batch = rows[:count].tolist()
        at = 0
        for row in batch if keep_all else [row for row in batch if row[3] >= 0]:
            m, size = row[0], max(row[3], 0)
            row += (tuple(out[at + 4 * m:at + 4 * m + size].tolist()),
                    edge_bits(out[at:at + 4 * m]))
            at += 4 * m + size
        done += batch
        lo += count
        if lo < hi:     # trial lo's words may not fit: grow out, go on from it
            out = np.empty(2 * max(len(out), 5 * rows[count, 0]), np.uint64)
    return done
