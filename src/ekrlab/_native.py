"""The compiled kernel (_kernel.c): build, cache, load and call.

It is the library's one implementation of the exact searches and of the
samplers.  ekr_search runs the omega, nontrivial or generic search
(search()), or in a fourth mode, DECIDE, verifier._decide: Delta, then the
nontrivial search and, only on a family it does not decide, the omega
search, on one graph (decide()).  ekr_trials runs a batch of Monte Carlo
trials of any sampler mode in one call (trials()), each drawn as the numpy
samplers of tests/oracles.py draw it (with numpy's binomial and
bounded-integer samplers from its libnpyrandom.a), deduplicated and
decided.  ekr_draw draws one family for hypergraph's samplers (draw()).

The source is built at two vertex widths, its compile-time VW: -DVW=1, one
word an edge, serves families on n <= 64 vertices, and -DVW=4 those on
n <= hypergraph.MAX_N = 256.  width(n) names the build for n, and every
call picks it from n: vertex_words and edge_bits lay out and read its
words, and search, decide, trials and draw run on kernel(n).  kernel(n)
builds that width on first use, apart from the other, with the system gcc
(-O2, plus -mpopcnt on an x86-64 CPU whose /proc/cpuinfo flags report
POPCNT, so that every popcount is one instruction), linked with
libnpyrandom.a, into a per-user cache directory ($XDG_CACHE_HOME/ekrlab or
~/.cache/ekrlab, mode 0700), under a name keyed by the sha256 of the
source, the library and the build command, flags and width included, so
that hosts sharing a home directory each load their own build, and loads it
through ctypes.
Where there is no compiler or library, the build fails, or the cache
directory cannot be made or is not private to the user, it raises
ResourceLimitError with one line that names the cause, so sample, verify,
witness --generic-size and sweep exit 3 there.  Nothing is built or loaded
at import.

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
from .errors import DomainError, ResourceLimitError

OMEGA, NONTRIVIAL, GENERIC, DECIDE = 0, 1, 2, 3
DONE, OUT_OF_BUDGET, OUT_OF_MEMORY = 0, 1, 2

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
_NPYRANDOM = os.path.join(os.path.dirname(np.__file__), "random", "lib", "libnpyrandom.a")
_CC = "gcc"
_CFLAGS = ("-O2", "-shared", "-fPIC")

_lib: dict[int, Kernel] = {}     # the loaded Kernel of each vertex width (width())


class Kernel(NamedTuple):
    """The loaded kernel's three entry points, as ctypes functions."""

    ekr_search: object
    ekr_trials: object
    ekr_draw: object


def width(n: int) -> int:
    """The vertex words an edge takes in the build for n vertices: one for
    n <= 64, else four (n <= hypergraph.MAX_N = 256)."""
    return 1 if n <= 64 else 4


def kernel(n: int) -> Kernel:
    """The native Kernel for families on n vertices, the build of width(n)
    vertex words, built and loaded on first use.  ResourceLimitError where
    it cannot be, naming the cause; a later call tries again."""
    vw = width(n)
    lib = _lib.get(vw)
    if lib is None:
        lib = _lib[vw] = _load(vw)
    return lib


def _unavailable(cause: str) -> ResourceLimitError:
    return ResourceLimitError(f"no kernel: {cause}")


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


def _command(cc: str, vw: int) -> list[str]:
    """The compile command of the build of vw vertex words, less its output
    and source.  It adds -mpopcnt on an x86-64 CPU that reports POPCNT, so
    that every popcount is one instruction, not a call to libgcc's
    __popcountdi2; on a CPU without POPCNT that instruction would die with
    SIGILL, so any other host builds without it."""
    popcnt = os.uname().machine == "x86_64" and "popcnt" in _cpu_flags()
    return [cc, *_CFLAGS, *(["-mpopcnt"] if popcnt else []), f"-DVW={vw}", "-I",
            np.get_include()]


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


def _load(vw: int) -> Kernel:
    cc = shutil.which(_CC) if os.name == "posix" else None
    if cc is None:
        raise _unavailable(f"no C compiler ({_CC}) on the PATH")
    for what, path in (("the kernel source", _SOURCE), ("numpy's libnpyrandom.a", _NPYRANDOM)):
        if not os.path.isfile(path):
            raise _unavailable(f"{what} is missing ({path})")
    command, link = _command(cc, vw), [_NPYRANDOM, "-lm"]
    cache = _cache_dir()
    try:
        os.makedirs(cache, mode=0o700, exist_ok=True)
        private = _private(cache)
    except OSError as exc:
        raise _unavailable(f"cannot make the cache directory {cache}: {exc.strerror}") from None
    if not private:
        raise _unavailable(f"the cache directory {cache} is not private to this user")
    path = os.path.join(cache, _library_name(command + link))
    try:
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
            raise _unavailable(f"the cached build {path} is not private to this user")
        lib = ctypes.CDLL(path)
    except subprocess.CalledProcessError as exc:
        lines = exc.stderr.decode(errors="replace").strip().splitlines()
        raise _unavailable("the build failed: " + (
            lines[0] if lines else f"{_CC} exited with status {exc.returncode}")) from None
    except subprocess.TimeoutExpired as exc:
        raise _unavailable(f"the build ran past {exc.timeout} s") from None
    except OSError as exc:
        raise _unavailable(f"cannot build or load {path}: {exc}") from None
    i64, u64p, i32p = ctypes.c_int64, ctypes.POINTER(ctypes.c_uint64), ctypes.POINTER(ctypes.c_int32)
    cint, ptr = ctypes.c_int, ctypes.c_void_p
    lib.ekr_search.argtypes = [cint, cint, u64p, cint, i64, i64, ctypes.c_double, i64, i32p,
                               ctypes.POINTER(i64)]
    lib.ekr_search.restype = cint
    lib.ekr_trials.argtypes = [ptr, i64, i64, i64, cint, cint, i64, ctypes.c_double, cint, cint,
                               i64, i64, cint, ptr, ptr, i64]
    lib.ekr_draw.argtypes = [ptr, i64, cint, cint, i64, ctypes.c_double, cint, i64, ptr, i64]
    lib.ekr_trials.restype = lib.ekr_draw.restype = i64
    return Kernel(lib.ekr_search, lib.ekr_trials, lib.ekr_draw)


def vertex_words(bits, n: int):
    """The edges' vertex bitsets (ints below 2**n) as kernel(n) reads them:
    width(n) little-endian words per edge."""
    size = 8 * width(n)
    data = b"".join([x.to_bytes(size, "little") for x in bits])
    return (ctypes.c_uint64 * (len(data) // 8)).from_buffer_copy(data)


def _bitsets(words, size: int, which=None) -> tuple[int, ...]:
    """The ints of words holding size bytes each, little endian: all, or
    those at the indices which."""
    data = memoryview(words).cast("B")
    return tuple(int.from_bytes(data[size * i:size * (i + 1)], "little")
                 for i in (range(len(data) // size) if which is None else which))


def edge_bits(words, n: int, which=None) -> tuple[int, ...]:
    """The edge bitsets (ints) of vertex_words(bits, n), its inverse: every
    edge's, or only those of the edge indices which."""
    return _bitsets(words, 8 * width(n), which)


def check(status: int) -> None:
    """Raise the error of a kernel status other than DONE."""
    if status == OUT_OF_BUDGET:
        raise ResourceLimitError("branch-and-bound node budget exceeded")
    if status:
        raise MemoryError("native kernel")


def _ekr_search(mode: int, words, n: int, dense: bool, floor: int, target: int,
                zeta_cap: float, node_budget: int):
    """kernel(n)'s ekr_search result (four slots, of which one search fills
    three) and clique buffer, its status checked."""
    lib, m = kernel(n), len(words) // width(n)
    clique = (ctypes.c_int32 * max(m, 1))()
    result = (ctypes.c_int64 * 4)()
    # beyond these ranges a value acts as its clamp: best <= m, so a floor of
    # m or more records nothing and a target above m is never met; a clique
    # has at most MAX_N vertices of degree 3
    check(lib.ekr_search(mode, m, words, dense, max(min(floor, m), -1),
                         min(target, m + 1), float(max(min(zeta_cap, 256), -1)),
                         min(node_budget, 2**62), clique, result))
    return tuple(result), clique


def search(mode: int, words, n: int, *, floor: int, target: int, node_budget: int,
           dense: bool = False, zeta_cap: float = 0.0):
    """(best, recorded clique or None, nodes visited) of one of the three
    searches: a clique is recorded when it beats best, from floor, and is
    accepted (omega: maximal; nontrivial: empty common intersection;
    generic: degrees <= 3 with at most zeta_cap of degree 3), and the
    search stops once best >= target.  Each visited clique, the empty one
    included, costs one of node_budget's nodes; a search that needs more
    raises ResourceLimitError (check()).

    words holds the edges' vertex_words(bits, n); kernel(n) builds the
    intersection adjacency from them, and for the omega and nontrivial
    searches its relabel by descending degree, whose clique comes back as
    ascending original edge indices.  The omega search floors itself at Delta, not
    floor, and returns the star of the lowest vertex of that degree when no
    clique beats it.
    """
    (best, size, nodes, _), clique = _ekr_search(mode, words, n, dense, floor, target,
                                                 zeta_cap, node_budget)
    return (floor, None, nodes) if size < 0 else (best, clique[:size], nodes)


def decide(words, n: int, *, dense: bool, node_budget: int):
    """verifier._decide's decision in one call: (Delta, omega,
    failing clique as ascending edge indices or None, nodes of both
    searches) of the distinct edges in words (vertex_words(bits, n)), each
    search on its own node budget.

    The nontrivial search runs first, for a clique of t = max(Delta, 3) or
    more edges with an empty intersection.  A clique above Delta has no
    common vertex, so when it finds none EKR holds, omega = Delta, and no
    omega search runs.  When it finds one or runs out, the omega search
    decides: omega > Delta fails with its maximum clique; omega = Delta
    fails with the nontrivial clique, or is undecided if that search ran
    out.
    """
    (Delta, omega, size, nodes), clique = _ekr_search(DECIDE, words, n, dense, 0, 0, 0,
                                                      node_budget)
    return Delta, omega, (tuple(clique[:size]) if size >= 0 else None), nodes


def _uint32_words(x: int) -> list[int]:
    """numpy's _int_to_uint32_array: x >= 0 in little-endian 32-bit words."""
    return [x >> s & 0xFFFFFFFF for s in range(0, max(x.bit_length(), 1), 32)]


def _entropy(seed, stream=()) -> np.ndarray:
    """The words SeedSequence(seed) assembles (the seed's, padded to 4, then
    its spawn key's), then stream's: an int seed >= 0 or a SeedSequence of
    one with pool_size 4, else DomainError, never another stream."""
    spawn, pool = (), 4
    # an int seed never touches np.random: numpy >= 2 loads it on first use, ~6 MB
    if not isinstance(seed, int) and isinstance(seed, np.random.SeedSequence):
        seed, spawn, pool = seed.entropy, seed.spawn_key, seed.pool_size
    if not isinstance(seed, (int, np.integer)) or seed < 0 or pool != 4:
        raise DomainError("seed must be an int >= 0, or a SeedSequence of one with pool_size 4, "
                          "for the kernel to re-derive its stream")
    ent = _uint32_words(int(seed))
    ent += [0] * (4 - len(ent))             # as SeedSequence pads them before a spawn key
    return np.array(ent + [w for x in (*spawn, *stream) for w in _uint32_words(int(x))],
                    dtype=np.uint32)


def _room(N: int, p: float) -> int:     # draw()'s first room, in edges: mean p N + 4 sd + 16
    return int(p * N + 4 * (p * N) ** 0.5) + 16


def draw(seed, n: int, k: int, N: int, p: float, sampler: str, m: int = -1):
    """One family's edge bitsets, drawn by kernel(n) on SeedSequence(seed)'s
    own stream: sampler at p, N = C(n, k) < 2**63, or m >= 0 independent
    edges, repeats kept in draw order.  Drawn again into m edges when m
    outgrows the room.  ekr_draw writes ceil(n / 64) words an edge, in
    either build."""
    lib, ent, ew = kernel(n), _entropy(seed), (n + 63) // 64
    got = m if m >= 0 else _room(N, p)
    while True:
        out = np.empty(max(got, 1) * ew, dtype=np.uint64)
        got = lib.ekr_draw(ent.ctypes.data, len(ent), n, k, N, p,
                           hypergraph.SAMPLER_MODES.index(sampler), m, out.ctypes.data, len(out))
        if got < 0:
            raise MemoryError("native kernel draw")
        if got * ew > len(out):
            continue
        if ew > 1:
            return _bitsets(out[:got * ew], 8 * ew)
        # a one-word edge (n <= 64) is its own bitset, which tolist() gives as
        # an int; out is dropped first, so it and the tuple are never both held
        edges, out = out[:got].tolist(), None
        return tuple(edges)


def trials(seed: int, stream, lo: int, hi: int, n: int, k: int, N: int, p: float, *,
           sampler: str, dense: bool, edge_cap: int, node_budget: int,
           keep_all: bool = False):
    """Trials [lo, hi) of montecarlo.run_one_trial, each on the k-sets of [n]
    that tests/oracles.sample(sampler, ...) draws under SeedSequence(seed
    >= 0, spawn_key=(*stream, t)), N = C(n, k) < 2**63.

    Per trial a row, the list [m, Delta, omega, size, status] straight from
    the kernel, status DONE or OUT_OF_BUDGET (check()).  m counts distinct
    edges; omega is -1 when m > edge_cap; size, the failing clique's, is -1
    when EKR holds or no search decided.  A failing trial's row (any
    trial's with keep_all) goes on with its clique, as ascending edge
    indices, and its family's vertex words as one bytes value (the layout of
    vertex_words(bits, n); edge_bits(words, n) decodes them): [m, Delta,
    omega, size, status, clique, words].  Python reads only those rows one by one; the others
    are left as tolist() gives them.
    """
    lib, vw = kernel(n), width(n)
    ent, mode = _entropy(seed, stream), hypergraph.SAMPLER_MODES.index(sampler)
    rows = np.empty((hi - lo, 5), dtype=np.int64)
    out = np.empty(1 << 16, dtype=np.uint64)
    done = []
    while lo < hi:
        count = lib.ekr_trials(ent.ctypes.data, len(ent), lo, hi, n, k, N, p, mode, dense,
                               min(edge_cap, 2**62), min(node_budget, 2**62), keep_all,
                               rows.ctypes.data, out.ctypes.data, len(out))
        if count < 0:
            raise MemoryError("native kernel trials")
        batch = rows[:count].tolist()
        at = 0
        for row in batch if keep_all else [row for row in batch if row[3] >= 0]:
            m, size = row[0], max(row[3], 0)
            row += (tuple(out[at + vw * m:at + vw * m + size].tolist()),
                    out[at:at + vw * m].tobytes())
            at += vw * m + size
        done += batch
        lo += count
        if lo < hi:     # trial lo's m draws may not fit: grow out, go on from it
            out = np.empty(2 * max(len(out), (vw + 1) * rows[count, 0]), np.uint64)
    return done
