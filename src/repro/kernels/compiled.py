"""Compiled C forms of the sequential per-vertex loops.

Every loop here is sequential at heart: each step reads what the step
before it wrote.

``ff_sweep``
    the First-Fit sweep (:func:`repro.kernels.ff_sweep`): each work
    vertex takes the smallest color its neighbors do not hold, reading
    the live colors of earlier work items and the stale base colors of
    later ones;
``d2_sweep``
    its one-sided distance-2 form (:func:`repro.kernels.d2_sweep`) over
    the rows of a bipartite incidence graph;
``d2_drain_pass``
    one pass of the one-sided distance-2 balance drain
    (:func:`repro.bipartite.d2_shuffle_drain`): each candidate row's move
    depends on the live class sizes and the live colors of its two-hop
    rows;
``sched_commit``
    the move commit of Sched-Rev/Sched-Fwd
    (:func:`repro.coloring.scheduled_balance`): each planned move checks
    its target against the live colors of its neighbors.

This module holds one short C source for all four, compiled once with the
system C compiler (``$CC``, else ``cc``; ``-O2 -shared -fPIC``, no
host-specific tuning) and loaded with :mod:`ctypes`.  The loops are
transcriptions of the Python ones in :mod:`repro.kernels.reference`:
the same visit order, the same live reads, the same color windows, the
same float64 size arithmetic and the same first-index tie-breaks, so
their output is bit-identical and the Python loops stay the oracle.

The shared library is cached in a private per-user directory
(``$XDG_CACHE_HOME/repro/kernels``, else ``~/.cache/repro/kernels``,
mode 0700), under a file name keyed by a hash of the source, the flags,
the compiler and the platform.  It is written to a temporary name and
moved into place with :func:`os.replace`, so concurrent processes never
load a half-written file.  The first :func:`load` in a process builds or
opens it under a lock; if anything fails (no compiler, a compile error,
an unwritable cache, a ``dlopen`` error), :func:`load` returns ``None``,
:func:`failure_reason` says why, and the dispatchers in
:mod:`repro.kernels` run the Python loops instead.

Every kernel returns ``-1`` instead of reading past an array when a
graph index is out of range; the dispatchers check dtypes, lengths and
id ranges before a pointer reaches C.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shlex
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

__all__ = ["cache_dir", "failure_reason", "load"]

SOURCE = r"""
#include <stdint.h>

/* Guarded CSR row bounds: 0 on success, -1 when x or its slice is out of range. */
static int row_span(const int64_t *indptr, int64_t n, int64_t nnz, int64_t x,
                    int64_t *lo, int64_t *hi)
{
    if (x < 0 || x >= n) return -1;
    *lo = indptr[x];
    *hi = indptr[x + 1];
    return (*lo < 0 || *hi > nnz || *lo > *hi) ? -1 : 0;
}

/* Smallest t in [0, w) not stamped with mark; 0 when all are, like the
   reference loop's argmax over an all-false window. */
static int64_t first_free(const int64_t *stamp, int64_t w, int64_t mark)
{
    for (int64_t t = 0; t < w; t++)
        if (stamp[t] != mark) return t;
    return 0;
}

/* First-Fit over work, in place on colors (a copy of the base colors):
   work[i] reads the live colors of its neighbors, so earlier work items
   are seen with their new colors and everyone else with the base ones.
   Only colors below deg+1 can bound the mex; stamp (length ls, zeroed)
   marks them with i+1.  Returns 0, or -1 on an out-of-range graph index. */
int64_t ff_sweep(const int64_t *indptr, const int64_t *indices,
                 int64_t n, int64_t nnz, int64_t *colors,
                 const int64_t *work, int64_t nwork, int64_t *stamp, int64_t ls)
{
    for (int64_t i = 0; i < nwork; i++) {
        int64_t v = work[i], mark = i + 1, lo, hi;
        if (row_span(indptr, n, nnz, v, &lo, &hi)) return -1;
        int64_t w = hi - lo + 1;
        if (w > ls) return -1;
        for (int64_t p = lo; p < hi; p++) {
            int64_t u = indices[p];
            if (u < 0 || u >= n) return -1;
            int64_t c = colors[u];
            if (c >= 0 && c < w) stamp[c] = mark;
        }
        colors[v] = first_free(stamp, w, mark);
    }
    return 0;
}

/* One-sided distance-2 First-Fit over the work rows, in place on colors
   (length num_rows): a row forgets its own stale color, stamps the colors
   of every row sharing a column with it, and takes the smallest free one
   below min(two-hop slots, num_rows)+1.  stamp has num_rows+1 entries,
   zeroed.  Returns 0, or -1 on an out-of-range graph index. */
int64_t d2_sweep(const int64_t *indptr, const int64_t *indices,
                 int64_t n, int64_t nnz, int64_t num_rows, int64_t *colors,
                 const int64_t *work, int64_t nwork, int64_t *stamp)
{
    for (int64_t i = 0; i < nwork; i++) {
        int64_t r = work[i], mark = i + 1, lo, hi, budget = 0;
        if (row_span(indptr, num_rows, nnz, r, &lo, &hi)) return -1;
        colors[r] = -1;
        for (int64_t p = lo; p < hi; p++) {
            int64_t clo, chi;
            if (row_span(indptr, n, nnz, indices[p], &clo, &chi)) return -1;
            for (int64_t q = clo; q < chi; q++) {
                int64_t s = indices[q];
                if (s < 0 || s >= num_rows) return -1;
                int64_t c = colors[s];
                if (c >= 0 && c <= num_rows) stamp[c] = mark;
            }
            budget += chi - clo;
        }
        colors[r] = first_free(stamp, (budget < num_rows ? budget : num_rows) + 1,
                               mark);
    }
    return 0;
}

/* One pass of the one-sided D2 drain over the candidate rows.  stamp (length
   C, zeroed) marks the classes held by a row's two-hop rows; ff takes the
   first under-full unmarked class, lu the first one of minimum size.
   Returns the number of moves, or -1 on an out-of-range graph index. */
int64_t d2_drain_pass(const int64_t *indptr, const int64_t *indices,
                      int64_t n, int64_t nnz, int64_t num_rows,
                      int64_t *colors, double *sizes, uint8_t *under,
                      int64_t C, double g, const int64_t *cand, int64_t ncand,
                      int64_t lu, int64_t *stamp)
{
    int64_t moves = 0;
    for (int64_t i = 0; i < ncand; i++) {
        int64_t r = cand[i], j = colors[r], mark = i + 1, lo, hi;
        if (sizes[j] <= g) continue;
        if (row_span(indptr, num_rows, nnz, r, &lo, &hi)) return -1;
        for (int64_t p = lo; p < hi; p++) {
            int64_t clo, chi;
            if (row_span(indptr, n, nnz, indices[p], &clo, &chi)) return -1;
            for (int64_t q = clo; q < chi; q++) {
                int64_t s = indices[q];
                if (s < 0 || s >= num_rows) return -1;
                if (s != r && colors[s] >= 0) stamp[colors[s]] = mark;
            }
        }
        int64_t k = -1;
        for (int64_t t = 0; t < C; t++) {
            if (!under[t] || stamp[t] == mark) continue;
            if (!lu) { k = t; break; }
            if (k < 0 || sizes[t] < sizes[k]) k = t;
        }
        if (k < 0) continue;
        colors[r] = k;
        sizes[j] -= 1.0;
        sizes[k] += 1.0;
        under[j] = sizes[j] < g;
        under[k] = sizes[k] < g;
        moves++;
    }
    return moves;
}

/* Attempt each planned move vertices[i] -> targets[i] once, in order: it
   commits when no neighbor holds the target.  Returns the commit count, or
   -1 on an out-of-range graph index. */
int64_t sched_commit(const int64_t *indptr, const int64_t *indices,
                     int64_t n, int64_t nnz, int64_t *colors,
                     const int64_t *vertices, const int64_t *targets, int64_t len)
{
    int64_t committed = 0;
    for (int64_t i = 0; i < len; i++) {
        int64_t v = vertices[i], k = targets[i], lo, hi, ok = 1;
        if (row_span(indptr, n, nnz, v, &lo, &hi)) return -1;
        for (int64_t p = lo; p < hi && ok; p++) {
            int64_t u = indices[p];
            if (u < 0 || u >= n) return -1;
            ok = colors[u] != k;
        }
        if (ok) {
            colors[v] = k;
            committed++;
        }
    }
    return committed;
}
"""

FLAGS = ("-O2", "-shared", "-fPIC")

_P, _I, _D = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
_SIGNATURES = {
    "ff_sweep": (_P, _P, _I, _I, _P, _P, _I, _P, _I),
    "d2_sweep": (_P, _P, _I, _I, _I, _P, _P, _I, _P),
    "d2_drain_pass": (_P, _P, _I, _I, _I, _P, _P, _P, _I, _D, _P, _I, _I, _P),
    "sched_commit": (_P, _P, _I, _I, _P, _P, _P, _I),
}

# what a failed build or load raises: OSError (cache directory, dlopen),
# RuntimeError (compiler missing or failing), SubprocessError (compiler
# timeout), ValueError (an unparsable $CC), AttributeError (missing symbol)
_LOAD_ERRORS = (OSError, RuntimeError, subprocess.SubprocessError, ValueError,
                AttributeError)

_lock = threading.Lock()
#: ``(library or None, failure reason or None)`` once the first load ran.
_state: tuple[ctypes.CDLL | None, str | None] | None = None


def _fresh_lock_in_child() -> None:
    """A forked child gets a new lock: the thread that held the parent's
    (a pool's handler thread, a serve scheduler thread) does not exist in
    the child, so the copied lock would never be released."""
    global _lock
    _lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_fresh_lock_in_child)


def cache_dir() -> Path:
    """The per-user directory holding the compiled library."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "repro" / "kernels"


def _compiler() -> list[str]:
    return shlex.split(os.environ.get("CC", "")) or ["cc"]


def _library_path(cc: list[str]) -> Path:
    exe = shutil.which(cc[0]) or cc[0]
    key = "\0".join([SOURCE, *FLAGS, *cc, os.path.realpath(exe), sys.platform,
                     platform.machine(), str(ctypes.sizeof(ctypes.c_void_p))])
    return cache_dir() / f"kernels-{hashlib.sha256(key.encode()).hexdigest()[:16]}.so"


def _private_dir(path: Path) -> None:
    """Create *path* with mode 0700; refuse one others could write into."""
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    st = path.stat()
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise PermissionError(f"cache directory {path} is not private to this user")


def _build(cc: list[str], path: Path) -> None:
    """Compile SOURCE into *path* through a temporary file in its directory."""
    with tempfile.TemporaryDirectory(dir=path.parent) as tmp:
        src, out = Path(tmp) / "kernels.c", Path(tmp) / "kernels.so"
        src.write_text(SOURCE)
        try:
            proc = subprocess.run([*cc, *FLAGS, "-o", str(out), str(src)],
                                  capture_output=True, text=True, timeout=120)
        except FileNotFoundError:
            raise RuntimeError(f"C compiler {cc[0]!r} not found") from None
        if proc.returncode != 0:
            detail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            raise RuntimeError(
                f"{shlex.join(cc)} exited with status {proc.returncode}: {detail}")
        os.replace(out, path)


def _open() -> ctypes.CDLL:
    cc = _compiler()
    path = _library_path(cc)
    _private_dir(path.parent)
    if not path.exists():
        _build(cc, path)
    lib = ctypes.CDLL(str(path))
    for name, argtypes in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = argtypes, ctypes.c_int64
    return lib


def load() -> ctypes.CDLL | None:
    """The compiled kernels, or ``None`` when they could not be built or loaded.

    The first call in a process builds (or opens the cached) library under
    a lock; every later call returns the same answer.
    """
    global _state
    if _state is None:
        with _lock:
            if _state is None:
                try:
                    _state = (_open(), None)
                except _LOAD_ERRORS as exc:
                    _state = (None, f"{type(exc).__name__}: {exc}")
    return _state[0]


def failure_reason() -> str | None:
    """Why :func:`load` returned ``None``, or ``None`` when the kernels loaded."""
    load()
    return _state[1]
