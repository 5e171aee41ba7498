"""Compiled C forms of the per-vertex loops.

Six loops here are sequential at heart: each step reads what the step
before it wrote.

``ff_sweep``
    the First-Fit sweep (:func:`repro.kernels.ff_sweep`): each work
    vertex takes the smallest color its neighbors do not hold, reading
    the live colors of earlier work items and the stale base colors of
    later ones;
``capacity_sweep``
    its capacity-constrained form behind Balanced Recoloring
    (:func:`repro.kernels.capacity_sweep`): each vertex takes the
    smallest color its neighbors do not hold whose bin is still below γ,
    reading the live bin sizes;
``d2_sweep``
    its one-sided distance-2 form (:func:`repro.kernels.d2_sweep`) over
    the rows of a bipartite incidence graph;
``d2_drain_pass``
    one pass of the one-sided distance-2 balance drain
    (:func:`repro.bipartite.d2_shuffle_drain`): each candidate row's move
    depends on the live class sizes and the live colors of its two-hop
    rows;
``shuffle_drain``
    one candidate group of the unscheduled-shuffling drain behind
    VFF/VLU/CFF/CLU (:func:`repro.kernels.shuffle_drain`): each candidate
    leaves its bin while that bin is over γ, for a bin its neighbors do
    not hold, reading the live colors and bin sizes;
``sched_commit``
    the move commit of Sched-Rev/Sched-Fwd
    (:func:`repro.coloring.scheduled_balance`): each planned move checks
    its target against the live colors of its neighbors.

Three more loops are not sequential, but are cheap only in C:

``conflicts``
    the detection phase of the distance-1 speculation rounds
    (:func:`repro.kernels.detect_conflicts`,
    :func:`repro.kernels.detect_cross_conflicts`): each work vertex checks
    its neighbors for the same color and is retried when it loses; it
    walks the work rows instead of every edge;
``d2_conflicts``
    the detection phase of the distance-2 rounds
    (:func:`repro.kernels.d2_conflicts`): each column next to a work row
    is visited once and decided on its own, as the per-column oracle and
    Taş & Kaya's per-net detection do: one pass over its rows finds, per
    color, the lowest row and whether a finalized row holds it, a second
    retries the losers.  A round costs the degrees of the columns it
    visits, not the two-hop neighbourhood of every work row;
``verify``
    the properness check behind every verifier
    (:func:`repro.kernels.count_monochromatic_edges`,
    :func:`repro.kernels.d2_violating_column`): one pass over the CSR rows
    counts the monochromatic edges, or one pass over each column's rows
    with a color stamp finds the first column holding two same-colored
    rows.

Two more build and check every graph (:class:`repro.graph.CSRGraph`):

``csr_assemble``
    the CSR assembly behind :func:`repro.graph.from_edge_arrays`
    (:func:`repro.kernels.csr_assemble`): both directions of every edge
    are counting-sorted by destination, then stably by source, and each
    row drops its duplicates in place;
``csr_check``
    the invariant check behind :meth:`repro.graph.CSRGraph.check`
    (:func:`repro.kernels.csr_check`): linear passes over the arrays in
    the oracle's order, the last one matching every upper entry to its
    mirror with one cursor per row, so no edge-sized temporary is
    allocated; a row's lower part must be used up by the time the row
    comes up.

This module holds one short C source for all eleven, compiled once with the
system C compiler (``$CC``, else ``cc``; :data:`FLAGS`, no host-specific
tuning) and loaded with :mod:`ctypes`.  The prototypes in that source are
the only list of the kernels and their signatures: :func:`signatures`
reads every non-``static`` ``int64_t name(...)`` function out of
:data:`SOURCE` and maps each parameter to its :mod:`ctypes` type, and the
loader declares exactly those.  ``-falign-functions=64`` starts every
function on a 64-byte boundary, so a loop that grows or a new one
inserted earlier in the source does not shift the alignment of the loops
after it (an unaligned shift of 16 bytes once made ``conflicts`` and
``verify`` measurably slower).  The sequential
loops are transcriptions of the Python ones in
:mod:`repro.kernels.reference`: the same visit order, the same live
reads, the same color windows, the same float64 size arithmetic and the
same first-index tie-breaks, so their output is bit-identical and the
Python loops stay the oracle.  The detection loops return the same retry
sets as the edge scans and the per-column loop, and the verification
loop the same count or column as the edge scan and the per-column loop;
those stay their oracles.  The CSR of a simple graph is canonical, so the
assembly gives the same arrays as the sort-based NumPy assembly, and the
check fails on the same first invariant as the NumPy check; both stay
the oracles.

The shared library is cached in a private per-user directory
(``$XDG_CACHE_HOME/repro/kernels``, else ``~/.cache/repro/kernels``,
mode 0700), under a file name keyed by a hash of the source, the flags,
the compiler and the platform.  It is written to a temporary name and
moved into place with :func:`os.replace`, so concurrent processes never
load a half-written file.  The first :func:`load` in a process builds or
opens it under a lock; if anything fails (no compiler, a compile error,
an unwritable cache, a ``dlopen`` error), :func:`load` returns ``None``,
:func:`failure_reason` says why, and the dispatchers in
:mod:`repro.kernels` run their oracles instead.

Every kernel returns ``-1`` (``verify``: ``-2``, since ``-1`` means "no
violating column"; ``csr_check``: the number of the failed invariant)
instead of reading past an array when a graph index is out of range; the
dispatchers check dtypes, lengths and id ranges before a pointer reaches
C.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

__all__ = ["cache_dir", "failure_reason", "load", "signatures"]

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

/* Balanced Recoloring's capacity sweep over order, in place on colors
   (length n, all -1) and sizes (length ls, zeroed): each vertex stamps
   its neighbors' colors with its own id in forbidden (length ls, all -1)
   and takes the first color t with forbidden[t] != v and sizes[t] < g.
   Bins only fill, so every bin below open (the first one under g) stays
   full and the scan starts there.  Returns the number of colors, or -1 on
   an out-of-range graph index or when no bin below ls qualifies. */
int64_t capacity_sweep(const int64_t *indptr, const int64_t *indices,
                       int64_t n, int64_t nnz, int64_t *colors,
                       const int64_t *order, int64_t norder, double g,
                       int64_t *sizes, int64_t *forbidden, int64_t ls)
{
    int64_t num_colors = 0, open = 0;
    for (int64_t i = 0; i < norder; i++) {
        int64_t v = order[i], lo, hi, k;
        if (row_span(indptr, n, nnz, v, &lo, &hi)) return -1;
        for (int64_t p = lo; p < hi; p++) {
            int64_t u = indices[p];
            if (u < 0 || u >= n) return -1;
            if (colors[u] >= 0) forbidden[colors[u]] = v;
        }
        while (open < ls && !((double)sizes[open] < g)) open++;
        for (k = open; k < ls; k++)
            if (forbidden[k] != v && (double)sizes[k] < g) break;
        if (k == ls) return -1;
        colors[v] = k;
        sizes[k]++;
        if (k >= num_colors) num_colors = k + 1;
    }
    return num_colors;
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
   first under-full unmarked class t with sizes[t] < sizes[j] - 1 (so the
   sum of squared sizes falls), lu the first such one of minimum size.
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
        double cap = sizes[j] - 1.0;
        for (int64_t t = 0; t < C; t++) {
            if (!under[t] || stamp[t] == mark || !(sizes[t] < cap)) continue;
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

/* The work vertices that lost a speculative race, written to out in work
   order; returns their count, or -1 on an out-of-range graph index.  A
   colored vertex w is retried when a neighbor x holds its color and
   x < w or, with cross set, x is not in work.  w itself never counts: it
   is in work and not below itself.  mark (length n, zeroed) holds 1 for
   vertices in work and 2 once a vertex is retried, so out has no
   duplicates. */
int64_t conflicts(const int64_t *indptr, const int64_t *indices,
                  int64_t n, int64_t nnz, const int64_t *colors,
                  const int64_t *work, int64_t nwork, int64_t cross,
                  uint8_t *mark, int64_t *out)
{
    for (int64_t i = 0; i < nwork; i++) {
        if (work[i] < 0 || work[i] >= n) return -1;
        mark[work[i]] = 1;
    }
    int64_t count = 0;
    for (int64_t i = 0; i < nwork; i++) {
        int64_t w = work[i], c = colors[w], lo, hi;
        if (c < 0 || mark[w] == 2) continue;
        if (row_span(indptr, n, nnz, w, &lo, &hi)) return -1;
        for (int64_t p = lo; p < hi; p++) {
            int64_t x = indices[p];
            if (x < 0 || x >= n) return -1;
            if (colors[x] == c && (x < w || (cross && !mark[x]))) {
                mark[w] = 2;
                out[count++] = w;
                break;
            }
        }
    }
    return count;
}

/* Properness of a whole coloring; -2 on an out-of-range graph index.
   hops 1 returns the number of edges {x, w}, x < w, whose endpoints hold
   the same color >= 0 (size == n).  hops 2 walks the columns [size, n) of
   an incidence CSR with rows [0, size) and returns the first column,
   counted from 0, that holds two colored rows of the same color, or -1;
   stamp (length max color + 1, filled with -1) records the last column
   that saw each color, so each column costs one pass over its rows. */
int64_t verify(const int64_t *indptr, const int64_t *indices,
               int64_t n, int64_t nnz, int64_t size, const int64_t *colors,
               int64_t hops, int64_t *stamp)
{
    int64_t lo, hi;
    if (hops == 1) {
        int64_t count = 0;
        for (int64_t x = 0; x < n; x++) {
            int64_t c = colors[x];
            if (c < 0) continue;
            if (row_span(indptr, n, nnz, x, &lo, &hi)) return -2;
            for (int64_t p = lo; p < hi; p++) {
                int64_t w = indices[p];
                if (w < 0 || w >= n) return -2;
                if (w > x && colors[w] == c) count++;
            }
        }
        return count;
    }
    for (int64_t x = size; x < n; x++) {
        if (row_span(indptr, n, nnz, x, &lo, &hi)) return -2;
        for (int64_t p = lo; p < hi; p++) {
            int64_t w = indices[p];
            if (w < 0 || w >= size) return -2;
            int64_t k = colors[w];
            if (k < 0) continue;
            if (stamp[k] == x) return x - size;
            stamp[k] = x;
        }
    }
    return -1;
}

/* One candidate group of the shuffle drain, in place on colors and sizes
   (length C).  Each candidate v, in order, whose bin j = colors[v] is
   still over g, stamps its neighbors' colors with mark0+i+1 in stamp
   (length C, never holding a later mark) and moves to the first (lu: the
   first smallest) unstamped bin t with sizes[t] < g, carrying weight w[v];
   j itself is over g, so never a target.  Returns the number of moves, or
   -1 on an out-of-range graph index. */
int64_t shuffle_drain(const int64_t *indptr, const int64_t *indices,
                      int64_t n, int64_t nnz, int64_t *colors, double *sizes,
                      int64_t C, double g, const double *w, const int64_t *cand,
                      int64_t ncand, int64_t lu, int64_t *stamp, int64_t mark0)
{
    int64_t moves = 0;
    for (int64_t i = 0; i < ncand; i++) {
        int64_t v = cand[i], mark = mark0 + i + 1, lo, hi, j, k = -1;
        if (row_span(indptr, n, nnz, v, &lo, &hi)) return -1;
        j = colors[v];
        if (sizes[j] <= g) continue;
        for (int64_t p = lo; p < hi; p++) {
            int64_t u = indices[p];
            if (u < 0 || u >= n) return -1;
            stamp[colors[u]] = mark;  /* checked to lie in [0, C) */
        }
        for (int64_t t = 0; t < C; t++) {
            if (stamp[t] == mark || !(sizes[t] < g)) continue;
            if (!lu) { k = t; break; }
            if (k < 0 || sizes[t] < sizes[k]) k = t;
        }
        if (k < 0) continue;
        colors[v] = k;
        sizes[j] -= w[v];
        sizes[k] += w[v];
        moves++;
    }
    return moves;
}

/* The CSR of the simple graph with edges {u[i], v[i]} over n vertices.
   Self-loops are dropped; both directions of every other edge are
   counting-sorted by destination into tmp, then stably by source into
   indices (an LSD radix sort with n buckets; tmp and indices hold 2m
   entries), and duplicates are dropped in place within each row.  indptr
   (length n+1) must be zeroed; pos (length n) is scratch.  Returns the
   number of entries kept, or -1 on an endpoint outside [0, n). */
int64_t csr_assemble(const int64_t *u, const int64_t *v, int64_t m, int64_t n,
                     int64_t *indptr, int64_t *pos, int64_t *tmp, int64_t *indices)
{
    for (int64_t i = 0; i < m; i++) {
        int64_t a = u[i], b = v[i];
        if (a < 0 || a >= n || b < 0 || b >= n) return -1;
        if (a == b) continue;
        indptr[a + 1]++;
        indptr[b + 1]++;
    }
    for (int64_t x = 0; x < n; x++) {
        indptr[x + 1] += indptr[x];
        pos[x] = indptr[x];
    }
    for (int64_t i = 0; i < m; i++) {
        int64_t a = u[i], b = v[i];
        if (a == b) continue;
        tmp[pos[b]++] = a;
        tmp[pos[a]++] = b;
    }
    for (int64_t x = 0; x < n; x++) pos[x] = indptr[x];
    for (int64_t d = 0; d < n; d++)
        for (int64_t p = indptr[d]; p < indptr[d + 1]; p++)
            indices[pos[tmp[p]]++] = d;
    int64_t kept = 0, lo = 0;
    for (int64_t x = 0; x < n; x++) {
        int64_t hi = indptr[x + 1], last = -1;
        for (int64_t p = lo; p < hi; p++)
            if (indices[p] != last) last = indices[kept++] = indices[p];
        indptr[x + 1] = kept;
        lo = hi;
    }
    return kept;
}

/* Validates a CSR over n vertices: returns 0, else the number of the first
   failed check in this order: 1 the indptr endpoints, 2 a decreasing
   indptr, 3 an index outside [0, n), 4 a self-loop, 5 a row that is not
   strictly increasing, 6 an entry (x, w) with no mirror (w, x).  Each
   check makes the reads of the next safe.  The mirror check walks the
   implicit transpose: rows x come in increasing order, so each upper
   entry (x, w > x) must meet the lower part of row w in its stored order,
   and cursor (length n) holds each row's next unmatched lower entry.  By
   the time row x comes up, every row below it has matched its entry
   (y, x), so the lower part of row x must be used up and its cursor
   stands at its upper part: the lower entries are never read again. */
int64_t csr_check(const int64_t *indptr, const int64_t *indices, int64_t n,
                  int64_t nnz, int64_t *cursor)
{
    if (indptr[0] != 0 || indptr[n] != nnz) return 1;
    for (int64_t x = 0; x < n; x++)
        if (indptr[x + 1] < indptr[x]) return 2;
    for (int64_t p = 0; p < nnz; p++)
        if (indices[p] < 0 || indices[p] >= n) return 3;
    int64_t loop = 0, unsorted = 0;
    for (int64_t x = 0; x < n; x++)
        for (int64_t p = indptr[x]; p < indptr[x + 1]; p++) {
            loop |= indices[p] == x;
            unsorted |= p > indptr[x] && indices[p] <= indices[p - 1];
        }
    if (loop) return 4;
    if (unsorted) return 5;
    for (int64_t x = 0; x < n; x++) cursor[x] = indptr[x];
    for (int64_t x = 0; x < n; x++) {
        int64_t p = cursor[x], hi = indptr[x + 1];
        if (p < hi && indices[p] < x) return 6;
        for (; p < hi; p++) {
            int64_t w = indices[p];
            if (cursor[w] == indptr[w + 1] || indices[cursor[w]] != x) return 6;
            cursor[w]++;
        }
    }
    return 0;
}

/* Distance-2 retries over an incidence CSR with rows [0, num_rows), one
   column at a time.  Each visited column (the ncols ids in cols, else
   every column next to a colored work row, once: seen, length
   n - num_rows, zeroed) takes two passes over its rows: the first keeps,
   per color k >= 0, first[k], the lowest row holding k, or -1 when a row
   outside work holds k (at[k], filled with -1, is the last column that
   saw k); the second retries each colored work row r with first[k] != r.
   So within a same-colored group every work row but the lowest loses, and
   the lowest loses too when a finalized row shares its color.  mark
   (length num_rows, zeroed) holds 1 for rows in work and 2 once a row is
   retried; the losers are then written to out in work order, without
   duplicates.  Returns their count, or -1 on an out-of-range graph index. */
int64_t d2_conflicts(const int64_t *indptr, const int64_t *indices,
                     int64_t n, int64_t nnz, int64_t num_rows,
                     const int64_t *colors, const int64_t *work, int64_t nwork,
                     const int64_t *cols, int64_t ncols, uint8_t *seen,
                     int64_t *at, int64_t *first, uint8_t *mark, int64_t *out)
{
    for (int64_t i = 0; i < nwork; i++) {
        if (work[i] < 0 || work[i] >= num_rows) return -1;
        mark[work[i]] = 1;
    }
    int64_t i = 0, p = 0, lo = 0, hi = 0;
    for (;;) {
        int64_t c;
        if (cols) {
            if (i == ncols) break;
            c = cols[i++];
        } else {
            /* the next unseen column of a colored work row not yet retried:
               a column whose colored work rows were all retried already
               cannot retry another */
            while (p == hi && i < nwork) {
                int64_t r = work[i++];
                if (colors[r] < 0 || mark[r] == 2) continue;
                if (row_span(indptr, num_rows, nnz, r, &lo, &hi)) return -1;
                p = lo;
            }
            if (p == hi) break;
            c = indices[p++];
            if (c < num_rows || c >= n) return -1;
            if (seen[c - num_rows]) continue;
            seen[c - num_rows] = 1;
        }
        int64_t clo, chi;
        if (c < num_rows || row_span(indptr, n, nnz, c, &clo, &chi)) return -1;
        for (int64_t q = clo; q < chi; q++) {
            int64_t s = indices[q];
            if (s < 0 || s >= num_rows) return -1;
            int64_t k = colors[s], f = mark[s] ? s : -1;
            if (k < 0) continue;
            if (at[k] != c) {
                at[k] = c;
                first[k] = f;
            } else if (first[k] >= 0 && (f < 0 || f < first[k])) {
                first[k] = f;
            }
        }
        for (int64_t q = clo; q < chi; q++) {
            int64_t s = indices[q], k = colors[s];
            if (k >= 0 && mark[s] == 1 && first[k] != s) mark[s] = 2;
        }
    }
    int64_t count = 0;
    for (int64_t j = 0; j < nwork; j++)
        if (mark[work[j]] == 2) {
            mark[work[j]] = 3;
            out[count++] = work[j];
        }
    return count;
}
"""

FLAGS = ("-O2", "-shared", "-fPIC", "-falign-functions=64")

#: the exported functions of SOURCE: ``int64_t`` at the start of a line
#: (a ``static`` helper starts with ``static``)
_PROTOTYPE = re.compile(r"^int64_t\s+(\w+)\s*\(([^)]*)\)", re.MULTILINE)
#: parameter type (``*``: any pointer) -> ctypes type
_CTYPES = {"*": ctypes.c_void_p, "int64_t": ctypes.c_int64, "double": ctypes.c_double}


def signatures() -> dict[str, tuple]:
    """Every exported kernel of :data:`SOURCE` with its :mod:`ctypes` argtypes.

    A pointer parameter maps to ``c_void_p``, ``int64_t`` to ``c_int64``
    and ``double`` to ``c_double``; any other parameter type raises
    :class:`ValueError`.  Every kernel returns ``int64_t``.
    """
    out = {}
    for name, params in _PROTOTYPE.findall(SOURCE):
        argtypes = []
        for param in params.split(","):
            ctype = "*" if "*" in param else " ".join(param.split()[:-1])
            if ctype not in _CTYPES:
                raise ValueError(f"kernel {name}: no ctypes type for parameter "
                                 f"{' '.join(param.split())!r}")
            argtypes.append(_CTYPES[ctype])
        out[name] = tuple(argtypes)
    return out


# what a failed build or load raises: OSError (cache directory, dlopen),
# RuntimeError (compiler missing or failing), SubprocessError (compiler
# timeout), ValueError (an unparsable $CC, a kernel parameter type with no
# ctypes type), AttributeError (missing symbol)
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
    kernels = signatures()
    cc = _compiler()
    path = _library_path(cc)
    _private_dir(path.parent)
    if not path.exists():
        _build(cc, path)
    lib = ctypes.CDLL(str(path))
    for name, argtypes in kernels.items():
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
