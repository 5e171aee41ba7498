"""Out-of-core graph store: memory-mapped ``.npy`` CSR files.

The paper's large inputs (uk-2002 is ~298M edges) do not fit comfortably
in resident RAM once every derived array is counted.  This module gives
:class:`~repro.graph.csr.CSRGraph` a durable on-disk form that can be
*streamed* instead of loaded: a store is a directory holding the two CSR
arrays as plain ``.npy`` files plus a small JSON manifest::

    mygraph.csrg/
        meta.json      {"format": "repro.graph.store/v1", "num_vertices": n,
                        "num_edges": m}
        indptr.npy     int64[n + 1]
        indices.npy    int64[2m]

:func:`load_graph` opens the arrays with ``numpy.load(mmap_mode="r")``,
so construction is O(1) I/O and pages fault in lazily as algorithms
touch them; the resulting graph reports :attr:`CSRGraph.out_of_core`
and keeps its hot paths chunked (see ``edge_chunks``).  The mp thread
team's blocks all read the one mapping, so an out-of-core graph is
never copied into RAM by a parallel run.

:func:`load_graph_file` is the CLI-facing dispatcher behind
``python -m repro run --graph-file`` and the serve layer's
``graph_file`` submits: store directories stream, MatrixMarket and
edge-list files parse through :mod:`repro.graph.io`.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .csr import CSRGraph

__all__ = ["is_graph_store", "load_graph", "load_graph_file", "save_graph"]

FORMAT = "repro.graph.store/v1"
META = "meta.json"
INDPTR = "indptr.npy"
INDICES = "indices.npy"


def save_graph(graph: CSRGraph, path: str | Path) -> Path:
    """Write *graph* as a store directory at *path*; returns the path.

    The directory is created (parents included); an existing store at
    the same path is overwritten atomically enough for our purposes
    (arrays first, manifest last — a store without ``meta.json`` is
    simply not recognized).  Arrays are written with ``numpy.save``, so
    they reload with ``mmap_mode`` support on any platform.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    np.save(path / INDPTR, np.ascontiguousarray(graph.indptr, dtype=np.int64))
    np.save(path / INDICES, np.ascontiguousarray(graph.indices, dtype=np.int64))
    manifest = {
        "format": FORMAT,
        "num_vertices": int(graph.num_vertices),
        "num_edges": int(graph.num_edges),
    }
    (path / META).write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def is_graph_store(path: str | Path) -> bool:
    """True when *path* is a directory holding a v1 store manifest."""
    path = Path(path)
    if not (path.is_dir() and (path / META).is_file()):
        return False
    try:
        manifest = json.loads((path / META).read_text())
    except (OSError, json.JSONDecodeError):
        return False
    return manifest.get("format") == FORMAT


def load_graph(path: str | Path, *, mmap: bool = True,
               validate: bool = False) -> CSRGraph:
    """Open a store directory; memory-mapped by default.

    With ``mmap=True`` (the default) the arrays are read-only
    ``numpy.memmap`` views and the graph is flagged
    :attr:`~repro.graph.csr.CSRGraph.out_of_core`; with ``mmap=False``
    the arrays are fully materialized (useful for benchmarking the
    resident baseline).  ``validate`` defaults off because the full CSR
    invariant check streams every byte — pass ``True`` when ingesting
    an untrusted store.

    Raises :class:`ValueError` naming the path for a missing or
    malformed store, and cross-checks the manifest's sizes against the
    actual arrays so a truncated copy fails loudly at load time instead
    of as a bounds error mid-run.
    """
    path = Path(path)
    meta_path = path / META
    if not meta_path.is_file():
        raise ValueError(
            f"{path}: not a graph store (missing {META}); create one with "
            "repro.graph.store.save_graph or 'python -m repro store'"
        )
    try:
        manifest = json.loads(meta_path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{meta_path}: malformed manifest: {exc}") from None
    if manifest.get("format") != FORMAT:
        raise ValueError(
            f"{meta_path}: unsupported store format "
            f"{manifest.get('format')!r}; expected {FORMAT!r}"
        )
    mode = "r" if mmap else None
    indptr_path, indices_path = path / INDPTR, path / INDICES
    try:
        indptr = np.load(indptr_path, mmap_mode=mode)
        indices = np.load(indices_path, mmap_mode=mode)
    except (OSError, ValueError) as exc:
        raise ValueError(f"{path}: unreadable store arrays: {exc}") from None
    n = int(manifest.get("num_vertices", -1))
    m = int(manifest.get("num_edges", -1))
    if indptr.shape != (n + 1,) or indices.shape != (2 * m,):
        raise ValueError(
            f"{path}: manifest declares n={n}, m={m} but arrays have "
            f"shapes {indptr.shape} and {indices.shape} — truncated store?"
        )
    graph = CSRGraph(indptr, indices, validate=False)
    if mmap:
        graph.mmap_paths = (str(indptr_path), str(indices_path))
    if validate:
        graph.check()
    return graph


def load_graph_file(path: str | Path, *, mmap: bool = True) -> CSRGraph:
    """Load a graph from any supported on-disk form.

    Dispatch by shape: a store directory streams via :func:`load_graph`
    (honoring *mmap*); ``.mtx`` / ``.mtx.gz`` parse as MatrixMarket;
    anything else parses as a whitespace edge list.  Parsed formats are
    always resident — convert them once with ``python -m repro store``
    to get the memory-mapped form.
    """
    path = Path(path)
    if path.is_dir():
        return load_graph(path, mmap=mmap)
    if not path.exists():
        raise ValueError(f"{path}: no such graph file or store directory")
    from .io import read_edge_list, read_matrix_market

    name = path.name.lower()
    if name.endswith((".mtx", ".mtx.gz")):
        return read_matrix_market(path)
    return read_edge_list(path)
