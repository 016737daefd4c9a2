"""``.npz`` persistence for the distance-label index.

An index is built once per resident graph and amortised over millions of
queries, so deployments save it next to the dataset and reload on restart
instead of re-running the pruned build.  The format is a flat numpy archive
(one array per :class:`~repro.index.labels.HubLabels` field plus a format
version), so a saved index is portable and diff-able with ``np.load``.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.index.labels import HubLabels, check_labels

__all__ = ["save_labels", "load_labels", "labels_equal", "FORMAT_VERSION"]

FORMAT_VERSION = 1


def save_labels(labels: HubLabels, path) -> Path:
    """Write ``labels`` to ``path`` as an uncompressed ``.npz``; returns it.

    Uncompressed because the writer is on the durable write path (every
    checkpoint saves the index) and deflating costs far more time than the
    bytes it saves are worth there; :func:`load_labels` reads deflated
    archives too.

    The write is atomic: bytes go to a sibling temp file which is fsynced
    and then renamed over the target, so a crash mid-save leaves either
    the old index or the new one on disk — never a torn archive."""
    path = Path(path)
    if path.suffix != ".npz":
        # np.savez appends .npz when missing; normalise up front so the
        # temp file and the final rename agree on the real on-disk path
        path = path.with_suffix(path.suffix + ".npz")
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(
                fh,
                format_version=np.int64(FORMAT_VERSION),
                num_vertices=np.int64(labels.num_vertices),
                order=labels.order,
                out_indptr=labels.out_indptr,
                out_hubs=labels.out_hubs,
                out_dists=labels.out_dists,
                in_indptr=labels.in_indptr,
                in_hubs=labels.in_hubs,
                in_dists=labels.in_dists,
            )
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    if path.parent.exists():
        fd = os.open(str(path.parent), os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    return path


def load_labels(path) -> HubLabels:
    """Load an index previously written by :func:`save_labels`; a file of
    another format version or with invalid labels (:func:`check_labels`)
    raises :class:`ValueError`."""
    with np.load(Path(path)) as data:
        version = int(data["format_version"])
        if version != FORMAT_VERSION:
            raise ValueError(
                f"unsupported index format version {version} "
                f"(this build reads {FORMAT_VERSION})"
            )
        return check_labels(HubLabels(
            num_vertices=int(data["num_vertices"]),
            order=data["order"],
            out_indptr=data["out_indptr"],
            out_hubs=data["out_hubs"],
            out_dists=data["out_dists"],
            in_indptr=data["in_indptr"],
            in_hubs=data["in_hubs"],
            in_dists=data["in_dists"],
        ))


def labels_equal(a: HubLabels, b: HubLabels) -> bool:
    """Field-wise array equality (the save/load round-trip contract)."""
    return a.num_vertices == b.num_vertices and all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in (
            "order",
            "out_indptr",
            "out_hubs",
            "out_dists",
            "in_indptr",
            "in_hubs",
            "in_dists",
        )
    )
