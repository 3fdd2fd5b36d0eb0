"""Labelled data (``Batch``, and ``Dataset``: a ``Batch`` with a class
count), synthetic classification data and the Dirichlet non-IID partition."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .rng import RngStream

HOLDOUT_STRIDE = 5  # every 5th sample is holdout


@dataclass
class Batch:
    """Inputs (n x d) and integer class labels (n,), n >= 1."""

    inputs: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 2 or self.labels.ndim != 1:
            raise ShapeError("batch needs rank-2 inputs and rank-1 labels")
        if self.inputs.shape[0] != self.labels.shape[0] or self.labels.shape[0] < 1:
            raise ShapeError("batch inputs and labels must pair up, n >= 1")

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


@dataclass
class Dataset(Batch):
    """A labelled ``Batch`` whose labels lie in [0, num_classes)."""

    num_classes: int

    def __post_init__(self):
        super().__post_init__()
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise ConfigError("labels outside [0, num_classes)")


@dataclass
class FederatedDataset:
    """A training set split into per-client index lists, plus a holdout set."""

    base: Dataset
    assignment: list[np.ndarray]
    holdout: Dataset

    @property
    def num_clients(self) -> int:
        return len(self.assignment)


def holdout_mask(n: int, what: str) -> np.ndarray:
    """The holdout rows of ``n`` samples (a class block or a CSV file):
    every ``HOLDOUT_STRIDE``-th. Fewer samples than that would leave the
    holdout empty, an error that names ``n`` as ``what``."""
    if n < HOLDOUT_STRIDE:
        raise ConfigError(f"{what} must be >= {HOLDOUT_STRIDE}, as every "
                          f"{HOLDOUT_STRIDE}th sample is holdout; got {n}")
    return (np.arange(n) % HOLDOUT_STRIDE) == HOLDOUT_STRIDE - 1


def gen_synthetic(num_classes: int, dim: int, samples_per_class: int,
                  class_separation: float, rng: RngStream
                  ) -> tuple[Dataset, Dataset]:
    """Gaussian clusters at near-orthogonal directions; 80/20 split by stride.

    Class means are orthonormal directions scaled to ``class_separation``
    (so the task gets easier as the separation grows); samples are unit
    variance around their mean. Within each class block every 5th sample
    goes to the validation split.
    """
    if num_classes < 2 or dim < 2:
        raise ConfigError("need num_classes >= 2, dim >= 2")
    val_mask = holdout_mask(samples_per_class, "samples_per_class")
    if class_separation < 0:
        raise ConfigError("class_separation must be non-negative")
    if num_classes > dim:
        raise ConfigError(
            f"cannot place {num_classes} near-orthogonal class means in {dim} dims")
    q, _ = np.linalg.qr(rng.normal((dim, num_classes)))
    means = class_separation * q.T  # one row per class
    tr_x, tr_y, va_x, va_y = [], [], [], []
    for c in range(num_classes):
        block = means[c] + rng.normal((samples_per_class, dim))
        tr_x.append(block[~val_mask]); tr_y.append(np.full((~val_mask).sum(), c))
        va_x.append(block[val_mask]); va_y.append(np.full(val_mask.sum(), c))
    return (Dataset(np.vstack(tr_x), np.concatenate(tr_y), num_classes),
            Dataset(np.vstack(va_x), np.concatenate(va_y), num_classes))


def dirichlet_partition(labels: np.ndarray, num_clients: int, alpha: float,
                        rng: RngStream) -> list[np.ndarray]:
    """Assign sample indices to clients with Dirichlet(alpha) class mixtures.

    Each client draws class proportions from a symmetric Dirichlet; every
    class pool is then split across clients proportionally until it empties.
    Clients that end up empty steal one sample from the currently largest
    client, so every client is non-empty and the partition is exact.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.size
    if not alpha > 0:
        raise ConfigError("alpha must be positive")
    if num_clients < 1:
        raise ConfigError("need at least one client")
    if num_clients > n:
        raise ConfigError(f"cannot spread {n} samples over {num_clients} clients")
    num_classes = int(labels.max()) + 1
    props = np.stack([rng.dirichlet(alpha, num_classes) for _ in range(num_clients)])
    buckets: list[list[np.ndarray]] = [[] for _ in range(num_clients)]
    for c in range(num_classes):
        pool = np.flatnonzero(labels == c)
        pool = pool[rng.permutation(pool.size)]
        weights = props[:, c]
        total = weights.sum()
        if total <= 0:
            weights = np.full(num_clients, 1.0 / num_clients)
            total = 1.0
        cuts = np.floor(np.cumsum(weights / total) * pool.size + 0.5).astype(int)[:-1]
        for i, chunk in enumerate(np.split(pool, cuts)):
            if chunk.size:
                buckets[i].append(chunk)
    assignment = [np.sort(np.concatenate(b)) if b else np.empty(0, dtype=np.int64)
                  for b in buckets]
    # repair: no client may be empty
    for i in range(num_clients):
        while assignment[i].size == 0:
            donor = int(np.argmax([a.size for a in assignment]))
            if assignment[donor].size <= 1:
                raise ConfigError("not enough samples to keep every client non-empty")
            assignment[i] = assignment[donor][-1:]
            assignment[donor] = assignment[donor][:-1]
    return assignment


def partition_stats(labels: np.ndarray, assignment: list[np.ndarray],
                    num_classes: int) -> dict:
    """Per-client sample counts and label-entropy summary (natural log)."""
    labels = np.asarray(labels, dtype=np.int64)
    counts, entropies = [], []
    for idx in assignment:
        counts.append(int(idx.size))
        hist = np.bincount(labels[idx], minlength=num_classes).astype(np.float64)
        p = hist[hist > 0] / hist.sum()
        entropies.append(float(-(p * np.log(p)).sum()))
    return {
        "num_clients": len(assignment),
        "total_samples": int(sum(counts)),
        "client_sizes": counts,
        "client_entropy": entropies,
        "mean_entropy": float(np.mean(entropies)),
        "min_entropy": float(np.min(entropies)),
        "max_entropy": float(np.max(entropies)),
    }


def load_csv(path: str) -> Dataset:
    """Header-less ``label,f1,...,fd`` rows; ragged rows, non-finite values
    and labels that are not int64 integers are rejected with their line.

    The labels must be exactly 0..K-1 (K classes), each with at least one
    row: one stray large label would otherwise size the classifier. The
    error names the smallest negative label or the first missing class.
    """
    if not os.path.isfile(path):  # missing, a directory or not a valid path
        raise ConfigError(f"data file not found: {path}")
    rows: list[list[float]] = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if width is None:
                width = len(parts)
                if width < 2:
                    raise ConfigError(f"{path}:{lineno}: need label plus features")
            elif len(parts) != width:
                raise ConfigError(f"{path}:{lineno}: ragged row "
                                  f"({len(parts)} fields, expected {width})")
            try:
                row = [float(p) for p in parts]
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
            if not all(math.isfinite(v) for v in row):
                raise ConfigError(f"{path}:{lineno}: non-finite value")
            if not (row[0].is_integer() and -2.0 ** 63 <= row[0] < 2.0 ** 63):
                raise ConfigError(f"{path}:{lineno}: label {parts[0].strip()} "
                                  "is not an int64 integer")
            rows.append(row)
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=np.float64)
    labels = arr[:, 0].astype(np.int64)
    present = np.unique(labels)
    if present[0] < 0:
        raise ConfigError(f"{path}: label {int(present[0])} is negative")
    num_classes = int(present[-1]) + 1
    # sorted distinct labels from 0 are dense until the first gap
    gaps = np.flatnonzero(present != np.arange(present.size))
    if gaps.size:
        raise ConfigError(f"{path}: labels are not dense 0..{num_classes - 1}: "
                          f"class {int(gaps[0])} has no rows")
    return Dataset(arr[:, 1:], labels, num_classes)
