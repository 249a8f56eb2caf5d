"""Synthetic benchmark generation, prediction, and dataset/model file IO.

The generator builds feature matrices whose per-position sample vectors
share a small set of orthonormal directions (one per column block) plus
Gaussian noise, labels them with a planted low-rank model, and splits into
train/test deterministically per seed.
"""

from __future__ import annotations

import io
import os
import struct
from dataclasses import dataclass

import numpy as np

from .problem import DataError, Dataset, mapped_empty

__all__ = [
    "SynthSpec",
    "Model",
    "FormatError",
    "gen_synthetic",
    "predict",
    "accuracy",
    "confusion_counts",
    "save_dataset",
    "load_dataset",
    "save_model",
    "load_model",
]

_MAGIC = b"SMMDATA1"


class FormatError(DataError):
    """Malformed dataset file; carries the byte offset where parsing died."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


@dataclass(frozen=True)
class SynthSpec:
    """Generator settings.  Rank r must not exceed min(p, q)."""

    n: int
    p: int
    q: int
    r: int = 5
    noise_delta: float = 2e-4
    seed: int = 0
    train_fraction: float = 0.8

    def __post_init__(self):
        if not 0 < self.r <= min(self.p, self.q):
            raise ValueError(f"rank r={self.r} must lie in (0, min(p, q)]")
        if self.noise_delta < 0:
            raise ValueError("noise_delta must be nonnegative")
        if not 0 < self.train_fraction < 1:
            raise ValueError("train_fraction must lie in (0, 1)")


@dataclass
class Model:
    """Linear classifier on matrices: predicts sign(<W, X> + b)."""

    W: np.ndarray
    b: float


def _rank_r_matrix(rng: np.random.Generator, p: int, q: int, r: int) -> np.ndarray:
    for _ in range(10):
        W = rng.standard_normal((p, r)) @ rng.standard_normal((r, q))
        s = np.linalg.svd(W, compute_uv=False)
        if s[r - 1] > 1e-10 * s[0]:
            return W
    raise RuntimeError("failed to draw a matrix of the requested rank")


def gen_synthetic(spec: SynthSpec) -> tuple[Dataset, Dataset, np.ndarray]:
    """Generate (train, test, planted W) deterministically from the seed.

    Column block ceil(r*l/q) of every sample shares one of r orthonormal
    base vectors across the sample axis; entries add independent
    N(0, noise_delta^2) noise.  Labels are sign(<W, X_i>) with sign(0) = +1
    for a planted rank-r W; degenerate single-class draws are retried.
    """
    rng = np.random.default_rng(spec.seed)
    n, p, q, r = spec.n, spec.p, spec.q, spec.r
    base, _ = np.linalg.qr(rng.standard_normal((n, r)))
    # block index of column l (1-based ceil(r*l/q), mapped to 0-based)
    cols = np.arange(1, q + 1)
    block = np.ceil(r * cols / q).astype(int) - 1
    features = mapped_empty((n, p, q), prefault=True)
    rng.standard_normal(out=features)
    features *= spec.noise_delta
    features += base[:, block][:, None, :]

    flat = features.reshape(n, -1)
    for attempt in range(10):
        W = _rank_r_matrix(rng, p, q, r)
        scores = flat @ W.ravel()
        labels = np.where(scores >= 0.0, 1.0, -1.0)
        if labels.max() == 1.0 and labels.min() == -1.0:
            break
    else:
        raise RuntimeError("could not generate a two-class labeling in 10 attempts")

    n_train = int(round(spec.train_fraction * n))
    n_train = min(max(n_train, 1), n - 1)
    for attempt in range(10):
        perm = rng.permutation(n)
        tr, te = perm[:n_train], perm[n_train:]
        if (
            labels[tr].max() == 1.0
            and labels[tr].min() == -1.0
            and labels[te].max() == 1.0
            and labels[te].min() == -1.0
        ):
            break
    else:
        raise RuntimeError("could not split with both classes on each side")
    full = Dataset(features, labels)
    return full.subset(tr), full.subset(te), W


def predict(model: Model, X: np.ndarray) -> float:
    """Label one sample: sign(<W, X> + b) with sign(0) = +1."""
    score = float(np.sum(model.W * X) + model.b)
    return 1.0 if score >= 0.0 else -1.0


def _scores(model: Model, dataset: Dataset) -> np.ndarray:
    if model.W.shape != (dataset.p, dataset.q):
        raise DataError(
            f"model W has shape {model.W.shape}, data samples have shape "
            f"{(dataset.p, dataset.q)}"
        )
    return dataset.flat_features @ model.W.ravel() + model.b


def accuracy(model: Model, dataset: Dataset) -> float:
    """Fraction of samples whose predicted label matches."""
    pred = np.where(_scores(model, dataset) >= 0.0, 1.0, -1.0)
    return float(np.mean(pred == dataset.labels))


def confusion_counts(model: Model, dataset: Dataset) -> dict:
    """Counts keyed tp/tn/fp/fn with +1 as the positive class."""
    pred = np.where(_scores(model, dataset) >= 0.0, 1.0, -1.0)
    truth = dataset.labels
    return {
        "tp": int(np.sum((pred == 1) & (truth == 1))),
        "tn": int(np.sum((pred == -1) & (truth == -1))),
        "fp": int(np.sum((pred == 1) & (truth == -1))),
        "fn": int(np.sum((pred == -1) & (truth == 1))),
    }


def save_dataset(dataset: Dataset, path: str, fmt: str = "binary") -> None:
    """Write a dataset file.

    Binary: magic, little-endian u64 dims (n, p, q), f64 labels, f64
    features in sample-major order.  CSV: one sample per row, label first,
    then the row-major flattened matrix at 17 significant digits.
    """
    if fmt == "binary":
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<QQQ", dataset.n_samples, dataset.p, dataset.q))
            fh.write(dataset.labels.astype("<f8").tobytes())
            fh.write(memoryview(np.ascontiguousarray(dataset.features, dtype="<f8")).cast("B"))
    elif fmt == "csv":
        with open(path, "w") as fh:
            flat = dataset.flat_features
            for i in range(dataset.n_samples):
                row = [f"{dataset.labels[i]:.17g}"] + [f"{x:.17g}" for x in flat[i]]
                fh.write(",".join(row) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def load_dataset(path: str, shape: tuple[int, int] | None = None) -> Dataset:
    """Read a dataset written by :func:`save_dataset`.

    Binary files are self-describing.  CSV files need ``shape=(p, q)``
    unless the matrices are square, in which case the side is inferred.
    """
    with open(path, "rb") as fh:
        head = fh.read(len(_MAGIC))
        if head == _MAGIC:
            return _load_binary(fh)
    return _load_csv(path, shape)


def _load_binary(fh) -> Dataset:
    offset = len(_MAGIC)
    dims = fh.read(24)
    if len(dims) < 24:
        raise FormatError("truncated header", offset + len(dims))
    n, p, q = struct.unpack("<QQQ", dims)
    offset += 24
    if n == 0 or p == 0 or q == 0 or n > 10**12 or p * q > 10**9:
        raise FormatError(f"implausible dimensions ({n}, {p}, {q})", offset)
    want = 8 * n
    buf = fh.read(want)
    if len(buf) < want:
        raise FormatError("truncated label block", offset + len(buf))
    labels = np.frombuffer(buf, dtype="<f8")
    offset += want
    want = 8 * n * p * q
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if left < want:  # before the block is mapped
        raise FormatError("truncated feature block", offset + max(left, 0))
    features = mapped_empty((n, p, q), dtype="<f8", prefault=True)
    got = fh.readinto(memoryview(features).cast("B"))
    if got < want:
        raise FormatError("truncated feature block", offset + got)
    try:
        return Dataset(features, labels)
    except DataError as exc:
        raise FormatError(str(exc)) from exc


def _load_csv(path: str, shape: tuple[int, int] | None) -> Dataset:
    rows = []
    labels = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                vals = np.array([float(x) for x in parts], dtype=np.float64)
            except ValueError as exc:
                raise FormatError(f"line {lineno}: {exc}") from exc
            labels.append(vals[0])
            rows.append(vals[1:])
    if not rows:
        raise FormatError("empty file")
    flat = np.vstack(rows)
    if shape is None:
        side = int(round(np.sqrt(flat.shape[1])))
        if side * side != flat.shape[1]:
            raise FormatError(
                f"cannot infer matrix shape from {flat.shape[1]} entries; pass shape=(p, q)"
            )
        shape = (side, side)
    p, q = shape
    if p * q != flat.shape[1]:
        raise FormatError(f"{flat.shape[1]} entries per row do not match shape {shape}")
    try:
        return Dataset(flat.reshape(-1, p, q), np.asarray(labels))
    except DataError as exc:
        raise FormatError(str(exc)) from exc


def save_model(path: str, model: Model, aux: dict | None = None) -> None:
    """Persist a model (and optionally the full solver tuple) as npz."""
    payload = {"W": model.W, "b": np.float64(model.b)}
    if aux:
        payload.update(aux)
    np.savez(path, **payload)


def load_model(path: str) -> tuple[Model, dict]:
    """Load a model npz; extra arrays come back in the aux dict."""
    with np.load(path) as data:
        if "W" not in data or "b" not in data:
            raise FormatError("model file lacks W/b entries")
        model = Model(W=np.array(data["W"]), b=float(data["b"]))
        aux = {k: np.array(data[k]) for k in data.files if k not in ("W", "b")}
    return model, aux
