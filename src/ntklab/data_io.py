"""Dataset ingestion and experiment-record persistence.

Supports the big-endian IDX format (magic 0x00000803 for image tensors,
0x00000801 for label vectors, optionally gzipped), synthetic unit-norm
datasets, Gram-anchored inputs with a prescribed Gram matrix, a JSON-lines
store of experiment outcomes, the code identity that stamps each outcome,
and a deterministic CSV writer.
"""
from __future__ import annotations

import gzip
import json
import logging
import struct
from dataclasses import dataclass, asdict
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import __version__

logger = logging.getLogger(__name__)

IDX_MAGIC_IMAGES = 0x00000803
IDX_MAGIC_LABELS = 0x00000801

MNIST_IMAGE_NAMES = ("train-images-idx3-ubyte", "train-images.idx3-ubyte")
MNIST_LABEL_NAMES = ("train-labels-idx1-ubyte", "train-labels.idx1-ubyte")


class IdxFormatError(Exception):
    """Malformed IDX file: wrong magic, truncated payload, or bad header."""


@dataclass
class Dataset:
    """Inputs (S, M_0), scalar targets (S,), and the normalization flag."""

    inputs: np.ndarray
    targets: np.ndarray
    normalized: bool

    def __len__(self) -> int:
        return len(self.targets)


def _open_maybe_gzip(path: Path):
    if path.suffix == ".gz":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_idx(path: Path, expected_magic: int) -> np.ndarray:
    with _open_maybe_gzip(path) as fh:
        header = fh.read(4)
        if len(header) < 4:
            raise IdxFormatError(f"{path}: truncated header")
        (magic,) = struct.unpack(">I", header)
        if magic != expected_magic:
            raise IdxFormatError(
                f"{path}: magic 0x{magic:08x}, expected 0x{expected_magic:08x}")
        ndim = magic & 0xFF
        dims_raw = fh.read(4 * ndim)
        if len(dims_raw) < 4 * ndim:
            raise IdxFormatError(f"{path}: truncated dimension header")
        dims = struct.unpack(">" + "I" * ndim, dims_raw)
        payload = fh.read()
    expected = int(np.prod(dims))
    if len(payload) < expected:
        raise IdxFormatError(f"{path}: expected {expected} bytes, got {len(payload)}")
    return np.frombuffer(payload[:expected], dtype=np.uint8).reshape(dims)


def _locate(directory: Path, names: Sequence[str]) -> Path:
    for name in names:
        for candidate in (directory / name, directory / (name + ".gz")):
            if candidate.exists():
                return candidate
    raise FileNotFoundError(f"no IDX file among {list(names)} under {directory}")


def digit_to_target(labels: np.ndarray) -> np.ndarray:
    """Default scalar-regression encoding: digit value scaled to [0, 1]."""
    return labels.astype(float) / 9.0


def load_mnist_subset(path, count: int, seed: int = 0, normalize: bool = True) -> Dataset:
    """Deterministic seeded subset of an MNIST-format IDX directory.

    Images are flattened to 784-vectors scaled to [0, 1] and optionally
    rescaled to unit L2 norm; labels go through digit_to_target.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    directory = Path(path)
    img_path = _locate(directory, MNIST_IMAGE_NAMES)
    lbl_path = _locate(directory, MNIST_LABEL_NAMES)
    images = _read_idx(img_path, IDX_MAGIC_IMAGES)
    labels = _read_idx(lbl_path, IDX_MAGIC_LABELS)
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(f"{img_path}: {images.shape[0]} images vs "
                             f"{labels.shape[0]} labels")
    if count > images.shape[0]:
        raise ValueError(f"requested {count} samples, file holds {images.shape[0]}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    idx = rng.choice(images.shape[0], size=count, replace=False)
    flat_dim = int(np.prod(images.shape[1:]))
    x = images[idx].reshape(count, flat_dim).astype(float) / 255.0
    if normalize and count:
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        zero = norms[:, 0] == 0.0
        if np.any(zero):
            logger.warning("%d all-zero images left unnormalized", int(zero.sum()))
            norms[zero] = 1.0
        x = x / norms
    return Dataset(inputs=x, targets=digit_to_target(labels[idx]), normalized=normalize)


def synthetic_dataset(count: int, dim: int, seed: int = 0) -> Dataset:
    """Random dataset: unit-norm rows drawn isotropically, with targets
    uniform on [0, 1]."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    x = rng.standard_normal((count, dim))
    if count:
        x /= np.linalg.norm(x, axis=1, keepdims=True)
    y = rng.uniform(0.0, 1.0, size=count)
    return Dataset(inputs=x, targets=y, normalized=True)


def gram_anchored_inputs(gram: np.ndarray, dim: int, seed: int = 0) -> np.ndarray:
    """Input matrix X (S, dim) with X X^T equal to the given Gram matrix.

    Rows are random rotations of the Cholesky factor, so any prescribed set
    of pairwise inner products (e.g. activation second moments) can be
    realized exactly.
    """
    gram = np.asarray(gram, dtype=float)
    s = gram.shape[0]
    if dim < s:
        raise ValueError("dim must be >= number of points")
    chol = np.linalg.cholesky(gram)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    basis, _ = np.linalg.qr(rng.standard_normal((dim, s)))
    return chol @ basis.T


# ---------------------------------------------------------------------------
# Experiment records.

@lru_cache(maxsize=None)
def code_identity() -> str:
    """The package version, "+", and the first 12 hex digits of a sha256 over
    the package's modules (each *.py file's name and bytes, in sorted order),
    so that records written by changed code say so.  Computed on the first
    call, when the first record is written, not at import (nor is hashlib
    imported then)."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0")
        digest.update(path.read_bytes())
    return f"{__version__}+{digest.hexdigest()[:12]}"


@dataclass
class RunRecord:
    """One experiment outcome; self-describing enough to reproduce itself."""

    kind: str
    params: dict
    stats: dict
    seed: int
    wall_clock_s: float = 0.0   # the cell's own run time, in whichever process ran it
    code_version: str = ""

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "RunRecord":
        return cls(**json.loads(line))


class RecordStore:
    """Append-only JSON-lines store; single writer, any number of readers."""

    def __init__(self, path):
        self.path = Path(path)
        self.skipped_lines = 0

    def append(self, record: RunRecord) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(record.to_json() + "\n")
            fh.flush()

    def __iter__(self):
        if not self.path.exists():
            return
        with open(self.path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    yield RunRecord.from_json(line)
                except (json.JSONDecodeError, TypeError) as err:
                    self.skipped_lines += 1
                    logger.warning("%s:%d: skipping malformed record (%s)",
                                   self.path, lineno, err)

    def query(self, kind: str | None = None, **param_filters) -> list[RunRecord]:
        """Records whose kind and parameter fields match the given values."""
        out = []
        for rec in self:
            if kind is not None and rec.kind != kind:
                continue
            if all(rec.params.get(k) == v for k, v in param_filters.items()):
                out.append(rec)
        return out


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Plain deterministic CSV writer (floats via repr for stable round-trip)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(v) for v in row) + "\n")


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(float(value))  # NumPy scalars repr as "np.float64(...)"
    return str(value)
