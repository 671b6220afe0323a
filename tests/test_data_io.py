import gzip
import os
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ntklab
from ntklab.data_io import (
    Dataset,
    IdxFormatError,
    RecordStore,
    RunRecord,
    code_identity,
    digit_to_target,
    gram_anchored_inputs,
    load_mnist_subset,
    synthetic_dataset,
    write_csv,
)


def write_idx_images(path, images: np.ndarray, magic: int = 0x00000803,
                     truncate: int = 0, compress: bool = False):
    n, rows, cols = images.shape
    blob = struct.pack(">IIII", magic, n, rows, cols) + images.astype(np.uint8).tobytes()
    if truncate:
        blob = blob[:-truncate]
    opener = gzip.open if compress else open
    with opener(path, "wb") as fh:
        fh.write(blob)


def write_idx_labels(path, labels: np.ndarray, magic: int = 0x00000801):
    blob = struct.pack(">II", magic, len(labels)) + labels.astype(np.uint8).tobytes()
    with open(path, "wb") as fh:
        fh.write(blob)


@pytest.fixture
def mnist_dir(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(50, 28, 28), dtype=np.uint8)
    images[:, 0, 0] = np.maximum(images[:, 0, 0], 1)  # no all-zero images
    labels = rng.integers(0, 10, size=50, dtype=np.uint8)
    write_idx_images(tmp_path / "train-images-idx3-ubyte", images)
    write_idx_labels(tmp_path / "train-labels-idx1-ubyte", labels)
    return tmp_path, images, labels


class TestMnistReader:
    def test_loads_and_normalizes(self, mnist_dir):
        path, images, labels = mnist_dir
        ds = load_mnist_subset(path, count=20, seed=3)
        assert ds.inputs.shape == (20, 784)
        assert np.allclose(np.linalg.norm(ds.inputs, axis=1), 1.0, atol=1e-12)
        assert ds.normalized
        assert np.all((ds.targets >= 0.0) & (ds.targets <= 1.0))

    def test_unnormalized_pixels_in_unit_interval(self, mnist_dir):
        path, *_ = mnist_dir
        ds = load_mnist_subset(path, count=10, seed=3, normalize=False)
        assert ds.inputs.max() <= 1.0 and ds.inputs.min() >= 0.0

    def test_count_zero(self, mnist_dir):
        path, *_ = mnist_dir
        ds = load_mnist_subset(path, count=0)
        assert len(ds) == 0

    def test_count_exceeding_available(self, mnist_dir):
        path, *_ = mnist_dir
        with pytest.raises(ValueError):
            load_mnist_subset(path, count=51)

    def test_deterministic_subset(self, mnist_dir):
        path, *_ = mnist_dir
        a = load_mnist_subset(path, count=16, seed=11)
        b = load_mnist_subset(path, count=16, seed=11)
        c = load_mnist_subset(path, count=16, seed=12)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)
        assert not np.array_equal(a.inputs, c.inputs)

    def test_bad_magic_rejected(self, tmp_path):
        images = np.zeros((2, 4, 4), dtype=np.uint8)
        write_idx_images(tmp_path / "train-images-idx3-ubyte", images, magic=0x00000804)
        write_idx_labels(tmp_path / "train-labels-idx1-ubyte", np.zeros(2, dtype=np.uint8))
        with pytest.raises(IdxFormatError, match="magic"):
            load_mnist_subset(tmp_path, count=1)

    def test_truncated_file_rejected(self, tmp_path):
        images = np.zeros((3, 4, 4), dtype=np.uint8)
        write_idx_images(tmp_path / "train-images-idx3-ubyte", images, truncate=5)
        write_idx_labels(tmp_path / "train-labels-idx1-ubyte", np.zeros(3, dtype=np.uint8))
        with pytest.raises(IdxFormatError, match="expected"):
            load_mnist_subset(tmp_path, count=1)

    def test_gzip_supported(self, tmp_path):
        rng = np.random.default_rng(1)
        images = rng.integers(1, 256, size=(5, 3, 3), dtype=np.uint8)
        write_idx_images(tmp_path / "train-images-idx3-ubyte.gz", images, compress=True)
        write_idx_labels(tmp_path / "train-labels-idx1-ubyte",
                         np.arange(5, dtype=np.uint8))
        ds = load_mnist_subset(tmp_path, count=5, normalize=False)
        assert ds.inputs.shape == (5, 9)

    def test_label_count_mismatch(self, tmp_path):
        write_idx_images(tmp_path / "train-images-idx3-ubyte",
                         np.zeros((3, 4, 4), dtype=np.uint8))
        write_idx_labels(tmp_path / "train-labels-idx1-ubyte",
                         np.zeros(4, dtype=np.uint8))
        with pytest.raises(IdxFormatError, match="images vs"):
            load_mnist_subset(tmp_path, count=1)

    def test_digit_encoding(self):
        assert np.allclose(digit_to_target(np.array([0, 9])), [0.0, 1.0])


class TestSyntheticDataset:
    def test_unit_norm_rows(self):
        ds = synthetic_dataset(12, 30, seed=1)
        assert np.allclose(np.linalg.norm(ds.inputs, axis=1), 1.0, atol=1e-12)
        assert np.all((ds.targets >= 0) & (ds.targets <= 1))

    def test_gram_anchored_inputs_exact(self):
        gram = np.array([[2.0, 0.3, 0.5], [0.3, 1.5, 0.2], [0.5, 0.2, 1.8]])
        x = gram_anchored_inputs(gram, 40, seed=2)
        assert np.allclose(x @ x.T, gram, atol=1e-12)


class TestRecordStore:
    def make_record(self, seed=0, sw=1.0):
        return RunRecord(kind="init-variance",
                         params={"sigma_w_sq": sw, "depth": 4},
                         stats={"ratio": 1.25}, seed=seed, code_version="0.1.0")

    def test_append_then_query(self, tmp_path):
        store = RecordStore(tmp_path / "records.jsonl")
        store.append(self.make_record(seed=1, sw=2.0))
        store.append(self.make_record(seed=2, sw=3.0))
        hits = store.query(kind="init-variance", sigma_w_sq=3.0)
        assert len(hits) == 1
        assert hits[0].seed == 2

    def test_empty_store(self, tmp_path):
        assert RecordStore(tmp_path / "none.jsonl").query() == []

    def test_round_trip_equality(self, tmp_path):
        rec = self.make_record(seed=7)
        assert RunRecord.from_json(rec.to_json()) == rec

    def test_thousand_records_each_parseable(self, tmp_path):
        store = RecordStore(tmp_path / "records.jsonl")
        for i in range(1000):
            store.append(self.make_record(seed=i))
        lines = (tmp_path / "records.jsonl").read_text().splitlines()
        assert len(lines) == 1000
        parsed = [RunRecord.from_json(line) for line in lines]
        assert [r.seed for r in parsed] == list(range(1000))

    def test_malformed_lines_skipped_and_counted(self, tmp_path):
        path = tmp_path / "records.jsonl"
        store = RecordStore(path)
        store.append(self.make_record(seed=1))
        with open(path, "a") as fh:
            fh.write("{not json}\n")
        store.append(self.make_record(seed=2))
        hits = store.query()
        assert [r.seed for r in hits] == [1, 2]
        assert store.skipped_lines == 1


class TestCsv:
    def test_write_and_reread(self, tmp_path):
        path = tmp_path / "grid.csv"
        write_csv(path, ["a", "b"], [[1, 2.5], ["x", 0.1]])
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,2.5"

    def test_deterministic_bytes(self, tmp_path):
        rows = [[i, float(i) / 3.0] for i in range(50)]
        write_csv(tmp_path / "a.csv", ["i", "v"], rows)
        write_csv(tmp_path / "b.csv", ["i", "v"], rows)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestCodeIdentity:
    # prints whether importing the whole package computed the identity, then it
    SCRIPT = ("import ntklab.cli; from ntklab.data_io import code_identity; "
              "print(code_identity.cache_info().misses); print(code_identity())")

    @classmethod
    def identity_of(cls, src: Path) -> str:
        proc = subprocess.run([sys.executable, "-c", cls.SCRIPT], capture_output=True,
                              text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)})
        misses, identity = proc.stdout.split()
        assert misses == "0"  # not computed at import
        return identity

    def test_version_plus_source_digest(self):
        version, digest = code_identity().split("+")
        assert version == ntklab.__version__
        assert re.fullmatch("[0-9a-f]{12}", digest)

    def test_same_tree_same_identity_one_changed_byte_another(self, tmp_path):
        copy = tmp_path / "ntklab"
        shutil.copytree(Path(ntklab.__file__).parent, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        assert self.identity_of(tmp_path) == self.identity_of(tmp_path) == code_identity()
        path = copy / "quadrature.py"
        data = path.read_bytes()
        at = data.index(b"Gauss")
        path.write_bytes(data[:at] + b"g" + data[at + 1:])
        assert self.identity_of(tmp_path) != code_identity()
