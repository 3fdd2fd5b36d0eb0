"""Synthetic data generation and the Dirichlet label partition."""

import re

import numpy as np
import pytest

from fedquant.data import (Batch, Dataset, dirichlet_partition, gen_synthetic,
                           load_csv, partition_stats)
from fedquant.errors import ConfigError, ShapeError
from fedquant.mlp import backward, forward, init_params, predict_logits
from fedquant.rng import RngStream


def centralized_accuracy(train, val, hidden=32, iters=300, lr=0.5, seed=0):
    """Full-batch gradient descent oracle for separability checks."""
    params = init_params([train.inputs.shape[1], hidden, train.num_classes],
                         RngStream(seed))
    for _ in range(iters):
        _, cache = forward(params, train)
        params.add_scaled(backward(cache), -lr)
    logits = predict_logits(params, val.inputs)
    return float(np.mean(np.argmax(logits, axis=1) == val.labels))


class TestGenSynthetic:
    def test_separated_classes_are_learnable(self):
        train, val = gen_synthetic(10, 32, 50, 10.0, RngStream(1))
        assert centralized_accuracy(train, val) >= 0.99

    def test_zero_separation_collapses_class_means(self):
        train, _ = gen_synthetic(5, 16, 200, 0.0, RngStream(2))
        for c in range(5):
            mean = train.inputs[train.labels == c].mean(axis=0)
            assert np.linalg.norm(mean) < 0.5

    def test_deterministic_per_seed(self):
        a_train, a_val = gen_synthetic(4, 8, 25, 3.0, RngStream(9))
        b_train, b_val = gen_synthetic(4, 8, 25, 3.0, RngStream(9))
        assert np.array_equal(a_train.inputs, b_train.inputs)
        assert np.array_equal(a_val.inputs, b_val.inputs)

    def test_split_is_80_20_by_stride(self):
        train, val = gen_synthetic(3, 8, 50, 2.0, RngStream(3))
        assert train.size == 3 * 40 and val.size == 3 * 10
        assert np.array_equal(np.bincount(val.labels), [10, 10, 10])

    def test_every_class_needs_a_holdout_sample(self):
        """Every 5th sample is holdout, so 4 per class would leave none."""
        train, val = gen_synthetic(3, 8, 5, 2.0, RngStream(3))
        assert train.size == 3 * 4 and val.size == 3
        with pytest.raises(ConfigError, match="samples_per_class must be >= 5"):
            gen_synthetic(3, 8, 4, 2.0, RngStream(3))

    def test_too_many_classes_for_dim(self):
        with pytest.raises(ConfigError):
            gen_synthetic(10, 4, 10, 1.0, RngStream(0))

    def test_class_means_near_orthogonal(self):
        train, _ = gen_synthetic(6, 24, 400, 8.0, RngStream(4))
        means = np.stack([train.inputs[train.labels == c].mean(axis=0)
                          for c in range(6)])
        gram = means @ means.T / 64.0  # separation^2 = 64
        off_diag = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off_diag)) < 0.2


class TestDirichletPartition:
    def labels(self, n=3000, classes=10, seed=5):
        return RngStream(seed).integers(classes, size=n)

    def test_single_client_gets_everything(self):
        labels = self.labels(200)
        part = dirichlet_partition(labels, 1, 1.0, RngStream(6))
        assert np.array_equal(part[0], np.arange(200))

    def test_partition_is_exact(self):
        labels = self.labels()
        part = dirichlet_partition(labels, 50, 0.5, RngStream(7))
        merged = np.concatenate(part)
        assert merged.size == labels.size
        assert np.array_equal(np.sort(merged), np.arange(labels.size))
        assert all(p.size >= 1 for p in part)

    def test_deterministic(self):
        labels = self.labels()
        a = dirichlet_partition(labels, 20, 0.3, RngStream(8))
        b = dirichlet_partition(labels, 20, 0.3, RngStream(8))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_huge_alpha_matches_global_histogram(self):
        """At alpha -> inf every client's class mix approaches the global one."""
        labels = self.labels(n=20000)
        global_hist = np.bincount(labels, minlength=10) / labels.size
        part = dirichlet_partition(labels, 10, 1e6, RngStream(10))
        for idx in part:
            hist = np.bincount(labels[idx], minlength=10) / idx.size
            tv = 0.5 * np.sum(np.abs(hist - global_hist))
            assert tv < 0.05

    def test_small_alpha_lowers_entropy(self):
        labels = self.labels(n=10000)
        stats_lo = partition_stats(
            labels, dirichlet_partition(labels, 100, 0.1, RngStream(11)), 10)
        stats_hi = partition_stats(
            labels, dirichlet_partition(labels, 100, 1e6, RngStream(11)), 10)
        assert stats_lo["mean_entropy"] < stats_hi["mean_entropy"]

    def test_entropy_monotone_in_alpha(self):
        """Mean client entropy is non-decreasing over a 4-point alpha grid,
        averaged across 10 seeds."""
        labels = self.labels(n=5000)
        grid = [0.1, 1.0, 10.0, 1e6]
        means = []
        for alpha in grid:
            vals = [partition_stats(
                labels, dirichlet_partition(labels, 50, alpha, RngStream(s)),
                10)["mean_entropy"] for s in range(10)]
            means.append(np.mean(vals))
        assert all(means[i] <= means[i + 1] + 1e-9 for i in range(len(means) - 1))

    def test_more_clients_than_samples(self):
        with pytest.raises(ConfigError):
            dirichlet_partition(np.zeros(5, dtype=np.int64), 6, 1.0, RngStream(0))

    def test_bad_alpha(self):
        with pytest.raises(ConfigError):
            dirichlet_partition(self.labels(100), 4, 0.0, RngStream(0))

    def test_nan_alpha(self):
        with pytest.raises(ConfigError):
            dirichlet_partition(self.labels(100), 4, float("nan"), RngStream(0))


class TestCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0,1.5,2.5\n1,-1.0,0.25\n0,0.0,3.0\n")
        ds = load_csv(str(path))
        assert ds.size == 3 and ds.num_classes == 2
        assert ds.inputs.shape == (3, 2)
        assert ds.labels.tolist() == [0, 1, 0]

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("0,1.0,2.0\n1,3.0\n")
        with pytest.raises(ConfigError, match="ragged"):
            load_csv(str(path))

    def test_non_integer_labels_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,1.0\n")
        with pytest.raises(ConfigError):
            load_csv(str(path))

    @pytest.mark.parametrize("row,reason", [
        ("0.5,1.0", "label 0.5 is not an int64 integer"),
        ("1e19,1.0", "label 1e19 is not an int64 integer"),
        ("nan,1.0", "non-finite value"),
        ("-inf,1.0", "non-finite value"),
        ("1,nan", "non-finite value"),
        ("1,inf", "non-finite value"),
    ])
    def test_bad_values_rejected_with_their_line(self, tmp_path, row, reason):
        path = tmp_path / "bad.csv"
        path.write_text(f"0,1.0\n{row}\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}:2: {reason}")):
            load_csv(str(path))

    @pytest.mark.parametrize("labels,reason", [
        ("0,1,2,50000", "labels are not dense 0..50000: class 3 has no rows"),
        ("1,2,1", "labels are not dense 0..2: class 0 has no rows"),
        ("0,2,2,0", "labels are not dense 0..2: class 1 has no rows"),
        ("0,-1,1,-3", "label -3 is negative"),
    ])
    def test_labels_not_dense_rejected_naming_the_first_missing_class(
            self, tmp_path, labels, reason):
        path = tmp_path / "sparse.csv"
        path.write_text("".join(f"{y},0.5,1.5\n" for y in labels.split(",")))
        with pytest.raises(ConfigError, match=re.escape(f"{path}: {reason}")):
            load_csv(str(path))

    @pytest.mark.parametrize("name", ["missing.csv", ".", "nul\x00.csv"],
                             ids=["missing", "directory", "nul-byte"])
    def test_path_naming_no_file_rejected(self, tmp_path, name):
        with pytest.raises(ConfigError, match="data file not found"):
            load_csv(str(tmp_path / name))

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("\n")
        with pytest.raises(ConfigError):
            load_csv(str(path))


class TestDatasetValidation:
    def test_label_range_checked(self):
        with pytest.raises(ConfigError):
            Dataset(np.zeros((3, 2)), np.array([0, 1, 5]), 3)

    def test_a_dataset_is_a_batch_with_its_checks(self):
        ds = Dataset([[1, 2], [3, 4]], [1, 0], 2)
        assert isinstance(ds, Batch) and ds.size == 2
        assert ds.inputs.dtype == np.float64 and ds.labels.dtype == np.int64
        with pytest.raises(ShapeError):
            Dataset(np.zeros((3, 2)), np.zeros(2, dtype=int), 2)
