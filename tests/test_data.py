import io
import os
import struct
import tracemalloc

import numpy as np
import pytest

from smmsolve import data as sdata
from smmsolve.problem import DataError, Dataset


class TestSynthSpec:
    def test_rank_bound_enforced(self):
        with pytest.raises(ValueError):
            sdata.SynthSpec(n=10, p=3, q=4, r=4)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            sdata.SynthSpec(n=10, p=3, q=3, r=1, train_fraction=1.0)


class TestGenSynthetic:
    def test_deterministic_per_seed(self):
        spec = sdata.SynthSpec(n=60, p=4, q=5, r=2, seed=123)
        a_train, a_test, a_W = sdata.gen_synthetic(spec)
        b_train, b_test, b_W = sdata.gen_synthetic(spec)
        assert np.array_equal(a_train.features, b_train.features)
        assert np.array_equal(a_test.features, b_test.features)
        assert np.array_equal(a_train.labels, b_train.labels)
        assert np.array_equal(a_W, b_W)

    def test_different_seeds_differ(self):
        a, _, _ = sdata.gen_synthetic(sdata.SynthSpec(n=40, p=3, q=3, r=1, seed=1))
        b, _, _ = sdata.gen_synthetic(sdata.SynthSpec(n=40, p=3, q=3, r=1, seed=2))
        assert not np.array_equal(a.features, b.features)

    def test_planted_matrix_has_exact_rank(self):
        for r in (1, 3, 5):
            _, _, W = sdata.gen_synthetic(sdata.SynthSpec(n=50, p=6, q=7, r=r, seed=r))
            s = np.linalg.svd(W, compute_uv=False)
            assert np.sum(s > 1e-10 * s[0]) == r

    def test_noiseless_rank_one_structure(self):
        # without noise every column block repeats one base vector, so all
        # rows of each sample are identical
        train, test, _ = sdata.gen_synthetic(
            sdata.SynthSpec(n=30, p=4, q=3, r=1, noise_delta=0.0, seed=5)
        )
        X = train.features
        for k in range(1, 4):
            np.testing.assert_array_equal(X[:, k, :], X[:, 0, :])

    def test_split_sizes(self):
        train, test, _ = sdata.gen_synthetic(
            sdata.SynthSpec(n=100, p=3, q=3, r=1, seed=9, train_fraction=0.8)
        )
        assert train.n_samples == 80 and test.n_samples == 20

    def test_labels_match_planted_model(self):
        train, test, W = sdata.gen_synthetic(
            sdata.SynthSpec(n=50, p=4, q=4, r=2, seed=31)
        )
        model = sdata.Model(W=W, b=0.0)
        assert sdata.accuracy(model, train) == 1.0
        assert sdata.accuracy(model, test) == 1.0


class TestPredict:
    def test_sign_zero_is_positive(self):
        model = sdata.Model(W=np.zeros((2, 2)), b=0.0)
        assert sdata.predict(model, np.ones((2, 2))) == 1.0

    def test_constant_positive_model(self, tiny_dataset):
        model = sdata.Model(W=np.zeros((3, 3)), b=1.0)
        frac_pos = np.mean(tiny_dataset.labels == 1.0)
        assert sdata.accuracy(model, tiny_dataset) == pytest.approx(frac_pos)

    def test_scale_invariance(self, tiny_dataset, rng):
        W = rng.standard_normal((3, 3))
        m1 = sdata.Model(W=W, b=0.3)
        m2 = sdata.Model(W=5.0 * W, b=1.5)
        assert sdata.accuracy(m1, tiny_dataset) == sdata.accuracy(m2, tiny_dataset)

    def test_confusion_counts_sum(self, tiny_dataset, rng):
        model = sdata.Model(W=rng.standard_normal((3, 3)), b=0.0)
        counts = sdata.confusion_counts(model, tiny_dataset)
        assert sum(counts.values()) == tiny_dataset.n_samples


class TestDatasetIO:
    def test_binary_round_trip_exact(self, tmp_path, small_synth):
        train, _, _ = small_synth
        path = str(tmp_path / "d.bin")
        sdata.save_dataset(train, path, fmt="binary")
        back = sdata.load_dataset(path)
        assert np.array_equal(back.features, train.features)
        assert np.array_equal(back.labels, train.labels)

    def test_csv_round_trip_exact(self, tmp_path):
        train, _, _ = sdata.gen_synthetic(sdata.SynthSpec(n=20, p=3, q=4, r=2, seed=77))
        path = str(tmp_path / "d.csv")
        sdata.save_dataset(train, path, fmt="csv")
        back = sdata.load_dataset(path, shape=(3, 4))
        assert np.array_equal(back.features, train.features)

    def test_truncated_binary_names_offset(self, tmp_path, small_synth):
        train, _, _ = small_synth
        path = str(tmp_path / "d.bin")
        sdata.save_dataset(train, path, fmt="binary")
        raw = open(path, "rb").read()
        for cut in (10, 20, 100, len(raw) - 5):
            trunc = str(tmp_path / f"t{cut}.bin")
            with open(trunc, "wb") as fh:
                fh.write(raw[:cut])
            with pytest.raises(sdata.FormatError, match="byte offset"):
                sdata.load_dataset(trunc)

    @pytest.mark.parametrize("n", [10**12, 3 * 10**8])
    def test_oversized_header_rejected_before_any_read(self, tmp_path, n):
        # 96 bytes: magic, a header declaring n samples of 1x1 matrices, and
        # 64 bytes of body; the label block alone would need 8 n bytes
        path = str(tmp_path / "huge.bin")
        with open(path, "wb") as fh:
            fh.write(b"SMMDATA1" + struct.pack("<QQQ", n, 1, 1) + bytes(64))
        tracemalloc.start()
        try:
            with pytest.raises(sdata.FormatError, match="label block") as err:
                sdata.load_dataset(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert err.value.offset == 96
        assert peak < 1 << 20

    def test_feature_block_checked_against_file_size(self, tmp_path):
        # labels present, features declared far beyond the end of the file
        path = str(tmp_path / "wide.bin")
        labels = np.array([1.0, -1.0])
        with open(path, "wb") as fh:
            fh.write(b"SMMDATA1" + struct.pack("<QQQ", 2, 10**4, 10**4) + labels.tobytes())
        with pytest.raises(sdata.FormatError, match="feature block") as err:
            sdata.load_dataset(path)
        assert err.value.offset == 48

    def test_bad_label_rejected(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("1,0.5,0.5,0.5,0.5\n")
            fh.write("0,0.1,0.2,0.3,0.4\n")  # label 0 is invalid
        with pytest.raises(DataError, match="label must be"):
            sdata.load_dataset(path, shape=(2, 2))

    def test_csv_shape_inference_square_only(self, tmp_path):
        path = str(tmp_path / "sq.csv")
        with open(path, "w") as fh:
            fh.write("1,1,2,3,4\n-1,4,3,2,1\n")
        ds = sdata.load_dataset(path)
        assert ds.p == 2 and ds.q == 2
        path2 = str(tmp_path / "rect.csv")
        with open(path2, "w") as fh:
            fh.write("1,1,2,3,4,5,6\n-1,6,5,4,3,2,1\n")
        with pytest.raises(sdata.FormatError, match="shape"):
            sdata.load_dataset(path2)

    def test_nonfinite_rejected(self, tmp_path):
        path = str(tmp_path / "inf.csv")
        with open(path, "w") as fh:
            fh.write("1,inf,0,0,0\n-1,0,0,0,0\n")
        with pytest.raises(DataError):
            sdata.load_dataset(path, shape=(2, 2))

    @pytest.mark.parametrize("last", ["-1,0.1,0.2", "-1,0.1,0.2,0.3,0.4,0.5"])
    def test_ragged_row_rejected_with_line_number(self, tmp_path, last):
        # a cut or overlong last row, with the square shape left to infer
        path = str(tmp_path / "cut.csv")
        with open(path, "w") as fh:
            fh.write("1,0.5,0.5,0.5,0.5\n-1,0.1,0.2,0.3,0.4\n" + last)
        with pytest.raises(sdata.FormatError, match="line 3"):
            sdata.load_dataset(path)


class TestModelIO:
    def test_round_trip(self, tmp_path, rng):
        model = sdata.Model(W=rng.standard_normal((4, 5)), b=-0.7)
        path = str(tmp_path / "m.npz")
        sdata.save_model(path, model, aux={"lam": rng.standard_normal(6)})
        back, aux = sdata.load_model(path)
        assert np.array_equal(back.W, model.W) and back.b == model.b
        assert "lam" in aux

    def test_missing_keys_rejected(self, tmp_path):
        path = str(tmp_path / "bad.npz")
        np.savez(path, X=np.ones(3))
        with pytest.raises(sdata.FormatError):
            sdata.load_model(path)

    @pytest.mark.parametrize("kind", ["truncated", "not-a-zip", "npy", "no-W", "no-b", "vector-b"])
    def test_bad_model_file_is_a_format_error(self, tmp_path, rng, kind):
        path = tmp_path / "m.npz"
        W = rng.standard_normal((3, 2))
        arrays = {"no-W": {"b": np.float64(0.5)}, "no-b": {"W": W}, "vector-b": {"W": W, "b": np.ones(2)}}
        if kind in arrays:
            np.savez(path, **arrays[kind])
        else:
            sdata.save_model(str(path), sdata.Model(W=W, b=0.5), aux={"lam": np.ones(400)})
            npy = io.BytesIO()
            np.save(npy, W)
            raw = path.read_bytes()
            path.write_bytes(
                {"truncated": raw[: len(raw) // 2], "not-a-zip": b"W,b\n1,2\n", "npy": npy.getvalue()}[kind]
            )
        with pytest.raises(sdata.FormatError):
            sdata.load_model(str(path))
