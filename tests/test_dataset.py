"""Synthetic image generation and PGM/PPM ingestion."""

import numpy as np
import pytest

from disruptkit import dataset as ds
from disruptkit.autodiff import Tensor
from disruptkit.errors import ConfigError


class TestSyntheticGeneration:
    def test_same_seed_bit_identical(self):
        a = ds.generate_dataset(seed=7, count=6, shape=(8, 8, 1))
        b = ds.generate_dataset(seed=7, count=6, shape=(8, 8, 1))
        for ia, ib in zip(a.images, b.images):
            assert np.array_equal(ia.data, ib.data)

    def test_different_seeds_differ(self):
        a = ds.generate_dataset(seed=7, count=1, shape=(8, 8, 1))
        b = ds.generate_dataset(seed=8, count=1, shape=(8, 8, 1))
        assert not np.array_equal(a[0].data, b[0].data)

    def test_values_within_unit_interval(self):
        data = ds.generate_dataset(seed=3, count=10, shape=(8, 8, 1))
        for img in data.images:
            assert np.all(img.data >= 0.0) and np.all(img.data <= 1.0)

    def test_images_are_structured(self):
        # blobs must have spatial variation or encoders collapse
        data = ds.generate_dataset(seed=5, count=5, shape=(8, 8, 1))
        for img in data.images:
            assert img.data.std() > 0.05

    def test_count_and_shape(self):
        data = ds.generate_dataset(seed=0, count=4, shape=(6, 5, 3))
        assert len(data) == 4
        assert data.image_shape == (6, 5, 3)
        assert all(img.shape == (6, 5, 3) for img in data.images)
        # the rows are exactly the per-index streams [seed, i]
        rows = [x.data for x in data.images]
        assert len(rows) == 4
        for i, row in enumerate(rows):
            assert np.array_equal(row, ds.bump_image(np.random.default_rng([0, i]), (6, 5, 3)))

    def test_one_image_is_its_row(self):
        # image i alone is bit for bit row i of any dataset of the seed that holds it
        data = ds.generate_dataset(seed=11, count=5, shape=(6, 5, 3))
        for i in (0, 3, 4):
            assert np.array_equal(ds.synthetic_image(11, i, (6, 5, 3)), data[i].data)

    @pytest.mark.parametrize("shape", [(8, 8), (8, 0, 1)])
    def test_one_image_checks_its_shape(self, shape):
        with pytest.raises(ConfigError, match="three positive dims"):
            ds.synthetic_image(0, 0, shape)

    def test_out_of_range_image_named(self):
        images = np.full((4, 3, 3, 1), 0.5)
        images[2, 1, 1, 0] = 1.5
        with pytest.raises(ConfigError, match="image 2 has pixel values outside"):
            ds.SyntheticDataset(Tensor(images))

    def test_count_must_be_positive(self):
        with pytest.raises(ConfigError):
            ds.generate_dataset(seed=0, count=0, shape=(8, 8, 1))

    def test_prefix_stability(self):
        # image i depends only on (seed, i), not on count
        small = ds.generate_dataset(seed=9, count=3, shape=(8, 8, 1))
        large = ds.generate_dataset(seed=9, count=6, shape=(8, 8, 1))
        for i in range(3):
            assert np.array_equal(small[i].data, large[i].data)


class TestPnmIO:
    def test_binary_grayscale_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.uniform(size=(5, 7, 1))
        p = tmp_path / "x.pgm"
        ds.write_pnm(p, img)
        back = ds.read_pnm(p)
        assert back.shape == (5, 7, 1)
        want = np.clip(np.rint(img * 255.0), 0, 255) / 255.0
        assert np.max(np.abs(back - want)) < 1e-12

    def test_binary_color_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.uniform(size=(4, 3, 3))
        p = tmp_path / "x.ppm"
        ds.write_pnm(p, img)
        back = ds.read_pnm(p)
        assert back.shape == (4, 3, 3)
        assert np.all(back >= 0.0) and np.all(back <= 1.0)

    @pytest.mark.parametrize("value", [np.nan, 7.0, -0.5], ids=["nan", "above", "below"])
    def test_out_of_range_pixel_rejected(self, tmp_path, value):
        # clipping would write NaN as 0 and 7.0 as 1.0
        img = np.full((2, 3, 1), 0.5)
        img[1, 2, 0] = value
        p = tmp_path / "x.pgm"
        with pytest.raises(ConfigError, match="x.pgm: pixel value outside"):
            ds.write_pnm(p, img)
        assert not p.exists()
        img[1, 2, 0] = 1.0
        img[0, 0, 0] = 0.0
        ds.write_pnm(p, img)
        assert ds.read_pnm(p)[[0, 1], [0, 2], 0].tolist() == [0.0, 1.0]

    def test_ascii_grayscale_with_comments(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P2\n# a comment\n2 2\n# another\n4\n0 1 2 4\n")
        img = ds.read_pnm(p)
        assert img.shape == (2, 2, 1)
        assert np.allclose(img.reshape(-1), [0.0, 0.25, 0.5, 1.0])

    def test_ascii_color(self, tmp_path):
        p = tmp_path / "a.ppm"
        p.write_bytes(b"P3\n1 2\n255\n255 0 0  0 255 0\n")
        img = ds.read_pnm(p)
        assert img.shape == (2, 1, 3)
        assert img[0, 0, 0] == 1.0 and img[1, 0, 1] == 1.0

    def test_sixteen_bit_binary(self, tmp_path):
        p = tmp_path / "w.pgm"
        payload = np.array([0, 65535], dtype=">u2").tobytes()
        p.write_bytes(b"P5\n2 1\n65535\n" + payload)
        img = ds.read_pnm(p)
        assert img.reshape(-1).tolist() == [0.0, 1.0]

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P7\n1 1\n255\n\x00")
        with pytest.raises(ConfigError):
            ds.read_pnm(p)

    @pytest.mark.parametrize("blob", [
        b"P2\nx 8\n255\n",
        b"P5\n2 2\n25x\n\x00\x00\x00\x00",
        b"P2\n2 1\n255\n7 abc\n",
        b"P3\n1 1\n255\n0 1.5 0\n",
    ])
    def test_non_integer_number_rejected(self, tmp_path, blob):
        p = tmp_path / "bad.pgm"
        p.write_bytes(blob)
        with pytest.raises(ConfigError, match="bad.pgm.*not an integer"):
            ds.read_pnm(p)

    @pytest.mark.parametrize("blob, part", [
        (b"P2\n2 2\n", "header"),
        (b"P2\n2 1\n255\n7\n", "pixel data"),
    ], ids=["header", "pixel_data"])
    def test_truncated_tokens_name_file_and_part(self, tmp_path, blob, part):
        p = tmp_path / "bad.pgm"
        p.write_bytes(blob)
        with pytest.raises(ConfigError, match=f"bad.pgm: truncated PNM {part}"):
            ds.read_pnm(p)

    def test_truncated_pixels_rejected(self, tmp_path):
        p = tmp_path / "short.pgm"
        p.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(ConfigError):
            ds.read_pnm(p)


class TestDirectoryLoading:
    def test_sorted_deterministic_order(self, tmp_path):
        rng = np.random.default_rng(2)
        imgs = {name: rng.uniform(size=(4, 4, 1)) for name in ("b.pgm", "a.pgm", "c.pgm")}
        for name, arr in imgs.items():
            ds.write_pnm(tmp_path / name, arr)
        data = ds.load_dataset_from_directory(tmp_path)
        assert len(data) == 3
        want_first = np.clip(np.rint(imgs["a.pgm"] * 255.0), 0, 255) / 255.0
        assert np.array_equal(data[0].data, want_first)

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            ds.load_dataset_from_directory(tmp_path)

    def test_inconsistent_shapes_rejected(self, tmp_path):
        ds.write_pnm(tmp_path / "a.pgm", np.zeros((4, 4, 1)))
        ds.write_pnm(tmp_path / "b.pgm", np.zeros((5, 4, 1)))
        with pytest.raises(ConfigError):
            ds.load_dataset_from_directory(tmp_path)
