"""Source images: seeded synthetic blobs and PGM/PPM file ingestion.

Synthetic images are sums of random Gaussian bumps, min-max normalized to
[0,1]. They are smooth and structured, so the toy encoders produce
non-degenerate latents, and they are reproducible bitwise from the seed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError


IMAGE_RANK = 3  # an image is the trailing [H, W, C] of an array


def stack_axes(shape: Sequence[int]) -> tuple[int, ...]:
    """The sizes of the axes before the trailing image: () for one image or lower rank."""
    return tuple(shape[:max(len(shape) - IMAGE_RANK, 0)])


def bump_image(rng: np.random.Generator, shape: Sequence[int]) -> np.ndarray:
    """One random blob image in [0,1] with the full range attained."""
    h, w, channels = shape
    rows = np.arange(h, dtype=np.float64)[:, None]
    cols = np.arange(w, dtype=np.float64)[None, :]
    img = np.zeros((h, w, channels), dtype=np.float64)
    scale = float(max(h, w))
    for ch in range(channels):
        n_bumps = int(rng.integers(2, 5))
        field = np.zeros((h, w), dtype=np.float64)
        for _ in range(n_bumps):
            cy = rng.uniform(0.0, h - 1.0)
            cx = rng.uniform(0.0, w - 1.0)
            sigma = rng.uniform(0.08, 0.35) * scale
            amp = rng.uniform(0.4, 1.0)
            field += amp * np.exp(-((rows - cy) ** 2 + (cols - cx) ** 2) / (2.0 * sigma * sigma))
        field -= field.min()
        peak = field.max()
        if peak > 0.0:
            field /= peak
        img[:, :, ch] = field
    return img


@dataclass(frozen=True)
class SyntheticDataset:
    """Immutable stack of source images ``[N, H, W, C]``, every pixel in [0,1]."""

    images: Tensor

    def __post_init__(self):
        x = self.images.data
        if x.min() < 0.0 or x.max() > 1.0:
            bad = next(i for i, img in enumerate(x) if img.min() < 0.0 or img.max() > 1.0)
            raise ConfigError(f"image {bad} has pixel values outside [0,1]")

    @property
    def image_shape(self) -> tuple[int, ...]:
        return self.images.shape[1:]

    def __len__(self) -> int:
        return len(self.images)

    def __getitem__(self, i: int) -> Tensor:
        return self.images[i]


def synthetic_image(seed: int, index: int, shape: Sequence[int]) -> np.ndarray:
    """Image ``index`` of every synthetic dataset of ``seed``, drawn from its own stream [seed, index]."""
    shape = tuple(int(s) for s in shape)
    if len(shape) != 3 or any(s < 1 for s in shape):
        raise ConfigError(f"image shape must be three positive dims, got {shape}")
    return bump_image(np.random.default_rng([seed, index]), shape)


def generate_dataset(seed: int, count: int, shape: Sequence[int]) -> SyntheticDataset:
    """``count`` blob images; row i is ``synthetic_image(seed, i, shape)``."""
    if count < 1:
        raise ConfigError(f"dataset count must be >= 1, got {count}")
    images = np.stack([synthetic_image(seed, i, shape) for i in range(count)])
    return SyntheticDataset(Tensor._wrap(images))


# ---------------------------------------------------------------------------
# Portable anymap (PGM/PPM) input and output
# ---------------------------------------------------------------------------

_TOKEN = re.compile(rb"(?:\s|#[^\n]*\n)*(\S+)")


def _read_tokens(path: Path, part: str, blob: bytes, n: int,
                 pos: int) -> tuple[list[bytes], int]:
    """The next ``n`` tokens of ``blob`` from ``pos``; ``part`` names them in errors."""
    out = []
    while len(out) < n:
        m = _TOKEN.match(blob, pos)
        if m is None:
            raise ConfigError(f"{path}: truncated PNM {part}")
        out.append(m.group(1))
        pos = m.end()
    return out, pos


def _integers(path: Path, tokens: list[bytes]) -> list[int]:
    try:
        return [int(t) for t in tokens]
    except ValueError as exc:
        raise ConfigError(f"{path}: PNM number is not an integer ({exc})") from None


def read_pnm(path) -> np.ndarray:
    """Load a PGM (P2/P5) or PPM (P3/P6) image, normalized to [0,1].

    Returns shape (H, W, 1) for grayscale and (H, W, 3) for color.
    """
    path = Path(path)
    blob = path.read_bytes()
    (magic,), pos = _read_tokens(path, "header", blob, 1, 0)
    if magic not in (b"P2", b"P3", b"P5", b"P6"):
        raise ConfigError(f"{path}: unsupported PNM magic {magic!r}")
    channels = 3 if magic in (b"P3", b"P6") else 1
    header, pos = _read_tokens(path, "header", blob, 3, pos)
    width, height, maxval = _integers(path, header)
    if width < 1 or height < 1 or maxval < 1 or maxval > 65535:
        raise ConfigError(f"{path}: invalid PNM dimensions {width}x{height} max {maxval}")
    count = width * height * channels
    if magic in (b"P2", b"P3"):
        toks, _ = _read_tokens(path, "pixel data", blob, count, pos)
        flat = np.array(_integers(path, toks), dtype=np.float64)
    else:
        pos += 1  # single whitespace byte after maxval
        dtype = np.dtype(np.uint8) if maxval < 256 else np.dtype(">u2")
        if len(blob) - pos < count * dtype.itemsize:
            raise ConfigError(f"{path}: truncated pixel data")
        raw = np.frombuffer(blob, dtype=dtype, count=count, offset=pos)
        flat = raw.astype(np.float64)
    if np.any(flat < 0) or np.any(flat > maxval):
        raise ConfigError(f"{path}: pixel value outside [0, {maxval}]")
    return (flat / maxval).reshape(height, width, channels)


def write_pnm(path, image: np.ndarray) -> None:
    """Write an [0,1] array of shape (H,W,1) or (H,W,3) as binary PGM/PPM."""
    path = Path(path)
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] not in (1, 3):
        raise ConfigError(f"cannot serialize image of shape {arr.shape} as PNM")
    magic = b"P5" if arr.shape[2] == 1 else b"P6"
    quant = np.clip(np.rint(arr * 255.0), 0, 255).astype(np.uint8)
    header = b"%s\n%d %d\n255\n" % (magic, arr.shape[1], arr.shape[0])
    path.write_bytes(header + quant.tobytes())


def load_dataset_from_directory(path) -> SyntheticDataset:
    """All .pgm/.ppm files under a directory, sorted by name for determinism."""
    root = Path(path)
    try:
        files = sorted(p for p in root.iterdir() if p.suffix.lower() in (".pgm", ".ppm"))
        arrays = [read_pnm(p) for p in files]
    except OSError as exc:
        raise ConfigError(f"cannot read dataset.path {root}: {exc}") from exc
    if not files:
        raise ConfigError(f"no .pgm/.ppm files found in {root}")
    shape = arrays[0].shape
    for p, a in zip(files, arrays):
        if a.shape != shape:
            raise ConfigError(f"{p}: shape {a.shape} differs from {files[0]}: {shape}")
    return SyntheticDataset(Tensor._wrap(np.stack(arrays)))
