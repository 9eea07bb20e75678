"""Procedural stand-ins for CIFAR-10 and MNIST.

The sandbox is offline, so the real corpora are unavailable. These
generators produce class-conditional images with the same shapes
(3×32×32 / 1×28×28, 10 classes) and a learnability profile suitable for the
paper's pipeline: each class owns a small bank of smooth "prototype"
patterns; a sample is a randomly-chosen prototype under geometric jitter
(circular shift), per-sample contrast jitter and additive Gaussian noise.

Why this preserves the evaluation's behaviour (DESIGN.md §2): the paper's
experiments exercise (i) multi-class image classification through conv nets,
(ii) Dirichlet label-skew federation, (iii) knowledge transfer between
models trained on disjoint shards. All three depend on the *label structure*
of the data, not on natural-image statistics; a class-conditional generative
family with controllable intra-class variance exercises the identical code
paths while remaining CPU-learnable.

``difficulty`` maps to noise/jitter levels; at the default setting a scaled
ResNet-20 reaches well above chance within a few epochs but does not
saturate instantly, so convergence-rate comparisons remain meaningful.

A corpus draw has one implementation, :meth:`SyntheticImageDataset.sample_rows`
(any rows of a notional ``n``-image draw, its pixel noise reached through a
:class:`NoiseSeekTable`); :meth:`~SyntheticImageDataset.sample` is that call
over every row, and the federation builders only ever ask for rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.utils.rng import new_rng

__all__ = [
    "SyntheticSpec",
    "SyntheticImageDataset",
    "NoiseSeekTable",
    "make_synthetic_cifar10",
    "make_synthetic_mnist",
    "make_blobs",
]


@dataclass(frozen=True)
class SyntheticSpec:
    """Generator configuration.

    Attributes
    ----------
    num_classes, channels, image_size:
        Output tensor shape: ``(channels, image_size, image_size)``.
    prototypes_per_class:
        Size of each class's pattern bank (intra-class modes).
    noise_std:
        Additive Gaussian pixel noise.
    shift_max:
        Maximum circular shift (pixels) in each spatial direction.
    contrast_jitter:
        Multiplicative amplitude jitter: factor ~ U(1-j, 1+j).
    low_freq:
        Side of the coarse lattice the prototypes are upsampled from;
        smaller = smoother, easier patterns.
    """

    num_classes: int = 10
    channels: int = 3
    image_size: int = 32
    prototypes_per_class: int = 3
    noise_std: float = 0.35
    shift_max: int = 2
    contrast_jitter: float = 0.2
    low_freq: int = 4

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        if self.image_size < self.low_freq:
            raise ValueError("image_size must be >= low_freq")


# Images between two recorded generator states. Measured on the 2-vCPU dev
# host (PCG64, 64 normals per image): state set 1.6 µs, state get 1.5 µs,
# 64 normals 1.7 µs, 512 normals 7.4 µs; a 400 000-image first pass that
# stops every k images to record the state costs 0.55 s (k = 4), 0.43 s (8),
# 0.39 s (16), 0.38 s (32) against 0.42 s for one uninterrupted chunked
# pass. 8 is the largest stride that keeps the first pass neutral and still
# leaves a wanted row only ≈ 4.5 images of drawing at 2 % row density.
SEEK_STRIDE = 8

# Transient bytes one chunk of a row draw may hold beside its float32
# output, for distinct rows. A chunk of b whole blocks holds three float64
# arrays of at most b·SEEK_STRIDE images: the noise stage, the noise taken
# out of it, and the chunk's clean images. Unchunked, a draw held about five
# times its output. Measured on the 2-vCPU dev host: the fedavg_population
# benchmark peaks at 64.0–64.1 MB RSS with 1 MiB against 64.7 with 4 MiB at
# equal rounds/s; world.sample(3000) of 3×32×32 images takes 0.22–0.23 s
# (0.26–0.28 s unchunked) and peaks at 74 MB RSS (179 MB unchunked).
_CHUNK_BYTES = 1 << 20


def _narrow_dtype(lo: int, hi: int) -> np.dtype:
    """The narrowest integer dtype that holds ``[lo, hi]`` exactly."""
    for dtype in (np.uint8, np.int8, np.uint16, np.int16, np.uint32, np.int32):
        info = np.iinfo(dtype)
        if info.min <= lo and hi <= info.max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def _narrow(col: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """``col``, whose values lie in ``[lo, hi]``, in ``_narrow_dtype(lo, hi)``."""
    return col.astype(_narrow_dtype(lo, hi), copy=False)


class NoiseSeekTable:
    """Makes one corpus draw's Gaussian noise stream seekable.

    ``standard_normal`` is a ziggurat — a variable number of raw draws per
    value — so ``PCG64.advance`` has no count to skip by. The generator's
    whole position is 128 bits, though: the table keeps the state standing
    before every ``SEEK_STRIDE``-th image (``(n // SEEK_STRIDE + 1, 2)``
    uint64, 2 B per corpus image), filled front to back as far as the
    furthest row anyone has asked for. A recorded block is reached by
    restoring its state; a block beyond the table by walking forward from
    the last recorded state, recording every boundary crossed.

    The table binds to the first draw it serves (``n``, per-image element
    count, and the generator's full state at the start of the noise stream:
    bit generator, position, ``inc``, ``has_uint32``, ``uinteger``) and
    refuses any other with ``ValueError``.

    Beside the states, :meth:`SyntheticImageDataset.sample_rows` keeps the
    cheap per-image columns of the first default draw it serves (labels,
    prototype index, shifts, contrast; each in its narrowest exact dtype,
    ≈ 12 B per corpus image) with the generator state where its noise
    stream starts, so a later call replays none of them. They are keyed by
    the draw (spec, world seed, draw seed, ``n``): another draw misses them
    and meets the table's own refusal.
    """

    def __init__(self) -> None:
        self._bound: tuple | None = None
        self._filled = 0  # boundaries 0 .. _filled-1 are recorded
        #: images whose noise this table has generated (work counter)
        self.images_drawn = 0
        #: ``(draw key, columns, noise-start state)`` of the cached draw
        self.columns: tuple | None = None

    def _record(self, bg) -> None:
        pos = bg.state["state"]["state"]
        self._states[self._filled] = (pos >> 64, pos & 0xFFFF_FFFF_FFFF_FFFF)
        self._filled += 1

    def _restore(self, bg, block: int) -> None:
        hi, lo = self._states[block].tolist()
        # the full state mapping with the position swapped in, never a partial one
        self._mapping["state"]["state"] = (hi << 64) | lo
        bg.state = self._mapping

    def _seek(self, rng: np.random.Generator, block: int, at: int) -> None:
        """Stand ``rng`` before ``block``; it stands before ``at`` (-1: nowhere)."""
        bg = rng.bit_generator
        if block < self._filled:
            self._restore(bg, block)
            return
        if at != self._filled - 1:
            self._restore(bg, self._filled - 1)
        while self._filled <= block:
            rng.standard_normal(out=self._buf)
            self.images_drawn += SEEK_STRIDE
            self._record(bg)

    def draw(
        self, rng: np.random.Generator, n: int, per_image: int, rows: np.ndarray
    ) -> np.ndarray:
        """Noise of images ``rows`` (ascending, repeats allowed) of the
        ``(n, per_image)`` standard-normal fill ``rng`` is about to make,
        as ``(len(rows), per_image)`` float64 in that order.

        Each wanted block is drawn once into a stage of the images drawn,
        and one indexed copy takes the rows out of it; the stage holds at
        most ``SEEK_STRIDE`` images per distinct block of ``rows``, so the
        caller bounds it by the blocks it asks for at once.
        """
        bg = rng.bit_generator
        if self._bound is None:
            self._bound = (n, per_image, bg.state)
            self._mapping = bg.state  # a second copy: _restore writes positions into it
            self._states = np.empty((n // SEEK_STRIDE + 1, 2), dtype=np.uint64)
            self._buf = np.empty((SEEK_STRIDE, per_image))
            self._record(bg)
        elif self._bound != (n, per_image, bg.state):
            raise ValueError("seek table was built on another corpus draw")
        if np.any(rows[1:] < rows[:-1]):
            raise ValueError("rows must be in ascending order")
        blocks, first, counts = np.unique(
            rows // SEEK_STRIDE, return_index=True, return_counts=True
        )
        # Beyond the table whole blocks are drawn, so the boundary behind each
        # can be recorded; inside it, only up to the last wanted image.
        need = np.where(
            blocks >= self._filled - 1,
            np.minimum(SEEK_STRIDE, n - blocks * SEEK_STRIDE),
            rows[first + counts - 1] % SEEK_STRIDE + 1,
        )
        base = np.cumsum(need) - need  # each block's first image in the stage
        stage = np.empty((int(need.sum()), per_image))
        at = 0
        for b, m, lo in zip(blocks.tolist(), need.tolist(), base.tolist()):
            if b != at:
                self._seek(rng, b, at)
            rng.standard_normal(out=stage[lo : lo + m])
            self.images_drawn += m
            at = b + 1 if m == SEEK_STRIDE else -1
            if at == self._filled:
                self._record(bg)
        return stage[np.repeat(base, counts) + rows % SEEK_STRIDE]


class SyntheticImageDataset:
    """Factory for class-conditional synthetic image datasets.

    One instance fixes the prototype banks (the "world"); :meth:`sample`
    draws datasets from it. Train and test splits drawn from the same
    instance share prototypes, so generalization is measured against the
    true class structure — exactly as with a held-out test set of a real
    corpus.
    """

    def __init__(self, spec: SyntheticSpec, seed: int = 0) -> None:
        self.spec = spec
        self.seed = seed
        rng = new_rng(seed, "data", 0)
        s = spec
        # Coarse lattices upsampled with bilinear-ish kron + smoothing give
        # smooth, distinct per-class patterns.
        coarse = rng.standard_normal(
            (s.num_classes, s.prototypes_per_class, s.channels, s.low_freq, s.low_freq)
        )
        factor = int(np.ceil(s.image_size / s.low_freq))
        up = np.kron(coarse, np.ones((factor, factor)))[..., : s.image_size, : s.image_size]
        up = self._smooth(up)
        # Per-prototype normalization to zero mean / unit std.
        flat = up.reshape(s.num_classes, s.prototypes_per_class, -1)
        mean = flat.mean(axis=-1, keepdims=True)
        std = flat.std(axis=-1, keepdims=True) + 1e-8
        self.prototypes = ((flat - mean) / std).reshape(up.shape).astype(np.float32)

    @staticmethod
    def _smooth(x: np.ndarray) -> np.ndarray:
        """3-point box blur along both spatial axes (cheap separable filter)."""
        out = x.copy()
        out[..., 1:, :] += x[..., :-1, :]
        out[..., :-1, :] += x[..., 1:, :]
        tmp = out.copy()
        out[..., :, 1:] += tmp[..., :, :-1]
        out[..., :, :-1] += tmp[..., :, 1:]
        return out / 9.0

    @property
    def sample_shape(self) -> tuple[int, int, int]:
        """Per-sample tensor shape ``(C, H, W)`` without drawing anything."""
        s = self.spec
        return (s.channels, s.image_size, s.image_size)

    def _draw_labels(self, rng: np.random.Generator, n: int, class_probs) -> np.ndarray:
        """The label draw of :meth:`sample_rows` — the *first* consumption of
        the draw stream, which :meth:`sample_labels` replays alone."""
        s = self.spec
        if class_probs is None:
            return rng.integers(0, s.num_classes, size=n)
        p = np.asarray(class_probs, dtype=np.float64)
        p = p / p.sum()
        return rng.choice(s.num_classes, size=n, p=p)

    def sample_labels(
        self, n: int, seed: int = 0, class_probs: np.ndarray | None = None
    ) -> np.ndarray:
        """The label vector of ``sample(n, seed)`` without the images.

        Labels are the first draw from the per-``seed`` stream, so they can
        be replayed alone in O(n) ints — this is what lets a lazy federation
        compute its partition assignment without ever materializing the
        O(n·C·H·W) sample tensor.
        """
        rng = new_rng(self.seed, "data", seed + 1)
        return self._draw_labels(rng, n, class_probs)

    def sample_rows(
        self,
        n: int,
        rows: np.ndarray,
        seed: int = 0,
        labels: np.ndarray | None = None,
        class_probs: np.ndarray | None = None,
        seek: NoiseSeekTable | None = None,
    ) -> ArrayDataset:
        """Materialize only ``rows`` of the ``n``-image corpus draw ``seed``.

        The one corpus draw: :meth:`sample` is this over every row. The
        cheap full-corpus draws (labels, prototype choice, shifts, contrast)
        are made at size ``n``, and the one dominant draw — the Gaussian
        pixel noise — goes through a :class:`NoiseSeekTable`. NumPy
        ``Generator`` array fills are sequential draws, so block fills
        concatenate to the single-fill stream bit for bit; every arithmetic
        op is elementwise, so restricting rows commutes with it: any
        ``rows`` (in the given order) are bitwise those rows of the
        all-rows call. Pass the same ``seek`` table to every call on one
        ``(n, seed)`` draw and only the first pays for the stream up to its
        furthest row; later calls draw O(len(rows)) images. Without one a
        throwaway table serves the call. Without ``labels`` or
        ``class_probs`` the table also keeps the cheap columns, so later
        calls skip their O(n) replay. The rows are built in ascending order,
        in chunks of whole seek blocks, straight into the float32 output:
        beyond those columns, the output and O(len(rows)) index arrays, a
        call of distinct rows holds at most ``_CHUNK_BYTES`` of transients.
        """
        s = self.spec
        rows = np.asarray(rows, dtype=np.int64)
        if len(rows) and (rows.min() < 0 or rows.max() >= n):
            raise IndexError("rows out of range of the notional corpus")
        rng = new_rng(self.seed, "data", seed + 1)
        key = (s, self.seed, seed, n)
        replay = seek is not None and labels is None and class_probs is None
        if replay and seek.columns is not None and seek.columns[0] == key:
            _, columns, noise_start = seek.columns
        else:
            columns = self._draw_columns(rng, n, labels, class_probs)
            noise_start = rng.bit_generator.state
            if replay and seek.columns is None:
                seek.columns = (key, columns, noise_start)
        table = NoiseSeekTable() if seek is None else seek
        k = len(rows)
        per_image = int(np.prod(self.sample_shape))
        out = np.empty((k, *self.sample_shape), dtype=np.float32)
        # Rows are built in ascending order, in chunks of whole seek blocks
        # (a block split between two chunks would be drawn twice), each
        # chunk's float64 images written straight into the float32 output.
        order = np.argsort(rows, kind="stable")
        srows = rows[order]
        starts = np.flatnonzero(np.diff(srows // SEEK_STRIDE, prepend=-1))
        blocks_per_chunk = max(1, _CHUNK_BYTES // (3 * 8 * SEEK_STRIDE * per_image))
        cuts = np.append(starts[::blocks_per_chunk], k).tolist()
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            x = self._clean(srows[lo:hi], columns)
            if s.noise_std > 0:
                # the table is bound to the noise-start state: every chunk seeks from it
                rng.bit_generator.state = noise_start
                noise = table.draw(rng, n, per_image, srows[lo:hi]).reshape(x.shape)
                noise *= s.noise_std
                noise += x
                x = noise
            out[order[lo:hi]] = x
        return ArrayDataset(out, columns[0][rows].astype(np.int64))

    def _clean(self, rows: np.ndarray, columns: tuple) -> np.ndarray:
        """The noise-free images of ``rows``: prototype, circular shift and
        contrast (float32, or float64 once the contrast factor applies)."""
        s = self.spec
        y, proto_idx, dh, dw, amp = columns
        x = self.prototypes[y[rows], proto_idx[rows]]  # (k, C, H, W)
        if dh is not None:
            h_idx = (np.arange(s.image_size)[None, :] - dh[rows, None]) % s.image_size
            w_idx = (np.arange(s.image_size)[None, :] - dw[rows, None]) % s.image_size
            ki = np.arange(len(rows))[:, None, None, None]
            ci = np.arange(s.channels)[None, :, None, None]
            x = x[ki, ci, h_idx[:, None, :, None], w_idx[:, None, None, :]]
        if amp is not None:
            x = x * amp[rows, None, None, None]
        return x

    def _draw_columns(self, rng: np.random.Generator, n: int, labels, class_probs) -> tuple:
        """The cheap per-image draws of :meth:`sample_rows`, in stream order:
        ``(labels, prototype index, dh, dw, contrast)``, ``None`` for a
        column the spec switches off. Each drawn integer column is narrowed
        as soon as it is drawn, so no two full-width ones are alive at once."""
        s = self.spec
        if labels is None:
            y = _narrow(self._draw_labels(rng, n, class_probs), 0, s.num_classes - 1)
        else:
            y = np.asarray(labels, dtype=np.int64)
            if len(y) != n:
                raise ValueError("labels length must equal n")
            if len(y) and (y.min() < 0 or y.max() >= s.num_classes):
                raise ValueError("labels out of class range")
        p = s.prototypes_per_class
        proto_idx = _narrow(rng.integers(0, p, size=n), 0, p - 1)
        dh = dw = amp = None
        if s.shift_max > 0:
            m = s.shift_max
            dh = _narrow(rng.integers(-m, m + 1, size=n), -m, m)
            dw = _narrow(rng.integers(-m, m + 1, size=n), -m, m)
        if s.contrast_jitter > 0:
            amp = rng.uniform(1 - s.contrast_jitter, 1 + s.contrast_jitter, size=n)
        return y, proto_idx, dh, dw, amp

    def sample(
        self,
        n: int,
        seed: int = 0,
        labels: np.ndarray | None = None,
        class_probs: np.ndarray | None = None,
    ) -> ArrayDataset:
        """Draw ``n`` labelled images: :meth:`sample_rows` over every row.

        Parameters
        ----------
        n:
            Sample count.
        seed:
            Draw seed (independent of the world seed).
        labels:
            Optional explicit label vector of length ``n``; overrides
            ``class_probs``.
        class_probs:
            Optional class marginal (defaults to uniform).
        """
        return self.sample_rows(n, np.arange(n), seed, labels, class_probs)


def make_synthetic_cifar10(
    n_train: int = 2000,
    n_test: int = 500,
    image_size: int = 32,
    seed: int = 0,
    noise_std: float = 0.35,
) -> tuple[ArrayDataset, ArrayDataset, SyntheticImageDataset]:
    """Synthetic CIFAR-10 drop-in: 10 classes, 3×``image_size``² images.

    Returns ``(train, test, world)`` — keep ``world`` to draw extra splits
    (e.g. the server-side public distillation set) from the same prototypes.
    """
    spec = SyntheticSpec(num_classes=10, channels=3, image_size=image_size, noise_std=noise_std)
    world = SyntheticImageDataset(spec, seed=seed)
    return world.sample(n_train, seed=0), world.sample(n_test, seed=1), world


def make_synthetic_mnist(
    n_train: int = 2000,
    n_test: int = 500,
    image_size: int = 28,
    seed: int = 0,
    noise_std: float = 0.3,
) -> tuple[ArrayDataset, ArrayDataset, SyntheticImageDataset]:
    """Synthetic MNIST drop-in: 10 classes, 1×``image_size``² images."""
    spec = SyntheticSpec(
        num_classes=10, channels=1, image_size=image_size, noise_std=noise_std, low_freq=4
    )
    world = SyntheticImageDataset(spec, seed=seed)
    return world.sample(n_train, seed=0), world.sample(n_test, seed=1), world


def make_blobs(
    n: int,
    num_classes: int = 4,
    dim: int = 8,
    separation: float = 3.0,
    seed: int = 0,
    center_seed: int = 0,
) -> ArrayDataset:
    """Gaussian-blob toy dataset (flat features) for fast unit tests.

    ``center_seed`` fixes the class centers (the "world"); ``seed`` draws the
    samples — so train/test splits with different ``seed`` share the same
    class structure.
    """
    centers = new_rng(center_seed, "data", 7).standard_normal((num_classes, dim)) * separation
    rng = new_rng(seed, "data", 8)
    y = rng.integers(0, num_classes, size=n)
    x = centers[y] + rng.standard_normal((n, dim))
    return ArrayDataset(x.astype(np.float32), y)
