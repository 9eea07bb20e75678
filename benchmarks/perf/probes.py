"""Micro probes of single layers, run in the traced child after ``algo.run()``.

Each probe times one operation, best of ``REPEATS``, at the workload's own
shapes and on the state the run produced (the trained global model, the last
round's accepted client states). A probe that does not apply to the workload
(no conv layer, model not stackable) reports 0.0, so every metric name exists
for every workload.
"""

from __future__ import annotations

import functools
import pathlib
import pickle
import time
from typing import Any, Callable

import numpy as np

__all__ = ["run_probes"]

REPEATS = 5
STEP_SPEEDUP_CLIENTS = 8


def _best_of(fn: "Callable[[], Any]") -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _first(model: Any, kind: type) -> Any:
    return next((m for m in model.modules() if isinstance(m, kind)), None)


def _nn_probes(algo: Any, x: np.ndarray, y: np.ndarray) -> "dict[str, float]":
    """``nn.functional`` / ``nn.optim`` at the communicated model's first
    conv and batch-norm layers and one training mini-batch (``x``, ``y``)."""
    from repro.nn import functional as F
    from repro.nn.layers import BatchNorm2d, Conv2d
    from repro.nn.optim import SGD
    from repro.nn.tensor import Tensor

    cfg = algo.cfg
    model = algo.model_fn()
    model.load_state_dict(algo.global_model.state_dict())
    model.train()
    out = dict.fromkeys(
        ("nn.conv2d_fwd_s", "nn.conv2d_bwd_s", "nn.im2col_s", "nn.col2im_s", "nn.batchnorm_s"),
        0.0,
    )

    conv = _first(model, Conv2d)
    if conv is not None:
        k, stride, pad = conv.kernel_size, conv.stride, conv.padding
        out["nn.conv2d_fwd_s"] = _best_of(lambda: conv(Tensor(x)))
        fwd = conv(Tensor(x, requires_grad=True))
        grad = np.ones_like(fwd.data)

        def backward():
            fwd.backward(grad)

        # backward() re-walks the same one-node graph each repeat
        out["nn.conv2d_bwd_s"] = _best_of(backward)
        # The column kernels are private helpers of nn.functional; a refactor
        # may rename them, and the benchmark must not be what blocks it.
        im2col = getattr(F, "_im2col", None)
        col2im = getattr(F, "_col2im", None)
        if im2col is not None and col2im is not None:
            out["nn.im2col_s"] = _best_of(lambda: im2col(x, k, k, stride, pad))
            cols = np.ascontiguousarray(im2col(x, k, k, stride, pad)[0])
            out["nn.col2im_s"] = _best_of(lambda: col2im(cols, x.shape, k, k, stride, pad))
        bn = _first(model, BatchNorm2d)
        if bn is not None:
            act = fwd.data

            def batchnorm():
                res = bn(Tensor(act, requires_grad=True))
                res.backward(np.ones_like(res.data))

            out["nn.batchnorm_s"] = _best_of(batchnorm)

    opt = SGD(model.parameters(), lr=cfg.lr, momentum=cfg.momentum, weight_decay=cfg.weight_decay)

    def train_step():
        model.zero_grad()
        F.cross_entropy(model(Tensor(x)), y).backward()
        opt.step()

    out["nn.train_step_s"] = _best_of(train_step)
    out["nn.sgd_step_s"] = _best_of(opt.step)  # gradients left by the last train_step
    return out


def _batched_step_speedup(algo: Any, x: np.ndarray, y: np.ndarray) -> float:
    """K serial one-step local passes ÷ one stacked K-client step (base =
    serial), K = ``STEP_SPEEDUP_CLIENTS``, every client on the same batch."""
    from repro.data.dataset import ArrayDataset
    from repro.fl.trainer import LocalTrainer, train_stacked
    from repro.nn.batched import build_stacked

    cfg = algo.cfg
    template = algo.model_fn()
    k = STEP_SPEEDUP_CLIENTS
    stacked = build_stacked(template, k)
    if stacked is None:
        return 0.0
    state = algo.global_model.state_dict()
    shard = ArrayDataset(x, y)
    trainers = [
        LocalTrainer(shard, batch_size=len(y), lr=cfg.lr, momentum=cfg.momentum, seed=i)
        for i in range(k)
    ]

    def serial():
        for trainer in trainers:
            template.load_state_dict(state)
            trainer.train(template, 1)

    def batched():
        stacked.load_client_states([state] * k)
        train_stacked(stacked, trainers, 1)

    return _best_of(serial) / _best_of(batched)


def run_probes(
    algo: Any, history: Any, accepted: list, workdir: pathlib.Path
) -> "dict[str, float]":
    """All probe metrics for one finished run. ``accepted`` is the last
    round's aggregated updates (their ``received`` states feed the robust
    probe); ``workdir`` takes the checkpoint file."""
    from repro.fl.checkpoint import load_run_checkpoint, save_run_checkpoint
    from repro.fl.compression import make_codec
    from repro.fl.robust import parse_defense
    from repro.nn.serialization import dumps_state_dict, loads_state_dict, state_dict_num_bytes

    cfg = algo.cfg
    # One training mini-batch at the workload's shape, from the public set
    # (a lazy federation would have to materialise a client shard).
    px, py = algo.fed.server_public.arrays()
    x, y = px[: cfg.batch_size], py[: cfg.batch_size]

    out = _nn_probes(algo, x, y)
    out["batched.step_speedup"] = _batched_step_speedup(algo, x, y)

    # runtime.executors: what the persistent pool pickles every round
    work = functools.partial(algo.client_work, 0)
    out["executors.snapshot_pickle_s"] = _best_of(
        lambda: pickle.dumps(work, protocol=pickle.HIGHEST_PROTOCOL)
    )
    out["executors.snapshot_bytes"] = float(
        len(pickle.dumps(work, protocol=pickle.HIGHEST_PROTOCOL))
    )

    # nn.serialization: the wire format of one model transfer
    state = algo.global_model.state_dict()
    wire = dumps_state_dict(state)
    out["serialization.dumps_s"] = _best_of(lambda: dumps_state_dict(state))
    out["serialization.loads_s"] = _best_of(lambda: loads_state_dict(wire))

    # fl.robust: a trimmed mean over what the last round aggregated
    states = [u.received["state"] for u in accepted[:32]]
    trimmed = parse_defense("trimmed=0.2")
    out["robust.trimmed_combine_s"] = _best_of(
        lambda: trimmed.combine(states, [1.0] * len(states), reference=state)
    )

    # fl.checkpoint: the full run state, as run(checkpoint_dir=...) writes it
    ckpt = algo.make_checkpoint(history, cfg.rounds)
    path = workdir / "probe.ckpt"
    out["checkpoint.save_s"] = _best_of(lambda: save_run_checkpoint(ckpt, path))
    out["checkpoint.load_s"] = _best_of(lambda: load_run_checkpoint(path))
    out["checkpoint.bytes"] = float(path.stat().st_size)

    # fl.compression: the q8 wire codec on the same state
    codec = make_codec("q8")
    packed = codec.compress(state)
    out["compression.q8_encode_s"] = _best_of(lambda: codec.compress(state))
    out["compression.q8_decode_s"] = _best_of(lambda: codec.decompress(packed))
    out["compression.q8_ratio"] = state_dict_num_bytes(packed) / state_dict_num_bytes(state)
    return out
