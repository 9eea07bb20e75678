#!/usr/bin/env python3
"""Deployment planning with the system model: FLOPs, latency, stragglers.

A deployment engineer's view of the paper's resource-aware argument. Given
a simulated heterogeneous fleet, this example

1. measures each zoo model's exact per-image FLOPs with the instrumented
   engine (``repro.nn.profiler``);
2. compares synchronous-round latency of a uniform large-model deployment
   vs the resource-matched multi-model plan;
3. shows what wire compression adds on top of FedKEMF's structural saving.

Run:  python examples/system_planning.py
"""

import math

from repro.core.resource import local_model_builders, plan_multi_model
from repro.fl.compression import make_codec
from repro.nn.models import build_model
from repro.nn.profiler import flops_forward
from repro.nn.serialization import dumps_state_dict, state_dict_num_bytes
from repro.runtime.clock import VirtualClock

IMAGE = 8
WIDTH = 0.25
CLIENTS = 9


def main() -> None:
    print("=== per-image forward FLOPs (measured, not estimated) ===")
    for name in ("resnet-20", "resnet-32", "resnet-44", "vgg-11", "cnn-2"):
        c = 3
        m = build_model(name, in_channels=c, image_size=IMAGE, width_mult=WIDTH, seed=0)
        f = flops_forward(m, (1, c, IMAGE, IMAGE))
        print(f"  {name:10s} {f/1e6:8.2f} MFLOPs   {m.num_parameters():>9,} params")

    print("\n=== synchronous round latency: uniform vs resource-matched ===")
    plan = plan_multi_model(CLIENTS, image_size=IMAGE, width_mult=WIDTH, seed=0)
    payload = len(
        dumps_state_dict(
            build_model("resnet-20", image_size=IMAGE, width_mult=WIDTH, seed=0).state_dict()
        )
    )
    # full participation: 100 samples per client, batch 20, 2 local epochs
    steps = [math.ceil(100 / 20) * 2] * CLIENTS
    clock = VirtualClock(plan.profiles, (20, 3, IMAGE, IMAGE))
    uniform = clock.round_timing(
        [build_model("resnet-44", image_size=IMAGE, width_mult=WIDTH, seed=s) for s in range(CLIENTS)],
        steps,
        2 * payload,
    )
    matched = clock.round_timing(
        [fn() for fn in local_model_builders(plan, image_size=IMAGE, width_mult=WIDTH, seed=0)],
        steps,
        2 * payload,
    )
    print(f"  fleet mix: {plan.count_by_model()}")
    print(f"  uniform resnet-44 : straggler {uniform.straggler_s:6.2f}s  utilization {uniform.utilization:.2f}")
    print(f"  resource-matched  : straggler {matched.straggler_s:6.2f}s  utilization {matched.utilization:.2f}")
    print(f"  speed-up: {uniform.straggler_s / matched.straggler_s:.2f}x per round")

    print("\n=== wire payload: structural + representational savings ===")
    vgg_state = build_model("vgg-11", image_size=IMAGE, width_mult=0.125, seed=0).state_dict()
    know_state = build_model("resnet-20", image_size=IMAGE, width_mult=WIDTH, seed=0).state_dict()
    rows = [
        ("FedAvg ships VGG-11 fp32", state_dict_num_bytes(vgg_state)),
        ("FedKEMF ships knowledge net fp32", state_dict_num_bytes(know_state)),
        ("  + fp16 codec", state_dict_num_bytes(make_codec("fp16").compress(know_state))),
        ("  + q8 codec", state_dict_num_bytes(make_codec("q8").compress(know_state))),
    ]
    base = rows[0][1]
    for label, nbytes in rows:
        print(f"  {label:34s} {nbytes/1e3:9.1f} KB   ({base/nbytes:5.1f}x less than baseline)")


if __name__ == "__main__":
    main()
