"""Resource-aware multi-model planning."""

import pytest

from repro.core.resource import local_model_builders, plan_multi_model


class TestPlan:
    def test_paper_scale_assignment_covers_tiers(self):
        plan = plan_multi_model(30, width_mult=1.0, seed=0)
        counts = plan.count_by_model()
        # with uniform tiers all three models should appear
        assert set(counts) == {"resnet-20", "resnet-32", "resnet-44"}
        assert sum(counts.values()) == 30

    def test_sizes_are_ordered(self):
        plan = plan_multi_model(5, width_mult=1.0, seed=0)
        assert plan.sizes_mb["resnet-20"] < plan.sizes_mb["resnet-32"] < plan.sizes_mb["resnet-44"]

    def test_scaled_width_autoscales_memory(self):
        """At reduced width the tier budgets rescale so the fit pattern of
        the paper-scale plan is preserved."""
        plan = plan_multi_model(30, width_mult=0.25, image_size=8, seed=0)
        assert set(plan.count_by_model()) == {"resnet-20", "resnet-32", "resnet-44"}

    def test_every_assignment_fits(self):
        plan = plan_multi_model(20, width_mult=1.0, seed=3)
        for prof, name in zip(plan.profiles, plan.assignment):
            assert plan.sizes_mb[name] <= prof.memory_mb

    def test_deterministic(self):
        a = plan_multi_model(10, width_mult=1.0, seed=5)
        b = plan_multi_model(10, width_mult=1.0, seed=5)
        assert a.assignment == b.assignment


class TestBuilders:
    def test_one_builder_per_client(self):
        plan = plan_multi_model(6, width_mult=0.125, image_size=8, seed=0)
        builders = local_model_builders(plan, image_size=8, width_mult=0.125, seed=0)
        assert len(builders) == 6
        models = [b() for b in builders]
        # each built model matches its assigned architecture's depth
        for m, name in zip(models, plan.assignment):
            depth = int(name.split("-")[1])
            assert m.depth == depth

    def test_builders_pickle(self):
        # a FedKEMF holding them must ship to the run-long worker pool
        import pickle

        plan = plan_multi_model(3, width_mult=0.125, image_size=8, seed=0)
        builders = local_model_builders(plan, image_size=8, width_mult=0.125, seed=0)
        for name, clone in zip(plan.assignment, pickle.loads(pickle.dumps(builders))):
            assert clone().depth == int(name.split("-")[1])

    def test_builders_use_distinct_seeds(self):
        import numpy as np

        plan = plan_multi_model(4, width_mult=0.125, image_size=8, seed=0)
        builders = local_model_builders(plan, image_size=8, width_mult=0.125, seed=0)
        same_arch = [
            (i, j)
            for i in range(4)
            for j in range(i + 1, 4)
            if plan.assignment[i] == plan.assignment[j]
        ]
        for i, j in same_arch:
            mi, mj = builders[i](), builders[j]()
            pi = next(iter(mi.parameters())).data
            pj = next(iter(mj.parameters())).data
            assert not np.allclose(pi, pj)
