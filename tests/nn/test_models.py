"""Model zoo: shapes, parameter counts, determinism, factory behavior."""

import numpy as np
import pytest

from repro.nn.models import (
    CNN2Layer,
    MLP,
    CifarResNet,
    VGG,
    build_model,
    default_knowledge_network,
    model_payload_mb,
    resnet20,
    resnet32,
    resnet44,
    vgg11,
    MODEL_REGISTRY,
)
from repro.nn.serialization import dumps_state_dict
from repro.nn.tensor import Tensor

from tests.helpers import rand_t


def image(n=2, c=3, s=16, seed=0):
    return rand_t((n, c, s, s), seed=seed, requires_grad=False)


class TestResNet:
    @pytest.mark.parametrize("depth,params", [(20, 272_474), (32, 466_906), (44, 661_338)])
    def test_paper_scale_param_counts(self, depth, params):
        """Parameter counts must match the CIFAR ResNet family (these drive
        the 2.1/3.2 MB round costs in Tables 1–2)."""
        m = CifarResNet(depth=depth, seed=0)
        assert m.num_parameters() == params

    def test_payload_mb_matches_paper_roundcost(self):
        # paper: 2.1 MB per round per client = up + down of ~1.05 MB fp32
        m = resnet20(seed=0)
        assert 1.0 < model_payload_mb(m) < 1.15
        assert 1.05e6 < len(dumps_state_dict(m.state_dict())) < 1.15e6  # on the wire

    def test_forward_shape(self):
        m = resnet20(seed=0, width_mult=0.25)
        assert m(image(s=16)).shape == (2, 10)

    @pytest.mark.parametrize("size", [8, 16, 32])
    def test_input_sizes(self, size):
        m = resnet20(seed=0, width_mult=0.125)
        assert m(image(s=size)).shape == (2, 10)

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            CifarResNet(depth=21)

    def test_deterministic_by_seed(self):
        a, b = resnet20(seed=5, width_mult=0.125), resnet20(seed=5, width_mult=0.125)
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_size_ordering(self):
        sizes = [resnet20(seed=0).num_parameters(), resnet32(seed=0).num_parameters(), resnet44(seed=0).num_parameters()]
        assert sizes == sorted(sizes)

    def test_backward_reaches_all_params(self):
        m = resnet20(seed=0, width_mult=0.125)
        out = m(image(s=8))
        out.sum().backward()
        assert all(p.grad is not None for p in m.parameters())


class TestVGG:
    def test_paper_scale_params(self):
        m = vgg11(seed=0)
        assert 9.0e6 < m.num_parameters() < 9.5e6  # ~9.23M, the 37/42 MB row
        # the static quantity behind Table 1: paper 42 MB vs 2.1 MB per round
        # (20x); fp32 payloads give ~33x
        assert m.num_bytes() / resnet20(seed=0).num_bytes() > 15

    def test_forward_paper_size(self):
        m = vgg11(seed=0, width_mult=0.125)
        assert m(image(s=32)).shape == (2, 10)

    def test_small_image_skips_pools(self):
        m = vgg11(seed=0, width_mult=0.125, image_size=8)
        assert m(image(s=8)).shape == (2, 10)

    def test_unknown_config(self):
        with pytest.raises(ValueError):
            VGG(config="vgg99")

    def test_dropout_head(self):
        m = VGG(num_classes=10, width_mult=0.125, image_size=8, dropout=0.5, seed=0)
        m.train()
        assert m(image(s=8)).shape == (2, 10)


class TestCNNAndMLP:
    def test_cnn_mnist_shape(self):
        m = CNN2Layer(seed=0, width_mult=0.25)
        x = rand_t((2, 1, 28, 28), requires_grad=False)
        assert m(x).shape == (2, 10)

    def test_cnn_odd_size_skips_pool(self):
        m = CNN2Layer(image_size=7, width_mult=0.25, seed=0)
        x = rand_t((2, 1, 7, 7), requires_grad=False)
        assert m(x).shape == (2, 10)

    def test_mlp(self):
        m = MLP(16, num_classes=3, hidden=(8, 8), seed=0)
        assert m(rand_t((4, 16), requires_grad=False)).shape == (4, 3)

    def test_mlp_flattens_images(self):
        m = MLP(3 * 8 * 8, num_classes=10, seed=0)
        assert m(image(s=8)).shape == (2, 10)


class TestFactory:
    @pytest.mark.parametrize("name", ["resnet-20", "resnet-32", "resnet-44", "vgg-11", "cnn-2", "mlp"])
    def test_build_all(self, name):
        c = 1 if name in ("cnn-2", "mlp") else 3
        m = build_model(name, in_channels=c, image_size=8, width_mult=0.25, seed=0)
        x = rand_t((2, c, 8, 8), requires_grad=False)
        assert m(x).shape == (2, 10)

    def test_alias_and_case_insensitive(self):
        assert build_model("ResNet-20", width_mult=0.125, seed=0).num_parameters() == \
            build_model("resnet20", width_mult=0.125, seed=0).num_parameters()

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            build_model("alexnet")

    def test_registry_lists_names(self):
        names = MODEL_REGISTRY.names()
        assert "resnet-20" in names and "vgg-11" in names


class TestKnowledgeDefaults:
    def test_cifar_default_is_resnet20(self):
        m = default_knowledge_network("cifar10", width_mult=1.0)
        assert m.num_parameters() == 272_474

    def test_mnist_default_is_cnn2(self):
        m = default_knowledge_network("mnist", in_channels=1, image_size=28, width_mult=0.25)
        assert isinstance(m, CNN2Layer)

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            default_knowledge_network("imagenet")
