"""Server-side distillation (Eq. 4)."""

import numpy as np
import pytest

from repro.core.distill import DistillConfig, distill_from_teacher_logits, distill_to_student
from repro.core.ensemble import member_logits
from repro.data.synthetic import make_blobs
from repro.fl.metrics import evaluate_model
from repro.fl.trainer import LocalTrainer
from repro.nn.models import MLP


@pytest.fixture(scope="module")
def trained_teacher():
    tr = make_blobs(300, num_classes=4, dim=8, separation=4.0, seed=0)
    t = MLP(8, 4, hidden=(16,), seed=0)
    LocalTrainer(tr, batch_size=32, lr=0.05, seed=0).train(t, epochs=8)
    return t, tr


class TestDistillation:
    def test_student_approaches_teacher(self, trained_teacher):
        teacher, tr = trained_teacher
        te = make_blobs(120, num_classes=4, dim=8, separation=4.0, seed=1)
        pub = make_blobs(300, num_classes=4, dim=8, separation=4.0, seed=2)
        t_acc = evaluate_model(teacher, te)[0]
        student = MLP(8, 4, hidden=(16,), seed=9)
        s_before = evaluate_model(student, te)[0]
        tl = member_logits(teacher, pub.x)
        distill_from_teacher_logits(
            student, tl, pub.x, DistillConfig(epochs=20, lr=5e-3, seed=0)
        )
        s_after = evaluate_model(student, te)[0]
        assert s_after > s_before + 0.2
        assert s_after > t_acc - 0.15  # close to the teacher

    def test_loss_decreases_over_epochs(self, trained_teacher):
        teacher, _ = trained_teacher
        pub = make_blobs(200, num_classes=4, dim=8, seed=3)
        tl = member_logits(teacher, pub.x)
        s1 = MLP(8, 4, hidden=(16,), seed=9)
        s20 = MLP(8, 4, hidden=(16,), seed=9)
        l1 = distill_from_teacher_logits(s1, tl, pub.x, DistillConfig(epochs=1, lr=5e-3, seed=0))
        l20 = distill_from_teacher_logits(s20, tl, pub.x, DistillConfig(epochs=20, lr=5e-3, seed=0))
        assert l20 < l1

    def test_labels_never_used(self, trained_teacher):
        """Distillation must be unlabeled: scrambling labels changes nothing."""
        teacher, _ = trained_teacher
        pub = make_blobs(100, num_classes=4, dim=8, seed=4)
        tl = member_logits(teacher, pub.x)
        sa = MLP(8, 4, seed=5)
        sb = MLP(8, 4, seed=5)
        cfg = DistillConfig(epochs=2, lr=1e-3, seed=0)
        distill_to_student(sa, tl, pub, cfg)
        pub.y[...] = 0  # scramble
        distill_to_student(sb, tl, pub, cfg)
        for (_, p1), (_, p2) in zip(sa.named_parameters(), sb.named_parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_teacher_size_mismatch(self):
        with pytest.raises(ValueError):
            distill_from_teacher_logits(
                MLP(8, 4, seed=0), np.zeros((5, 4)), np.zeros((6, 8), dtype=np.float32),
                DistillConfig(),
            )

    def test_deterministic(self, trained_teacher):
        teacher, _ = trained_teacher
        pub = make_blobs(80, num_classes=4, dim=8, seed=9)
        tl = member_logits(teacher, pub.x)
        sa, sb = MLP(8, 4, seed=3), MLP(8, 4, seed=3)
        cfg = DistillConfig(epochs=3, lr=2e-3, seed=11)
        la = distill_from_teacher_logits(sa, tl, pub.x, cfg)
        lb = distill_from_teacher_logits(sb, tl, pub.x, cfg)
        assert la == lb
