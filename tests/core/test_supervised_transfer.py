"""Supervised baselines and the transfer workflow."""

import numpy as np
import pytest

from repro.core.semisupervised import ClusterFormatSelector
from repro.core.supervised import SUPERVISED_MODELS, SupervisedFormatSelector
from repro.core.transfer import (
    RETRAIN_FRACTIONS,
    _retrain_mask,
    mixed_labels,
    transfer_semisupervised,
    transfer_supervised,
    transfer_training_set,
)
from repro.ml.base import NotFittedError
from repro.ml.model_selection import train_test_split


class TestSupervisedFormatSelector:
    @pytest.mark.parametrize("model", sorted(SUPERVISED_MODELS))
    def test_fit_predict_all_models(self, model, tiny_data):
        ds = tiny_data.datasets["volta"]
        clf = SupervisedFormatSelector(model, seed=0)
        clf.fit(ds.X, ds.labels)
        pred = clf.predict(ds.X)
        assert pred.shape == ds.labels.shape
        assert np.mean(pred == ds.labels) > 0.7  # training accuracy

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            SupervisedFormatSelector("MLP")

    def test_not_fitted(self, tiny_data):
        with pytest.raises(NotFittedError):
            SupervisedFormatSelector("DT").predict(
                tiny_data.datasets["volta"].X
            )


class TestRetrainMask:
    def test_zero_fraction_empty(self):
        y = np.array(["a"] * 10, dtype=object)
        assert not _retrain_mask(10, 0.0, y, seed=0).any()

    def test_fraction_sizes_stratified(self):
        y = np.array(["a"] * 80 + ["b"] * 20, dtype=object)
        mask = _retrain_mask(100, 0.25, y, seed=0)
        assert mask.sum() == 25
        assert mask[:80].sum() == 20 and mask[80:].sum() == 5

    def test_mixed_labels_replacement(self):
        src = np.array(["a", "a", "a"], dtype=object)
        tgt = np.array(["b", "b", "b"], dtype=object)
        mask = np.array([True, False, True])
        out = mixed_labels(src, tgt, mask)
        np.testing.assert_array_equal(out, ["b", "a", "b"])
        # Input untouched.
        np.testing.assert_array_equal(src, ["a", "a", "a"])


class TestTransferTrainingSet:
    def test_concatenation_grows_with_fraction(self, tiny_data):
        src = tiny_data.common["pascal"]
        tgt = tiny_data.common["volta"]
        train_idx = np.arange(len(src))
        m0 = _retrain_mask(len(src), 0.0, src.labels, 0)
        m50 = _retrain_mask(len(src), 0.5, src.labels, 0)
        X0, y0 = transfer_training_set(src, tgt, train_idx, m0)
        X50, y50 = transfer_training_set(src, tgt, train_idx, m50)
        assert X0.shape[0] == len(src)
        assert X50.shape[0] > X0.shape[0]
        assert y50.shape[0] == X50.shape[0]


class TestTransferEvaluation:
    def _split(self, ds, seed=0):
        return train_test_split(len(ds), 0.3, y=ds.labels, seed=seed)

    def test_supervised_transfer_scores(self, tiny_data):
        src = tiny_data.common["pascal"]
        tgt = tiny_data.common["volta"]
        train, test = self._split(src)
        scores = transfer_supervised("DT", src, tgt, train, test, 0.0)
        assert 0.0 <= scores.accuracy <= 1.0
        assert scores.speedups is not None
        assert scores.speedups.gt_speedup <= 1.0 + 1e-12

    def test_semisupervised_transfer_scores(self, tiny_data):
        src = tiny_data.common["pascal"]
        tgt = tiny_data.common["turing"]
        train, test = self._split(src)
        sel = ClusterFormatSelector("kmeans", "vote", 10, seed=0)
        scores = transfer_semisupervised(
            sel, src, tgt, train, test, 0.25, with_speedups=True
        )
        assert 0.0 <= scores.accuracy <= 1.0
        assert -1.0 <= scores.mcc <= 1.0

    def test_retraining_not_harmful_on_average(self, tiny_data):
        # Across fractions, 50% target data should not be much worse than
        # 0% (it usually helps; tiny data makes strict monotonicity noisy).
        src = tiny_data.common["volta"]
        tgt = tiny_data.common["pascal"]
        train, test = self._split(src)
        acc = {
            f: transfer_supervised(
                "RF", src, tgt, train, test, f, seed=1
            ).accuracy
            for f in RETRAIN_FRACTIONS
        }
        assert acc[0.5] >= acc[0.0] - 0.1

    def test_identical_arch_transfer_is_local(self, tiny_data):
        # Transferring volta->volta at 0% equals local training.
        src = tiny_data.common["volta"]
        train, test = self._split(src)
        scores = transfer_supervised("DT", src, src, train, test, 0.0)
        clf = SupervisedFormatSelector("DT", seed=0)
        clf.fit(src.X[train], src.labels[train])
        pred = clf.predict(src.X[test])
        assert scores.accuracy == pytest.approx(
            np.mean(pred == src.labels[test])
        )

    def test_supervised_transfer_is_spanned_and_unchanged_by_tracing(
        self, tiny_data
    ):
        from repro.obs import TELEMETRY

        src = tiny_data.common["pascal"]
        tgt = tiny_data.common["volta"]
        train, test = self._split(src)
        plain = transfer_supervised("RF", src, tgt, train, test, 0.25, seed=2)
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            traced = transfer_supervised(
                "RF", src, tgt, train, test, 0.25, seed=2
            )
            events = TELEMETRY.tracer.events()
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        assert traced == plain
        by_id = {e["args"]["id"]: e for e in events}
        root = next(e for e in events if e["name"] == "transfer.supervised")
        assert root["args"]["model"] == "RF"
        fits = [e for e in events if e["name"] == "ml.fit"]
        assert len(fits) == 1
        assert fits[0]["args"]["model"] == "RF"
        assert by_id[fits[0]["args"]["parent"]] is root
        # One span per selector call, none per tree.
        assert {e["name"] for e in events} == {
            "transfer.supervised", "ml.fit", "ml.predict",
        }

    def test_misaligned_datasets_rejected(self, tiny_data):
        src = tiny_data.common["pascal"]
        tgt = tiny_data.common["volta"].subset(list(range(len(src) - 1)))
        with pytest.raises(ValueError):
            transfer_supervised(
                "DT", src, tgt, np.arange(3), np.arange(3, 6), 0.0
            )
