"""Verification-service and alarm-history tests."""

import pytest

from repro.core import AlarmHistory, VerificationService
from repro.core.labeling import label_alarms
from repro.core.verification import ALARM_FEATURES
from repro.datasets import SitasysGenerator
from repro.errors import ConfigurationError
from repro.ml import FeaturePipeline, LogisticRegression, RandomForestClassifier
from repro.risk import RiskModel
from repro.storage import DocumentStore

CATS = ["location", "property_type", "alarm_type", "hour_of_day",
        "day_of_week", "sensor_type", "software_version"]


@pytest.fixture(scope="module")
def generator():
    return SitasysGenerator(num_devices=100, seed=11)


@pytest.fixture(scope="module")
def alarms(generator):
    return generator.generate(1200)


@pytest.fixture(scope="module")
def service(alarms):
    labeled = label_alarms(alarms, 60.0)
    pipe = FeaturePipeline(LogisticRegression(max_iter=120), CATS)
    pipe.fit([l.features() for l in labeled], [l.is_false for l in labeled])
    return VerificationService(pipe)


class TestVerificationService:
    def test_verify_single_alarm(self, service, alarms):
        verification = service.verify(alarms[0])
        assert verification.alarm == alarms[0]
        assert 0.0 <= verification.probability_false <= 1.0
        assert verification.probability_true == pytest.approx(
            1.0 - verification.probability_false
        )

    def test_classification_matches_probability(self, service, alarms):
        for verification in service.verify_batch(alarms[:50]):
            assert verification.is_false == (verification.probability_false >= 0.5)

    def test_confidence_is_max_probability(self, service, alarms):
        verification = service.verify(alarms[0])
        assert verification.confidence >= 0.5

    def test_batch_accuracy_is_reasonable(self, service, alarms):
        labeled = label_alarms(alarms, 60.0)
        verifications = service.verify_batch(alarms)
        agreement = sum(
            v.is_false == l.is_false for v, l in zip(verifications, labeled)
        ) / len(alarms)
        assert agreement > 0.75  # trained on these alarms; sanity bound

    def test_empty_batch(self, service):
        assert service.verify_batch([]) == []

    def test_verified_count_accumulates(self, alarms):
        labeled = label_alarms(alarms[:200], 60.0)
        pipe = FeaturePipeline(LogisticRegression(max_iter=60), CATS)
        pipe.fit([l.features() for l in labeled], [l.is_false for l in labeled])
        svc = VerificationService(pipe)
        svc.verify_batch(alarms[:10])
        svc.verify(alarms[10])
        assert svc.verified_count == 11

    def test_risk_enriched_service(self, generator, alarms):
        risk = RiskModel({"SomeCity": 10}, {"SomeCity": 1000})
        labeled = label_alarms(alarms[:300], 60.0)
        pipe = FeaturePipeline(
            LogisticRegression(max_iter=60), CATS, numeric_features=["risk"]
        )
        records = [
            l.features(risk=risk.absolute(a.locality))
            for l, a in zip(labeled, alarms)
        ]
        pipe.fit(records, [l.is_false for l in labeled])
        svc = VerificationService(pipe, risk_model=risk, risk_kind="absolute")
        verification = svc.verify(alarms[0])
        assert 0.0 <= verification.probability_false <= 1.0

    def test_invalid_risk_kind_raises(self, service):
        with pytest.raises(ConfigurationError):
            VerificationService(service.pipeline, risk_kind="cubic")

    def test_forest_verdicts_do_not_depend_on_batch_size(self):
        """One whole-window call and per-alarm calls agree bit for bit.

        The bench-sized forest (30 trees, depth 25, ordinal encoding) on a
        seed whose window holds probability-0.5 ties: a verdict at a tie
        flips on the last bit of the mean, so this pins exact equality.
        """
        alarms = SitasysGenerator(num_devices=300, seed=2).generate(1200)
        labeled = label_alarms(alarms[:800], 60.0)
        pipe = FeaturePipeline(
            RandomForestClassifier(n_estimators=30, max_depth=25, random_state=2),
            categorical_features=ALARM_FEATURES, encoding="ordinal",
        )
        pipe.fit([l.features() for l in labeled], [l.is_false for l in labeled])
        service = VerificationService(pipe)
        window = alarms[800:]
        whole = service.verify_batch(window)
        single = [service.verify(alarm) for alarm in window]
        assert any(v.probability_false == 0.5 for v in whole)
        assert [(v.is_false, v.probability_false) for v in whole] == [
            (v.is_false, v.probability_false) for v in single
        ]


class TestAlarmHistory:
    def test_record_and_count(self, alarms):
        history = AlarmHistory()
        history.record(alarms[0])
        history.record_batch(alarms[1:10])
        assert len(history) == 10

    def test_indexes_created(self):
        history = AlarmHistory()
        assert set(history.collection.index_fields()) == {"device_address", "timestamp"}

    def test_device_histogram_counts(self, alarms):
        history = AlarmHistory()
        history.record_batch(alarms[:100])
        devices = sorted({a.device_address for a in alarms[:100]})
        histogram = history.device_histogram(devices)
        assert sum(histogram.values()) == 100

    def test_device_histogram_since(self, alarms):
        history = AlarmHistory()
        history.record_batch(alarms[:100])
        timestamps = sorted(a.timestamp for a in alarms[:100])
        cutoff = timestamps[50]
        devices = sorted({a.device_address for a in alarms[:100]})
        histogram = history.device_histogram(devices, since=cutoff)
        expected = sum(1 for a in alarms[:100] if a.timestamp >= cutoff)
        assert sum(histogram.values()) == expected

    def test_histogram_unknown_device_is_zero(self):
        history = AlarmHistory()
        assert history.device_histogram(["ghost"]) == {"ghost": 0}

    def test_alarms_by_zip(self, alarms):
        history = AlarmHistory()
        history.record_batch(alarms[:200])
        by_zip = history.alarms_by_zip()
        assert sum(by_zip.values()) == 200
        fire_only = history.alarms_by_zip(alarm_types=["fire"])
        assert sum(fire_only.values()) == sum(
            1 for a in alarms[:200] if a.alarm_type == "fire"
        )

    def test_hourly_profile(self, alarms):
        history = AlarmHistory()
        history.record_batch(alarms[:100])
        device = alarms[0].device_address
        profile = history.hourly_profile(device)
        expected = sum(1 for a in alarms[:100] if a.device_address == device)
        assert sum(profile.values()) == expected

    def test_recent_sorted_newest_first(self, alarms):
        history = AlarmHistory()
        history.record_batch(alarms[:50])
        recent = history.recent(since=0.0, limit=10)
        timestamps = [a.timestamp for a in recent]
        assert timestamps == sorted(timestamps, reverse=True)
        assert len(recent) == 10

    def test_history_with_shared_store(self, alarms):
        store = DocumentStore()
        history = AlarmHistory(store=store)
        history.record(alarms[0])
        assert len(store.collection("alarms")) == 1
