import math

import numpy as np
import pytest

from fedvem.metrics import (RoundReport, accuracy, read_report, sem,
                            stats_snapshot, write_client_csv, write_report)
from fedvem.nn import forward_base, head_logits, init_mlp, unflatten_head
from fedvem.variational import VariationalPosterior


def sample_report(round=0, pm=(0.5, None, 1.0)):
    return RoundReport(round=round, gm_accuracy=0.75,
                       client_ids=[0, 1, 2], client_sizes=[10, 20, 30],
                       pm_accuracies=list(pm),
                       confidence_ratios=[0.2, 0.3, 0.5],
                       model_deviations=[0.0, 0.1, 0.2],
                       reporter_count=2)


def test_accuracy_counts_argmax_matches():
    params = init_mlp(3, (4,), 2, np.random.default_rng(0))
    x = np.random.default_rng(1).standard_normal((8, 3))
    from fedvem.nn import forward
    preds = forward(params, x).argmax(axis=1)
    y = preds.copy()
    y[:2] = 1 - y[:2]  # corrupt two labels
    assert accuracy(params, x, y) == pytest.approx(6 / 8)


def test_evaluate_pm_matches_manual_forward():
    params = init_mlp(4, (5,), 3, np.random.default_rng(2))
    x = np.random.default_rng(3).standard_normal((10, 4))
    y = np.random.default_rng(4).integers(0, 3, size=10)
    # PM and GM evaluation score a flat head on base features
    logits = head_logits(forward_base(params[:-1], x), params[-1])
    assert float((logits.argmax(axis=1) == y).mean()) == accuracy(params, x, y)


def test_evaluate_pm_rejects_incompatible_head():
    # 17 is no multiple of width + 1 = 6
    with pytest.raises(ValueError, match="incompatible"):
        unflatten_head(np.zeros(17), 5)
    with pytest.raises(ValueError, match="incompatible"):
        unflatten_head(np.zeros(0), 5)   # zero classes


def test_stats_snapshot_hand_case():
    class C:
        def __init__(self, tau, mu):
            self.tau = tau
            self.posterior = VariationalPosterior(mu=np.asarray(mu, float),
                                                  pi=np.zeros(2))
    w = np.zeros(2)
    clients = [C(1.0, [1.0, 1.0]), C(3.0, [0.0, 2.0])]
    ratios, devs = stats_snapshot(clients, w)
    np.testing.assert_allclose(ratios, [0.25, 0.75])
    np.testing.assert_allclose(devs, [1.0, 2.0])


def test_mean_pm_skips_empty_test_sets():
    rep = sample_report(pm=(0.5, None, 1.0))
    assert rep.mean_pm() == pytest.approx(0.75)
    assert math.isnan(sample_report(pm=(None, None, None)).mean_pm())


def test_sem_values():
    assert sem([1.0]) == 0.0
    assert sem([1.0, 3.0]) == pytest.approx(1.0)
    assert sem([2.0, 4.0, 6.0, 8.0]) == pytest.approx(
        np.std([2, 4, 6, 8], ddof=1) / 2)


def test_report_roundtrip(tmp_path):
    reports = [sample_report(round=0), sample_report(round=1)]
    path = tmp_path / "run.jsonl"
    write_report(reports, path, summary={"mean_pm": 0.75, "seeds": [0, 1]})
    rounds, summaries = read_report(path)
    assert [r.round for r in rounds] == [0, 1]
    assert rounds[0] == reports[0]
    assert summaries == [{"type": "summary", "mean_pm": 0.75, "seeds": [0, 1]}]


def test_report_lines_are_json_objects(tmp_path):
    import json
    path = tmp_path / "run.jsonl"
    write_report([sample_report()], path)
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        assert rec["type"] == "round"


def test_to_record_serializes_like_asdict():
    import json
    from dataclasses import asdict, replace
    for rep in [sample_report(), sample_report(pm=(None, None, None)),
                replace(sample_report(), gm_accuracy=float("nan"),
                        no_reporters=True)]:
        assert (json.dumps(rep.to_record())
                == json.dumps({"type": "round", **asdict(rep)}))


def test_client_csv_format_and_precision(tmp_path):
    rep = sample_report(pm=(1 / 3, None, 1.0))
    path = tmp_path / "clients.csv"
    write_client_csv(path, rep)
    lines = path.read_text().splitlines()
    assert lines[0] == "client_id,n_j,pm_accuracy"
    assert lines[1].split(",")[:2] == ["0", "10"]
    # full repr precision so the value survives a text roundtrip
    assert float(lines[1].split(",")[2]) == 1 / 3
    assert lines[2] == "1,20,"
