import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import fedvem
from fedvem import baselines, cli, federation
from fedvem.baselines import BaselineConfig
from fedvem.cli import main, run_experiment, run_seed
from fedvem.config import (ConfigError, build_config, load_config, parse_kv,
                           validate)
from fedvem.metrics import read_report

SMOKE = """\
# tiny synthetic run
dataset.kind = synth
dataset.classes = 3
dataset.subclasses_per_class = 2
dataset.dim = 6
dataset.points_per_subclass = 20
dataset.test_points_per_subclass = 5
partition.scenario = label_skew
partition.clients = 3
partition.labels_per_client = 2
scheme = pfedvem
model.hidden = 5
train.T = 2
train.R = 2
train.K = 2
train.eta = 0.01
train.base_lr = 0.01
train.base_epochs = 1
train.base_batch = 16
train.s = 1.0
seeds = 0
"""


def smoke_config(tmp_path, extra="", replace=None):
    text = SMOKE + extra
    if replace:
        for old, new in replace.items():
            text = text.replace(old, new)
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return path


# ------------------------------------------------------------------ parsing

def test_parse_kv_basics():
    kv = parse_kv("a.b = 1  # trailing comment\n\n# full comment\nc = two\n")
    assert kv == {"a.b": "1", "c": "two"}


def test_parse_kv_rejects_duplicates_and_garbage():
    with pytest.raises(ConfigError, match="line 2"):
        parse_kv("a = 1\na = 2\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_kv("just words\n")


def test_build_config_unknown_key():
    with pytest.raises(ConfigError, match="unknown configuration key"):
        build_config({"train.gamma": "1"})


def test_build_config_type_error_names_key():
    with pytest.raises(ConfigError, match="train.eta"):
        build_config({"train.eta": "fast"})


def test_build_config_shared_fields_have_one_home():
    cfg = build_config({"scheme": "fedprox", "model.hidden": "32,16",
                        "train.s": "0.25", "train.T": "7"})
    assert [f.name for f in fields(BaselineConfig)] == \
        ["lr", "epochs", "batch", "mu_prox"]
    assert not hasattr(cfg, "hidden")
    assert cfg.scheme == "fedprox"
    assert cfg.train.hidden == (32, 16)
    assert cfg.train.s == 0.25
    assert cfg.train.T == 7


def test_validate_reports_field_names(tmp_path):
    cfg = build_config({"dataset.kind": "fmnist", "scheme": "pfedvem",
                        "train.s": "0"})
    bad = validate(cfg, check_paths=False)
    assert any(v.startswith("dataset.train_images") for v in bad)
    assert any(v.startswith("TrainConfig.s") for v in bad)


def test_validate_clean_synth_config(tmp_path):
    cfg = load_config(smoke_config(tmp_path))
    assert validate(cfg) == []


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = sorted(CONFIGS.glob("*.cfg"))


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
def test_shipped_configs_validate(path):
    assert validate(load_config(path), check_paths=False) == []


def test_validate_fmnist_missing_paths(tmp_path):
    cfg = build_config({"dataset.kind": "fmnist",
                        "dataset.train_images": str(tmp_path / "absent"),
                        "dataset.train_labels": str(tmp_path / "absent"),
                        "dataset.test_images": str(tmp_path / "absent"),
                        "dataset.test_labels": str(tmp_path / "absent")})
    bad = validate(cfg)
    assert sum("path does not exist" in v for v in bad) == 4


# ----------------------------------------------------------------- run/CLI

def test_run_experiment_writes_reports_and_summary(tmp_path):
    cfg = load_config(smoke_config(tmp_path))
    out = tmp_path / "reports"
    summary = run_experiment(cfg, workers=1, out=str(out))
    assert (out / "seed0.jsonl").exists()
    assert (out / "seed0_clients.csv").exists()
    rounds, _ = read_report(out / "seed0.jsonl")
    assert len(rounds) == 2
    _, summaries = read_report(out / "summary.jsonl")
    assert summaries[0]["scheme"] == "pfedvem"
    assert 0.0 <= summaries[0]["mean_pm"] <= 1.0
    assert summary["seeds"] == [0]


def test_run_experiment_seed_offset(tmp_path):
    cfg = load_config(smoke_config(tmp_path))
    out = tmp_path / "reports"
    summary = run_experiment(cfg, out=str(out), seed_offset=10)
    assert summary["seeds"] == [10]
    assert (out / "seed10.jsonl").exists()


def test_run_experiment_checkpoints(tmp_path):
    cfg = load_config(smoke_config(tmp_path, extra="checkpoint_every = 1\n"))
    out = tmp_path / "reports"
    run_experiment(cfg, out=str(out))
    ckpts = sorted((out / "checkpoints_seed0").iterdir())
    assert [p.name for p in ckpts] == ["round0001.fvem", "round0002.fvem"]


def test_run_experiment_checkpoint_interval(tmp_path):
    cfg = load_config(smoke_config(tmp_path, extra="checkpoint_every = 2\n",
                                   replace={"train.T = 2": "train.T = 4"}))
    out = tmp_path / "reports"
    run_experiment(cfg, out=str(out))
    ckpts = sorted((out / "checkpoints_seed0").iterdir())
    assert [p.name for p in ckpts] == ["round0002.fvem", "round0004.fvem"]


def test_run_experiment_baseline_makes_no_checkpoint_dir(tmp_path):
    # only pFedVEM writes checkpoints
    cfg = load_config(smoke_config(
        tmp_path, extra="checkpoint_every = 1\n",
        replace={"scheme = pfedvem": "scheme = fedavg"}))
    out = tmp_path / "reports"
    run_experiment(cfg, out=str(out))
    assert (out / "seed0.jsonl").exists()
    assert not (out / "checkpoints_seed0").exists()


@pytest.mark.parametrize("scheme", ["pfedvem", "fedavg"])
def test_run_seed_clients_view_one_grouped_training_set(tmp_path, monkeypatch,
                                                        scheme):
    seen = {}
    real_update = federation.update_clients
    real_round = baselines.fedavg_round

    def update_clients(clients, *args):
        seen["rows"] = [(c.x, c.y) for c in clients]
        return real_update(clients, *args)

    def fedavg_round(theta, clients_xy, *args):
        seen["rows"] = list(clients_xy)
        return real_round(theta, clients_xy, *args)

    monkeypatch.setattr(federation, "update_clients", update_clients)
    monkeypatch.setattr(baselines, "fedavg_round", fedavg_round)
    cfg = load_config(smoke_config(
        tmp_path, replace={"scheme = pfedvem": f"scheme = {scheme}"}))
    run_seed(cfg, 0)
    xs, ys = zip(*seen["rows"])
    images, labels = xs[0].base, ys[0].base
    assert images is not None and labels is not None
    assert all(x.base is images for x in xs) and all(y.base is labels for y in ys)
    assert sum(len(x) for x in xs) == len(images) == len(labels)


@pytest.mark.parametrize("scheme", ["pfedvem", "fedavg"])
def test_run_seed_leaves_config_seeds_alone(tmp_path, scheme):
    cfg = load_config(smoke_config(
        tmp_path, replace={"scheme = pfedvem": f"scheme = {scheme}"}))
    sections = (cfg.synth, cfg.partition, cfg.train)
    before = [sec.seed for sec in sections]
    assert 3 not in before
    run_seed(cfg, 3)
    assert [sec.seed for sec in sections] == before


def test_main_run_exit_zero(tmp_path, capsys):
    path = smoke_config(tmp_path)
    code = main(["run", "--config", str(path), "--out",
                 str(tmp_path / "out"), "--workers", "1"])
    assert code == 0
    assert "scheme=pfedvem" in capsys.readouterr().out


def test_main_run_defaults_to_one_worker(tmp_path, monkeypatch):
    calls = []

    def run_experiment(cfg, **kwargs):
        calls.append(kwargs)
        return {"scheme": cfg.scheme, "mean_pm": None, "mean_gm": None}

    monkeypatch.setattr(cli, "run_experiment", run_experiment)
    assert main(["run", "--config", str(smoke_config(tmp_path))]) == 0
    assert [c["workers"] for c in calls] == [1]


def test_main_validate_ok_and_bad(tmp_path, capsys):
    good = smoke_config(tmp_path)
    assert main(["validate", "--config", str(good)]) == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text(SMOKE.replace("train.s = 1.0", "train.s = 0"))
    assert main(["validate", "--config", str(bad)]) == 2
    assert "TrainConfig.s" in capsys.readouterr().out


@pytest.mark.parametrize("scheme", ["pfedvem", "fedavg", "fedprox", "local"])
@pytest.mark.parametrize("old,new,field", [
    ("train.T = 2", "train.T = -3", "TrainConfig.T"),
    ("model.hidden = 5", "model.hidden = 0", "TrainConfig.hidden"),
    ("model.hidden = 5", "model.hidden =", "TrainConfig.hidden"),
])
def test_main_validate_reports_bad_value_once(tmp_path, capsys, scheme, old,
                                              new, field):
    path = smoke_config(tmp_path, extra="baseline.mu_prox = 0.1\n",
                        replace={"scheme = pfedvem": f"scheme = {scheme}",
                                 old: new})
    assert main(["validate", "--config", str(path)]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith(field), lines


def test_validate_fedprox_needs_positive_mu(tmp_path):
    cfg = load_config(smoke_config(
        tmp_path, replace={"scheme = pfedvem": "scheme = fedprox"}))
    bad = validate(cfg)
    assert len(bad) == 1 and bad[0].startswith("baseline.mu_prox"), bad
    cfg = load_config(smoke_config(
        tmp_path, replace={"scheme = pfedvem": "scheme = fedavg"}))
    assert validate(cfg) == []


@pytest.mark.parametrize("scheme,reached", [("fedprox", True),
                                            ("fedavg", False)])
def test_run_seed_proximal_term_follows_scheme(tmp_path, monkeypatch, scheme,
                                               reached):
    calls = []
    real = baselines.proximal_grads

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(baselines, "proximal_grads", counting)
    cfg = load_config(smoke_config(
        tmp_path, extra="baseline.mu_prox = 0.1\n",
        replace={"scheme = pfedvem": f"scheme = {scheme}"}))
    assert validate(cfg) == []
    run_seed(cfg, 0)
    assert bool(calls) == reached


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_main_rejects_worker_count_below_one(tmp_path, capsys, workers):
    out = tmp_path / "out"
    assert main(["run", "--config", str(smoke_config(tmp_path)), "--out",
                 str(out), "--workers", workers]) == 2
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scheme,where", [("fedavg", "round 0, client "),
                                          ("local", "client ")],
                         ids=["fedavg", "local"])
def test_main_baseline_numeric_failure_names_client(tmp_path, capsys, scheme,
                                                    where):
    path = smoke_config(tmp_path, extra="baseline.lr = 1e300\n",
                        replace={"scheme = pfedvem": f"scheme = {scheme}"})
    with np.errstate(all="ignore"):
        assert main(["run", "--config", str(path), "--out",
                     str(tmp_path / "out"), "--workers", "1"]) == 1
    err = capsys.readouterr().err
    assert f"runtime failure: {where}" in err, err


HUGE_BASE_LR = ("train.base_lr = 0.01", "train.base_lr = 1e300")


# The CLI entry with spawned pool workers, which inherit no numpy state
SPAWN = ("import multiprocessing, sys; multiprocessing.set_start_method('spawn'); "
         "from fedvem.cli import main; sys.exit(main(sys.argv[1:]))")


@pytest.mark.parametrize("edit,workers,entry", [
    (HUGE_BASE_LR, "1", ["-m", "fedvem.cli"]),
    (HUGE_BASE_LR, "2", ["-m", "fedvem.cli"]),
    (HUGE_BASE_LR, "2", ["-c", SPAWN]),
    (("scheme = pfedvem", "scheme = fedavg\nbaseline.lr = 1e300"), "1",
     ["-m", "fedvem.cli"]),
], ids=["pfedvem-w1", "pfedvem-w2", "pfedvem-w2-spawn", "fedavg-w1"])
def test_cli_failure_line_comes_first(tmp_path, edit, workers, entry):
    # a huge base step makes the next round's head gradients overflow, which
    # the clip used to scale to a zero step (exit 0); numpy warnings from the
    # seed process or the pool workers must not print before the line that
    # names round and client
    old, new = edit
    text = (CONFIGS / "smoke.cfg").read_text()
    assert old in text
    path = tmp_path / "smoke.cfg"
    path.write_text(text.replace(old, new))
    env = dict(os.environ, PYTHONPATH=str(Path(fedvem.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, *entry, "run", "--config", str(path),
         "--out", str(tmp_path / "out"), "--workers", workers],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 1, proc.stderr
    assert re.match(r"runtime failure: round \d+, client \d+: ",
                    proc.stderr.splitlines()[0]), proc.stderr


_real_update_worker = federation._update_worker


def _worker_dying_in_round_1(group, globals_, cfg):
    """A pool job that kills its worker process in round 1."""
    if globals_.t == 1:
        os._exit(1)
    return _real_update_worker(group, globals_, cfg)


def test_main_broken_pool_names_round(tmp_path, capsys, monkeypatch):
    # forked workers see the patched job function
    monkeypatch.setattr(federation, "_update_worker", _worker_dying_in_round_1)
    assert main(["run", "--config", str(smoke_config(tmp_path)), "--out",
                 str(tmp_path / "out"), "--workers", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("runtime failure: round 1: worker pool failed: "), err


def test_main_missing_config_file(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "not found" in capsys.readouterr().err


def test_main_unknown_key_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("nonsense.key = 5\n")
    assert main(["run", "--config", str(path)]) == 2
    assert "unknown configuration key" in capsys.readouterr().err


def test_main_baseline_scheme_runs(tmp_path):
    path = smoke_config(tmp_path, replace={"scheme = pfedvem": "scheme = fedavg"},
                        extra="baseline.lr = 0.05\nbaseline.epochs = 1\n"
                              "baseline.batch = 16\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out),
                 "--workers", "1"]) == 0
    rounds, _ = read_report(out / "seed0.jsonl")
    assert len(rounds) == 2


def test_main_local_scheme_runs(tmp_path):
    path = smoke_config(tmp_path, replace={"scheme = pfedvem": "scheme = local"},
                        extra="baseline.lr = 0.05\nbaseline.epochs = 2\n"
                              "baseline.batch = 16\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out),
                 "--workers", "1"]) == 0
    rounds, _ = read_report(out / "seed0.jsonl")
    assert len(rounds) == 1


def test_console_entry_point_installed():
    import shutil
    assert shutil.which("fvem") is not None
