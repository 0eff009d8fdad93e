import importlib.util
import json
import os
import re
import signal
import struct
import subprocess
import sys
import time
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest

import fedvem
from fedvem import baselines, cli, federation
from fedvem.baselines import BaselineConfig
from fedvem.cli import main, run_experiment, run_seed
from fedvem.config import (_SCHEMA, ConfigError, build_config, load_config,
                           parse_kv, validate)
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
    bad = validate(cfg)
    assert any(v.startswith("dataset.train_images") for v in bad)
    assert any(v.startswith("train.s") for v in bad)


def test_validate_names_the_keys_a_user_writes():
    # one bad value in every section; each line starts with its key
    cfg = build_config({"dataset.classes": "1", "partition.clients": "0",
                        "scheme": "fedavg", "model.hidden": "0",
                        "train.K": "0", "baseline.lr": "-1", "seeds": "-1",
                        "out": "", "checkpoint_every": "-1"})
    keys = [v.split(":", 1)[0] for v in validate(cfg)]
    assert set(keys) <= set(_SCHEMA), keys
    assert {"dataset.classes", "partition.clients", "model.hidden", "train.K",
            "baseline.lr", "seeds", "out", "checkpoint_every"} <= set(keys)


def test_loaded_config_is_frozen(tmp_path):
    cfg = load_config(smoke_config(tmp_path))
    for obj, attr in [(cfg, "scheme"), (cfg.synth, "classes"),
                      (cfg.partition, "clients"), (cfg.train, "T"),
                      (cfg.baseline, "lr")]:
        with pytest.raises(FrozenInstanceError):
            setattr(obj, attr, getattr(obj, attr))


def test_validate_clean_synth_config(tmp_path):
    cfg = load_config(smoke_config(tmp_path))
    assert validate(cfg) == []


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = sorted(CONFIGS.glob("*.cfg"))


def stand_in_idx_paths(cfg, tmp_path):
    """Point every IDX path the config names at an empty file in
    ``tmp_path``: validation checks only that the files exist."""
    for attr in ("train_images", "train_labels", "test_images", "test_labels"):
        if getattr(cfg, attr):
            (tmp_path / attr).touch()
            cfg = replace(cfg, **{attr: str(tmp_path / attr)})
    return cfg


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
def test_shipped_configs_validate(tmp_path, path):
    assert validate(stand_in_idx_paths(load_config(path), tmp_path)) == []


# The config file format: every key users and perfbench write
KEYS = [
    "baseline.batch", "baseline.epochs", "baseline.lr", "baseline.mu_prox",
    "checkpoint_every", "dataset.classes", "dataset.dim", "dataset.kind",
    "dataset.noise", "dataset.points_per_subclass", "dataset.separation",
    "dataset.subclass_spread", "dataset.subclasses_per_class",
    "dataset.test_images", "dataset.test_labels",
    "dataset.test_points_per_subclass", "dataset.train_images",
    "dataset.train_labels", "model.hidden", "out", "partition.clients",
    "partition.labels_per_client", "partition.scenario", "scheme", "seeds",
    "train.K", "train.R", "train.T", "train.base_batch", "train.base_epochs",
    "train.base_lr", "train.confidence_mode", "train.eta", "train.rho0_sq",
    "train.s",
]
WORKLOADS = CONFIGS.parent / "perfbench" / "workloads.py"


def written_configs(monkeypatch):
    """(name, text) of every shipped config and perfbench workload."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's string annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return ([(p.name, p.read_text()) for p in SHIPPED]
            + [(name, w.config_text(0, "out"))
               for name, w in workloads.WORKLOADS.items()])


def named_field(key):
    """(section, field) the key names, section None for the config's own
    fields: ``dataset.*`` names the synthetic spec but for its kind and IDX
    paths, and ``model.hidden`` the train section's width."""
    section, _, attr = key.rpartition(".")
    if key == "dataset.kind":
        return None, "dataset_kind"
    if section == "dataset" and attr.endswith(("_images", "_labels")):
        return None, attr
    return {"": None, "dataset": "synth", "model": "train"}.get(section,
                                                                section), attr


def test_config_keys_are_the_file_format():
    assert sorted(_SCHEMA) == KEYS


def test_written_configs_set_the_fields_their_keys_name(monkeypatch):
    texts = written_configs(monkeypatch)
    assert len(texts) == len(SHIPPED) + 3
    for name, text in texts:
        kv = parse_kv(text)
        assert set(kv) <= set(_SCHEMA), name
        cfg = build_config(kv)
        for key in KEYS:
            # a value neither the file nor the defaults hold sets the named
            # field, and no other
            section, attr = named_field(key)
            holder = getattr(cfg, section) if section else cfg
            old = getattr(holder, attr)
            new = old + {int: 1, float: 0.5, str: "x", tuple: (7,)}[type(old)]
            text_value = (",".join(map(str, new)) if type(new) is tuple
                          else repr(new) if type(new) is float else str(new))
            want = replace(holder, **{attr: new})
            if section:
                want = replace(cfg, **{section: want})
            assert build_config({**kv, key: text_value}) == want, (name, key)


def test_validate_rejects_concept_drift_over_idx(tmp_path):
    # IDX data carries no subclasses, so the partition could never be drawn
    cfg = build_config({"dataset.kind": "fmnist", "dataset.train_images": "x",
                        "dataset.train_labels": "x", "dataset.test_images": "x",
                        "dataset.test_labels": "x",
                        "partition.scenario": "concept_drift"})
    bad = validate(stand_in_idx_paths(cfg, tmp_path))
    assert len(bad) == 1 and bad[0].startswith("partition.scenario: "), bad


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


class Interrupted(Exception):
    """Raised from a patched round function to stop a seed mid-run."""


def interrupt_config(tmp_path, scheme):
    # four rounds, a checkpoint after every second one
    return load_config(smoke_config(
        tmp_path, extra="checkpoint_every = 2\n",
        replace={"train.T = 2": "train.T = 4",
                 "scheme = pfedvem": f"scheme = {scheme}"}))


def assert_whole_rounds(whole, cut, k):
    """``cut`` holds what seed 0 of ``whole`` wrote by the end of round k:
    its first k + 1 records, the checkpoints up to then, and nothing else."""
    lines = (whole / "seed0.jsonl").read_bytes().splitlines(keepends=True)
    assert len(lines) > k + 1
    assert (cut / "seed0.jsonl").read_bytes() == b"".join(lines[:k + 1])
    assert not (cut / "seed0_clients.csv").exists()
    assert not (cut / "summary.jsonl").exists()
    if (whole / "checkpoints_seed0").exists():
        names = sorted(p.name for p in (cut / "checkpoints_seed0").iterdir())
        assert names == [f"round{t:04d}.fvem" for t in range(2, k + 2, 2)]
        for name in names:
            assert ((cut / "checkpoints_seed0" / name).read_bytes()
                    == (whole / "checkpoints_seed0" / name).read_bytes())
    else:
        assert not (cut / "checkpoints_seed0").exists()


# rounds 0..k finish; k = 1 ends on the checkpoint interval, k = 2 off it
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("scheme", ["pfedvem", "fedavg"])
def test_interrupted_seed_leaves_whole_records(tmp_path, monkeypatch, scheme,
                                               k):
    cfg = interrupt_config(tmp_path, scheme)
    run_experiment(cfg, out=str(tmp_path / "whole"))
    real_run_round, real_fedavg_round = federation.run_round, \
        baselines.fedavg_round

    def run_round(globals_, *args):
        if globals_.t == k + 1:
            raise Interrupted
        return real_run_round(globals_, *args)

    def fedavg_round(*args):
        if args[-1] == k + 1:
            raise Interrupted
        return real_fedavg_round(*args)

    monkeypatch.setattr(federation, "run_round", run_round)
    monkeypatch.setattr(baselines, "fedavg_round", fedavg_round)
    with pytest.raises(Interrupted):
        run_experiment(cfg, out=str(tmp_path / "cut"))
    assert_whole_rounds(tmp_path / "whole", tmp_path / "cut", k)


# The CLI entry with run_round patched to SIGKILL the run and its pool
# workers as round argv[1] begins; the run must lead its process group.
KILL_AT_ROUND = """\
import os, signal, sys
from fedvem import federation
from fedvem.cli import main

kill_round = int(sys.argv.pop(1))
real_run_round = federation.run_round


def run_round(globals_, *args):
    if globals_.t == kill_round:
        os.killpg(os.getpid(), signal.SIGKILL)
    return real_run_round(globals_, *args)


federation.run_round = run_round
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("k", [1, 2])
def test_killed_run_leaves_whole_records(tmp_path, k):
    cfg = interrupt_config(tmp_path, "pfedvem")
    run_experiment(cfg, out=str(tmp_path / "whole"))
    env = dict(os.environ, PYTHONPATH=str(Path(fedvem.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", KILL_AT_ROUND, str(k + 1), "run", "--config",
         str(tmp_path / "exp.cfg"), "--out", str(tmp_path / "cut"),
         "--workers", "2"],
        capture_output=True, text=True, env=env, timeout=300,
        start_new_session=True)
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    assert_whole_rounds(tmp_path / "whole", tmp_path / "cut", k)


def test_pool_workers_exit_with_a_killed_seed_process(tmp_path):
    # 23 clients are three head groups, so the pool starts both workers;
    # only the seed process is killed, and its workers must follow it
    path = smoke_config(tmp_path, replace={
        "partition.clients = 3": "partition.clients = 23",
        "train.T = 2": "train.T = 4"})
    env = dict(os.environ, PYTHONPATH=str(Path(fedvem.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-c", KILL_AT_ROUND.replace("os.killpg(", "os.kill("),
         "2", "run", "--config", str(path), "--out", str(tmp_path / "cut"),
         "--workers", "2"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
        start_new_session=True)
    try:
        assert proc.wait(timeout=300) == -signal.SIGKILL
        deadline = time.monotonic() + 5
        while True:
            try:
                os.killpg(proc.pid, 0)   # a process of the group remains
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "workers outlived the run"
            time.sleep(0.1)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


@pytest.mark.parametrize("scheme", ["pfedvem", "fedavg"])
def test_run_seed_clients_view_one_grouped_training_set(tmp_path, monkeypatch,
                                                        scheme):
    seen = {}
    real_update = federation.update_clients
    real_round = baselines.fedavg_round

    def update_clients(group, rows, *args):
        seen["rows"] = list(rows)
        return real_update(group, rows, *args)

    def fedavg_round(theta, clients_xy, *args):
        seen["rows"] = list(clients_xy)
        return real_round(theta, clients_xy, *args)

    monkeypatch.setattr(federation, "update_clients", update_clients)
    monkeypatch.setattr(baselines, "fedavg_round", fedavg_round)
    cfg = load_config(smoke_config(
        tmp_path, replace={"scheme = pfedvem": f"scheme = {scheme}"}))
    run_seed(cfg, 0, str(tmp_path))
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
    run_seed(cfg, 3, str(tmp_path))
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
    assert "train.s" in capsys.readouterr().out


@pytest.mark.parametrize("scheme", ["pfedvem", "fedavg", "fedprox", "local"])
@pytest.mark.parametrize("old,new,field", [
    ("train.T = 2", "train.T = -3", "train.T"),
    ("model.hidden = 5", "model.hidden = 0", "model.hidden"),
    ("model.hidden = 5", "model.hidden =", "model.hidden"),
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
                                            ("fedavg", False),
                                            ("local", False)])
def test_run_seed_proximal_term_follows_scheme(tmp_path, monkeypatch, scheme,
                                               reached):
    # every sgd_epochs call carries the configured pull under FedProx only
    passed = []
    real = baselines.sgd_epochs

    def recording(*args, mu_prox=0.0, **kwargs):
        passed.append(mu_prox)
        return real(*args, mu_prox=mu_prox, **kwargs)

    monkeypatch.setattr(baselines, "sgd_epochs", recording)
    cfg = load_config(smoke_config(
        tmp_path, extra="baseline.mu_prox = 0.1\n",
        replace={"scheme = pfedvem": f"scheme = {scheme}"}))
    assert validate(cfg) == []
    run_seed(cfg, 0, str(tmp_path))
    assert passed and set(passed) == {0.1 if reached else 0.0}


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_main_rejects_worker_count_below_one(tmp_path, capsys, workers):
    out = tmp_path / "out"
    assert main(["run", "--config", str(smoke_config(tmp_path)), "--out",
                 str(out), "--workers", workers]) == 2
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()


def test_main_rejects_negative_seed(tmp_path, capsys):
    path = smoke_config(tmp_path, replace={"seeds = 0": "seeds = 2,-1"})
    assert main(["validate", "--config", str(path)]) == 2
    assert "seeds: must be >= 0, got -1" in capsys.readouterr().out
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert "seeds: " in capsys.readouterr().err
    assert not out.exists()


def test_main_rejects_duplicate_seeds(tmp_path, capsys):
    # a repeated seed would rerun it into the same seed<s>.jsonl and put an
    # SEM over copies of one run in the summary
    path = smoke_config(tmp_path, replace={"seeds = 0": "seeds = 1,0,1"})
    assert main(["validate", "--config", str(path)]) == 2
    assert "seeds: seed 1 appears more than once" in capsys.readouterr().out
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert "seeds: seed 1 appears" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("train.eta", "nan"),
                                       ("train.base_lr", "nan"),
                                       ("train.rho0_sq", "inf")])
def test_main_rejects_non_finite_floats(tmp_path, capsys, key, value):
    with pytest.raises(ConfigError, match=f"^{key}: must be finite"):
        build_config({key: value})
    path = smoke_config(tmp_path, extra=f"{key} = {value}\n",
                        replace={"train.eta = 0.01\n": "",
                                 "train.base_lr = 0.01\n": ""})
    for command in (["validate"], ["run", "--out", str(tmp_path / "out")]):
        assert main(command + ["--config", str(path)]) == 2
        assert f"config: {key}: must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def _worker_dying_in_round_1(group, globals_, reporters, cfg):
    """A pool job that kills its worker process in round 1."""
    if globals_.t == 1:
        os._exit(1)
    return _real_update_worker(group, globals_, reporters, cfg)


def test_main_broken_pool_names_round(tmp_path, capsys, monkeypatch):
    # forked workers see the patched job function
    monkeypatch.setattr(federation, "_update_worker", _worker_dying_in_round_1)
    assert main(["run", "--config", str(smoke_config(tmp_path)), "--out",
                 str(tmp_path / "out"), "--workers", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("runtime failure: round 1: worker pool failed: "), err


@pytest.mark.parametrize("scenario,clients,message", [
    ("concept_drift", 50, "subclass 0 has 20 rows for its 25 holders"),
    ("label_skew", 100, "label 0 has 40 rows for its 66 holders"),
    ("quantity_only", 500, "500 clients for 120 rows"),
    ("iid_equal", 500, "500 clients for 120 rows"),
])
def test_main_too_many_clients_for_the_rows_exits_two(tmp_path, capsys,
                                                      scenario, clients,
                                                      message):
    path = smoke_config(tmp_path, replace={
        "partition.scenario = label_skew": f"partition.scenario = {scenario}",
        "partition.clients = 3": f"partition.clients = {clients}"})
    assert main(["run", "--config", str(path), "--out",
                 str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"config: partition.clients: {message}\n", err


@pytest.mark.parametrize("scheme", ["pfedvem", "fedavg"])
@pytest.mark.parametrize("edits,message", [
    ({"partition.clients = 4": "partition.clients = 1"},
     "subclass 0 is held by no client"),
    ({"partition.scenario = concept_drift": "partition.scenario = label_skew\n"
                                            "partition.labels_per_client = 1",
      "partition.clients = 4": "partition.clients = 2"},
     "label 1 is held by no client"),
], ids=["concept_drift", "label_skew"])
def test_main_key_held_by_no_client_exits_two(tmp_path, capsys, scheme, edits,
                                              message):
    text = (CONFIGS / "smoke.cfg").read_text().replace(
        "scheme = pfedvem", f"scheme = {scheme}")
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    # validate builds each seed's synthetic partition and prints run's line
    assert main(["validate", "--config", str(path)]) == 2
    out = capsys.readouterr().out
    assert out == f"config: partition.clients: {message}\n", out
    assert main(["run", "--config", str(path), "--out",
                 str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"config: partition.clients: {message}\n", err
    assert not list(tmp_path.glob("out/**/*.jsonl"))


def test_main_validate_builds_each_seeds_partition(tmp_path, capsys):
    # with 2 clients holding 1 of 3 labels each, seed 1 leaves label 2 and
    # seed 0 label 1 unheld: validate reports the first seed's, as run does
    text = (CONFIGS / "smoke.cfg").read_text()
    for old, new in {"partition.scenario = concept_drift":
                     "partition.scenario = label_skew\n"
                     "partition.labels_per_client = 1",
                     "partition.clients = 4": "partition.clients = 2",
                     "seeds = 0": "seeds = 1,0"}.items():
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    line = "config: partition.clients: label 2 is held by no client\n"
    assert main(["validate", "--config", str(path)]) == 2
    assert capsys.readouterr().out == line
    assert main(["run", "--config", str(path), "--out",
                 str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == line


@pytest.mark.parametrize("cut,message", [
    ("img", "img: expected 56 bytes, truncated at byte 36"),
    ("lab", "lab: expected 10 bytes, truncated at byte 9"),
])
def test_main_truncated_idx_file_exits_two(tmp_path, capsys, cut, message):
    # one 5x8 image of 40 bytes and 2 labels for 2 images
    files = {"img": struct.pack(">IIII", 0x803, 1, 5, 8) + bytes(40),
             "lab": struct.pack(">II", 0x801, 2) + bytes([0, 1])}
    files[cut] = files[cut][:-20 if cut == "img" else -1]
    for name, raw in files.items():
        (tmp_path / name).write_bytes(raw)
    path = tmp_path / "idx.cfg"
    path.write_text(
        "dataset.kind = fmnist\n"
        + "".join(f"dataset.{split}_{kind} = {tmp_path / name}\n"
                  for split in ("train", "test")
                  for kind, name in (("images", "img"), ("labels", "lab")))
        + "partition.scenario = iid_equal\npartition.clients = 1\n"
          "model.hidden = 2\ntrain.T = 1\nseeds = 0\n")
    # validate reads each header as run does, and says the same line
    assert main(["validate", "--config", str(path)]) == 2
    out = capsys.readouterr().out
    assert out == f"{tmp_path / message}\n", out
    assert main(["run", "--config", str(path), "--out",
                 str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"{tmp_path / message}\n", err


def test_main_garbage_idx_files_fail_validate_as_run(tmp_path, capsys):
    # 7 garbage bytes as every IDX path: shorter than any IDX header
    garbage = tmp_path / "garbage"
    garbage.write_bytes(b"garbage")
    path = tmp_path / "idx.cfg"
    path.write_text(
        "dataset.kind = fmnist\n"
        + "".join(f"dataset.{split}_{kind} = {garbage}\n"
                  for split in ("train", "test")
                  for kind in ("images", "labels"))
        + "partition.scenario = iid_equal\npartition.clients = 1\n")
    line = f"{garbage}: truncated header at byte 7\n"
    assert main(["validate", "--config", str(path)]) == 2
    assert capsys.readouterr().out == line
    assert main(["run", "--config", str(path), "--out",
                 str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == line


def test_main_zero_pixel_idx_images_exit_two(tmp_path, capsys):
    # a well-formed header for 40 images of 0x0 pixels holds no data
    path = idx_config(tmp_path, train=(0, [0, 1] * 20), test=(2, [0, 1]))
    line = f"{tmp_path / 'train_img'}: size 0 at byte 8"
    assert main(["validate", "--config", str(path)]) == 2
    assert capsys.readouterr().out == f"{line}\n"
    assert main(["run", "--config", str(path), "--out",
                 str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"{line}\n"


def idx_config(tmp_path, train, test):
    """A one-client config over IDX files; ``train`` and ``test`` are each
    split's (image side, labels), its images all zero."""
    for split, (side, labels) in (("train", train), ("test", test)):
        n = len(labels)
        (tmp_path / f"{split}_img").write_bytes(
            struct.pack(">IIII", 0x803, n, side, side) + bytes(n * side * side))
        (tmp_path / f"{split}_lab").write_bytes(
            struct.pack(">II", 0x801, n) + bytes(labels))
    path = tmp_path / "idx.cfg"
    path.write_text(
        "dataset.kind = fmnist\n"
        + "".join(f"dataset.{split}_{kind} = {tmp_path / split}_{name}\n"
                  for split in ("train", "test")
                  for kind, name in (("images", "img"), ("labels", "lab")))
        + "partition.scenario = iid_equal\npartition.clients = 1\n"
          "model.hidden = 2\ntrain.T = 1\nseeds = 0\n")
    return path


def test_main_test_images_of_another_size_exit_two(tmp_path, capsys):
    # 4x4 training images against 5x5 test images
    path = idx_config(tmp_path, train=(4, [0, 1]), test=(5, [0, 1]))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (f"{tmp_path / 'test_img'}: 25 pixels per image, "
                   "training images have 16\n"), err
    assert not (out / "seed0.jsonl").exists()


def test_main_test_labels_past_training_classes_exit_two(tmp_path, capsys):
    # training labels 0-2, test labels 0-3: a 3-class head never outputs 3
    path = idx_config(tmp_path, train=(4, [0, 1, 2, 0]), test=(4, [0, 1, 2, 3]))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (f"{tmp_path / 'test_lab'}: label 3, training labels lie "
                   "in [0, 3)\n"), err
    assert not (out / "seed0.jsonl").exists()


def label_skew_over_two_clients(path, k):
    """Rewrite an ``idx_config`` to give 2 clients k labels each."""
    path.write_text(path.read_text().replace(
        "partition.scenario = iid_equal\npartition.clients = 1\n",
        "partition.scenario = label_skew\npartition.clients = 2\n"
        f"partition.labels_per_client = {k}\n"))


@pytest.mark.parametrize("k", [11, 13])
def test_main_label_skew_over_idx_counts_the_loaded_classes(tmp_path, capsys,
                                                            k):
    # IDX files may hold more than FMNIST's 10 classes; these hold 12
    labels = list(range(12)) * 3
    path = idx_config(tmp_path, train=(2, labels), test=(2, labels))
    label_skew_over_two_clients(path, k)
    assert main(["validate", "--config", str(path)]) == (0 if k == 11 else 2)
    capsys.readouterr()
    out = tmp_path / "out"
    code = main(["run", "--config", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    if k == 11:
        assert code == 0 and (out / "seed0.jsonl").exists(), err
    else:
        assert code == 2, err
        assert err == ("config: partition.labels_per_client: exceeds class "
                       "count\n"), err


# IDX files whose headers read well, holding data run cannot train on:
# (train, test) as ``idx_config`` takes them, and the line run prints
LOADED_DATA_FAULTS = {
    # 4x4 training images against 5x5 test images
    "test_image_size": ((4, [0, 1]), (5, [0, 1]),
                        "{}/test_img: 25 pixels per image, training images "
                        "have 16"),
    # training labels 0-2, a test label 3 that a 3-class head never outputs
    "test_label_range": ((4, [0, 1, 2, 0]), (4, [0, 1, 2, 3]),
                         "{}/test_lab: label 3, training labels lie in "
                         "[0, 3)"),
    # 3 training images, their label file rewritten to hold 2
    "label_count": ((4, [0, 1, 0]), (4, [0, 1]),
                    "{}/train_lab: 2 labels for 3 images"),
    # 13 labels per client over the 12 classes loaded
    "labels_per_client": ((2, list(range(12)) * 3), (2, list(range(12)) * 3),
                          "config: partition.labels_per_client: exceeds "
                          "class count"),
}


@pytest.mark.parametrize("case", LOADED_DATA_FAULTS)
def test_main_validate_fails_as_run_on_the_loaded_data(tmp_path, capsys,
                                                       case):
    train, test, line = LOADED_DATA_FAULTS[case]
    path = idx_config(tmp_path, train, test)
    if case == "label_count":
        (tmp_path / "train_lab").write_bytes(
            struct.pack(">II", 0x801, 2) + bytes([0, 1]))
    if case == "labels_per_client":
        label_skew_over_two_clients(path, 13)
    line = line.format(tmp_path) + "\n"
    assert main(["validate", "--config", str(path)]) == 2
    assert capsys.readouterr().out == line
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == line
    assert not out.exists()   # made only once a seed's data loads


@pytest.mark.parametrize("value", [-1, 0])
def test_main_test_points_per_subclass_below_one_exits_two(tmp_path, capsys,
                                                           value):
    text = (CONFIGS / "smoke.cfg").read_text()
    key = "dataset.test_points_per_subclass"
    assert f"{key} = 10\n" in text
    path = tmp_path / "smoke.cfg"
    path.write_text(text.replace(f"{key} = 10\n", f"{key} = {value}\n"))
    line = f"{key}: must be >= 1\n"
    assert main(["validate", "--config", str(path)]) == 2
    assert capsys.readouterr().out == line
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == line
    assert not out.exists()


def test_main_rejects_empty_out(tmp_path, capsys):
    path = smoke_config(tmp_path, extra="out =\n")
    assert main(["validate", "--config", str(path)]) == 2
    assert capsys.readouterr().out.startswith("out: ")
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("out: ")


@pytest.mark.parametrize("where", ["file", "file/sub"])
def test_main_unusable_out_dir_exits_two(tmp_path, capsys, monkeypatch,
                                         where):
    (tmp_path / "file").touch()
    seeds = []   # the directory is made once a seed's data loads, untrained
    monkeypatch.setattr(cli, "run_training", lambda *args, **kw:
                        seeds.append(args))
    out = tmp_path / where
    assert main(["run", "--config", str(smoke_config(tmp_path)), "--out",
                 str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and str(out) in err, err
    assert seeds == []


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
