"""Shared test utilities: finite differences, golden-section search, the
reports a run hands to its ``on_round``, and the numeric environment that
the golden hashes depend on."""

from __future__ import annotations

import ctypes

import numpy as np

from fedvem.baselines import run_baseline
from fedvem.federation import run_training
from fedvem.nn import backward


def numeric_env() -> str:
    """What decides the bits of a run besides (config, seed): numpy's
    version, its BLAS name and version, the OpenBLAS core it loaded, and
    the targets numpy dispatches float64 ``exp`` and ``log`` to."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        from numpy.lib.introspect import opt_func_info
        funcs = opt_func_info(func_name="^(exp|log)$", signature="float64")
        targets = {name: next(iter(sigs.values()))["current"]
                   for name, sigs in funcs.items()}
    except ImportError:   # numpy < 2.0
        targets = {}
    return (f"numpy {np.__version__}, {blas.get('name')} "
            f"{blas.get('version')}, core {_openblas_core()}, exp "
            f"{targets.get('exp')}, log {targets.get('log')}")


def _openblas_core() -> str | None:
    """The kernel core the loaded OpenBLAS picked, if numpy loaded one."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f
                    if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_corename64_",
                    "openblas_get_corename64_", "openblas_get_corename"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    return None


def training_reports(cfg, train, test, partition, workers=1):
    """``run_training``'s final state and clients, and every report it
    handed to ``on_round``, in round order."""
    reports = []
    gs, clients = run_training(cfg, train, test, partition,
                               lambda report, *_: reports.append(report),
                               workers=workers)
    return gs, clients, reports


def baseline_reports(scheme, cfg, bl, train, test, partition):
    """Every report ``run_baseline`` handed to ``on_round``, in round order."""
    reports = []
    run_baseline(scheme, cfg, bl, train, test, partition, reports.append)
    return reports


def model_grads(model, x, labels):
    """``nn.backward`` of one model, a group of one: each layer's gradient
    of its mean cross-entropy on ``x``, ``labels``."""
    grads = backward([(w[None], b[None]) for w, b in model], x, labels,
                     [len(x)])
    return [(gw[0], gb[0]) for gw, gb in grads]


def central_diff(fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy(); xp[i] += h
        xm = x.copy(); xm[i] -= h
        grad[i] = (fn(xp) - fn(xm)) / (2 * h)
    return grad


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """max_i |a_i - b_i| / max(1, |b_i|)."""
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))


def golden_max(fn, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Golden-section maximization of a unimodal scalar function on [lo, hi]."""
    phi = (np.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > tol * max(1.0, abs(a) + abs(b)):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fn(d)
    return (a + b) / 2
