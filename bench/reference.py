"""Reference kernel: a fixed piece of work that uses no collapsim code.

The shared machine the benchmark runs on changes speed by 30 % or more
within seconds, for pure Python, cache-resident numpy and memory-bound
numpy alike, and it stalls for bursts shorter than a second.  The
benchmark times this kernel in short slices just before and just after
each repetition, on the same CPU.  The repetition's time divided by the
median slice time follows the program's own speed and drops most of
the machine's; the median keeps a burst during one slice out of it.

A slice has four parts of about 25 ms each, one per kind of work the
workloads do: a pure-Python loop (per-trajectory and per-seed glue),
small-array numpy steps like ``CslStepper.step_batch``, per-stream
Philox normals written into a block like ``wiener_increment_block``,
and an FFT round trip like ``split_step_batch`` on a batch larger than
a core's own cache, whose speed depends on what the host's other
tenants do to the shared cache.  The kernel never changes, so a faster
or slower collapsim moves the ratio and the kernel does not.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.1
"""A slice's time at the reference speed: about its median on a 2-vCPU
Intel Xeon VM (Python 3.11, numpy 2.4).  Normalized times are
``measured x NOMINAL_S / median slice time``, in seconds at that speed."""

_rng = np.random.default_rng(0)
_PSIS = _rng.standard_normal((4096, 2)) + 1j * _rng.standard_normal((4096, 2))
_DBS = _rng.standard_normal((4096, 2))
_TABLE = np.eye(2)
_WAVES = _rng.standard_normal((128, 2048)) + 0j  # 4 MB


def _python() -> None:
    total = 0
    for i in range(320_000):
        total += i * i


def _steps() -> None:
    for _ in range(48):
        prob = np.abs(_PSIS) ** 2
        prob = prob / prob.sum(axis=1, keepdims=True)
        r = prob @ _TABLE.T
        noise = _DBS @ _TABLE - np.sum(_DBS * r, axis=1, keepdims=True)
        new = _PSIS + 0.01 * noise * _PSIS
        new = new / np.sqrt(np.sum(np.abs(new) ** 2, axis=1))[:, None]


def _streams() -> None:
    block = np.empty((400, 500, 2))
    for j in range(500):
        rng = np.random.Generator(np.random.Philox(key=j))
        block[:, j % 500, :] = rng.normal(0.0, 0.07, size=(400, 2))


def _ffts() -> None:
    k = np.fft.fft(_WAVES, axis=1)
    np.fft.ifft(np.exp(0.1j * np.abs(k)) * k, axis=1)


PARTS = {"python": _python, "steps": _steps, "streams": _streams, "ffts": _ffts}


def slices(count: int) -> list[dict[str, float]]:
    """Seconds each part of ``count`` back-to-back kernel slices takes."""
    out = []
    for _ in range(count):
        times = {}
        for name, part in PARTS.items():
            start = time.perf_counter()
            part()
            times[name] = time.perf_counter() - start
        out.append(times)
    return out
