"""Host-noise normalisation: one fixed calibration kernel.

The container this benchmark was sized on has slow and fast phases
lasting minutes (the same by-projection loop: raw p50 7.1 ms, then
15.5 ms, then 10.0 ms inside one hour, ``process_time`` drifting with
it). A pure-Python kernel timed next to the work drifts the same way,
so every timed block is bracketed by kernel samples and its times are
multiplied by ``CAL_REF_MS / median(kernel)`` — the unit of every
timed metric is "ms on the reference host".

**Never edit :func:`kernel` or :data:`CAL_REF_MS` after the first
baseline**: every committed number is a ratio to them.
"""

from __future__ import annotations

import statistics
import time

#: The kernel on the machine that produced ``baseline.json``: it read
#: ≈ 0.50 ms in that host's fast mode and ≈ 0.85 ms in its slow one,
#: 0.52-0.84 ms as the median of a run.
CAL_REF_MS = 0.6500

#: Kernel samples taken on each side of a block.
SAMPLES_PER_SIDE = 5

_TEXT = "<person id='p7'><name>Ada &amp; Co</name><age>36</age></person>" * 24


class _Cell:
    __slots__ = ("key", "label", "pair")

    def __init__(self, key: int, label: str, pair: tuple[int, int]):
        self.key = key
        self.label = label
        self.pair = pair


def kernel() -> int:
    """Character scan + dict/list churn + small-object allocation +
    ``str.join``: the mix the XML scanner, the evaluator and the
    serializer are made of. Measured against the workloads over 9 s
    windows, work ÷ kernel held to 1-3 % while raw times moved 9-18 %."""
    marks = 0
    for ch in _TEXT:
        if ch == "<" or ch == "&":
            marks += 1
    tally: dict[int, int] = {}
    parts: list[str] = []
    for index in range(700):
        key = index % 89
        tally[key] = tally.get(key, 0) + index
        parts.append(str(key))
    joined = ",".join(parts)
    cells = [_Cell(index, str(index), (index, index + 1))
             for index in range(700)]
    by_label = {cell.label: cell for cell in cells}
    return marks + len(tally) + len(joined) + len(by_label)


def sample(count: int = SAMPLES_PER_SIDE) -> list[float]:
    """``count`` kernel timings in milliseconds (callers park their
    client threads first)."""
    out = []
    for _ in range(count):
        started = time.perf_counter()
        kernel()
        out.append((time.perf_counter() - started) * 1e3)
    return out


def factor(samples_ms: list[float]) -> float:
    """The multiplier that turns times measured next to
    ``samples_ms`` into reference-host times."""
    return CAL_REF_MS / statistics.median(samples_ms)


if __name__ == "__main__":
    # Re-measure the constant: 200 batches, median of batch medians.
    medians = [statistics.median(sample()) for _ in range(200)]
    print(f"kernel median {statistics.median(medians):.4f} ms "
          f"(p10 {statistics.quantiles(medians, n=10)[0]:.4f}, "
          f"p90 {statistics.quantiles(medians, n=10)[-1]:.4f}); "
          f"CAL_REF_MS = {CAL_REF_MS}")
