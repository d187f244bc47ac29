"""Host pace: a fixed pure-Python kernel timed next to every measured stretch.

The benchmark runs on a few cores of a shared host whose speed drifts
by up to 2x over seconds to minutes (on a 2-vCPU VM, one stretch of
replay passes ran 1.6x slower than the next while the process's CPU
time grew just as much as its wall time, so nothing else in the
container was running).  A figure measured in one stretch and compared
with one from another would mostly measure the neighbours.

So every timed stretch of work is bracketed by two runs of
:func:`kernel`, and its time is divided by the host's *slowness*: the
mean of the two kernel times over :data:`NOMINAL_S`, the kernel's time
on an unloaded host.  A pass that ran while the host was 1.5x slow has
its time divided by 1.5.

The kernel uses only the standard library -- attribute reads, dict
lookups and calls over a small table built at import, the interpreter
work the CEP layers do -- and keeps nothing it allocates, with the
collector off.  A kernel that kept its objects would follow the heap
of the measuring process (after a million small objects were
allocated and half freed, one that built 60 000 objects ran a third
slower); this one runs the same before and after, so nothing the
program under test does -- its code, its heap -- moves the yardstick.
"""

from __future__ import annotations

import gc
import time
from typing import List

#: Kernel seconds on an unloaded host (x86-64, the fastest tenth of
#: its runs on a 2-vCPU shared VM).  Only a unit: every scaled figure
#: reads as "at this pace".
NOMINAL_S = 0.025

#: Entries of the kernel's table (a power of two).
TABLE_SIZE = 4096
#: Lookups one kernel run makes.
KERNEL_LOOKUPS = 160_000


class _Item:
    __slots__ = ("key", "group")

    def __init__(self, key: int, group: int) -> None:
        self.key = key
        self.group = group


_ITEMS = [_Item(i * 7919 % TABLE_SIZE, i % 32) for i in range(TABLE_SIZE)]
_TABLE = {item.key: item for item in _ITEMS}


def _same_group(a: _Item, b: _Item) -> bool:
    return a.group == b.group


def kernel() -> int:
    """The fixed work: :data:`KERNEL_LOOKUPS` table lookups and compares."""
    items, table, mask = _ITEMS, _TABLE, TABLE_SIZE - 1
    hits = 0
    for i in range(KERNEL_LOOKUPS):
        item = items[i & mask]
        other = table.get((item.key + 1) & mask)
        if other is not None and _same_group(item, other):
            hits += 1
    return hits


def sample() -> float:
    """Seconds one :func:`kernel` run takes now, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        kernel()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def slowness(before: float, after: float) -> float:
    """How much slower than nominal the host ran between two samples."""
    return (before + after) / 2.0 / NOMINAL_S


class Marks:
    """Pace samples at the boundaries of consecutive timed stretches.

    ``mark()`` samples the pace and returns its index; the stretch
    between marks ``i`` and ``j`` is scaled by :meth:`scale`.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def mark(self) -> int:
        """Sample the pace now; returns the sample's index."""
        self.samples.append(sample())
        return len(self.samples) - 1

    def slowness(self, first: int, last: int) -> float:
        return slowness(self.samples[first], self.samples[last])

    def scale(self, seconds: float, first: int, last: int) -> float:
        """``seconds`` measured between marks ``first`` and ``last``, at nominal pace."""
        return seconds / self.slowness(first, last)
