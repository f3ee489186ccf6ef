"""The one timing harness of the benchmarks.

Every timed bench runs its arms through :func:`trials`: named zero-argument
callables, interleaved, with the order rotated each trial so that no arm
always runs first (cold caches) or last.  :func:`summary` reduces one arm's
samples to ``{median, iqr, n, best}`` and :func:`compare` reduces paired
samples to ``{baseline, ratio, wins}``; :func:`row` is the one shape a
timed row takes, and :func:`record` is the one writer of
``benchmarks/BENCH_<name>.json``.  :func:`ratio_spread` turns a row's
recorded spread into the bound a ratio gate checks.

:func:`stopwatch` is the only reader of the clock.  An arm whose timed span
must leave out its own set-up (a service burst times its submit phase, not
the service start-up) times itself with :func:`stopwatch` and returns the
:class:`Lap`; :func:`trials` then records that lap instead of the whole call.

``REPRO_BENCH_FULL=1`` (:func:`full_benchmarks_enabled`) selects the full,
slow grids and Monte-Carlo budgets; it is the benches' only knob.
"""

from __future__ import annotations

import json
import os
import platform
import time
from collections.abc import Callable, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent

#: Seconds on a monotonic clock; the harness tests swap in a fake one.
clock = time.perf_counter

Samples = dict[str, list[float]]


def full_benchmarks_enabled() -> bool:
    """True when the full (slow) benchmark grids were requested."""
    return os.environ.get("REPRO_BENCH_FULL", "0") == "1"


@dataclass
class Lap:
    """One timed span, in seconds (set when its :func:`stopwatch` block exits)."""

    seconds: float = float("nan")


@contextmanager
def stopwatch():
    """Time the ``with`` block; usable around an ``await`` as well."""
    lap = Lap()
    start = clock()
    yield lap
    lap.seconds = clock() - start


def trials(
    arms: Mapping[str, Callable[[], object]], n: int | Mapping[str, int]
) -> tuple[Samples, dict[str, object]]:
    """Run each arm ``n`` times, interleaved; return ``(samples, results)``.

    Trial ``t`` runs the arms in their given order rotated left by ``t``
    (A B C, B C A, C A B, ...), so with two arms they take turns going
    first.  ``n`` is one count for every arm or a count per arm; an arm
    drops out of the rotation once it has run its count.  ``samples[name]``
    lists the arm's seconds trial by trial, so the samples of two arms pair
    up by index.  ``results[name]`` is what the arm returned last.
    """
    counts = dict(n) if isinstance(n, Mapping) else dict.fromkeys(arms, n)
    if not arms or set(counts) != set(arms) or min(counts.values()) < 1:
        raise ValueError("trials needs at least one arm and a count >= 1 for each")
    names = list(arms)
    samples: Samples = {name: [] for name in names}
    results: dict[str, object] = {}
    for trial in range(max(counts.values())):
        shift = trial % len(names)
        for name in names[shift:] + names[:shift]:
            if trial >= counts[name]:
                continue
            with stopwatch() as lap:
                result = arms[name]()
            samples[name].append((result if isinstance(result, Lap) else lap).seconds)
            results[name] = result
    return samples, results


def per_item(samples: Samples, items: Mapping[str, int]) -> Samples:
    """Divide each arm's seconds by the work it did (frames, sweep points)."""
    return {name: [s / items[name] for s in times] for name, times in samples.items()}


def summary(samples: Sequence[float]) -> dict:
    """``{median, iqr, n, best}`` of one arm's samples (``best`` is the fastest)."""
    q1, median, q3 = np.percentile(samples, [25, 50, 75])
    return {
        "median": float(median),
        "iqr": float(q3 - q1),
        "n": len(samples),
        "best": float(min(samples)),
    }


def compare(samples: Samples, baseline: str) -> dict[str, dict]:
    """Every other arm against ``baseline``: ``{baseline, ratio, wins}``.

    ``ratio`` is the baseline's median over the arm's, so above 1 the arm
    is faster.  ``wins`` counts the paired trials the arm ran in strictly
    less time than the baseline; a tie is a win for neither side.
    """
    base = samples[baseline]
    return {
        name: {
            "baseline": baseline,
            "ratio": float(np.median(base) / np.median(times)),
            "wins": sum(t < b for t, b in zip(times, base)),
        }
        for name, times in samples.items()
        if name != baseline
    }


def row(samples: Samples, baseline: str | None = None, unit: str = "s") -> dict:
    """The timed-row shape: each arm's :func:`summary`, and its :func:`compare`.

    Floats keep 6 significant digits, far below any run-to-run spread.
    """

    def rounded(stats: dict) -> dict:
        return {k: float(f"{v:.6g}") if isinstance(v, float) else v for k, v in stats.items()}

    out = {
        "unit": unit,
        "arms": {name: rounded(summary(times)) for name, times in samples.items()},
    }
    if baseline is not None:
        out["vs"] = {name: rounded(vs) for name, vs in compare(samples, baseline).items()}
    return out


def ratio_spread(timing: dict, arm: str) -> float:
    """The relative noise of ``arm``'s ratio in a :func:`row`: the IQR over
    the median of the arm and of its baseline, summed.

    A ratio gate takes its bound from its own arms' spread instead of a
    fixed constant: a claimed win must clear ``1 + spread``, and a
    no-regression check must stay at or above ``1 - spread``.
    """
    arms = timing["arms"]
    names = (arm, timing["vs"][arm]["baseline"])
    return sum(arms[name]["iqr"] / arms[name]["median"] for name in names)


def host() -> dict:
    """The ``_host`` block stamped into every ``BENCH_<name>.json``."""
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _dumps(value, indent: str = "") -> str:
    """JSON with keys sorted and every container of scalars on one line."""
    if isinstance(value, dict) and any(isinstance(v, (dict, list)) for v in value.values()):
        inner = indent + "  "
        items = ",\n".join(
            f"{inner}{json.dumps(key)}: {_dumps(value[key], inner)}" for key in sorted(value)
        )
        return "{\n" + items + "\n" + indent + "}"
    return json.dumps(value, sort_keys=True)


def record(name: str, key: str, payload: dict, directory: Path = BENCH_DIR) -> None:
    """Merge ``payload`` as entry ``key`` of ``BENCH_<name>.json``.

    Entries merge into the existing file, so a partial bench run never wipes
    the other rows; a file an interrupted run left truncated starts afresh.
    The new file replaces the old one atomically.
    """
    path = Path(directory) / f"BENCH_{name}.json"
    try:
        data = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        data = {}
    data[key] = payload
    data["_host"] = host()
    text = _dumps(data) + "\n"
    tmp_path = path.with_suffix(".json.tmp")
    tmp_path.write_text(text)
    os.replace(tmp_path, path)
