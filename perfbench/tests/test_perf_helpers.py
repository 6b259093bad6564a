"""Unit tests for the benchmark's helpers.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import perf_inputs  # noqa: E402
import perf_local  # noqa: E402
import run  # noqa: E402
from perf_stats import (  # noqa: E402
    OpCounter,
    OpenLoopSchedule,
    nearest_rank,
    tail_percentile,
    window_medians,
    window_rates,
)
from perf_trace import Span, Tracer, per_unit_self, self_times  # noqa: E402


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------

def test_nearest_rank_picks_a_measured_value():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0, 9.0, 8.0, 7.0, 6.0]
    assert nearest_rank(values, 50) == 5.0
    assert nearest_rank(values, 90) == 9.0
    assert nearest_rank(values, 91) == 10.0
    assert nearest_rank(values, 100) == 10.0
    assert nearest_rank(values, 0.1) == 1.0
    assert nearest_rank([3.5], 99) == 3.5


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 101)


def test_failed_samples_rank_above_every_latency():
    assert nearest_rank([0.1, math.inf, 0.2], 50) == 0.2
    assert nearest_rank([0.1, math.inf, 0.2], 100) == math.inf


@pytest.mark.parametrize(
    "count, expected",
    [(1000, 99.0), (999, 95.0), (200, 95.0), (100, 90.0), (50, 75.0), (20, 50.0), (19, None)],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


# ----------------------------------------------------------------------
# open-loop accounting
# ----------------------------------------------------------------------

def test_open_loop_times_from_due_and_reports_lag():
    schedule = OpenLoopSchedule(rate=10.0, count=3, start=100.0)
    assert [schedule.claim() for _ in range(4)] == [0, 1, 2, None]
    assert schedule.due(2) == pytest.approx(100.2)
    # Sent on time, replied 5 ms later.
    schedule.record(0, sent=100.0, done=100.005)
    # Sent 30 ms late (the generator stalled): latency counts the stall.
    schedule.record(1, sent=100.13, done=100.135)
    # Failed: infinite latency; sent early is no negative lag.
    schedule.record(2, sent=100.19, done=None)
    assert schedule.latencies[:2] == pytest.approx([0.005, 0.035])
    assert schedule.latencies[2] == math.inf
    assert schedule.lags == pytest.approx([0.0, 0.03, 0.0])


def test_open_loop_records_by_request_index():
    schedule = OpenLoopSchedule(rate=100.0, count=2, start=0.0)
    schedule.record(1, sent=0.01, done=0.02)  # replies can complete out of order
    schedule.record(0, sent=0.0, done=0.05)
    assert schedule.latencies == pytest.approx([0.05, 0.01])


def test_window_medians_cover_full_windows_only():
    values = [1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 100.0]
    assert window_medians(values, 2) == [1.0, 2.0, 3.0]
    assert window_medians(values[:1], 5) == [1.0]
    with pytest.raises(ValueError):
        window_medians(values, 0)


def test_window_rates_divide_completions_by_window_span():
    times = [10.6, 10.1, 10.2, 11.1, 11.9, 12.05, 12.5]
    assert window_rates(times, start=10.0, size=3) == pytest.approx([3 / 0.6, 3 / 1.45])
    assert window_rates([10.5], start=10.0, size=3) == pytest.approx([2.0])
    assert window_rates([], start=10.0, size=3) == [0.0]
    with pytest.raises(ValueError):
        window_rates(times, start=10.0, size=0)


def test_open_loop_rejects_empty_schedules():
    with pytest.raises(ValueError):
        OpenLoopSchedule(rate=0.0, count=1, start=0.0)
    with pytest.raises(ValueError):
        OpenLoopSchedule(rate=1.0, count=0, start=0.0)


# ----------------------------------------------------------------------
# failure counting
# ----------------------------------------------------------------------

def test_failed_frac_counts_failures_against_attempts():
    ops = OpCounter()
    assert ops.failed_frac == 0.0
    for ok in (True, True, False, True):
        ops.record(ok, "" if ok else "status 503")
    assert (ops.attempted, ops.failed, ops.failed_frac) == (4, 1, 0.25)
    other = OpCounter()
    other.record(False, "timed out")
    ops.merge(other)
    assert (ops.attempted, ops.failed) == (5, 2)
    assert ops.errors == ["status 503", "timed out"]


def test_drifted_counts_names_only_disagreeing_counts():
    repeat = {"queue.claims": (15, 15), "registry.misses": (7, 8), "lazy.block_misses": [16]}
    assert run.drifted_counts(repeat) == {"registry.misses": (7, 8)}


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------

def _span(id, start, end, parent=None, request=None, name="x"):
    return Span(id, name, start, end, parent, request)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 3.0, parent=1),
        _span(3, 2.0, 5.0, parent=1),  # overlaps span 2
        _span(4, 8.0, 12.0, parent=1),  # runs past its parent
        _span(5, 2.5, 2.75, parent=3),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - (4.0 + 2.0))
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0 - 0.25)
    assert own[5] == pytest.approx(0.25)


def test_tracer_nests_spans_and_inherits_the_request_id():
    tracer = Tracer()
    with tracer.span("server.handler", request="r-1") as root:
        with tracer.span("codec.encode_result") as child:
            pass
        with tracer.span("codec.encode_result"):
            pass
    with tracer.span("codec.encode_result") as orphan:
        pass
    assert child.parent == root.id and child.request == "r-1"
    assert orphan.parent is None and orphan.request is None
    per_request = per_unit_self(tracer.spans, "codec.encode_result")
    assert len(per_request) == 2  # two calls of r-1 summed, plus the orphan


# ----------------------------------------------------------------------
# seeded inputs and counts that must repeat
# ----------------------------------------------------------------------

def test_inputs_repeat_for_a_seed_and_vary_across_seeds():
    assert perf_inputs.lazy_stream(3, 60, 5) == perf_inputs.lazy_stream(3, 60, 5)
    assert perf_inputs.lazy_stream(3, 60, 5) != perf_inputs.lazy_stream(4, 60, 5)
    assert len({ti for ti, _ in perf_inputs.lazy_stream(3, 60, 5)}) == 5
    assert perf_inputs.census_sweep(3, 8) == perf_inputs.census_sweep(3, 8)
    assert perf_inputs.census_sweep(3, 8) != perf_inputs.census_sweep(4, 8)


def test_service_games_differ_in_costs_not_in_shape():
    base = perf_inputs.service_base()
    one = perf_inputs.ServiceGame(base, 5, 1)
    again = perf_inputs.ServiceGame(base, 5, 1)
    other = perf_inputs.ServiceGame(base, 5, 2)
    assert (one.hash, one.submit, one.dynamics) == (again.hash, again.submit, again.dynamics)
    assert one.hash != other.hash
    assert set(one.spec.costs) == set(other.spec.costs)


def test_same_seed_counts_repeat(tmp_path):
    sweep = perf_inputs.census_sweep(7, 32)
    first = perf_local.census_episode(sweep, tmp_path)
    second = perf_local.census_episode(sweep, tmp_path)
    assert (first["claims"], first["done"]) == (second["claims"], second["done"]) == (2, 32)
    assert first["cells"] == second["cells"] == perf_local.census_oracle(sweep)

    stream = perf_inputs.lazy_stream(7, 40, 3)
    runs = [perf_local.lazy_episode(stream, classify=True) for _ in range(2)]
    assert runs[0]["answers"] == runs[1]["answers"]
    assert runs[0]["stats"] == runs[1]["stats"]
    assert runs[0]["stats"]["misses"] == sum(runs[0]["missed"]) == 3


def test_refuses_to_run_without_the_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lazy-targeted",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
    assert "no program source" in result.stderr
