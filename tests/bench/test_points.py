"""The run-point executor: the workload table and the one fan-out.

``fan_out`` is what makes every bench, scale and diff artifact
independent of ``--jobs``: results come back in task order whatever
order the workers finish in, each task is timed inside its worker, and
a single task never pays for a process pool.
"""

import os
import time

import pytest

from repro.bench.points import WORKLOADS, fan_out, sized_point
from repro.cli import build_parser


def _wait_for_partner(task):
    """Task 0 blocks until task 1 has finished, so with two workers the
    later task always finishes first."""
    index, flag = task
    if index == 0:
        deadline = time.monotonic() + 30.0
        while not os.path.exists(flag):
            assert time.monotonic() < deadline, "task 1 never ran"
            time.sleep(0.01)
    else:
        with open(flag, "w"):
            pass
    return index, os.getpid()


def _pid(task):
    return os.getpid()


def _nap(seconds):
    time.sleep(seconds)
    return os.getpid()


def test_fan_out_merges_in_task_order_when_later_tasks_finish_first(
        tmp_path):
    flag = str(tmp_path / "task1-done")
    tasks = [(0, flag), (1, flag)]
    noted = []
    built = fan_out(_wait_for_partner, tasks, jobs=2,
                    note=lambda task, value, seconds: noted.append(task[0]))
    assert [value[0] for value, _ in built] == [0, 1]
    assert noted == [0, 1]
    # Both tasks ran in worker processes, one each.
    pids = {value[1] for value, _ in built}
    assert len(pids) == 2 and os.getpid() not in pids


def test_fan_out_rejects_nonpositive_jobs():
    with pytest.raises(SystemExit, match="error: jobs must be positive: 0"):
        fan_out(_pid, [1, 2], jobs=0)


def test_fan_out_runs_a_single_task_in_process():
    ((pid, seconds),) = fan_out(_nap, [0.05], jobs=4)
    assert pid == os.getpid()
    assert seconds >= 0.05                  # the task's own wall time


def _workload_choices(command):
    parser = build_parser()
    (subparsers,) = [action for action in parser._actions
                     if action.choices and command in action.choices]
    sub = subparsers.choices[command]
    (workload,) = [action for action in sub._actions
                   if "--workload" in action.option_strings]
    return workload.choices


@pytest.mark.parametrize("command", ["scale", "diff"])
def test_every_cli_workload_is_in_the_table(command):
    choices = _workload_choices(command)
    assert choices
    assert set(choices) <= set(WORKLOADS)


def test_sized_point_maps_knobs_onto_config_fields():
    stream = sized_point("stream-tx", "copy", cores=4, size=16384,
                         units=60, warmup=15)
    assert stream.params == {"cores": 4, "message_size": 16384,
                             "units_per_core": 60, "warmup_units": 15}
    # TCP_RR is one flow on one core: a cores knob is dropped.
    rr = sized_point("rr", "copy", cores=8, size=64, units=40, warmup=10)
    assert rr.params == {"message_size": 64, "transactions": 40,
                         "warmup_transactions": 10}
    with pytest.raises(SystemExit, match="unknown workload"):
        sized_point("nope", "copy", cores=1)
