"""Tests for the multi-process fan-out primitive, ``parallel_map``.

Covers the failure-surfacing contract: worker exceptions are re-raised
in the parent with the original worker traceback attached — never
silently retried in-process.
"""

import threading

import pytest

from repro.sim.parallel import WorkerError, parallel_map


# -- module-level worker functions (picklable by qualified name) -----------------


def _double(x):
    return x * 2


def _boom(x):
    raise ValueError(f"bad item {x}")


def _os_error(x):
    # Historically the dangerous case: OSError from a *worker* used to be
    # indistinguishable from "this platform cannot fork".
    raise OSError(f"disk on fire for {x}")


class _UnpicklableError(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()  # cannot cross a process boundary


def _raise_unpicklable(x):
    raise _UnpicklableError(f"held a lock for {x}")


class TestParallelMap:
    def test_maps_in_order(self):
        assert parallel_map(_double, [3, 1, 2], workers=2) == [6, 2, 4]

    def test_single_worker_stays_in_process(self):
        assert parallel_map(_double, [5, 6], workers=1) == [10, 12]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_worker_exception_propagates_with_traceback(self, workers):
        with pytest.raises(ValueError, match="bad item 5") as excinfo:
            parallel_map(_boom, [5, 7, 9], workers=workers)
        notes = "\n".join(getattr(excinfo.value, "__notes__", []))
        assert "worker traceback" in notes
        assert "_boom" in notes  # the original frame, not a re-raise site

    def test_worker_oserror_is_not_mistaken_for_fork_failure(self):
        # Regression: the old implementation caught OSError around the
        # whole pool block, so a worker raising OSError was silently
        # re-run in-process.  It must propagate, with worker context.
        with pytest.raises(OSError, match="disk on fire") as excinfo:
            parallel_map(_os_error, [1, 2, 3], workers=2)
        notes = "\n".join(getattr(excinfo.value, "__notes__", []))
        assert "_os_error" in notes

    def test_unpicklable_exception_becomes_worker_error(self):
        with pytest.raises(WorkerError, match="held a lock for 1") as excinfo:
            parallel_map(_raise_unpicklable, [1, 2], workers=2)
        assert "_raise_unpicklable" in str(excinfo.value)
