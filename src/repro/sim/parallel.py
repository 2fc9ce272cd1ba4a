"""Deterministic multi-process fan-out: :func:`parallel_map`.

Fork a worker pool, map a pure function over the items, tear the pool
down.  Its one caller is the density sweep, whose points run across
``DensitySweep(workers=N)`` processes (``repro density --workers N``).
It falls back to in-process execution whenever forking is impossible —
no ``fork`` start method on the platform, a sandbox that forbids
subprocesses, or running *inside* a pool worker (daemonic processes
cannot have children).

The contract callers must honour is that worker functions are pure
functions of the item — every item carries its own seed material and no
result depends on scheduling.  Under that contract the parallel run is
bit-for-bit the serial run, so the fallback is always safe.  ``repro
lint`` rule family 3 (``fork-unsafe``) statically enforces the shape:
workers must be module-level functions that do not close over locks,
files, Simulators or Mediums.

Failure surfacing: a worker exception is captured *with its original
traceback text* in the worker, shipped back, and re-raised in the
parent with the worker traceback attached as an exception note (or
wrapped in :class:`WorkerError` when the exception itself cannot cross
the process boundary).  Worker failures are never misread as "this
platform cannot fork" — only pool *construction* errors trigger the
serial fallback.
"""

from __future__ import annotations

import traceback
from typing import Any, Callable, List, Optional, Sequence, Tuple, TypeVar

Item = TypeVar("Item")
Result = TypeVar("Result")

#: Tag values of the (tag, ...) result envelopes workers send back.
_OK = "ok"
_ERR = "err"


class WorkerError(RuntimeError):
    """A worker raised an exception that could not itself be shipped
    back to the parent; carries the worker's original traceback text."""


def _capture(fn: Callable[..., Any], *args: Any) -> Tuple[Any, ...]:
    """Run ``fn`` and envelope the outcome.

    Success becomes ``("ok", result)``; failure becomes ``("err",
    exception_or_None, traceback_text)`` — the exception object rides
    along when it can be pickled, and the formatted traceback always
    does, so the parent can re-raise with full worker context either
    way.
    """
    try:
        return (_OK, fn(*args))
    except Exception as exc:  # repro: ignore[except-swallow] -- nothing vanishes: the exception and its formatted traceback are enveloped and re-raised in the parent by _unwrap.
        text = traceback.format_exc()
        try:
            import pickle

            pickle.dumps(exc)
        except Exception:  # repro: ignore[except-swallow] -- pickleability probe: an unpicklable exception degrades to its traceback text, which _unwrap re-raises as WorkerError.
            exc = None  # unpicklable: the text still crosses the boundary
        return (_ERR, exc, text)


def _unwrap(envelope: Tuple[Any, ...], where: str) -> Any:
    """Return the payload of an ``("ok", ...)`` envelope, or re-raise a
    worker failure with the original traceback text attached."""
    if envelope[0] == _OK:
        return envelope[1]
    _, exc, text = envelope
    if exc is not None:
        exc.add_note(f"[{where}] worker traceback:\n{text}")
        raise exc
    raise WorkerError(f"[{where}] worker raised:\n{text}")


def parallel_map(
    fn: Callable[[Item], Result], items: Sequence[Item], workers: int
) -> List[Result]:
    """``[fn(item) for item in items]``, across ``workers`` processes.

    Args:
        fn: A picklable module-level pure function.
        items: The work list; results come back in the same order.
        workers: Process budget; ``<= 1`` (or a single item) runs
            in-process without touching ``multiprocessing``.

    Returns:
        The mapped results, in item order.

    Raises:
        Whatever ``fn`` raised, re-raised in the parent with the worker
        traceback attached as a note (:class:`WorkerError` when the
        original exception cannot be pickled back).  Worker failures
        propagate — they are never silently retried in-process.
    """
    envelopes: Optional[List[Tuple[Any, ...]]] = None
    if workers > 1 and len(items) > 1:
        try:
            import multiprocessing

            if multiprocessing.current_process().daemon:
                raise OSError("nested pool")  # workers cannot fork children
            ctx = multiprocessing.get_context("fork")
            pool = ctx.Pool(min(workers, len(items)))
        except (ImportError, ValueError, OSError, AssertionError):
            pass  # no usable fork here: fall through to in-process
        else:
            # Worker exceptions come back as data envelopes, so nothing a
            # worker raises can be mistaken for a pool-construction error.
            with pool:
                envelopes = pool.starmap(_capture, [(fn, item) for item in items])
    if envelopes is None:
        envelopes = [_capture(fn, item) for item in items]
    return [_unwrap(envelope, f"parallel_map:{fn.__name__}") for envelope in envelopes]
