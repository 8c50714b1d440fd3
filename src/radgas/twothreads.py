"""Independent pieces of work on two threads: the calling thread and one worker.

numpy releases the GIL inside its array loops, FFTs and BLAS calls, so two
threads that each own their part of the output run on two cores.  Each piece
writes only its own results and takes the same operations on either thread,
so the outcome does not depend on the threads' timing.
"""

from __future__ import annotations

import contextvars
import threading


def on_two_threads(task, items) -> None:
    """Call task(item) for every item: items[0::2] in order on the calling
    thread, items[1::2] in order on one worker thread.

    With fewer than two items no worker is started.  The worker runs in a
    copy of the caller's context, so numpy's `errstate` holds on both
    threads.  It is always joined, also when the calling thread's part
    raises; an exception raised on the worker is re-raised here unless the
    calling thread's own is already propagating.
    """
    if len(items) < 2:
        for item in items:
            task(item)
        return
    failure = []

    def _work():
        try:
            for item in items[1::2]:
                task(item)
        except BaseException as exc:
            failure.append(exc)

    worker = threading.Thread(target=contextvars.copy_context().run, args=(_work,), name="radgas-worker")
    worker.start()
    try:
        for item in items[0::2]:
            task(item)
    finally:
        worker.join()
    if failure:
        raise failure[0]
