import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """Peak bytes allocated while call() runs, above what was live when it began.

    numpy reports its array buffers to tracemalloc, so the figure is the
    deterministic working set of the call, not a resident-set probe.
    """

    def measure(call) -> int:
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()

    return measure
