"""What checking a tiling costs the host, as counts (not a stopwatch).

Importable without pytest: the ``perf-gate`` CI job prints and gates the
same counts at P = 1024 that ``tests/layout/test_blocks.py`` gates.
"""

from __future__ import annotations

import sys

from repro.layout.blocks import rects_cover_exactly

#: Python calls (``call`` + ``c_call``) one cover check may make, whatever
#: its number of rects; the pairwise loop made 1 512 875 for the 576
#: block-cyclic rects of a 1536² matrix and 5 777 931 for 1 024 columns.
MAX_COVER_CALLS = 100


def cover_check_calls(dist) -> tuple[int, int]:
    """Python calls (``call`` + ``c_call`` of ``sys.setprofile``) of
    ``dist.validate()`` on its built ``rect_index``, and of
    ``rects_cover_exactly`` on its rects, as hostbench checks a product."""
    dist.rect_index()
    rects = [r for rank in range(dist.nranks) for r in dist.owned_rects(rank)]
    counts = []
    for check in (dist.validate, lambda: rects_cover_exactly(rects, dist.whole())):
        calls = 0

        def hook(frame, event, arg):
            nonlocal calls
            if event == "call" or event == "c_call":
                calls += 1

        sys.setprofile(hook)
        try:
            check()
        finally:
            sys.setprofile(None)
        counts.append(calls)
    return counts[0], counts[1]
