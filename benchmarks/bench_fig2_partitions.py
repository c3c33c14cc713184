"""Figure 2: the worked partitioning examples, regenerated exactly.

Renders Examples 1 and 2 as owner-labelled block diagrams and asserts
the specific placements the paper spells out (P1-P5 replica pairing in
Example 1; the C strips of P1/P5/P9/P13 in Example 2).
"""

from __future__ import annotations

from repro.bench import fig2_partitions


def test_fig2_partitions(benchmark, emit):
    result = benchmark.pedantic(fig2_partitions, rounds=1, iterations=1)
    emit(result)

    ex1, ex2 = result.data["ex1"], result.data["ex2"]
    # Example 1: grid 2x4x1, c = 2, A replicated across the P1/P5 pair.
    assert (ex1.pm, ex1.pn, ex1.pk, ex1.c) == (2, 4, 1, 2)
    assert ex1.groups(0)[1] == ex1.groups(4)[1] == (0, 4)
    # Example 2: grid 2x2x4; the paper's exact C strips.
    from repro.layout.blocks import Rect

    assert ex2.c_owned(0) == Rect(0, 16, 0, 4)
    assert ex2.c_owned(4) == Rect(0, 16, 4, 8)
    assert ex2.c_owned(8) == Rect(0, 16, 8, 12)
    assert ex2.c_owned(12) == Rect(0, 16, 12, 16)
    # the rendering itself names the processes
    assert "P13" in result.text and "P5" in result.text
