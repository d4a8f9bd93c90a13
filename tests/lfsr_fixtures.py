"""The 4-bit LFSR of Fig. 2 of the paper, as a test fixture.

``paper_example_matrix`` is its transition matrix and ``symbolic_states`` its
symbolic state table.  Imported by the test modules (this file is not
collected: no ``test_`` prefix).
"""

from typing import List

from repro.gf2.matrix import GF2Matrix, identity


def paper_example_matrix() -> GF2Matrix:
    """The 4-bit LFSR of Fig. 2 of the paper.

    The symbolic state table of the figure corresponds to the transition

    ====  ==========================
    cell  next value
    ====  ==========================
    c0    c3
    c1    c0 XOR c3
    c2    c1
    c3    c2 XOR c3
    ====  ==========================
    """
    return GF2Matrix.from_rows(
        [
            [0, 0, 0, 1],  # c0' = c3
            [1, 0, 0, 1],  # c1' = c0 + c3
            [0, 1, 0, 0],  # c2' = c1
            [0, 0, 1, 1],  # c3' = c2 + c3
        ]
    )


def symbolic_states(transition: GF2Matrix, cycles: int) -> List[GF2Matrix]:
    """Symbolic LFSR contents for cycles ``t0 .. t_cycles``.

    Entry ``t`` is the matrix whose row ``i`` gives cell ``c_i`` at cycle
    ``t`` as a linear expression of the initial contents ``a0 .. a(n-1)``
    (exactly the table in Fig. 2 of the paper).  Entry 0 is the identity.
    """
    if transition.nrows != transition.ncols:
        raise ValueError("transition matrix must be square")
    if cycles < 0:
        raise ValueError("cycles must be non-negative")
    states = [identity(transition.ncols)]
    for _ in range(cycles):
        states.append(transition @ states[-1])
    return states
