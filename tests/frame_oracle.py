"""Frozen reference for ``operators.frame_operator``.

This is the earlier form that synthesized each point-sample level from the
gathered columns ``Q_k[:, y]``.  ``test_operators.py`` asserts that the
row-form synthesis gives the same bits on every level kind.
"""

import numpy as np

from homspace.operators import Field, analyze


def frame_operator(stack, f):
    space = stack.space
    out = np.zeros(space.n)
    for k, lc in analyze(stack, f).levels.items():
        if lc.average is None:
            out += stack.q[k][:, lc.y_index] @ (lc.weight * lc.value)
        else:
            sub_assign = stack.cubes.sample_arrays(k).sub_assign
            out += stack.q[k] @ (space.weight * lc.average[sub_assign])
    return Field(space, out)
