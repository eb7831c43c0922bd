"""Per-element releases of a release mechanism, for tests.

A release mechanism has one way in (``advance_batch``) and one way out
(``current_sum``).  The release after every element, which most
mechanism tests compare against a reference, is a one-element commit
read at once; :func:`step` and :func:`steps` are that pattern, and
:func:`block_reads` reads after each block of a split instead.
"""

import numpy as np


def step(mech, value):
    """Commit one element to ``mech`` and return the release after it."""
    mech.advance_batch(np.asarray(value)[None])
    return mech.current_sum()


def steps(mech, values):
    """Commit ``values`` one element at a time; return the ``(k, *shape)``
    stack of the releases after each."""
    return np.array([step(mech, value) for value in values])


def block_reads(mech, blocks):
    """Commit each block to ``mech`` in turn; return the ``(n, *shape)``
    stack of the releases read after each block."""
    reads = []
    for block in blocks:
        mech.advance_batch(block)
        reads.append(mech.current_sum())
    return np.array(reads)
