"""Hypothesis strategies for valid polymatroid rank tables.

Tables come from the library's window sampler, driven by a Hypothesis
random, so every drawn table satisfies all the axioms, every valid table
stays reachable, and failing examples shrink through the drawn choices.
"""

from hypothesis import strategies as st

from polytoric.sampling import random_rank_table


@st.composite
def rank_tables(draw, max_n=4, max_unit_rank=3):
    n = draw(st.integers(min_value=2, max_value=max_n))
    rnd = draw(st.randoms(use_true_random=False))
    return random_rank_table(n, rnd, max_unit_rank), n
