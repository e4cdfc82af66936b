"""Equivalence oracles: the slow, obviously-correct form of each fast path.

Each module mirrors one production layer and holds only the reference
implementations its equivalence suite compares against (loops the
vectorized engines replaced, pre-refactor bodies the backends carved
out).  Production code never imports this package; tests, the hot-path
benchmark and ``abl-allocator``'s explicit "greedy (reference loop)" row
do, and ``tests/test_oracle_boundary.py`` enforces that boundary.
Nothing is re-exported here: import the layer module.
"""
