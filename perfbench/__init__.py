"""Seeded benchmark of the mwis package; run it with ``python3 perfbench/run.py``."""
