"""Seeded benchmark of the avalloc toolkit; see ``run.py`` and README.md."""
