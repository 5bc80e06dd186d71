"""Benchmark of the testability package; run.py is the entry point."""
