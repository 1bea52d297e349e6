"""Benchmark harness for dimercorr; run it through bench/run.py."""
