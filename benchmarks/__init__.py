"""Paper reproductions: one module per table/figure of Section 5, plus the
ablations, each timed with pytest-benchmark. Run with
``pytest benchmarks/ --benchmark-only``. ``bench_sparse.py`` is a
standalone script; end-to-end performance numbers come from
``python3 perfbench/run.py``.
"""
