"""bench_e2e: the whole-query benchmark (see README.md in this directory)."""
