"""Reference implementations the test suite and benchmarks hold the
production code against; nothing under ``src/`` imports them."""
