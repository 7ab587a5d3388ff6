# Developer entrypoints. `make check` is the gate a change must pass:
# lint (unused imports fail fast) + the domain-aware static analysis
# suite (determinism, unit suffixes, RNG policy, ablation API — see
# docs/ANALYSIS.md) + the full tier-1 test suite. `make check-fast` is
# the per-push CI tier: it deselects the `slow` whole-corridor
# simulations (the nightly schedule runs everything plus the perf-gate
# benchmarks).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: check check-fast check-docs lint analyze test test-fast bench

check: lint analyze test

check-fast: lint analyze test-fast

# Docs tier: intra-repo links must resolve, and the city-mesh example
# (short simulation via REPRO_MESH_DURATION_S) and the reader-network
# example (the round driver's only consumer outside the tests) must run
# end to end.
check-docs:
	$(PYTHON) tools/check_links.py
	REPRO_MESH_DURATION_S=12 $(PYTHON) examples/city_mesh.py
	$(PYTHON) examples/reader_network.py

lint:
	$(PYTHON) tools/lint.py

# Static analysis suite (`python -m tools.analyze`): zero unbaselined
# findings or the build fails. The JSON report is the CI artifact.
analyze:
	$(PYTHON) -m tools.analyze --json benchmarks/results/ANALYZE_findings.json

test:
	$(PYTHON) -m pytest -x -q

test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow"

# Paper-figure regeneration (slow). REPRO_BENCH_SCALE scales MC runs.
bench:
	$(PYTHON) -m pytest benchmarks -q \
		-o python_files='bench_*.py' -o python_functions='bench_*' \
		-p no:cacheprovider
