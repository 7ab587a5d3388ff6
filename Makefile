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

# Docs tier: intra-repo links must resolve, and these examples must run
# end to end: the city mesh (short simulation via REPRO_MESH_DURATION_S),
# the reader network (the round driver's only consumer outside the
# tests) and the five single-reader demos that build the radio-core
# classes (reader, counter, AoA estimator, localizers, decoder) directly,
# so a cut to their constructors cannot break them silently.
check-docs:
	$(PYTHON) tools/check_links.py
	REPRO_MESH_DURATION_S=12 $(PYTHON) examples/city_mesh.py
	$(PYTHON) examples/reader_network.py
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/smart_parking.py
	$(PYTHON) examples/red_light.py
	$(PYTHON) examples/speed_enforcement.py
	$(PYTHON) examples/decode_ids.py

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
