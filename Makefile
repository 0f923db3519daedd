# Convenience targets for the MTMRP reproduction.

PY ?= python

.PHONY: install test bench figures figures-full examples clean

install:
	$(PY) setup.py develop

test:
	$(PY) -m pytest tests/

# end-to-end benchmark: every workload, outputs checked against pinned
# digests (bench/README.md; A/B two commits with bench/ab.py)
bench:
	python3 bench/run.py

# reduced regeneration of every paper figure (minutes)
figures:
	$(PY) -m repro.experiments fig5 --runs 30 --svg-dir results/svg
	$(PY) -m repro.experiments fig6 --runs 30 --svg-dir results/svg
	$(PY) -m repro.experiments fig7 --runs 15 --svg-dir results/svg
	$(PY) -m repro.experiments fig8 --runs 15 --svg-dir results/svg
	$(PY) -m repro.experiments fig9 --svg-dir results/svg
	$(PY) -m repro.experiments fig10 --svg-dir results/svg

# the paper's full 100-round averaging (long)
figures-full:
	$(PY) -m repro.experiments fig5 --runs 100
	$(PY) -m repro.experiments fig6 --runs 100
	$(PY) -m repro.experiments fig7 --runs 30
	$(PY) -m repro.experiments fig8 --runs 30

examples:
	for ex in examples/*.py; do echo "== $$ex =="; $(PY) $$ex || exit 1; done

clean:
	rm -rf .pytest_cache .hypothesis build dist *.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
