"""The repo's one performance benchmark (see README.md in this directory).

``run.py`` measures one workload per invocation and prints the metrics
``BENCHMARK.json`` names; ``selfcheck.py`` repeats it the way the PR
driver does and checks the benchmark against its own bounds.
"""
