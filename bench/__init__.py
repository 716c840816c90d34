"""The repo benchmark: four workloads, measured from outside the program.

See bench/README.md; the contract with the driver is BENCHMARK.json.
"""
