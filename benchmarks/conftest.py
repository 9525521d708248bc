"""Pin GEMM threading for the artifact suite.

The suite reaches ``run_method`` without passing through ``repro.cli``,
so without this its numbers would depend on the host's core count.
"""

from repro.blas import pin_blas_threads

pin_blas_threads()  # before numpy loads, as tests/conftest.py and repro.cli.main do
