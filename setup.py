"""Build script for the optional compiled kernel extension.

The package is fully functional without the extension: genspectra.kernels
falls back to the pure-Python implementations whenever the compiled module
is missing, and the extension is marked optional, so an install without a
C compiler still succeeds. The extension is one hand-written C file with
the matrix product (tiled, four rows of the output over 64-column blocks,
each entry adding its terms in the pure-Python order), the cyclic Jacobi
sweeps, the Householder tridiagonal eigensolver and the inverse Cholesky
factor; it needs neither Cython nor the numpy headers. A module built from an older source, without
every kernel, is ignored.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "genspectra.kernels._cykernels",
            ["src/genspectra/kernels/_cykernels.c"],
            # -O2 without fast-math: keep IEEE semantics identical to the
            # pure-Python backend. -ffp-contract=off because gcc fuses
            # multiply-adds into FMA on aarch64, which breaks bit parity
            # between the backends.
            extra_compile_args=["-O2", "-ffp-contract=off"],
            optional=True,
        )
    ],
)
