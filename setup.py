"""Build script for the optional compiled kernel extension.

The package is fully functional without the extension: genspectra.kernels
falls back to the pure-Python implementations whenever the compiled module
is missing. Building with Cython simply makes the inner loops (Jacobi
sweeps, matrix products) much faster on larger inputs.
"""

from setuptools import Extension, setup

try:
    import numpy
    from Cython.Build import cythonize
except ImportError:
    cythonize = None

ext_modules = []
if cythonize is not None:
    ext_modules = cythonize(
        [
            Extension(
                "genspectra.kernels._cykernels",
                ["src/genspectra/kernels/_cykernels.pyx"],
                include_dirs=[numpy.get_include()],
                # -O2 without fast-math: keep IEEE semantics identical to
                # the pure-Python backend. -ffp-contract=off because gcc
                # fuses multiply-adds into FMA on aarch64, which breaks
                # bit parity between the backends.
                extra_compile_args=["-O2", "-ffp-contract=off"],
            )
        ],
        compiler_directives={"language_level": "3"},
    )

setup(ext_modules=ext_modules)
