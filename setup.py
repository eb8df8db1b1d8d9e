"""Build script: compiles the optional backtracking kernel.

The package is fully functional without the extension (a pure-Python
kernel is selected at import time); any build failure therefore only costs
speed, never correctness.
"""

import sys

from setuptools import setup

try:
    from Cython.Build import cythonize

    ext_modules = cythonize(
        ["src/incolour/_ckernel.pyx"],
        compiler_directives={"language_level": "3"},
    )
except ImportError:
    print("Cython unavailable; building without the compiled kernel", file=sys.stderr)
    ext_modules = []

setup(ext_modules=ext_modules)
