"""Legacy-editable-install shim plus the *optional* native kernel build.

The C extension (``repro._native.replaykernel``: the replay kernel, the
surrogate-trace generator and the offline oracle) is a pure
accelerator: every environment must work without it, so its build is
best-effort — any compiler or toolchain failure downgrades to a
warning and the pure-python wheel, never an install error.  Build it
explicitly with ``make native`` (or ``python setup.py build_ext
--inplace``).
"""
import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """build_ext that treats every failure as 'no native kernel'."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # missing compiler, headers, ...
            self._skip(exc)

    def build_extension(self, ext):
        if self.compiler.compiler_type == "unix":
            # Keep `a * b + c` two roundings, as in the interpreter.
            ext.extra_compile_args = ["-ffp-contract=off"]
        try:
            super().build_extension(ext)
        except Exception as exc:
            self._skip(exc)

    @staticmethod
    def _skip(exc):
        print(
            "warning: native replay kernel build failed (%s); "
            "every run will take the generic Python replay loop" % exc,
            file=sys.stderr,
        )


setup(
    ext_modules=[
        Extension(
            "repro._native.replaykernel",
            sources=[
                "src/repro/_native/replaykernel.c",
                "src/repro/_native/tracegen.c",
                "src/repro/_native/oracle.c",
            ],
            depends=["src/repro/_native/common.h"],
            optional=True,
        )
    ],
    cmdclass={"build_ext": OptionalBuildExt},
)
