"""The SIMD target numpy dispatches the recorded digests' loops to, and the
CPU kernel of numpy's bundled OpenBLAS.

numpy picks each ufunc loop's SIMD variant when it is imported, from the
CPU and from NPY_DISABLE_CPU_FEATURES.  The transcendental loops the
recorded digests pass through (log2 in the rate reduction; log1p, expm1
and power in the RVQ sampler) round some results differently in their
AVX-512 variants ("X86_V4") than in their baseline ones, so every recorded
digest is pinned once per target: ``NPY_DISABLE_CPU_FEATURES="X86_V4
AVX512_ICL AVX512_SPR"`` takes an AVX-512 machine down the path of one
without it.

That setting does not change OpenBLAS's kernel, which OpenBLAS picks from
the CPU and from OPENBLAS_CORETYPE.  FULL and PERFECT draws pass through
its matmul and inverse, whose last bits follow the kernel, so the pins of
their float64 parts follow it too: the AVX-512 entries are recorded under
the SkylakeX kernel and the baseline ones under ``OPENBLAS_CORETYPE=
Haswell``, which runs on any x86-64 CPU with AVX2.
"""

import ctypes
import pathlib

import numpy as np

try:
    from numpy.lib.introspect import opt_func_info
except ImportError:  # numpy before 2.0 reports no dispatch targets
    opt_func_info = None

AVX512 = "X86_V4"
BASELINE = "baseline(X86_V2)"

_LOOPS = "^(log2|log1p|expm1|power)$"
_SIGNATURES = ("ff", "dd", "fff", "ddd")


def simd_target() -> str:
    """The targets numpy reports for the float32 and float64 loops of
    _LOOPS, space-separated: AVX512 or BASELINE on x86-64, "unknown"
    where numpy does not report them."""
    if opt_func_info is None:
        return "unknown"
    info = opt_func_info(func_name=_LOOPS, signature="float32|float64")
    return " ".join(sorted({loop["current"] for loops in info.values()
                            for sig, loop in loops.items()
                            if sig in _SIGNATURES}))


def openblas_kernel() -> str:
    """The CPU kernel ("SkylakeX", "Haswell", ...) that numpy's bundled
    OpenBLAS runs in this process, "unknown" where numpy bundles none."""
    libs = sorted((pathlib.Path(np.__file__).parent.parent / "numpy.libs")
                  .glob("libscipy_openblas*"))
    if not libs:
        return "unknown"
    corename = getattr(ctypes.CDLL(str(libs[0])),
                       "scipy_openblas_get_corename64_", None)
    if corename is None:
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def recorded(digests: dict):
    """The entry of ``digests`` (target -> digest) for this process's
    target; a target without one fails, naming it."""
    target = simd_target()
    assert target in digests, f"no digest recorded for SIMD target {target!r}"
    return digests[target]
