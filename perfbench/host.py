"""BLAS thread pinning, child-process teardown and the host record
printed with every run.

Unpinned, OpenBLAS starts one thread per CPU in the supervisor *and* in
every forked worker process, which oversubscribes a small host under
``execution="multiprocess"``. :func:`pin_threads` must run before numpy
is first imported; forked workers inherit the setting.
"""

from __future__ import annotations

import ctypes
import os
import platform
import signal

BLAS_THREADS = 1
_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
)
# OpenBLAS builds bundled by numpy and scipy prefix their symbols.
_GET_THREADS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def pin_threads() -> None:
    """Pin BLAS/OpenMP pools to :data:`BLAS_THREADS` threads."""
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def child_pids() -> list[int]:
    """Pids whose parent is this process, zombies included."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as f:
                stat = f.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return sorted(pids)


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    Besides the worker processes (which ``trainer.close()`` already
    joins), ``multiprocessing.shared_memory`` starts Python's resource
    tracker on first use; it is meant to outlive its parent and would
    linger after the run. Closing its pipe ends it; any other child left
    over is killed. Must run after every ``SharedMemory`` is closed, or
    a later unlink would start a new tracker.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for proc in multiprocessing.active_children():
        proc.kill()
        proc.join()
    resource_tracker._resource_tracker._stop()  # noqa: SLF001 - no public stop
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS library actually uses."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = sorted({
                line.split()[-1] for line in f
                if "openblas" in line.lower() and ".so" in line
            })
    except OSError:
        return {}
    out: dict[str, int] = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in _GET_THREADS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                out[os.path.basename(path)] = int(getter())
                break
    return out


def host_record() -> dict[str, object]:
    """nproc, CPU model, library versions and the pinned thread counts."""
    import numpy as np
    import scipy

    def _blas_version(config: dict) -> str:
        blas = config.get("Build Dependencies", {}).get("blas", {})
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_version(np.show_config(mode="dicts")),
        "scipy_blas": _blas_version(scipy.show_config(mode="dicts")),
        "thread_env": {var: os.environ.get(var) for var in _THREAD_VARS},
        "openblas_threads": _openblas_threads(),
    }
