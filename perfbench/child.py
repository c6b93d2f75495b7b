"""Launch `eqlab run` and note when its first trial starts.

    python3 perfbench/child.py STAMP_PATH run --config CFG [--set K=V ...]
    python3 perfbench/child.py STAMP_PATH --setup-only run --config CFG ...
    python3 perfbench/child.py STAMP_PATH --manifest CFG

The first form calls `eqlab.cli.main` with the given arguments, exactly as
the `eqlab` entry point does, and exits with its status. The only addition
is a hook on `eqlab.runner._run_trial` that reads the monotonic clock once,
at the first trial; the parent reads the same system-wide clock before it
starts this process, so the difference is the set-up time (interpreter
start, imports, config validation). `--setup-only` stops at that point.
From the import of numpy to the end, a `HostProbe` times a small fixed
kernel every PROBE_PERIOD_S, so that the parent can tell how fast the host
ran during set-up and during the trials. `--manifest` writes library
versions, the BLAS library and its thread count and the config hash instead
of running anything.

The stamp file is JSON. eqlab must be importable (the parent puts the
checkout's `src` on PYTHONPATH).
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import signal
import sys
import time


# (configuration, thread count) getters, with and without the 64-bit suffix.
BLAS_SYMBOLS = [
    (f"{prefix}_get_config{suffix}", f"{prefix}_get_num_threads{suffix}")
    for suffix in ("64_", "")
    for prefix in ("scipy_openblas", "openblas")
]


def _blas_libraries() -> list[dict]:
    """Runtime configuration and thread count of each loaded OpenBLAS."""
    paths = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            name = os.path.basename(path).lower()
            if "openblas" in name and ".so" in name:
                paths.add(path)
    found = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for config_name, threads_name in BLAS_SYMBOLS:
            config = getattr(lib, config_name, None)
            threads = getattr(lib, threads_name, None)
            if config is not None and threads is not None:
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                info.update(config=config().decode(), threads=threads())
                break
        found.append(info)
    return found


def manifest(config_path: str) -> dict:
    import numpy
    import scipy
    import scipy.stats  # noqa: F401  (loads scipy's own BLAS, as eqlab does)

    import eqlab
    from eqlab.runner import ExperimentConfig

    with open(config_path) as fh:
        config = ExperimentConfig.from_dict(json.load(fh))
    return {
        "eqlab": eqlab.__version__,
        "eqlab_file": eqlab.__file__,
        "config_hash": config.config_hash(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_build": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"],
        "blas_runtime": _blas_libraries(),
        "nproc": os.cpu_count(),
    }


# The probe runs every PROBE_PERIOD_S of wall time and takes about 1 ms.
PROBE_PERIOD_S = 0.02
# About the duration of the timed probe kernel on a quiet host (2.1 GHz Xeon
# VM, numpy 2.4 with OpenBLAS 0.3.31, one thread). It only sets the scale of
# the normalised times: the same constant divides every run.
PROBE_REF_S = 4.5e-4


class HostProbe:
    """Times a fixed kernel from a SIGALRM handler while eqlab runs.

    On a shared host the CPU runs slower for seconds at a time, often by a
    third or more, and eqlab slows with it. The kernel mixes what eqlab spends its
    time on (a Python loop over floats, tiny numpy eigensolves, one dense
    LAPACK eigensolve) and depends on nothing in eqlab, so the mean of its
    durations over a run measures the host's speed during that run. Each
    probe runs the kernel twice and times the second pass only: the first
    refills the caches eqlab's work evicted, which would otherwise add a
    time that depends on eqlab, not on the host. Python runs the handler
    between bytecodes of the main thread, so a long native call delays a
    probe but is never interrupted by one.
    """

    def __init__(self) -> None:
        import numpy

        rng = numpy.random.default_rng(0)
        tiny = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        dense = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        self._eigvalsh = numpy.linalg.eigvalsh
        self._eigh = numpy.linalg.eigh
        self._floats = [float(v) for v in rng.random(200)]
        self._tiny = tiny + tiny.conj().T
        self._dense = dense + dense.conj().T
        self._busy = False
        self.durations: list[float] = []
        self.overhead_s = 0.0  # both passes, taken out of eqlab's time

    def _kernel(self) -> None:
        ordered = sorted(self._floats)
        total = 0.0
        for low, high in zip(ordered, ordered[1:]):
            total += high - low
        for _ in range(10):
            self._eigvalsh(self._tiny)
        self._eigh(self._dense)

    def _probe(self, signum, frame) -> None:
        if self._busy:  # a signal that arrived during the probe itself
            return
        self._busy = True
        begin = time.perf_counter()
        self._kernel()
        start = time.perf_counter()
        self._kernel()
        end = time.perf_counter()
        self.durations.append(end - start)
        self.overhead_s += end - begin
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def tally(self) -> tuple[int, float, float]:
        """Probes so far, their timed passes' total and their whole time."""
        return len(self.durations), sum(self.durations), self.overhead_s


def main(argv: list[str]) -> int:
    stamp_path, rest = argv[0], argv[1:]
    if rest[0] == "--manifest":
        with open(stamp_path, "w") as fh:
            json.dump(manifest(rest[1]), fh, indent=1)
        return 0
    setup_only = rest[0] == "--setup-only"
    if setup_only:
        rest = rest[1:]

    probe = HostProbe()  # imports numpy, which eqlab imports first anyway
    probe.start()
    stamp: dict = {}
    try:
        from eqlab import cli, runner

        run_trial = runner._run_trial

        def first_trial_hook(payload):
            if not stamp:
                stamp["first_trial"] = time.monotonic()
                stamp["setup_probe"] = probe.tally()
                if setup_only:
                    raise SystemExit(0)
            return run_trial(payload)

        runner._run_trial = first_trial_hook
        return cli.main(rest)
    finally:
        probe.stop()
        stamp["end"] = time.monotonic()
        stamp["probe"] = probe.tally()
        with open(stamp_path, "w") as fh:
            json.dump(stamp, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
