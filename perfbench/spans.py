"""Layer spans around the public functions of the eqlab modules.

`Tracer.install()` replaces each traced function with a wrapper in every
eqlab module that holds it, because modules import these functions by name
(`hermitian_eigendecomposition` lives in `linalg` but is called through
`states` and `hamiltonians`). Wrappers record a span (layer, start, end,
parent span, returned normally) in memory; `metrics()` turns the spans and
counters into per-layer numbers after the run, and `write()` saves the spans.

A layer's self time is its span time minus the time its direct child spans
cover. Calls run on one thread, so child spans nest inside their parent.
"""

from __future__ import annotations

import hashlib
import sys
import time
from collections import Counter

# Layers whose call counts are reported as well as self time.
COUNTED = {
    "linalg": ("hermitian_eigendecomposition", "haar_random_unitary"),
    "hamiltonians": (
        "gap_analysis",
        "random_spectral_hamiltonian",
        "spin_bath_hamiltonian",
        "diagonal_product_hamiltonian",
    ),
    "dynamics": (
        "reduced_states_at_times",
        "energy_coefficients",
        "dephased_time_average",
        "require_nondegenerate",
    ),
    "states": ("trace_distance", "numerical_rank", "haar_random_state"),
    "bipartite": ("partial_trace_bath", "partial_trace_system"),
}
# Layers reported by self time only.
SELF_ONLY = {
    "verifiers": (
        "theorem1_check",
        "subadditivity_and_bath_checks",
        "theorem4_tail",
        "torus_distances",
        "ergodicity_ks_statistic",
        "d_eff_of_time_average",
        "diagonal_counterexample",
        "spin_bath_counterexample",
    ),
    "runner": ("run_experiment", "emit"),
}
BUILDERS = (
    "hamiltonians.random_spectral_hamiltonian",
    "hamiltonians.spin_bath_hamiltonian",
    "hamiltonians.diagonal_product_hamiltonian",
)
COMPLEX_BYTES = 16


def layer_names() -> list[str]:
    return [f"{m}.{f}" for group in (COUNTED, SELF_ONLY) for m, fs in group.items() for f in fs]


class Tracer:
    def __init__(self) -> None:
        self.layers = layer_names()
        self.spans: list[tuple[int, float, float, int, bool]] = []
        self.counts: Counter = Counter()
        self.fingerprints: set[bytes] = set()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []  # layers eqlab no longer has; they read 0

    def _note(self, layer: str, args: tuple, result) -> None:
        """Work counts that need the arguments or the result of a call."""
        if layer == "linalg.hermitian_eigendecomposition":
            self.counts["work_d3"] += len(args[0]) ** 3
        elif layer == "dynamics.reduced_states_at_times":
            _, h, space, times = args[:4]
            n = len(times)
            self.counts["samples"] += n
            # phases and states (n x d each) and the rho_S stack (n x d_S x d_S)
            self.counts["bytes_computed"] += COMPLEX_BYTES * n * (2 * h.dim + space.d_S**2)
        elif layer in BUILDERS:
            h = result[0] if isinstance(result, tuple) else result
            self.fingerprints.add(hashlib.sha1(h.energies.tobytes()).digest())

    def _wrap(self, layer_id: int, fn):
        layer = self.layers[layer_id]
        spans, stack, note = self.spans, self._stack, self._note
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer_id, start, end, parent, ok)
            note(layer, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function in every eqlab module that holds it."""
        modules = [m for name, m in sys.modules.items() if name == "eqlab" or name.startswith("eqlab.")]
        for layer_id, layer in enumerate(self.layers):
            module, name = layer.split(".")
            original = getattr(sys.modules[f"eqlab.{module}"], name, None)
            if original is None:
                self.missing.append(layer)
                continue
            wrapper = self._wrap(layer_id, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def metrics(self, traced_wall_s: float) -> dict[str, float]:
        n = len(self.layers)
        calls, total, child = [0] * n, [0.0] * n, [0.0] * n
        covered = 0.0
        accepted_builds = build_gap_checks = 0
        builder_ids = {self.layers.index(b) for b in BUILDERS}
        gap_id = self.layers.index("hamiltonians.gap_analysis")
        for layer_id, start, end, parent, ok in self.spans:
            duration = end - start
            calls[layer_id] += 1
            total[layer_id] += duration
            if parent < 0:
                covered += duration
            else:
                parent_layer = self.spans[parent][0]
                child[parent_layer] += duration
                if layer_id == gap_id and parent_layer in builder_ids:
                    build_gap_checks += 1
            if layer_id in builder_ids and ok:
                accepted_builds += 1

        out: dict[str, float] = {}
        for layer_id, layer in enumerate(self.layers):
            if layer.split(".")[0] in COUNTED:
                out[f"{layer}.calls"] = calls[layer_id]
            out[f"{layer}.self_s"] = total[layer_id] - child[layer_id]
        out["linalg.hermitian_eigendecomposition.work_d3"] = self.counts["work_d3"]
        out["dynamics.reduced_states_at_times.samples"] = self.counts["samples"]
        out["dynamics.reduced_states_at_times.bytes_computed"] = self.counts["bytes_computed"]
        out["hamiltonians.builds_accepted"] = accepted_builds
        out["hamiltonians.build_gap_checks"] = build_gap_checks
        out["hamiltonians.gap_pass_ratio"] = accepted_builds / build_gap_checks if build_gap_checks else 0.0
        out["hamiltonians.distinct_ratio"] = len(self.fingerprints) / accepted_builds if accepted_builds else 0.0
        out["trace.spans"] = len(self.spans)
        out["trace.uncovered_frac"] = (traced_wall_s - covered) / traced_wall_s
        return out

    def write(self, path: str) -> None:
        """Save the spans as CSV: layer, start_s, end_s, parent span, ok."""
        with open(path, "w") as fh:
            fh.write("span,layer,start_s,end_s,parent,ok\n")
            for index, (layer_id, start, end, parent, ok) in enumerate(self.spans):
                fh.write(f"{index},{self.layers[layer_id]},{start!r},{end!r},{parent},{int(ok)}\n")
