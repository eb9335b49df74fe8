"""Per-layer tracing of cyclos from outside the program.

The tracer wraps the public functions of each layer (and ``__init__`` of the
``ChainComplex`` and ``Filtration`` classes), rebinding every module
namespace that holds the original, so a call through ``from x import f``
is timed too. Each wrapper keeps a call count and self time (its span
minus the spans of traced calls inside it). Work counts come from return
values and arguments after the span closes; the time they take is charged
to no layer. ``restore`` puts every original back.

Per-element helpers (``wrap_time``, ``circular_distance``, ``kernel_value``,
union-find ``find``, ``Fraction`` operations) are not wrapped: at millions
of calls a wrapper would distort the run. Their cost shows up as the
caller's self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import sys
import time
from typing import Callable

Counter = Callable[[dict, tuple, object], None]


def _add(counts: dict, name: str, value: float) -> None:
    counts[name] = counts.get(name, 0) + value


def _rref_cells(counts, args, result):
    reduced, _ = result
    _add(counts, "ratlin.rref.cells", len(reduced) * (len(reduced[0]) if reduced else 0))


def _complex_counts(counts, args, result):
    cx = args[0]
    edges, vertices = len(cx.edges), len(cx.vertices)
    _add(counts, "chaincore.edges", edges)
    _add(counts, "chaincore.dense_cells", vertices * edges)
    _add(counts, "chaincore.cycle_rank", edges - vertices + cx.n_components())


def _spike_pairs(counts, train):
    spikes = len(train.spikes)
    _add(counts, "coincide.spikes", spikes)
    _add(counts, "coincide.pairs_enumerated", spikes * (spikes - 1) // 2)


def _closed_part_counts(counts, args, result):
    _spike_pairs(counts, args[0])
    _add(counts, "coincide.pairs_kept", len(result.graph.edges))


def _persistence_counts(counts, args, result):
    _spike_pairs(counts, args[0])
    # every kept pair enters as one edge: it merges two components or opens a cycle
    kept = sum(1 for b in result.bars if b.dim == 1 or b.death != math.inf)
    _add(counts, "coincide.pairs_kept", kept)


def _filtration_steps(counts, args, result):
    _add(counts, "persist.steps", len(args[0].steps))


def _barcode_bars(counts, args, result):
    _add(counts, "persist.bars", len(result.bars))


def _accumulate_counts(counts, args, result):
    glimpses, _, config = args[:3]
    votes = sum(len(features) for _, features in glimpses)
    on_grid = votes - result.overflow_count
    _add(counts, "ght.votes", votes)
    _add(counts, "ght.on_grid", on_grid)
    cells = 1
    if config.kernel == "gaussian":
        xmin, xmax, ymin, ymax = config.extent
        nx, ny = config.shape
        reach_x = math.ceil(3.0 * config.bandwidth / ((xmax - xmin) / nx))
        reach_y = math.ceil(3.0 * config.bandwidth / ((ymax - ymin) / ny))
        cells = (2 * reach_x + 1) * (2 * reach_y + 1)
    _add(counts, "ght.kernel_cells", on_grid * cells)


def _threshold_count(counts, args, result):
    _add(counts, "ght.thresholds", len(args[1]))


def _place_counts(counts, args, result):
    cfg, cells = args[0], args[1]
    nx, ny = args[4]
    _add(counts, "gridplace.positions", nx * ny)
    per_lattice = 512 if cfg.kernel == "von_mises" else 1  # gate integration steps
    _add(counts, "gridplace.gate_evals", nx * ny * len(cells) * per_lattice)


def _segment_checks(counts, args, result):
    path, ws = args[0], args[1]
    _add(counts, "nav.segment_checks", (len(path) - 1) * len(ws.obstacles))


def _simulate_counts(counts, args, result):
    net, horizon = args[0], args[2]
    outgoing: dict[int, list[float]] = {}
    for syn in net.synapses:
        outgoing.setdefault(syn.pre, []).append(syn.delay)
    arrivals = sum(
        1 for t, neuron, _ in result.records for d in outgoing.get(neuron, ()) if t + d <= horizon
    )
    _add(counts, "pngsim.spikes", len(result.records))
    _add(counts, "pngsim.arrivals", arrivals)


def _cycles_found(counts, args, result):
    _add(counts, "pngsim.cycles_found", len(result))


def _permutations(counts, args, result):
    _add(counts, "pngsim.permutations", math.factorial(len(args[1])))


def _nerve_counts(counts, args, result):
    _add(counts, "cech.nerve_edges", len(result.edges))
    _add(counts, "cech.nerve_triangles", len(result.triangles))


def _colimit_relations(counts, args, result):
    _add(counts, "cech.colimit_relations", sum(args[0].overlap_dims.values()))


# (metric prefix, module, attribute, counter); a class is wrapped through __init__
TARGETS: tuple[tuple[str, str, str, Counter | None], ...] = (
    ("ratlin.rref", "cyclos.ratlin", "rref", _rref_cells),
    ("ratlin.mat_mul", "cyclos.ratlin", "mat_mul", None),
    ("chaincore.ChainComplex", "cyclos.chaincore", "ChainComplex", _complex_counts),
    ("chaincore.project_to_cycles", "cyclos.chaincore", "project_to_cycles", None),
    ("chaincore.homology_class", "cyclos.chaincore", "homology_class", None),
    ("chaincore.homology_basis_cycles", "cyclos.chaincore", "homology_basis_cycles", None),
    ("coincide.closed_part", "cyclos.coincide", "closed_part", _closed_part_counts),
    ("coincide.trial_invariance", "cyclos.coincide", "trial_invariance", None),
    ("coincide.coincidence_persistence", "cyclos.coincide", "coincidence_persistence",
     _persistence_counts),
    ("persist.window_filtration", "cyclos.persist", "window_filtration", None),
    ("persist.Filtration", "cyclos.persist", "Filtration", _filtration_steps),
    ("persist.compute_barcode", "cyclos.persist", "compute_barcode", _barcode_bars),
    ("phasecode.winding_number", "cyclos.phasecode", "winding_number", None),
    ("ght.accumulate", "cyclos.ght", "accumulate", _accumulate_counts),
    ("ght.argmax_peak", "cyclos.ght", "argmax_peak", None),
    ("ght.peak_persistence", "cyclos.ght", "peak_persistence", _threshold_count),
    ("ght.saccade_invariance_audit", "cyclos.ght", "saccade_invariance_audit", None),
    ("gridplace.place_field_map", "cyclos.gridplace", "place_field_map", _place_counts),
    ("gridplace.tour_coincidence_total", "cyclos.gridplace", "tour_coincidence_total", None),
    ("gridplace.tour_phase_windings", "cyclos.gridplace", "tour_phase_windings", None),
    ("nav.compose_moves", "cyclos.nav", "compose_moves", None),
    ("nav.winding_vector", "cyclos.nav", "winding_vector", None),
    ("nav.check_feasible", "cyclos.nav", "check_feasible", _segment_checks),
    ("pngsim.simulate", "cyclos.pngsim", "simulate", _simulate_counts),
    ("pngsim.find_resonant_cycles", "cyclos.pngsim", "find_resonant_cycles", _cycles_found),
    ("pngsim.test_reentry", "cyclos.pngsim", "test_reentry", None),
    ("pngsim.order_invariant_readout", "cyclos.pngsim", "order_invariant_readout",
     _permutations),
    ("cech.build_nerve", "cyclos.cech", "build_nerve", _nerve_counts),
    ("cech.adjoint_extensions", "cyclos.cech", "adjoint_extensions", None),
    ("cech.pairing_cocycle", "cyclos.cech", "pairing_cocycle", None),
    ("cech.cocycle_class", "cyclos.cech", "cocycle_class", None),
    ("cech.cosheaf_colimit", "cyclos.cech", "cosheaf_colimit", _colimit_relations),
    ("cech.glue_sections", "cyclos.cech", "glue_sections", None),
)
# spans the benchmark opens itself around parsing input and writing reports
IO_SPANS = ("io.from_json", "io.report")
SPANS = tuple(t[0] for t in TARGETS) + IO_SPANS
COUNTS = (
    "ratlin.rref.cells", "chaincore.edges", "chaincore.cycle_rank", "chaincore.dense_cells",
    "coincide.spikes", "coincide.pairs_enumerated", "coincide.kept_ratio", "persist.steps",
    "persist.bars", "ght.votes", "ght.on_grid_ratio", "ght.kernel_cells", "ght.thresholds",
    "gridplace.positions", "gridplace.gate_evals", "nav.orderings", "nav.valid_ratio",
    "nav.segment_checks", "pngsim.spikes", "pngsim.arrivals", "pngsim.cycles_found",
    "pngsim.permutations", "cech.nerve_edges", "cech.nerve_triangles",
    "cech.colimit_relations",
)


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for span in SPANS:
        names += [f"{span}.calls", f"{span}.self_s"]
    return names + list(COUNTS) + ["trace.overhead_ratio", "trace.unattributed_s"]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Wraps the TARGETS while installed; reset() starts a fresh tally."""

    def __init__(self):
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        # per span: [calls, returned, self seconds]
        self.spans = {name: [0, 0, 0.0] for name in SPANS}
        self.counts: dict[str, float] = {}

    def _enter(self) -> float:
        self._stack.append(0.0)
        return time.perf_counter()

    def _exit(self, stat: list, start: float, returned: bool) -> None:
        elapsed = time.perf_counter() - start
        stat[0] += 1
        stat[1] += returned
        stat[2] += elapsed - self._stack.pop()
        if self._stack:
            self._stack[-1] += elapsed

    @contextlib.contextmanager
    def span(self, name: str):
        stat = self.spans[name]
        start = self._enter()
        returned = False
        try:
            yield
            returned = True
        finally:
            self._exit(stat, start, returned)

    def _count(self, counter: Counter, args, result) -> None:
        # counting runs outside every span; the parent's self time excludes it
        start = time.perf_counter()
        counter(self.counts, args, result)
        if self._stack:
            self._stack[-1] += time.perf_counter() - start

    def _wrap(self, name: str, fn: Callable, counter: Counter | None) -> Callable:
        stat = self.spans[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = self._enter()
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                self._exit(stat, start, returned)
            if counter is not None:
                self._count(counter, args, result)
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
        except BaseException:
            self.restore()
            raise

    def _install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "cyclos" or n.startswith("cyclos.")]
        for name, module_name, attr, counter in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            if isinstance(original, type):
                self._set(original, "__init__", self._wrap(name, original.__init__, counter))
                continue
            wrapper = self._wrap(name, original, counter)
            bound = 0
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
                        bound += 1
            if not bound:
                raise RuntimeError(f"{name}: no module binds the original function")

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def snapshot(self, wall: float) -> dict[str, float]:
        """Per-layer metrics of everything traced since reset(), over `wall` seconds."""
        out: dict[str, float] = {}
        attributed = 0.0
        for name, (calls, _, self_s) in self.spans.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            attributed += self_s
        c = self.counts
        for name in COUNTS:
            out[name] = c.get(name, 0)
        out["coincide.kept_ratio"] = _ratio(c.get("coincide.pairs_kept", 0),
                                            c.get("coincide.pairs_enumerated", 0))
        out["ght.on_grid_ratio"] = _ratio(c.get("ght.on_grid", 0), c.get("ght.votes", 0))
        compose = self.spans["nav.compose_moves"]
        out["nav.orderings"] = compose[0]
        out["nav.valid_ratio"] = _ratio(compose[1], compose[0])
        out["trace.unattributed_s"] = wall - attributed
        return out
