"""Seeded audit workloads for the cyclos benchmark.

Each workload is a doubling size ladder of audits. A generator turns the
workload seed into JSON input text; the program only ever sees that text.
One audit runs from JSON text to a report object:

    family.load(json object)        -> arguments    (layer ``io.from_json``)
    family.run(*arguments)          -> results      (the cyclos calls)
    canonical(family.report(results)) -> report text  (layer ``io.report``)

Large arrays and long bar lists enter a report as SHA-256 digests of their
exact bytes, so comparing report text is a bit-exact comparison of them.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from cyclos import cech, coincide, ght, gridplace, nav, pngsim
from cyclos.phasecode import Oscillator

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Case:
    """One audit input: JSON text plus what any correct report must say."""

    case_id: str
    family: str
    rung: int
    text: str
    expect: dict


@dataclass(frozen=True)
class Family:
    load: Callable[[dict], tuple]
    run: Callable[..., object]
    report: Callable[[object], dict]
    check: Callable[[dict, dict], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    rungs: int
    generate: Callable[[int], list[Case]]
    # cyclos modules the workload calls; ``setup_s`` times importing them
    modules: tuple[str, ...]
    # traced functions this workload must reach; zero calls means a missed binding
    required: tuple[str, ...]


def canonical(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":"), allow_nan=False)


def digest(data) -> str:
    """SHA-256 of an array's exact bytes, or of a JSON value's canonical text."""
    raw = (np.ascontiguousarray(data).tobytes() if isinstance(data, np.ndarray)
           else canonical(data).encode())
    return hashlib.sha256(raw).hexdigest()


def _case(case_id: str, family: str, rung: int, obj: dict, expect: dict) -> Case:
    return Case(case_id, family, rung, json.dumps(obj), expect)


def _oscillator(obj: dict) -> Oscillator:
    return Oscillator(float(obj["frequency_hz"]), float(obj.get("phase_offset", 0.0)))


def _mismatch(name: str, got, want) -> list[str]:
    return [] if got == want else [f"{name}: got {got!r}, expected {want!r}"]


# -- spike-closure: trial_invariance ----------------------------------------------
#
# Spikes sit on a lattice of SC_POINTS phases, SC_SPACING apart, lap after lap.
# With spacing + epsilon <= delta < 2 * spacing - epsilon, two spikes coincide
# exactly when their lattice points are equal or adjacent, whatever the jitter
# of +-epsilon/2. Coincident slots get distinct neurons, so the edge count and
# cycle rank are fixed by the rung. The graph shapes are fixed too (drawn from
# SC_SHAPE_SEED): the cost of the exact solve varies by about 15% between
# random shapes of one size, which would swamp the run-to-run spread. The
# workload seed permutes neuron ids and draws the jitter. The lattice leaves a
# free phase sector; the perturbed trial plants a 2-cycle there on two
# reserved neurons, which changes the class.

SC_HZ = 8.0
SC_SPACING = 0.36
SC_POINTS = 14
SC_DELTA = 0.5
SC_EPSILON = 0.1
SC_EXTRA_PHASES = (5.3, 5.45, 5.6)
SC_SHAPE_SEED = 0
# (spikes, neurons): 19, 31, 51 edges at cycle rank 10, 20, 36
SC_RUNGS = ((16, 10), (19, 12), (24, 16))


def _spike_time(lap: int, phase: float) -> float:
    return (phase + lap * TWO_PI) / (TWO_PI * SC_HZ)


def _lattice_labels(spikes: int, neurons: int, rng: random.Random) -> dict:
    """Neuron per lattice slot: coincident slots distinct, usage balanced."""
    labels: dict[tuple[int, int], int] = {}
    uses = [0] * neurons
    for k in range(spikes):
        slot = (k // SC_POINTS, k % SC_POINTS)
        banned = {n for (_, p), n in labels.items() if abs(p - slot[1]) <= 1}
        free = [n for n in range(neurons) if n not in banned]
        least = min(uses[n] for n in free)
        pick = rng.choice([n for n in free if uses[n] == least])
        labels[slot] = pick
        uses[pick] += 1
    return labels


def _lattice_train(labels: dict, neurons: int, rng: random.Random, perturbed: bool) -> dict:
    half = SC_EPSILON / 2
    spikes = [
        [n, _spike_time(lap, p * SC_SPACING + rng.uniform(-half, half))]
        for (lap, p), n in labels.items()
    ]
    if perturbed:
        a, b = neurons - 2, neurons - 1
        spikes += [[n, _spike_time(0, ph)] for n, ph in zip((a, b, a), SC_EXTRA_PHASES)]
    return {"neurons": neurons, "spikes": spikes}


def generate_spike_closure(seed: int) -> list[Case]:
    shapes = random.Random(SC_SHAPE_SEED)
    rng = random.Random(seed)
    cases = []
    for rung, (spikes, active) in enumerate(SC_RUNGS):
        neurons = active + 2  # two reserved neurons fire only in the perturbed trial
        ids = rng.sample(range(active), active)
        first, second = (
            {slot: ids[n] for slot, n in _lattice_labels(spikes, active, shapes).items()}
            for _ in range(2)
        )
        plans = (("a", first, False), ("b", second, False), ("perturbed", first, True))
        for name, labels, perturbed in plans:
            trials = [_lattice_train(labels, neurons, rng, False) for _ in range(2)]
            trials.append(_lattice_train(labels, neurons, rng, perturbed))
            obj = {"trials": trials, "oscillator": {"frequency_hz": SC_HZ},
                   "delta": SC_DELTA, "epsilon": SC_EPSILON}
            cases.append(_case(f"r{rung}-{name}", "trial_invariance", rung, obj,
                               {"invariant": not perturbed, "trials": len(trials)}))
    return cases


def _load_trial_invariance(obj: dict) -> tuple:
    trials = [coincide.SpikeTrain.from_json_obj(t) for t in obj["trials"]]
    return (trials, _oscillator(obj["oscillator"]),
            coincide.CoincidenceWindow(float(obj["delta"])), float(obj["epsilon"]))


def _run_trial_invariance(trials, osc, window, epsilon) -> dict:
    _, report = coincide.trial_invariance(trials, osc, window, epsilon)
    return report


def _as_report(report: dict) -> dict:
    return report


def _check_trial_invariance(report: dict, expect: dict) -> list[str]:
    problems = _mismatch("invariant", report["invariant"], expect["invariant"])
    classes = report["per_trial_class"]
    problems += _mismatch("trial count", len(classes), expect["trials"])
    problems += _mismatch("ambiguous pairs", report["ambiguous_parallel_pairs"], [])
    problems += _mismatch("overflow", report["multiplicity_overflow"], [{}] * expect["trials"])
    if expect["invariant"] and any(c != classes[0] for c in classes):
        problems.append("jittered trials landed in different classes")
    if not expect["invariant"] and classes[-1] == classes[0]:
        problems.append("perturbed trial kept the class of the first trial")
    return problems


# -- spike-persistence: coincidence_persistence -----------------------------------

SP_HZ = 8.0
SP_RATE_HZ = 40.0
SP_DELTAS = tuple(0.04 * (k + 1) for k in range(24))
SP_RUNGS = ((200, 12), (400, 16), (800, 20))  # (spikes, neurons)


def generate_spike_persistence(seed: int) -> list[Case]:
    rng = random.Random(seed)
    cases = []
    for rung, (spikes, neurons) in enumerate(SP_RUNGS):
        horizon = spikes / SP_RATE_HZ
        train = {"neurons": neurons,
                 "spikes": [[rng.randrange(neurons), rng.uniform(0.0, horizon)]
                            for _ in range(spikes)]}
        obj = {"train": train, "oscillator": {"frequency_hz": SP_HZ}, "deltas": list(SP_DELTAS)}
        cases.append(_case(f"r{rung}", "coincidence_persistence", rung, obj,
                           {"neurons": neurons}))
    return cases


def _load_coincidence_persistence(obj: dict) -> tuple:
    return (coincide.SpikeTrain.from_json_obj(obj["train"]), _oscillator(obj["oscillator"]),
            [float(d) for d in obj["deltas"]])


def _run_coincidence_persistence(train, osc, deltas) -> tuple:
    return coincide.coincidence_persistence(train, osc, deltas), deltas


def _report_coincidence_persistence(results) -> dict:
    barcode, deltas = results
    h0 = barcode.in_dim(0)
    h1 = barcode.in_dim(1)
    return {
        "deltas": len(deltas),
        "h0_bars": len(h0),
        "h0_births": sorted({b.birth for b in h0}),
        "h0_deaths": [sum(1 for b in h0 if b.death == d) for d in deltas],
        "h0_essential": sum(1 for b in h0 if b.death == math.inf),
        "h1_bars": len(h1),
        "h1_births": [sum(1 for b in h1 if b.birth == d) for d in deltas],
        "h1_finite": sum(1 for b in h1 if b.death != math.inf),
        "bars_sha256": digest(barcode.to_json_obj()),
    }


def _check_coincidence_persistence(report: dict, expect: dict) -> list[str]:
    neurons = expect["neurons"]
    # graph filtrations: every vertex enters at the first window, no triangle kills H1
    problems = _mismatch("H0 bars", report["h0_bars"], neurons)
    problems += _mismatch("H0 births", len(report["h0_births"]), 1)
    problems += _mismatch("finite H1 bars", report["h1_finite"], 0)
    problems += _mismatch("H1 births on the window ladder", sum(report["h1_births"]),
                          report["h1_bars"])
    problems += _mismatch("H0 deaths on the window ladder",
                          sum(report["h0_deaths"]) + report["h0_essential"], neurons)
    kept = report["h1_bars"] + neurons - report["h0_essential"]
    if kept > coincide.DEFAULT_MULTIPLICITY_CAP * neurons * (neurons - 1):
        problems.append(f"{kept} kept edges exceed the multiplicity cap")
    return problems


# -- sensorimotor-replay: five audit families --------------------------------------

# saccade: Hough voting over closed scanpaths, then H0 persistence of the pooled field
SACCADE_EXTENT = 100.0
SACCADE_RUNGS = ((16, 24), (32, 48), (64, 96))  # (grid side, true features)
SACCADE_TABLE = {0: (10.0, 0.0), 1: (0.0, 10.0), 2: (-7.0, -7.0), 3: (6.0, -8.0)}
SACCADE_PATHS = 3
SACCADE_GAZES = 3
SACCADE_FRACTIONS = tuple(1.0 - 0.06 * k for k in range(16))


def _saccade_case(rng: random.Random, side: int, true_features: int) -> dict:
    cell = SACCADE_EXTENT / side
    cx, cy = rng.uniform(35.0, 65.0), rng.uniform(35.0, 65.0)
    scene = []
    for k in range(true_features):
        d = k % len(SACCADE_TABLE)
        a = rng.uniform(-math.pi, math.pi)
        ox, oy = SACCADE_TABLE[d]
        c, s = math.cos(a), math.sin(a)
        scene.append([cx - (c * ox - s * oy), cy - (s * ox + c * oy), a, d])
    for _ in range(true_features // 2):  # clutter voting anywhere
        scene.append([rng.uniform(10.0, 90.0), rng.uniform(10.0, 90.0),
                      rng.uniform(-math.pi, math.pi), rng.randrange(len(SACCADE_TABLE))])
    paths = []
    for _ in range(SACCADE_PATHS):
        gazes = [[rng.uniform(-0.3, 0.3), rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)]
                 for _ in range(SACCADE_GAZES - 1)]
        # the last saccade undoes the product of the others, so the path closes
        rot, x, y = 0.0, 0.0, 0.0
        for r, tx, ty in gazes:  # (rot, x, y) <- (rot, x, y) . (r, tx, ty) in SE(2)
            c, s = math.cos(rot), math.sin(rot)
            rot, x, y = rot + r, c * tx - s * ty + x, s * tx + c * ty + y
        c, s = math.cos(rot), math.sin(rot)
        gazes.append([-rot, -(c * x + s * y), -(-s * x + c * y)])
        paths.append(gazes)
    return {
        "scene": scene,
        "table": {str(d): list(off) for d, off in SACCADE_TABLE.items()},
        "config": {"extent": [0.0, SACCADE_EXTENT, 0.0, SACCADE_EXTENT], "shape": [side, side],
                   "kernel": "gaussian", "bandwidth": 1.5 * cell},
        "paths": paths,
        "threshold_fractions": list(SACCADE_FRACTIONS),
    }


def _load_saccade(obj: dict) -> tuple:
    scene = [ght.Feature((float(x), float(y)), float(a), int(d)) for x, y, a, d in obj["scene"]]
    table = ght.ModelTable({int(d): (float(o[0]), float(o[1]))
                            for d, o in obj["table"].items()})
    cfg = obj["config"]
    config = ght.AccumulatorConfig(tuple(map(float, cfg["extent"])), tuple(cfg["shape"]),
                                   cfg["kernel"], float(cfg["bandwidth"]))
    paths = [[ght.GazeTransform(float(r), (float(tx), float(ty))) for r, tx, ty in path]
             for path in obj["paths"]]
    return scene, paths, table, config, [float(f) for f in obj["threshold_fractions"]]


def _run_saccade(scene, paths, table, config, fractions) -> tuple:
    audit = ght.saccade_invariance_audit(scene, paths, table, config)
    pooled = ght.accumulate(
        [(g, [g.apply_feature(f) for f in scene]) for path in paths for g in path],
        table, config)
    top = float(pooled.grid.max())
    return audit, pooled, ght.peak_persistence(pooled, [top * f for f in fractions])


def _report_saccade(results) -> dict:
    audit, pooled, barcode = results
    longest = sorted(barcode.bars, key=lambda b: (b.birth - b.death, b.birth))[:3]
    return {
        "audit": audit,
        "pooled_grid_sha256": digest(pooled.grid),
        "pooled_overflow": pooled.overflow_count,
        "peak_bars": len(barcode.bars),
        "peak_bars_longest": [[b.birth, "inf" if b.death == math.inf else b.death]
                              for b in longest],
        "peak_bars_sha256": digest(barcode.to_json_obj()),
    }


def _check_saccade(report: dict, expect: dict) -> list[str]:
    audit = report["audit"]
    problems = _mismatch("saccade audit pass", audit["pass"], True)
    problems += _mismatch("paths", len(audit["paths"]), SACCADE_PATHS)
    if report["peak_bars"] < 1:
        problems.append("pooled field has no peak")
    return problems


# place: theta-gated place fields plus tour invariance under a whole-period delay
PLACE_HZ = 8.0
PLACE_LATTICES = 3
PLACE_RUNGS = ((8, 8), (16, 8), (16, 16))  # resolution (nx, ny)
PLACE_TOUR_DELAY_PERIODS = 3


def _place_case(rng: random.Random, resolution: tuple[int, int]) -> dict:
    cells = []
    for k in range(PLACE_LATTICES):
        angle = k * math.pi / 3 + rng.uniform(-0.1, 0.1)
        scale = rng.uniform(4.0, 9.0)  # rad / m
        cells.append([scale * math.cos(angle), scale * math.sin(angle),
                      rng.uniform(0.0, TWO_PI)])
    weights = [rng.uniform(0.5, 1.0) for _ in range(PLACE_LATTICES)]
    # closed polygon tour of one second; tour B replays it whole periods later
    corners = [(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)) for _ in range(5)]
    corners.append(corners[0])
    period = 1.0 / PLACE_HZ
    tour_a = [[0.2 * i, x, y] for i, (x, y) in enumerate(corners)]
    shift = PLACE_TOUR_DELAY_PERIODS * period
    tour_b = [[t + shift, x, y] for t, x, y in tour_a]
    return {
        "cells": cells,
        "config": {"weights": weights, "threshold": 0.25 * sum(weights),
                   "kernel": "von_mises", "delta": math.pi / 8},
        "oscillator": {"frequency_hz": PLACE_HZ},
        "region": [0.0, 1.0, 0.0, 1.0],
        "resolution": list(resolution),
        "tour_a": tour_a,
        "tour_b": tour_b,
    }


def _load_place(obj: dict) -> tuple:
    cells = [gridplace.GridCell((float(kx), float(ky)), float(off)) for kx, ky, off in obj["cells"]]
    cfg = obj["config"]
    config = gridplace.PlaceCellConfig(tuple(map(float, cfg["weights"])), float(cfg["threshold"]),
                                       cfg["kernel"], float(cfg["delta"]))
    tours = [gridplace.Trajectory2D(tuple((float(t), (float(x), float(y))) for t, x, y in obj[k]))
             for k in ("tour_a", "tour_b")]
    return (config, cells, _oscillator(obj["oscillator"]), tuple(map(float, obj["region"])),
            tuple(obj["resolution"]), tours[0], tours[1])


def _run_place(config, cells, osc, region, resolution, tour_a, tour_b) -> tuple:
    field = gridplace.place_field_map(config, cells, osc, region, resolution)
    return field, gridplace.tour_invariance(config, cells, osc, tour_a, tour_b)


def _report_place(results) -> dict:
    field, (ok, tour) = results
    return {
        "field_sha256": digest(field.values),
        "field_mask_cells": int(field.mask.sum()),
        "field_peak": list(field.peak()),
        "tour_pass": ok,
        "tour": {k: list(v) if isinstance(v, tuple) else v for k, v in tour.items()},
    }


def _check_place(report: dict, expect: dict) -> list[str]:
    tour = report["tour"]
    problems = _mismatch("tour invariance", report["tour_pass"], True)
    problems += _mismatch("lattice windings", len(tour["windings_a"]), PLACE_LATTICES + 1)
    return problems


# homing: winding vectors of composed move orderings around disk obstacles
HOMING_LOOPS = 4
HOMING_SPACING = 6.0
HOMING_RUNGS = ((24, 96), (48, 96), (96, 96))  # (orderings, points per circling)
HOMING_OUT_BACK = (HOMING_LOOPS, HOMING_LOOPS + 1)  # indices of the out and back moves


def _circling_move(x: float, points: int) -> list:
    """Base -> below obstacle at (x, 3) -> once around it counter-clockwise -> base."""
    ring = [[x + 2.0 * math.sin(TWO_PI * k / points), 3.0 - 2.0 * math.cos(TWO_PI * k / points)]
            for k in range(points)]
    return [[0.0, 0.0], [x, 0.0]] + ring + [[x, 1.0], [x, 0.0], [0.0, 0.0]]


def _valid_ordering(ordering: list[int]) -> bool:
    out, back = HOMING_OUT_BACK
    pos = ordering.index(out)
    return pos + 1 < len(ordering) and ordering[pos + 1] == back


def _homing_case(rng: random.Random, orderings: int, points: int) -> dict:
    xs = [HOMING_SPACING * (k + 1) for k in range(HOMING_LOOPS)]
    moves = [_circling_move(x, points) for x in xs]
    excursion = [rng.uniform(1.0, 20.0), rng.uniform(-6.0, -2.0)]
    moves.append([[0.0, 0.0], [excursion[0], -1.0], excursion])
    moves.append([excursion, [excursion[0], -1.0], [0.0, 0.0]])
    valid, invalid = [], []
    want_valid = 2 * orderings // 3
    while len(valid) < want_valid or len(invalid) < orderings - want_valid:
        ordering = list(range(len(moves)))
        rng.shuffle(ordering)
        bucket = valid if _valid_ordering(ordering) else invalid
        target = want_valid if bucket is valid else orderings - want_valid
        if len(bucket) < target:
            bucket.append(ordering)
    mixed = valid + invalid
    rng.shuffle(mixed)
    workspace = {"obstacles": [[x, 3.0, 1.0] for x in xs], "base": [0.0, 0.0]}
    return {"workspace": workspace, "moves": moves, "orderings": mixed}


def _load_homing(obj: dict) -> tuple:
    moves = [nav.Move(tuple((float(x), float(y)) for x, y in m)) for m in obj["moves"]]
    orderings = [list(map(int, o)) for o in obj["orderings"]]
    return moves, orderings, nav.Workspace.from_json_obj(obj["workspace"])


def _run_homing(moves, orderings, workspace) -> dict:
    _, report = nav.order_invariance_check(moves, orderings, workspace)
    return report


def _check_homing(report: dict, expect: dict) -> list[str]:
    problems = _mismatch("order invariance", report["pass"], True)
    for entry in report["orderings"]:
        if _valid_ordering(entry["ordering"]):
            problems += _mismatch(f"windings of {entry['ordering']}", entry.get("windings"),
                                  [1] * HOMING_LOOPS)
        elif "error" not in entry:
            problems.append(f"ordering {entry['ordering']} should not compose")
    return problems


# reentry: delay network with planted resonant rings, STDP run, cycle mining, replay
REENTRY_THETA_MS = 25.0
REENTRY_RING = 5
REENTRY_RUNGS = (40, 80, 160)  # background neurons
REENTRY_HORIZON_MS = 300.0
REENTRY_STIMULUS_HZ = 200.0  # Poisson-like drive per background neuron
REENTRY_ROUTES = 4


def _reentry_case(rng: random.Random, background: int) -> dict:
    horizon = REENTRY_HORIZON_MS
    # planted ring: strong hops whose delays sum to two theta periods; no
    # background synapse targets a ring neuron, so nothing disturbs its replay
    ring = rng.sample(range(background), REENTRY_RING)
    posts = [n for n in range(background) if n not in ring]
    synapses = []
    for pre in range(background):  # weak random background, integer delays
        for post in rng.sample([n for n in posts if n != pre], 3):
            synapses.append([pre, post, rng.uniform(0.05, 0.2), float(rng.randint(1, 12))])
    delays = [10.0] * REENTRY_RING
    for _ in range(REENTRY_RING):
        i, j = rng.sample(range(REENTRY_RING), 2)
        if delays[i] > 3.0:
            delays[i] -= 2.0
            delays[j] += 2.0
    for k in range(REENTRY_RING):
        synapses.append([ring[k], ring[(k + 1) % REENTRY_RING], 0.9, delays[k]])
    # readout: dedicated two-hop routes converging on one target neuron
    target = background + 2 * REENTRY_ROUTES
    routes = []
    for r in range(REENTRY_ROUTES):
        src, mid = background + 2 * r, background + 2 * r + 1
        routes.append([len(synapses), len(synapses) + 1])
        synapses.append([src, mid, 0.9, float(rng.randint(1, 4))])
        synapses.append([mid, target, 0.2, float(rng.randint(1, 4))])
    network = {"neurons": target + 1, "synapses": synapses, "delta_ms": 4.0, "k": 1,
               "refractory_ms": 2.0, "threshold": 0.5, "w_max": 1.0}
    drive = round(background * horizon / 1000.0 * REENTRY_STIMULUS_HZ)
    stimuli = [[ring[0], 0.0]] + [[rng.randrange(background), rng.uniform(0.0, horizon)]
                                  for _ in range(drive)]
    return {
        "network": network,
        "stimuli": stimuli,
        "horizon_ms": horizon,
        "stdp": {"a_plus": 0.005, "a_minus": 0.006, "tau_plus": 15.0, "tau_minus": 15.0},
        "theta_ms": REENTRY_THETA_MS,
        "resonance_tol_ms": 1.0,
        "tau_gain": 0.3,
        "max_len": REENTRY_RING,
        "periods": 4,
        "routes": routes,
        "within_ms": 3.0,
    }


def _load_reentry(obj: dict) -> tuple:
    net = pngsim.DelayNetwork.from_json_obj(obj["network"])
    stdp = pngsim.STDPParams(**{k: float(v) for k, v in obj["stdp"].items()})
    stimuli = [(int(n), float(t)) for n, t in obj["stimuli"]]
    return (net, stimuli, float(obj["horizon_ms"]), stdp, float(obj["theta_ms"]),
            float(obj["resonance_tol_ms"]), float(obj["tau_gain"]), int(obj["max_len"]),
            int(obj["periods"]), [list(map(int, r)) for r in obj["routes"]],
            float(obj["within_ms"]))


def _run_reentry(net, stimuli, horizon, stdp, theta, tol, tau_gain, max_len, periods,
                 routes, within) -> tuple:
    log = pngsim.simulate(net, stimuli, horizon, stdp)
    cycles = pngsim.find_resonant_cycles(net, theta, tol, tau_gain, max_len)
    reentry = [pngsim.test_reentry(net, c, periods) for c in cycles]
    return log, cycles, reentry, pngsim.order_invariant_readout(net, routes, within)


def _report_reentry(results) -> dict:
    log, cycles, reentry, readout = results
    return {
        "sim_records": len(log.records),
        "sim_records_sha256": digest([list(r) for r in log.records]),
        "sim_weights_sha256": digest(list(log.final_weights)),
        "cycles": [[list(c.vertices), list(c.synapses), c.delay_sum, c.weight_product,
                    c.resonance_n] for c in cycles],
        "reentry": [[ok, rep] for ok, rep in reentry],
        "readout_invariant": readout,
    }


def _check_reentry(report: dict, expect: dict) -> list[str]:
    problems = _mismatch("resonant cycles", len(report["cycles"]), 1)
    problems += _mismatch("reentry", [ok for ok, _ in report["reentry"]], [True])
    problems += _mismatch("readout order invariance", report["readout_invariant"], True)
    return problems


# cover: ring cover of opens, gluing, pairing cocycle, cocycle class, cosheaf colimit
COVER_DIM = 2
COVER_RUNGS = (12, 24, 48)  # opens


def _random_matrix(rng: random.Random, rows: int, cols: int, spd: bool = False) -> np.ndarray:
    m = np.array([[rng.uniform(-0.5, 0.5) for _ in range(cols)] for _ in range(rows)])
    if spd:
        return m @ m.T + np.eye(rows)
    return m + np.eye(rows, cols)


def _cover_case(rng: random.Random, opens: int) -> dict:
    d = COVER_DIM
    ground = list(range(2 * opens))
    cover = [sorted({(2 * i - 1) % (2 * opens), 2 * i, 2 * i + 1}) for i in range(opens)]
    edges = [(i, i + 1) for i in range(opens - 1)] + [(0, opens - 1)]
    rho = {e: (_random_matrix(rng, d, d), _random_matrix(rng, d, d)) for e in edges}
    # sections agree along the path 0 - 1 - ... - (n-1); the closing edge
    # (0, n-1) carries the monodromy, so gluing fails exactly there
    sections = [np.array([rng.uniform(-1.0, 1.0) for _ in range(d)])]
    for i in range(opens - 1):
        from_i, from_j = rho[(i, i + 1)]
        sections.append(np.linalg.solve(from_j, from_i @ sections[i]))
    return {
        "cover": {"ground": ground, "opens": cover},
        "sections": [s.tolist() for s in sections],
        "restrictions": [[list(e), a.tolist(), b.tolist()] for e, (a, b) in rho.items()],
        "open_forms": [_random_matrix(rng, d, d, spd=True).tolist() for _ in range(opens)],
        "overlap_forms": [[list(e), _random_matrix(rng, d, d, spd=True).tolist()] for e in edges],
        "cosections": [[rng.uniform(-1.0, 1.0) for _ in range(d)] for _ in range(opens)],
    }


def _load_cover(obj: dict) -> tuple:
    cover = cech.Cover.from_json_obj(obj["cover"])
    sheaf = cech.SheafData.build(obj["sections"],
                                 {tuple(e): (a, b) for e, a, b in obj["restrictions"]})
    pairing = cech.Pairing.build(obj["open_forms"], {tuple(e): m for e, m in obj["overlap_forms"]})
    return cover, sheaf, pairing, obj["cosections"]


def _run_cover(cover, sheaf, pairing, cosections) -> tuple:
    nerve = cech.build_nerve(cover)
    glued = cech.glue_sections(sheaf, cover)
    extensions = cech.adjoint_extensions(sheaf, pairing, nerve)
    cosheaf = cech.CosheafData.build(cosections, extensions)
    cocycle = cech.pairing_cocycle(sheaf, cosheaf, pairing, nerve)
    return (nerve, glued, cocycle, cech.cocycle_class(cocycle.omega, nerve),
            cech.cosheaf_colimit(cosheaf, cover))


def _report_cover(results) -> dict:
    nerve, glued, cocycle, cls, colimit = results
    return {
        "nerve": [len(nerve.edges), len(nerve.triangles)],
        "gluing": ([[list(e), r] for e, r in glued.mismatches]
                   if isinstance(glued, cech.Obstruction) else "glued"),
        "omega": [[list(e), v] for e, v in sorted(cocycle.omega.items())],
        "max_coboundary": cocycle.max_coboundary(),
        "class": list(cls.coordinates),
        "colimit": (list(colimit.representative) if isinstance(colimit, cech.ColimitElement)
                    else [[list(e), r] for e, r in colimit.mismatches]),
        "colimit_kind": "element" if isinstance(colimit, cech.ColimitElement) else "obstruction",
    }


def _check_cover(report: dict, expect: dict) -> list[str]:
    opens = expect["opens"]
    problems = _mismatch("nerve", report["nerve"], [opens, 0])
    gluing = report["gluing"]
    problems += _mismatch("gluing obstruction edges",
                          [e for e, _ in gluing] if gluing != "glued" else [], [[0, opens - 1]])
    problems += _mismatch("class rank", len(report["class"]), 1)
    problems += _mismatch("colimit", report["colimit_kind"], "element")
    return problems


SENSORIMOTOR_FAMILIES = ("saccade", "place", "homing", "reentry", "cover")


def generate_sensorimotor(seed: int) -> list[Case]:
    rng = random.Random(seed)
    cases = []
    for rung in range(3):
        side, features = SACCADE_RUNGS[rung]
        cases.append(_case(f"r{rung}-saccade", "saccade", rung,
                           _saccade_case(rng, side, features), {}))
        cases.append(_case(f"r{rung}-place", "place", rung,
                           _place_case(rng, PLACE_RUNGS[rung]), {}))
        orderings, points = HOMING_RUNGS[rung]
        cases.append(_case(f"r{rung}-homing", "homing", rung,
                           _homing_case(rng, orderings, points), {}))
        cases.append(_case(f"r{rung}-reentry", "reentry", rung,
                           _reentry_case(rng, REENTRY_RUNGS[rung]), {}))
        opens = COVER_RUNGS[rung]
        cases.append(_case(f"r{rung}-cover", "cover", rung, _cover_case(rng, opens),
                           {"opens": opens}))
    return cases


FAMILIES = {
    "trial_invariance": Family(_load_trial_invariance, _run_trial_invariance, _as_report,
                               _check_trial_invariance),
    "coincidence_persistence": Family(_load_coincidence_persistence,
                                      _run_coincidence_persistence,
                                      _report_coincidence_persistence,
                                      _check_coincidence_persistence),
    "saccade": Family(_load_saccade, _run_saccade, _report_saccade, _check_saccade),
    "place": Family(_load_place, _run_place, _report_place, _check_place),
    "homing": Family(_load_homing, _run_homing, _as_report, _check_homing),
    "reentry": Family(_load_reentry, _run_reentry, _report_reentry, _check_reentry),
    "cover": Family(_load_cover, _run_cover, _report_cover, _check_cover),
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "spike-closure", len(SC_RUNGS), generate_spike_closure,
            ("cyclos.coincide",),
            ("coincide.trial_invariance", "coincide.closed_part", "chaincore.ChainComplex",
             "chaincore.project_to_cycles", "chaincore.homology_class"),
        ),
        Workload(
            "spike-persistence", len(SP_RUNGS), generate_spike_persistence,
            ("cyclos.coincide",),
            ("coincide.coincidence_persistence", "persist.Filtration", "persist.compute_barcode"),
        ),
        Workload(
            "sensorimotor-replay", 3, generate_sensorimotor,
            ("cyclos.ght", "cyclos.gridplace", "cyclos.nav", "cyclos.pngsim", "cyclos.cech"),
            ("ght.accumulate", "ght.argmax_peak", "ght.peak_persistence",
             "ght.saccade_invariance_audit", "gridplace.place_field_map",
             "gridplace.tour_coincidence_total", "gridplace.tour_phase_windings",
             "phasecode.winding_number", "nav.compose_moves", "nav.winding_vector",
             "nav.check_feasible", "pngsim.simulate", "pngsim.find_resonant_cycles",
             "pngsim.test_reentry", "pngsim.order_invariant_readout", "cech.build_nerve",
             "cech.adjoint_extensions", "cech.pairing_cocycle", "cech.cocycle_class",
             "cech.cosheaf_colimit", "cech.glue_sections", "chaincore.homology_basis_cycles",
             "ratlin.rref"),
        ),
    )
}
