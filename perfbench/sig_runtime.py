"""``sig-runtime``: the paper's own programming model, no serve layer.

Frames of a Sobel video are filtered row by row through ``repro.Runtime``
and ``sig_task``: one task group per frame, requested ratios cycling
over {0.2, 0.5, 0.8}, each frame ended by a ``taskwait`` on its group.
Every run alternates a GTB phase and an LQH phase (the two policies
serving never runs), so the scheduler's spawn path, the policy hooks
and the simulated engine's event loop do almost all the work.
"""

from __future__ import annotations

import gc
import time

import numpy as np

import layers
from common import (
    QUALITY_BOUND, Result, check_counts, check_quality, mean, median,
    percentile, slowness,
)

SIZE = 128          # image side: 126 row tasks per frame
POOL = 16           # distinct images per run (frames repeat them)
RATIOS = (0.2, 0.5, 0.8)
POLICIES = ("gtb", "lqh")
FRAMES_PER_PHASE = 96
N_WORKERS = 16


class Inputs:
    """The seeded frame sequence and its reference outputs."""

    def __init__(self, seed: int) -> None:
        from repro.kernels.sobel import sobel_reference, sobel_row_approx
        from repro.quality.images import synthetic_image

        rng = np.random.default_rng(seed)
        self.images = [
            synthetic_image(SIZE, SIZE, int(s))
            for s in rng.integers(0, 2**31, POOL)
        ]
        self.order = rng.integers(0, POOL, 1 << 16)
        #: Per image, the argument tuples of its row tasks.
        self.rows = [
            [(img[i - 1:i + 2], i) for i in range(1, SIZE - 1)]
            for img in self.images
        ]
        self.reference = [sobel_reference(img) for img in self.images]
        self.approx = []
        for img in self.images:
            out = np.zeros_like(img)
            for i in range(1, SIZE - 1):
                sobel_row_approx(out, img, i)
            self.approx.append(out)

    def frame(self, n: int) -> tuple[int, float]:
        """Image index and requested ratio of frame ``n``."""
        return int(self.order[n % len(self.order)]), RATIOS[n % len(RATIOS)]


def _row_task(tracer):
    from repro import sig_task
    from repro.kernels.sobel import (
        sobel_row_cost, sobel_row_significance, sobel_row_value,
        sobel_row_value_approx,
    )

    body, approx = sobel_row_value, sobel_row_value_approx
    if tracer is not None:
        body = tracer.wrap("kernels", "body", body)
        approx = tracer.wrap("kernels", "body", approx)
    return sig_task(
        body,
        approxfun=approx,
        significance=lambda window, i: sobel_row_significance(i),
        cost=sobel_row_cost(SIZE),
    )


class Frame:
    """What the checks need from one filtered frame."""

    __slots__ = ("image", "ratio", "output", "accurate", "approximate",
                 "counts")

    def __init__(self, image: int, ratio: float, tasks, group) -> None:
        from repro.runtime.task import ExecutionKind

        self.image = image
        self.ratio = ratio
        self.output = np.zeros((SIZE, SIZE), dtype=np.uint8)
        self.accurate = np.zeros(SIZE, dtype=bool)
        self.approximate = np.zeros(SIZE, dtype=bool)
        for i, task in zip(range(1, SIZE - 1), tasks):
            if task.result is not None:
                self.output[i] = task.result
            self.accurate[i] = task.decision is ExecutionKind.ACCURATE
            self.approximate[i] = task.decision is ExecutionKind.APPROXIMATE
        self.counts = (group.spawned, group.accurate, group.approximate,
                       group.dropped)


class Phase:
    """One Runtime under one policy, filtering a run of frames."""

    def __init__(self, policy: str, first_frame: int) -> None:
        self.policy = policy
        self.first = first_frame
        self.frames: list[Frame] = []
        self.latency_s: list[float] = []
        self.virtual_latency_s: list[float] = []
        self.setup_s = 0.0
        self.wall_s = 0.0         # the frames, after set-up
        self.span_s = 0.0         # set-up, frames and tear-down
        self.slowness = 1.0       # host slowness around this phase
        self.digest: dict = {}

    def run(self, inputs: Inputs, row) -> None:
        from repro import Runtime

        clock = time.perf_counter
        # The previous phase's garbage is collected before timing, not
        # inside it.
        gc.collect()
        before = slowness()
        t0 = clock()
        rt = Runtime(policy=self.policy, n_workers=N_WORKERS)
        spawned = []
        with rt:
            # Set-up ends once a first frame has gone through the
            # runtime, so lazy initialisation counts as set-up.
            rt.init_group("warm-up", 1.0)
            row.map(inputs.rows[0], label="warm-up")
            rt.taskwait(label="warm-up")
            t1 = clock()
            self.setup_s = t1 - t0
            for k in range(FRAMES_PER_PHASE):
                index, ratio = inputs.frame(self.first + k)
                label = f"frame-{self.first + k}"
                ts = clock()
                v0 = rt.engine.master_time
                rt.init_group(label, ratio)
                tasks = row.map(inputs.rows[index], label=label)
                v1 = rt.taskwait(label=label)
                self.latency_s.append(clock() - ts)
                self.virtual_latency_s.append(v1 - v0)
                spawned.append((index, ratio, label, tasks))
        t2 = clock()
        self.wall_s = t2 - t1
        self.span_s = t2 - t0
        self.slowness = (before + slowness()) / 2
        groups = rt.report.groups
        self.frames = [
            Frame(index, ratio, tasks, groups[label])
            for index, ratio, label, tasks in spawned
        ]
        self.digest = layers.digest_report(rt.report)


def _drive(inputs: Inputs, seconds: float, tracer) -> list[Phase]:
    """Alternate GTB and LQH phases until ``seconds`` have passed."""
    row = _row_task(tracer)
    phases: list[Phase] = []
    start = time.perf_counter()
    frame = 0
    while time.perf_counter() - start < seconds or len(phases) % 2:
        phase = Phase(POLICIES[len(phases) % 2], frame)
        phase.run(inputs, row)
        phases.append(phase)
        frame += FRAMES_PER_PHASE
    return phases


def _rates(phases: list[Phase]) -> tuple[float, float]:
    """Median host-adjusted frames/s and tasks/s over GTB+LQH phase
    pairs."""
    jobs, tasks = [], []
    for a, b in zip(phases[::2], phases[1::2]):
        wall = a.wall_s / a.slowness + b.wall_s / b.slowness
        frames = len(a.frames) + len(b.frames)
        jobs.append(frames / wall)
        tasks.append(frames * (SIZE - 2) / wall)
    return median(jobs), median(tasks)


def _latency(phases: list[Phase]) -> list[float]:
    """Host-adjusted latency of every frame."""
    return [s / p.slowness for p in phases for s in p.latency_s]


def _check(inputs: Inputs, phases: list[Phase], result: Result):
    """Check every frame; returns (quality per frame, ratio deviation
    per frame)."""
    from repro.quality.metrics import inverse_psnr

    qualities, deviations = [], []
    n = SIZE - 2
    for frame in (f for phase in phases for f in phase.frames):
        ref = inputs.reference[frame.image]
        acc, apx = frame.accurate, frame.approximate
        quality = inverse_psnr(ref, frame.output)
        spawned, *decided = frame.counts
        problems = []
        if not np.array_equal(frame.output[acc], ref[acc]):
            problems.append("accurate rows differ from the reference")
        if not np.array_equal(frame.output[apx],
                              inputs.approx[frame.image][apx]):
            problems.append("approximate rows differ from the approx body")
        if spawned != n or not check_counts(*decided, n):
            problems.append("decision counts do not add up")
        if not check_quality("sobel", quality):
            problems.append(
                f"quality {quality} above {QUALITY_BOUND['sobel']}"
            )
        result.op(not problems, "; ".join(problems))
        qualities.append(quality)
        deviations.append(abs(int(acc.sum()) / n - frame.ratio))
    return qualities, deviations


def run(seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    inputs = Inputs(seed)
    if not trace:
        phases = _drive(inputs, seconds, None)
        qualities, deviations = _check(inputs, phases, result)
        frames = sum(len(p.frames) for p in phases)
        tasks = frames * (SIZE - 2)
        warm = len(phases) * (SIZE - 2)
        energy_j = sum(p.digest["energy_j"] for p in phases)
        jobs_per_s, tasks_per_s = _rates(phases)
        latency = _latency(phases)
        factors = [p.slowness for p in phases]
        result.note(f"host slowness {median(factors):.3f} "
                    f"({min(factors):.3f}-{max(factors):.3f}); unadjusted "
                    f"{frames / sum(p.wall_s for p in phases):.6g} frames/s")
        result.metric("setup_s",
                      median([p.setup_s / p.slowness for p in phases]), "s",
                      len(phases))
        result.metric("jobs_per_s", jobs_per_s, "1/s", frames)
        result.metric("tasks_per_s", tasks_per_s, "1/s", tasks)
        result.metric("latency_p50_ms", 1e3 * percentile(latency, 50), "ms",
                      len(latency))
        result.metric("latency_p99_ms", 1e3 * percentile(latency, 99), "ms",
                      len(latency))
        result.metric("energy_mj_per_job", 1e3 * energy_j / frames,
                      "mJ_modelled", frames)
        result.metric("energy_uj_per_task", 1e6 * energy_j / (tasks + warm),
                      "uJ_modelled", tasks + warm)
        result.metric("quality_loss", mean(qualities), "score", frames)
        result.metric("ratio_dev_pct", 100.0 * mean(deviations), "%", frames)
        return result

    # Traced run: an untraced half, then a traced half.
    from tracing import Tracer, install_program_spans

    plain = _drive(inputs, seconds / 2, None)
    tracer = Tracer()
    install_program_spans(tracer)
    try:
        traced = _drive(inputs, seconds / 2, tracer)
    finally:
        tracer.restore()
    wall_s = sum(p.span_s for p in traced)
    _check(inputs, plain + traced, result)
    values = layers.from_spans(tracer.spans, wall_s)
    values.update(layers.from_run_reports([p.digest for p in traced]))
    values["engine.virtual_latency_ms"] = 1e3 * mean(
        [v for p in traced for v in p.virtual_latency_s]
    )
    (plain_jobs, plain_tasks), (traced_jobs, traced_tasks) = (
        _rates(plain), _rates(traced)
    )
    values["overhead.jobs_per_s"] = traced_jobs - plain_jobs
    values["overhead.tasks_per_s"] = traced_tasks - plain_tasks
    values["overhead.latency_p50_ms"] = 1e3 * (
        percentile(_latency(traced), 50) - percentile(_latency(plain), 50)
    )
    layers.emit(result, values)
    result.tracer = tracer
    return result
