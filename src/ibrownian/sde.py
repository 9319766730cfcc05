"""Path integration for the finite and truncated-limit particle SDEs.

The default scheme is Euler-Maruyama with adaptive substep halving: a
base step is split until the drift move |b| h stays below both the
configured cap and a tenth of the smallest interparticle gap, which is
what keeps the singular pair drifts stable.  A tamed scheme (divide the
drift by 1 + dt |b|) is available as a fallback that never substeps.

All paths of a run are integrated together as one (P, n, d) array.  Each
path sits at its own node of its own binary substep tree, tracked as an
integer tick and span in units of dt / 2**30, and the paths meet again
only at the end.  One iteration makes one drift call for all live paths;
every path then descends from its node to a leaf in that iteration (its
state, and so its drift, do not change on the way down), takes the leaf's
move and goes on to the next node depth first, so each drift evaluation
serves exactly one leaf.  A path reads its noise from its own buffer of
draws, refilled from its generator in one call.  A path whose step fails
(singular drift, depth or boundary budget exhausted) leaves the batch
with its reason and the others go on.  Per path, the split tests, the
drifts and the noise used are those of a depth-first walk of that path
alone, so the batch changes no output bit.

Recording is decoupled from integration: states land on the grid
t_k = k * dt_record.  Every (path, recording interval) pair draws from
its own RNG substream, so a run is bitwise reproducible from (seed,
config) alone, restartable from any recorded state, and independent of
the worker count and of which other paths share the batch.

    spec = ModelSpec(Family.AIRY, 10, beta=2.0)
    cfg = IntegratorConfig(dt=1e-4, t_final=0.05, dt_record=1e-3)
    start = label(sample_airy_equilibrium(10, 2.0, RngStream(1)),
                  LabelScheme.ASCENDING_VALUE)
    ens = simulate(spec, [start] * 100, cfg, RngStream(2))
    assert check_ordering(ens) == 0
"""

from __future__ import annotations

import enum
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (
    LabeledState,
    LabelScheme,
    ModelSpec,
    RngStream,
    SingularConfigurationError,
    StepFailureError,
)
from .models import (
    TruncationParams,
    diffusion_kind,
    diffusion_sigma,
    DiffusionKind,
    drift_finite_all,
    drift_limit_truncated_all,
)

__all__ = [
    "Scheme",
    "BoundaryPolicy",
    "IntegratorConfig",
    "PathEnsemble",
    "step",
    "simulate",
    "check_ordering",
]

_REJECT_RETRIES = 100


class Scheme(str, enum.Enum):
    EULER_MARUYAMA = "euler_maruyama"
    TAMED_EULER = "tamed_euler"


class BoundaryPolicy(str, enum.Enum):
    REFLECT = "reflect"
    REJECT_STEP = "reject_step"


@dataclass(frozen=True)
class IntegratorConfig:
    """Numerical parameters of one integration run.

    ``dt_record`` defaults to ``dt`` and must be an integer multiple of
    it.  ``truncation`` switches the drift to the radius-r truncated
    limit field.  ``noise_scale`` is a test hook (0 silences the noise);
    production runs leave it at 1.
    """

    dt: float
    t_final: float
    dt_record: float | None = None
    max_substep_depth: int = 20
    drift_cap_delta: float = 0.5
    boundary_policy: BoundaryPolicy = BoundaryPolicy.REFLECT
    scheme: Scheme = Scheme.EULER_MARUYAMA
    truncation: TruncationParams | None = None
    noise_scale: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "boundary_policy", BoundaryPolicy(self.boundary_policy))
        object.__setattr__(self, "scheme", Scheme(self.scheme))
        if not self.dt > 0:
            raise ValueError("dt must be > 0")
        if self.t_final < 0:
            raise ValueError("t_final must be >= 0")
        if not 0 <= self.max_substep_depth <= 30:
            raise ValueError("max_substep_depth must lie in [0, 30]")
        if not self.drift_cap_delta > 0:
            raise ValueError("drift_cap_delta must be > 0")
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be >= 0")
        if self.truncation is not None and not isinstance(self.truncation, TruncationParams):
            raise ValueError("truncation must be a TruncationParams or None")
        if self.dt_record is not None:
            m = round(self.dt_record / self.dt)
            if m < 1 or abs(self.dt_record - m * self.dt) > 1e-9 * self.dt:
                raise ValueError("dt_record must be a positive integer multiple of dt")

    @property
    def record_step(self) -> float:
        return self.dt if self.dt_record is None else self.dt_record

    @property
    def substeps_per_record(self) -> int:
        return round(self.record_step / self.dt)


@dataclass(frozen=True)
class PathEnsemble:
    """Recorded trajectories of one simulate() call.

    ``states`` has shape (paths, len(times), n, d); row k of path p is the
    labeled state at ``times[k]``.  Labels follow particles (the time
    series is a path, not a per-time re-sorting).  ``ordering_violations``
    counts adjacent-pair order swaps between consecutive recorded states
    of 1d families and is None otherwise.  ``failed_paths`` lists
    (requested index, reason) for paths flagged by a step failure and
    excluded from ``states``; ``path_seeds`` identifies the survivors.
    """

    times: np.ndarray
    states: np.ndarray
    spec: ModelSpec
    path_seeds: tuple
    substeps: np.ndarray
    max_depth_used: int
    ordering_violations: int | None
    failed_paths: tuple = ()

    def __post_init__(self) -> None:
        if self.states.ndim != 4 or self.states.shape[1] != len(self.times):
            raise ValueError("states must have shape (paths, len(times), n, d)")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("recording grid must be strictly increasing")
        if not np.all(np.isfinite(self.states)):
            raise ValueError("all recorded states must be finite")
        if self.states.shape[0] != len(self.path_seeds):
            raise ValueError("one trajectory per surviving path required")

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    def trajectory(self, path: int) -> list[LabeledState]:
        scheme = LabelScheme.ASCENDING_VALUE if self.states.shape[3] == 1 else LabelScheme.ASCENDING_MODULUS
        return [LabeledState(self.states[path, k], scheme) for k in range(len(self.times))]


# ---------------------------------------------------------------------------
# batched integration loop
# ---------------------------------------------------------------------------

# A base step is a binary tree of substeps.  A path's place in its
# recording interval is counted in ticks of dt / 2**_TREE_DEPTH, so a node
# at depth k spans 2**(_TREE_DEPTH - k) ticks.  After a leaf that ends at
# tick t, the next node depth first spans the lowest set bit of t, capped
# at one base step.
_TREE_DEPTH = 30
_BASE_TICKS = 1 << _TREE_DEPTH

# cap on paths * n * n * d per batch, which bounds the pair tensors a
# drift call allocates; larger ensembles run as consecutive blocks
_BLOCK_PAIR_TERMS = 1 << 22

# leaf draws a path takes from its generator in one call; a batch's noise
# buffer also holds at most _BLOCK_PAIR_TERMS numbers, so a full block's
# buffer is no larger than its pair tensors
_NOISE_DEPTH = 32


def _drift_of(spec: ModelSpec, x: np.ndarray, cfg: IntegratorConfig) -> np.ndarray:
    if cfg.truncation is not None:
        return drift_limit_truncated_all(spec, x, cfg.truncation)
    return drift_finite_all(spec, x)


def _drift(spec, x, cfg):
    """Drift of every state of the (L, n, d) stack, plus {row: reason} for
    the rows at a singular configuration (their drift rows are zero).

    A stack that raises is split in halves until each singular row stands
    alone; a row of a stack gets the drift of a separate call, so the
    split changes no bit."""
    try:
        return _drift_of(spec, x, cfg), {}
    except SingularConfigurationError as exc:
        if len(x) == 1:
            return np.zeros_like(x), {0: f"drift evaluation hit a singular configuration: {exc}"}
    half = len(x) // 2
    b_lo, lo = _drift(spec, x[:half], cfg)
    b_hi, hi = _drift(spec, x[half:], cfg)
    return np.concatenate([b_lo, b_hi]), {**lo, **{half + i: reason for i, reason in hi.items()}}


def _split_rule(spec, x, b, cfg):
    """Each row's largest drift norm, and the rule that says which rows
    halve their substep.

    A row splits while its drift move |b| h exceeds the cap or a tenth of
    its smallest gap, or while its substep noise does.  A row keeps its
    state, and so its drift and gaps, all the way down its descent, so
    the rule is built once per state: ``split(rows, h, noise_root_h)``
    tests the listed rows at their current substep h.
    """
    bmax = np.maximum.reduce(np.sqrt(np.add.reduce(b * b, axis=2)), axis=1)
    n_rows, n, d = x.shape
    if n < 2:
        gap = np.full(n_rows, np.inf)
    elif d == 1:
        # the smallest gap is an adjacent one, and the sort is needed below
        xs = np.sort(x[:, :, 0], axis=1)
        gaps = xs[:, 1:] - xs[:, :-1]
        gap = np.minimum.reduce(gaps, axis=1)
    else:
        diff = x[:, :, None, :] - x[:, None, :, :]
        dist = np.sqrt(np.add.reduce(diff * diff, axis=3))
        diag = np.arange(n)
        dist[:, diag, diag] = np.inf
        gap = np.minimum.reduce(dist, axis=(1, 2))
    tenth = 0.1 * gap
    drift_limit = np.fmin(tenth, cfg.drift_cap_delta)
    if not (cfg.noise_scale > 0.0 and n >= 2):
        return bmax, lambda rows, h, noise_root_h: bmax[rows] * h > drift_limit[rows]
    # the drift cap alone leaves the substep noise at a fixed ~0.45
    # fraction of the gap (both scale with it), which lets diffusion
    # hop a crossing; also resolving the noise against the gap makes
    # label swaps vanish while keeping the same dip statistics
    if diffusion_kind(spec) is DiffusionKind.IDENTITY:

        def split(rows, h, noise_root_h):
            return (bmax[rows] * h > drift_limit[rows]) | (noise_root_h > tenth[rows])

        return bmax, split
    # state-dependent noise: a swap is a per-pair event, so test each
    # adjacent pair against its own coefficient instead of the global
    # max against the global gap (that bound forces deep substepping of
    # well-separated high-noise particles)
    sig = diffusion_sigma(spec, xs[:, :, None])[:, :, 0]
    pair_sig = np.maximum(sig[:, 1:], sig[:, :-1])
    tenth_gaps = 0.1 * gaps
    finite = np.isfinite(gap)

    def split(rows, h, noise_root_h):
        noisy = np.any(noise_root_h[:, None] * pair_sig[rows] > tenth_gaps[rows], axis=1)
        return (bmax[rows] * h > drift_limit[rows]) | (finite[rows] & noisy)

    return bmax, split


def _moves(spec, x, b, h, noise_root_h, pids, noise, cfg):
    """Euler-Maruyama moves of every row of the (L, n, d) stack.

    Row i is path ``pids[i]``; ``noise(p)`` returns the next standard
    normal (n, d) draw of each path of the id array p.  Returns the moved
    stack and the rows whose boundary rejection budget ran out (those
    keep their state).
    """
    sig = None if diffusion_kind(spec) is DiffusionKind.IDENTITY else diffusion_sigma(spec, x)
    drifted = x + b * h[:, None, None]
    scale = noise_root_h[:, None, None]
    xi = noise(pids)
    new = drifted + scale * (xi if sig is None else sig * xi)
    rows = np.arange(0)
    if not spec.nonnegative_domain:
        return new, rows
    if cfg.boundary_policy is BoundaryPolicy.REFLECT:
        return np.abs(new), rows
    # a rejected move is drawn again, from the same path's next noise
    rows = np.flatnonzero(np.min(new, axis=(1, 2)) <= 0.0)
    for _ in range(_REJECT_RETRIES - 1):
        if not rows.size:
            break
        xi = noise(pids[rows])
        new[rows] = drifted[rows] + scale[rows] * (xi if sig is None else sig[rows] * xi)
        rows = rows[np.min(new[rows], axis=(1, 2)) <= 0.0]
    new[rows] = x[rows]
    return new, rows


def _integrate(spec, cfg, starts, h0, n_rec, m, generator, lowest_failure_only=False, noise_depth=None):
    """Integrate every state of the (P, n, d) stack ``starts`` over
    ``n_rec`` recording intervals of ``m`` base steps of length ``h0``.

    ``generator(p, j)`` is the noise generator of path p on interval j.
    Each iteration evaluates the drift of all live paths in one call.
    Each path then descends its own substep tree from its current node
    to a leaf, halving its substep while the split rule holds (its state
    and drift do not change on the way down), takes the move of that
    leaf and goes on to the next node depth first: an iteration moves
    every live path by exactly one leaf.  A path whose step fails leaves
    the batch; the others go on.  With ``lowest_failure_only``, only the
    lowest-indexed failure is wanted: once a path fails, the live paths
    above it leave the batch unfinished, with no reason and no recorded
    states.

    A path reads its noise from a buffer of ``noise_depth`` draws (by
    default ``_NOISE_DEPTH``, fewer for a large batch), refilled from its
    generator in one call when empty and discarded at each new recording
    interval.  One call of k draws gives the numbers of k successive
    calls, so the buffer changes no output bit; depth 1 takes from a
    generator no more than the moves use.

    Returns the recorded states (P, n_rec + 1, n, d), the leaf count and
    deepest leaf of each finished path, and each path's failure reason
    (None for the paths that finished).
    """
    n_paths = len(starts)
    rec = np.empty((n_paths, n_rec + 1) + starts.shape[1:])
    rec[:, 0] = starts
    substeps = np.zeros(n_paths, dtype=np.int64)
    max_depth = np.zeros(n_paths, dtype=np.int64)
    reasons = [None] * n_paths
    unit = h0 / _BASE_TICKS
    interval_ticks = m * _BASE_TICKS
    finest_split = _BASE_TICKS >> cfg.max_substep_depth  # nodes this narrow may not split
    tamed = cfg.scheme is Scheme.TAMED_EULER
    # state of the live paths, compacted whenever one leaves the batch
    ids = np.arange(n_paths if n_rec else 0)
    x = starts[ids]
    span = np.full(len(ids), _BASE_TICKS)  # ticks covered by the current node
    tick = np.zeros_like(span)  # where it starts in the recording interval
    finest = span.copy()  # narrowest leaf so far
    leaves = np.zeros_like(span)
    interval = np.zeros_like(span)
    # noise generators and buffers, indexed by path id
    depth = noise_depth or min(_NOISE_DEPTH, max(1, _BLOCK_PAIR_TERMS // starts.size))
    gens = [generator(p, 0) for p in ids]
    buf = np.empty((n_paths, depth) + starts.shape[1:])
    used = np.full(n_paths, depth)  # draws read from each buffer

    def noise(pids):
        k = used[pids]
        empty = pids[k == depth]
        if empty.size:
            for p in empty:
                gens[p].standard_normal(out=buf[p])
            used[empty] = 0
            k = used[pids]
        used[pids] = k + 1
        return buf[pids, k]

    while ids.size:
        b, singular = _drift(spec, x, cfg)
        gone = list(singular)
        for i, reason in singular.items():
            reasons[ids[i]] = reason
        h = span * unit
        noise_root_h = cfg.noise_scale * np.sqrt(h)
        if tamed:
            b = b / (1.0 + h[:, None, None] * np.sqrt(np.sum(b * b, axis=2, keepdims=True)))
        else:
            # descend to the leaf: the state, and so the rule, stay fixed
            # while the substep of the rows that still split halves
            bmax, splits = _split_rule(spec, x, b, cfg)
            split = splits(slice(None), h, noise_root_h)
            if gone:
                split[gone] = False
            rows = np.flatnonzero(split)
            while rows.size:
                deep = span[rows] <= finest_split
                if deep.any():
                    for i in rows[deep]:
                        reasons[ids[i]] = (
                            f"substep depth {cfg.max_substep_depth} exhausted (|b| = {bmax[i]:.3g}, h = {h[i]:.3g})"
                        )
                        gone.append(i)
                    rows = rows[~deep]
                span[rows] >>= 1
                h[rows] = h_rows = span[rows] * unit
                noise_root_h[rows] = root_rows = cfg.noise_scale * np.sqrt(h_rows)
                rows = rows[splits(rows, h_rows, root_rows)]
        leaf = np.ones(len(ids), dtype=bool)
        leaf[gone] = False
        rows = np.flatnonzero(leaf)
        x[rows], stuck = _moves(spec, x[rows], b[rows], h[rows], noise_root_h[rows], ids[rows], noise, cfg)
        for i in rows[stuck]:
            reasons[ids[i]] = f"boundary rejection budget ({_REJECT_RETRIES}) exhausted"
            leaf[i] = False
            gone.append(i)

        # leaf rows move on to the next node
        leaves += leaf
        np.minimum(finest, span, out=finest, where=leaf)
        np.add(tick, span, out=tick, where=leaf)
        np.minimum(tick & -tick, _BASE_TICKS, out=span, where=leaf)
        full = tick == interval_ticks
        if full.any():
            for i in np.flatnonzero(full):
                tick[i] = 0
                interval[i] += 1
                rec[ids[i], interval[i]] = x[i]
                if interval[i] < n_rec:
                    gens[ids[i]] = generator(ids[i], interval[i])
                    used[ids[i]] = depth
                else:
                    substeps[ids[i]] = leaves[i]
                    max_depth[ids[i]] = _TREE_DEPTH + 1 - int(finest[i]).bit_length()
                    gone.append(i)
        if gone:
            keep = np.ones(len(ids), dtype=bool)
            keep[gone] = False
            if lowest_failure_only:
                failed = [ids[i] for i in gone if reasons[ids[i]] is not None]
                if failed:
                    keep &= ids < min(failed)
            if not keep.any():
                break
            ids, x, span, tick, finest, leaves, interval = (
                a[keep] for a in (ids, x, span, tick, finest, leaves, interval)
            )
    return rec, substeps, max_depth, reasons


def step(spec: ModelSpec, state, dt: float, rng, cfg: IntegratorConfig) -> LabeledState:
    """One base step of length dt (substepping internally as needed)."""
    if not dt > 0:
        raise ValueError("dt must be > 0")
    if isinstance(rng, RngStream):
        g = rng.generator()
    elif isinstance(rng, np.random.Generator):
        g = rng
    else:
        raise TypeError("rng must be an RngStream or numpy Generator")
    pts = np.array(getattr(state, "points", state), dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    # one draw at a time leaves a caller's generator where the moves leave it
    rec, _, _, reasons = _integrate(spec, cfg, pts[None], float(dt), 1, 1, lambda p, j: g, noise_depth=1)
    if reasons[0] is not None:
        raise StepFailureError(reasons[0])
    scheme = getattr(
        state, "scheme", LabelScheme.ASCENDING_VALUE if pts.shape[1] == 1 else LabelScheme.ASCENDING_MODULUS
    )
    return LabeledState(rec[0, 1], scheme)


# ---------------------------------------------------------------------------
# path-level driver
# ---------------------------------------------------------------------------


def _integrate_block(task):
    spec, cfg, starts, stream, first, start_interval, n_rec, lowest_failure_only = task
    return _integrate(
        spec,
        cfg,
        starts,
        cfg.dt,
        n_rec,
        cfg.substeps_per_record,
        lambda p, j: stream.generator(first + p, start_interval + j),
        lowest_failure_only,
    )


def _count_order_swaps(states: np.ndarray) -> int:
    if states.shape[1] < 2 or states.shape[2] < 2:
        return 0
    sgn = np.sign(np.diff(states[..., 0], axis=2))
    return int(np.sum(sgn[:, 1:, :] * sgn[:, :-1, :] < 0))


def simulate(
    spec: ModelSpec,
    initial,
    cfg: IntegratorConfig,
    rng: RngStream,
    *,
    workers: int | None = None,
    start_interval: int = 0,
    on_failure: str = "raise",
) -> PathEnsemble:
    """Integrate one trajectory per initial state.

    Noise for path p on recording interval j comes from the substream
    ``rng.generator(p, start_interval + j)``; restarting from a recorded
    state with the matching ``start_interval`` reproduces the tail
    bitwise.  ``workers`` > 1 gives each process a contiguous block of
    paths without changing any output.

    Near-collisions below the substep resolution end a path with a step
    failure.  ``on_failure="raise"`` propagates the lowest-indexed one
    with its path index, and stops integrating once no lower path can
    still fail; ``"drop"`` excludes flagged paths from the ensemble and
    lists them in ``failed_paths`` (their noise streams are untouched,
    so surviving paths are bitwise independent of the flagged ones).
    """
    if not isinstance(rng, RngStream):
        raise TypeError("simulate requires an RngStream (determinism contract)")
    if start_interval < 0:
        raise ValueError("start_interval must be >= 0")
    if on_failure not in ("raise", "drop"):
        raise ValueError("on_failure must be 'raise' or 'drop'")
    rs = cfg.record_step
    n_rec = round(cfg.t_final / rs)
    if abs(cfg.t_final - n_rec * rs) > 1e-9 * rs:
        raise ValueError("t_final must be an integer multiple of dt_record")

    starts = []
    for state in initial:
        pts = np.array(getattr(state, "points", state), dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.shape[1] != spec.dimension:
            raise ValueError(f"initial state dimension {pts.shape[1]} != family dimension {spec.dimension}")
        if pts.shape[0] != spec.n_particles:
            raise ValueError(f"state has {pts.shape[0]} particles, spec expects {spec.n_particles}")
        starts.append(pts)
    if not starts:
        raise ValueError("at least one initial state is required")
    starts = np.stack(starts)

    n_paths = len(starts)
    per_block = max(1, _BLOCK_PAIR_TERMS // (spec.n_particles**2 * spec.dimension))
    n_blocks = min(n_paths, max(workers or 1, -(-n_paths // per_block)))
    edges = [n_paths * k // n_blocks for k in range(n_blocks + 1)]
    # "raise" reports the lowest-indexed failure only: a block drops the
    # paths above its lowest failure so far, and the blocks after a failed
    # one are skipped (when run one after another)
    halt = on_failure == "raise"
    tasks = [(spec, cfg, starts[lo:hi], rng, lo, start_interval, n_rec, halt) for lo, hi in zip(edges, edges[1:])]
    if workers is not None and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_integrate_block, tasks))
    else:
        results = []
        for t in tasks:
            results.append(_integrate_block(t))
            if halt and any(r is not None for r in results[-1][3]):
                break
    rec = np.concatenate([r[0] for r in results])
    substeps = np.concatenate([r[1] for r in results])
    max_depth = np.concatenate([r[2] for r in results])
    reasons = [reason for r in results for reason in r[3]]

    failures = tuple((p, f"path {p}: {r}") for p, r in enumerate(reasons) if r is not None)
    if failures and on_failure == "raise":
        raise StepFailureError(failures[0][1])
    survivors = [p for p, r in enumerate(reasons) if r is None]
    if not survivors:
        raise StepFailureError(f"all paths failed; first: {failures[0][1]}")

    states = rec[survivors] if failures else rec
    states.setflags(write=False)
    times = (start_interval + np.arange(n_rec + 1)) * rs
    violations = _count_order_swaps(states) if spec.dimension == 1 else None
    return PathEnsemble(
        times=times,
        states=states,
        spec=spec,
        path_seeds=tuple((rng.seed, rng.stream_id, p) for p in survivors),
        substeps=substeps[survivors],
        max_depth_used=int(max_depth[survivors].max()),
        ordering_violations=violations,
        failed_paths=failures,
    )


def check_ordering(ensemble: PathEnsemble) -> int:
    """Adjacent-pair order swaps between consecutive recorded states.

    Defined for 1d families only; 0 means no recorded collision/crossing.
    """
    if ensemble.states.shape[3] != 1:
        raise ValueError("ordering is defined for 1d families only")
    return _count_order_swaps(ensemble.states)
