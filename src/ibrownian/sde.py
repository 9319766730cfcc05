"""Path integration for the finite and truncated-limit particle SDEs.

The one scheme is Euler-Maruyama with adaptive substep halving: a
base step is split until the drift move |b| h stays below both a fixed
cap (``_DRIFT_CAP``) and a tenth of the smallest interparticle gap,
which is what keeps the singular pair drifts stable.

All paths of a run are integrated together as one (P, n, d) array.  Each
path sits at its own node of its own binary substep tree, tracked as an
integer tick and span in units of dt / 2**30, and the paths meet again
only at the end.  One iteration makes one drift call for all live paths;
every path then descends from its node to a leaf in that iteration (its
state, and so its drift, do not change on the way down).  A path that
fails (singular drift, drift not a number, depth budget exhausted)
leaves the batch with its reason before the move, through the exit a
finished path takes after it; a call that raised at singular paths
moves no path, and the others' drift comes from the next call.  So one
in-place move of the whole live stack serves every path that remains,
and each drift evaluation that returns serves exactly one leaf.  A path
reads its noise from its own buffer of draws, refilled from its
generator in one call.  Per path, the split tests, the drifts and the
noise used are those of a depth-first walk of that path alone, so the
batch changes no output bit.

The SDEs have no boundary rule of their own: on the [0, inf) families a
move that overshoots 0 is reflected (made absolute), the integrator's one
guard against Euler overshoot at the hard edge.

Recording is decoupled from integration: states land on the grid
t_k = k * dt_record.  Every (path, recording interval) pair draws from
its own RNG substream, so a run is bitwise reproducible from (seed,
config) alone, restartable from any recorded state, and independent of
the worker count and of which other paths share the batch.

    spec = ModelSpec(Family.AIRY, 10, beta=2.0)
    cfg = IntegratorConfig(dt=1e-4, t_final=0.05, dt_record=1e-3)
    starts, _ = sample_airy_ensemble(10, 2.0, RngStream(1), 100)  # (100, 10, 1)
    ens = simulate(spec, starts, cfg, RngStream(2))
    assert ens.ordering_violations == 0
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import ModelSpec, RngStream, SingularConfigurationError, StepFailureError, _resolve_rng
from .core import _checked_number, _whole_steps
from .models import (
    MIN_PAIR_SEPARATION,
    TruncationParams,
    _configuration,
    _state_noise,
    diffusion_sigma,
    drift_finite_all,
    drift_limit_truncated_all,
)

__all__ = [
    "IntegratorConfig",
    "PathEnsemble",
    "step",
    "simulate",
]


@dataclass(frozen=True)
class IntegratorConfig:
    """Numerical parameters of one integration run.

    ``dt_record`` defaults to ``dt`` and must be an integer multiple of
    it, as ``t_final`` must be of ``dt_record``.  ``truncation`` switches
    the drift to the radius-r truncated limit field.  ``noise_scale`` is
    a test hook (0 silences the noise); production runs leave it at 1.
    Moves on the [0, inf) families are reflected at 0, the one boundary rule.
    """

    dt: float
    t_final: float
    dt_record: float | None = None
    max_substep_depth: int = 20
    truncation: TruncationParams | None = None
    noise_scale: float = 1.0

    def __post_init__(self) -> None:
        _checked_number("dt", self.dt, above=0)
        _checked_number("t_final", self.t_final, at_least=0)
        _checked_number("max_substep_depth", self.max_substep_depth, at_least=0, at_most=_TREE_DEPTH, whole=True)
        _checked_number("noise_scale", self.noise_scale, at_least=0)
        if self.truncation is not None and not isinstance(self.truncation, TruncationParams):
            raise ValueError("truncation must be a TruncationParams or None")
        if self.dt_record is not None:
            _checked_number("dt_record", self.dt_record, above=0)
            if not _whole_steps(self.dt_record, self.dt):  # None or 0
                raise ValueError("dt_record must be a positive integer multiple of dt")
        if _whole_steps(self.t_final, self.record_step) is None:
            raise ValueError("t_final must be an integer multiple of dt_record")

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
    (n, d) state at ``times[k]``.  Particle i keeps row i (the time
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

# largest drift move |b| h of one substep, whatever the gaps
_DRIFT_CAP = 0.5


def _split_rule(spec, x, b, sep, state_noise):
    """Which rows of the (L, n, d) stack halve their substep, as data for
    ``_splits``: (bmax, drift_limit, noise_limit, pair_sig), each row's
    largest drift norm, and the drift move and the noise it may take.
    ``sep`` is each row's smallest pair separation, its smallest gap.

    A row splits while its drift move |b| h exceeds ``_DRIFT_CAP`` or a tenth of
    its smallest gap, or while its substep noise does, tested per adjacent
    pair where ``state_noise``.  Without noise, or with one particle, no
    noise test holds: 0 exceeds no limit, no noise exceeds one particle's
    infinite gap, and its per-pair limits have no column; any two particles
    have a finite gap.  A row keeps its state, and its rule, down its descent.
    """
    d = x.shape[2]
    # sqrt is monotone, so the norm of the largest square is the largest norm
    b2 = b * b
    bmax = np.sqrt(np.maximum.reduce(b2[:, :, 0] if d == 1 else np.add.reduce(b2, axis=2), axis=1))
    tenth = 0.1 * sep
    drift_limit = np.fmin(tenth, _DRIFT_CAP)
    # the drift cap alone leaves the substep noise at a fixed ~0.45
    # fraction of the gap (both scale with it), which lets diffusion
    # hop a crossing; also resolving the noise against the gap makes
    # label swaps vanish while keeping the same dip statistics
    if not state_noise:
        return bmax, drift_limit, tenth, None
    # state-dependent noise: a swap is a per-pair event, so test each
    # adjacent pair against its own coefficient instead of the global
    # max against the global gap (that bound forces deep substepping of
    # well-separated high-noise particles); rounding is monotone, so the
    # smallest adjacent gap of the sorted row is bitwise ``sep``
    xs = x[:, :, 0].copy()
    xs.sort(axis=1)
    sig = diffusion_sigma(spec, xs[:, :, None])[:, :, 0]
    pair_sig = np.maximum(sig[:, 1:], sig[:, :-1])
    noise_limit = 0.1 * (xs[:, 1:] - xs[:, :-1])
    return bmax, drift_limit, noise_limit, pair_sig


def _splits(rule, h, noise_root_h):
    """Which rows of a ``_split_rule`` halve their substep h."""
    bmax, drift_limit, noise_limit, pair_sig = rule
    split = bmax * h > drift_limit
    if pair_sig is None:
        return split | (noise_root_h > noise_limit)
    return split | np.logical_or.reduce(noise_root_h[:, None] * pair_sig > noise_limit, axis=1)


def _move(spec, x, b, h, noise_root_h, draw, state_noise):
    """Euler-Maruyama move (x + b h) + noise of every row of the (L, n, d)
    stack x, in place (b is overwritten), reflected at 0 on the [0, inf)
    families.

    ``draw()`` returns the next standard normal (n, d) draw of every row.
    """
    noise = draw()
    if state_noise:
        noise *= diffusion_sigma(spec, x)
    noise *= noise_root_h[:, None, None]
    b *= h[:, None, None]
    x += b
    x += noise
    if spec.nonnegative_domain:
        np.abs(x, out=x)


def _integrate(spec, cfg, starts, h0, n_rec, m, generator, lowest_failure_only=False, noise_depth=None):
    """Integrate every state of the (P, n, d) stack ``starts`` over
    ``n_rec`` recording intervals of ``m`` base steps of length ``h0``.

    ``generator(p, j)`` is the noise generator of path p on interval j.
    An iteration evaluates the drift of all live paths in one call, and
    each path descends its own substep tree from its node to a leaf while
    the split rule holds.  Paths whose step failed there (singular drift,
    drift not a number, depth budget exhausted) leave the batch with
    their reasons before any move; every other live path then takes its
    leaf's move in one in-place move of the whole stack, reflected at 0
    on the [0, inf) families; the finished paths leave after it.  With
    ``lowest_failure_only``, only the lowest-indexed failure is wanted:
    once a path fails, the live paths above it leave the batch
    unfinished, with no reason and no recorded states.

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
    substeps, max_depth = np.zeros((2, n_paths), dtype=np.int64)
    reasons = [None] * n_paths
    unit = h0 / _BASE_TICKS
    interval_ticks = m * _BASE_TICKS
    finest_split = _BASE_TICKS >> cfg.max_substep_depth  # nodes this narrow may not split
    state_noise = _state_noise(spec)
    # state of the live paths, compacted whenever one leaves the batch
    ids = np.arange(n_paths if n_rec else 0)
    x = starts[ids]
    span = np.full(len(ids), _BASE_TICKS)  # ticks covered by the current node
    tick = np.zeros_like(span)  # where it starts in the recording interval
    finest = span.copy()  # narrowest leaf so far
    interval = np.zeros_like(span)
    moves = 0  # iterations so far: every live path has taken one leaf in each
    # noise generators and buffers, indexed by path id
    depth = noise_depth or min(_NOISE_DEPTH, max(1, _BLOCK_PAIR_TERMS // starts.size))
    gens = [generator(p, 0) for p in ids]
    buf = np.empty((n_paths, depth) + starts.shape[1:])
    used = np.full(n_paths, depth)  # draws read from each buffer

    def draw():
        k = used[ids]
        empty = ids[k == depth]
        if empty.size:
            for p in empty:
                gens[p].standard_normal(out=buf[p])
            used[empty] = 0
            k = used[ids]
        used[ids] = k + 1
        return buf[ids, k]

    def leave(gone, *rows):
        """Drop the failed or finished rows ``gone`` from the live state and from ``rows``."""
        nonlocal ids, x, span, tick, finest, interval
        keep = np.ones(len(ids), dtype=bool)
        keep[gone] = False
        if lowest_failure_only:
            failed = [ids[i] for i in gone if reasons[ids[i]] is not None]
            if failed:
                keep &= ids < min(failed)
        ids, x, span, tick, finest, interval, *rows = (a[keep] for a in (ids, x, span, tick, finest, interval, *rows))
        return rows

    drift, args = (drift_finite_all, ()) if cfg.truncation is None else (drift_limit_truncated_all, (cfg.truncation,))
    while ids.size:
        sep = np.empty(len(ids))
        try:
            b = drift(spec, x, *args, separation=sep)
        except SingularConfigurationError as exc:
            # every row's separation is written: the singular rows leave
            gone = np.flatnonzero(sep < MIN_PAIR_SEPARATION)
            for i in gone:
                reasons[ids[i]] = f"drift evaluation hit a singular configuration: {exc}"
            leave(gone)
            continue
        h = span * unit
        noise_root_h = cfg.noise_scale * np.sqrt(h)
        # descend to the leaf: the state, and so the rule, stay fixed
        # while the substep of the rows that still split halves
        rule = _split_rule(spec, x, b, sep, state_noise)
        split = _splits(rule, h, noise_root_h)
        # the norms are >= 0, so their sum is NaN only where one of them is
        gone = np.flatnonzero(np.isnan(rule[0])).tolist() if math.isnan(np.add.reduce(rule[0])) else []
        for i in gone:
            reasons[ids[i]] = "drift is not a number"
            split[i] = False
        while np.count_nonzero(split):
            for i in np.flatnonzero(split & (span <= finest_split)):
                reasons[ids[i]] = (
                    f"substep depth {cfg.max_substep_depth} exhausted (|b| = {rule[0][i]:.3g}, h = {h[i]:.3g})"
                )
                split[i] = False
                gone.append(i)
            np.right_shift(span, 1, out=span, where=split)
            np.multiply(span, unit, out=h)
            np.sqrt(h, out=noise_root_h)
            noise_root_h *= cfg.noise_scale
            split &= _splits(rule, h, noise_root_h)
        np.minimum(finest, span, out=finest)
        if gone:
            b, h, noise_root_h = leave(gone, b, h, noise_root_h)
            if not ids.size:
                break

        # every live row takes its leaf and moves on to the next node
        _move(spec, x, b, h, noise_root_h, draw, state_noise)
        moves += 1
        tick += span
        np.minimum(tick & -tick, _BASE_TICKS, out=span)
        if np.maximum.reduce(tick) == interval_ticks:
            gone = []
            for i in np.flatnonzero(tick == interval_ticks):
                p = ids[i]
                tick[i] = 0
                interval[i] += 1
                rec[p, interval[i]] = x[i]
                if interval[i] < n_rec:
                    gens[p] = generator(p, interval[i])
                    used[p] = depth
                else:
                    substeps[p] = moves
                    max_depth[p] = _TREE_DEPTH + 1 - int(finest[i]).bit_length()
                    gone.append(i)
            if gone:
                leave(gone)
    return rec, substeps, max_depth, reasons


def step(spec: ModelSpec, state, dt: float, rng, cfg: IntegratorConfig) -> np.ndarray:
    """One base step of length dt (substepping internally as needed).

    Returns the (n, d) state at time dt, row i being particle i, as each
    row of ``PathEnsemble.states`` is.  A start must be a finite (n, d)
    configuration of the spec inside its domain.
    """
    _checked_number("dt", dt, above=0)
    g, _ = _resolve_rng(rng)
    pts = _configuration(spec, state, "state", n=spec.n_particles)
    # one draw at a time leaves a caller's generator where the moves leave it
    rec, _, _, reasons = _integrate(spec, cfg, pts[None], float(dt), 1, 1, lambda p, j: g, noise_depth=1)
    if reasons[0] is not None:
        raise StepFailureError(reasons[0])
    # as PathEnsemble requires of every recorded state
    if not np.isfinite(rec[0, 1]).all():
        raise ValueError("the new state must be finite")
    return rec[0, 1]


# ---------------------------------------------------------------------------
# path-level driver
# ---------------------------------------------------------------------------


def _integrate_block(task):
    spec, cfg, starts, stream, first, start_interval, n_rec, lowest_failure_only = task

    def generator(p, j):
        return stream.generator(first + p, start_interval + j)

    return _integrate(spec, cfg, starts, cfg.dt, n_rec, cfg.substeps_per_record, generator, lowest_failure_only)


def _count_order_swaps(states: np.ndarray) -> int:
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
    bitwise.  ``workers`` is None or a whole number >= 1; above 1, a pool
    of that many processes takes contiguous blocks of paths without
    changing any output.

    Near-collisions below the substep resolution end a path with a step
    failure.  ``on_failure="raise"`` propagates the lowest-indexed one
    with its path index, and stops integrating once no lower path can
    still fail; ``"drop"`` excludes flagged paths from the ensemble and
    lists them in ``failed_paths`` (their noise streams are untouched,
    so surviving paths are bitwise independent of the flagged ones).
    A start that is not a finite (n, d) configuration of the spec inside
    its domain is refused, naming its index, before any path is integrated.
    """
    if not isinstance(rng, RngStream):
        raise TypeError("simulate requires an RngStream (determinism contract)")
    _checked_number("start_interval", start_interval, at_least=0, whole=True)
    if workers is not None:
        workers = int(_checked_number("workers", workers, at_least=1, whole=True))
    if on_failure not in ("raise", "drop"):
        raise ValueError("on_failure must be 'raise' or 'drop'")
    rs = cfg.record_step
    n_rec = round(cfg.t_final / rs)

    starts = [_configuration(spec, state, f"initial state {k}", n=spec.n_particles) for k, state in enumerate(initial)]
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
    rec, substeps, max_depth = (np.concatenate([r[k] for r in results]) for k in range(3))
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

