"""Path simulation and Monte Carlo estimation: the independent oracle.

Euler scheme: drift + Gaussian increment + compound Poisson jumps above the
truncation threshold; small jumps are replaced by their compensator drift
alone or by a moment-matched Gaussian.  Boundary crossings within a step are
resolved with Brownian-bridge corrections (crossing probability for the
barriers, exact bridge-supremum sampling at a reflecting barrier), which
removes the dominant discretisation bias of first-passage estimates.

Paths are stepped in time blocks.  Each block draws k steps of variates for
the m paths still alive, k = max(1, CELLS // m), so every block holds about
CELLS path-steps whatever the alive count.  Positions are a running sum
along each path of the interleaved increments, in the per-step order: one
cumsum, repeated for the state-dependent refracted drift until the steps it
takes to start above the refraction level stop changing.  The
reflection regulator is a running maximum and each path's first exit an
argmax over the block.  A block step writes each exit, the discounted
regulator and the occupation histogram straight into the run's arrays; paths
with no exit carry their last position into the next block.

Determinism: paths are processed in fixed-size batches; batch j draws from a
counter-based Philox stream keyed by (seed, j).  Batch outputs are combined
in batch order, so results are bit-identical for a fixed scheme regardless of
the worker count (LEVYFLUCT_THREADS only changes scheduling).
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import models as _models
from .errors import HypothesisViolationError, ModelError
from .generator import penalty_function

CAPPED_FLAG_LEVEL = 1e-3
CELLS = 8192      # variate cells (paths x steps) drawn per block
SMALL_JUMP_MODES = ("auto", "gaussian_approx", "drift_only")


def thread_count():
    """Worker cap from LEVYFLUCT_THREADS (default 1); a malformed value warns and gives 1."""
    raw = os.environ.get("LEVYFLUCT_THREADS", "1")
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        warnings.warn(f"LEVYFLUCT_THREADS={raw!r} is not a positive integer; using 1",
                      RuntimeWarning, stacklevel=2)
        return 1
    return count


@dataclass(frozen=True)
class SimScheme:
    """Euler scheme parameters.

    ``small_jump_mode``: 'auto' picks gaussian_approx for infinite-activity
    measures and drift_only otherwise.  ``horizon`` defaults to 50/q for
    q > 0 and must be given explicitly for q = 0.  ``batch_size`` is part of
    the scheme: it fixes the stream-to-path assignment.
    """

    dt: float = 1e-3
    eps: float = 1e-3
    small_jump_mode: str = "auto"
    horizon: Optional[float] = None
    seed: int = 0
    batch_size: int = 10_000
    bridge: bool = True

    def __post_init__(self):
        if not (0.0 < self.dt < math.inf and 0.0 < self.eps < math.inf):
            raise ModelError("dt and eps must be finite and positive")
        if self.horizon is not None and not 0.0 < self.horizon < math.inf:
            raise ModelError("horizon must be finite and positive")
        if self.small_jump_mode not in SMALL_JUMP_MODES:
            raise ModelError(f"unknown small_jump_mode {self.small_jump_mode!r}")

    def resolve_horizon(self, q):
        if self.horizon is not None:
            return self.horizon
        if q > 0:
            return 50.0 / q
        raise ModelError("horizon is required when q = 0 (first passage can be heavy-tailed)")


@dataclass
class MCEstimate:
    mean: float
    stderr: float
    n_paths: int
    scheme: SimScheme
    capped_fraction: float

    @property
    def flagged(self):
        return self.capped_fraction > CAPPED_FLAG_LEVEL


UP, DOWN, CAPPED = 1, -1, 0


@dataclass
class ExitSamples:
    """Per-path first-passage data; reusable across penalties and rates."""

    times: np.ndarray
    sides: np.ndarray          # +1 up, -1 down, 0 capped at the horizon
    positions: np.ndarray      # b for up exits, <= a for down exits, nan capped
    creep: np.ndarray          # down exit that hit the level exactly (continuous part)
    xi_discounted: Optional[np.ndarray] = None   # reflected runs: int e^{-qs} dxi
    horizon: float = math.inf

    @property
    def n_paths(self):
        return self.times.size

    @property
    def capped_fraction(self):
        return float(np.mean(self.sides == CAPPED))


@dataclass
class ResolventEstimate:
    edges: np.ndarray
    density: np.ndarray        # per-bin occupation density estimate
    stderr: np.ndarray
    samples: ExitSamples
    scheme: SimScheme

    @property
    def centers(self):
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    @property
    def widths(self):
        return np.diff(self.edges)


class _JumpKit:
    """Per-(measure, scheme) sampling machinery for jumps above the threshold."""

    def __init__(self, measure, scheme):
        self.measure = measure
        fam = measure.family
        mode = scheme.small_jump_mode
        if mode == "auto":
            mode = ("gaussian_approx" if measure.activity == _models.INFINITE_ACTIVITY
                    else "drift_only")
        self.mode = mode
        if fam == "none":
            self.lam = 0.0
            self.eps_eff = 0.0
        elif fam == "exponential":
            # finite activity: simulate every jump, no truncation
            self.lam = measure.params["intensity"]
            self.rho = measure.params["decay"]
            self.eps_eff = 0.0
        elif fam == "tempered_stable":
            self.eps_eff = scheme.eps
            self.lam = float(measure.tail(self.eps_eff))
            self.alpha = measure.params["alpha"]
            self.rho = measure.params["rho"]
            # acceptance rate of the Pareto proposal: the tempered mass above eps
            # over the envelope's, eps * density(eps) / alpha
            self.accept = (self.lam * self.alpha
                           / (self.eps_eff * float(measure.density(self.eps_eff))))
        elif fam == "table":
            lo = measure.params["theta"][0]
            self.eps_eff = max(scheme.eps, lo)
            self.lam = float(measure.tail(self.eps_eff))
            grid = np.geomspace(self.eps_eff, measure.params["theta"][-1], 4097)
            tails = measure.tail(grid)
            cdf = 1.0 - tails / tails[0]
            cdf[-1] = 1.0
            keep = np.concatenate([[True], np.diff(cdf) > 0])
            self._cdf_grid = cdf[keep]
            self._theta_grid = grid[keep]
        else:
            raise ModelError(f"no jump sampler for measure family {fam!r}")
        # compensator drift for dropped/represented jumps, and matched variance
        self.drift_comp = measure.mass_between(self.eps_eff, 1.0)
        if self.mode == "gaussian_approx" and self.eps_eff > 0:
            self.sigma2_small = measure.mass2_below(self.eps_eff)
        else:
            self.sigma2_small = 0.0

    def path_totals(self, rng, counts):
        """Sum of jump sizes per path, given per-path Poisson counts."""
        fam = self.measure.family
        if fam == "exponential":
            # a zero shape draws nothing and gives 0, so drawing only where jumps
            # happened consumes the stream as one call over every cell does
            out = np.zeros(counts.size)
            hit = counts > 0
            out[hit] = rng.gamma(counts[hit].astype(float), 1.0 / self.rho)
            return out
        total = int(counts.sum())
        if total == 0:
            return np.zeros(counts.size)
        if fam == "tempered_stable":
            sizes = self._sample_tempered(rng, total)
        else:
            u = rng.random(total)
            sizes = np.interp(u, self._cdf_grid, self._theta_grid)
        owner = np.repeat(np.arange(counts.size), counts)
        return np.bincount(owner, weights=sizes, minlength=counts.size)

    def _sample_tempered(self, rng, n):
        # Pareto proposal eps e^{E1/alpha} above eps, accepted with probability
        # e^{-rho (t - eps)}, i.e. when an independent E2 ~ Exp(1) exceeds rho (t - eps)
        out = np.empty(n)
        todo = n
        filled = 0
        while todo > 0:
            # enough proposals for one pass but for a 4-sigma shortfall
            m = int((todo + 4.0 * math.sqrt(todo)) / self.accept) + 16
            prop = self.eps_eff * np.exp(rng.standard_exponential(m) / self.alpha)
            acc = rng.standard_exponential(m) > self.rho * (prop - self.eps_eff)
            got = prop[acc][:todo]
            out[filled:filled + got.size] = got
            filled += got.size
            todo -= got.size
        return out


def _batch_plan(n_paths, batch_size):
    edges = list(range(0, n_paths, batch_size)) + [n_paths]
    return [(i, lo, hi) for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:]))]


def _run_batches(n_paths, scheme, runner):
    """Deterministic fan-out over batches; results concatenated in batch order."""
    plan = _batch_plan(n_paths, scheme.batch_size)

    def work(item):
        bi, lo, hi = item
        rng = np.random.Generator(np.random.Philox(key=scheme.seed, counter=[0, 0, 0, bi]))
        return runner(rng, hi - lo)

    workers = thread_count()
    if workers == 1 or len(plan) == 1:
        return [work(item) for item in plan]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(work, plan))


class _Block(NamedTuple):
    """Variates for k steps of m paths, each array shaped (k, m) or None."""

    k: int
    z: Optional[np.ndarray]        # standard Gaussians
    jumps: Optional[np.ndarray]    # jump totals per step
    u: Optional[np.ndarray]        # bridge uniforms (crossing tests)
    u_sup: Optional[np.ndarray]    # bridge-supremum uniforms (reflection)


class _Kernel:
    """Euler kernel shared by plain, refracted and reflected passage.

    Each block draws k = max(1, CELLS // m) steps for the m alive paths,
    finds every path's first exit in the block and carries the survivors'
    last positions into the next block.
    """

    def __init__(self, model, a, b, x0, scheme, q=0.0, *, delta=0.0,
                 refract_level=None, reflect=False, n_bins=0):
        self.kit = _JumpKit(model.measure, scheme)
        self.a, self.b, self.x0, self.q = a, b, float(x0), q
        self.dt = scheme.dt
        self.horizon = scheme.resolve_horizon(q)
        self.n_steps = int(math.ceil(self.horizon / self.dt))
        self.drift0 = model.gamma + self.kit.drift_comp
        self.sig_eff = math.sqrt(model.sigma ** 2 + self.kit.sigma2_small)
        self.sig2dt = self.sig_eff ** 2 * self.dt
        self.lam_dt = self.kit.lam * self.dt
        self.use_bridge = scheme.bridge and self.sig_eff > 0.0
        self.delta, self.refract_level = delta, refract_level
        self.reflect = reflect
        self.n_bins = n_bins
        if n_bins:
            self.bin_w = (b - a) / n_bins

    def block_len(self, m, step):
        return min(max(1, CELLS // m), self.n_steps - step)

    def draw(self, rng, m, k):
        """Variates in a fixed order: Gaussians, Poisson counts, jump totals, uniforms.

        Each is drawn path by path (k steps of path 0, then of path 1, ...)
        and returned as a (k, m) transposed view.
        """
        shape = (m, k)
        z = rng.standard_normal(shape).T if self.sig_eff > 0.0 else None
        jumps = None
        if self.lam_dt > 0.0:
            counts = rng.poisson(self.lam_dt, m * k)
            jumps = self.kit.path_totals(rng, counts).reshape(shape).T
        u = rng.random(shape).T if self.use_bridge else None
        u_sup = rng.random(shape).T if self.use_bridge and self.reflect else None
        return _Block(k, z, jumps, u, u_sup)

    def run(self, rng, nb):
        out = dict(times=np.full(nb, self.horizon), sides=np.full(nb, CAPPED, dtype=np.int8),
                   pos=np.full(nb, np.nan), creep=np.zeros(nb, dtype=bool))
        if self.reflect:
            out["xi"] = np.zeros(nb)
        hist = np.zeros((nb, self.n_bins)) if self.n_bins else None
        x, idx = np.full(nb, self.x0), np.arange(nb)
        step = 0
        while idx.size and step < self.n_steps:
            k = self.block_len(idx.size, step)
            x, idx = self.advance(x, idx, step, self.draw(rng, idx.size, k), out, hist)
            step += k
        if self.n_bins:
            out["hist"] = hist.sum(axis=0)
            out["hist_sq"] = (hist ** 2).sum(axis=0)
        return out

    def _walk(self, x, blk):
        """Positions at each step's start, after its continuous part and after its jumps.

        Each step adds x + drift dt + sigma sqrt(dt) z - J in that order, as a
        running sum down the interleaved rows [x, drift dt, sigma sqrt(dt) z_1,
        -J_1, drift dt, ...].
        """
        m, k = x.size, blk.k
        dt = self.dt
        parts = []
        if blk.z is not None:
            parts.append(self.sig_eff * math.sqrt(dt) * blk.z)
        if blk.jumps is not None:
            parts.append(-blk.jumps)
        n = 1 + len(parts)
        path = np.empty((1 + n * k, m))
        path[0] = x
        path[1::n] = self.drift0 * dt
        for i, p in enumerate(parts):
            path[2 + i::n] = p
        if self.refract_level is None:
            np.cumsum(path, axis=0, out=path)
        else:
            # the refracted drift (drift0 - delta 1{x > c}) dt needs each step's
            # start: guess which steps start above c, sum, and repeat until the
            # guess reproduces itself.  Each pass fixes one more step at least,
            # so this ends within k + 1 passes; cumsum adds in row order, so
            # the fixed point is the row-by-row recursion to the bit.
            c, inc = self.refract_level, path.copy()
            above, below = (self.drift0 - self.delta) * dt, self.drift0 * dt
            starts_above = np.broadcast_to(x > c, (k, m))
            while True:
                inc[1::n] = np.where(starts_above, above, below)
                np.cumsum(inc, axis=0, out=path)
                again = path[:-1:n] > c
                if np.array_equal(again, starts_above):
                    break
                starts_above = again
        ends = path[::n]
        pre = path[n - 1::n] if blk.jumps is not None else ends[1:]
        return ends[:-1], pre, ends[1:]

    def _regulate(self, start, pre, post, u_sup):
        """Skorokhod map at b: the regulator is the running max of step suprema minus b."""
        if u_sup is not None:
            # exact bridge-supremum sample: no O(sqrt(dt)) regulator bias
            gap = pre - start
            sup = 0.5 * (start + pre + np.sqrt(gap * gap - 2.0 * self.sig2dt * np.log(u_sup)))
        else:
            sup = np.maximum(start, pre)
        reg = np.maximum(np.maximum.accumulate(sup - self.b, axis=0), 0.0)
        before = np.zeros_like(reg)
        before[1:] = reg[:-1]
        return start - before, pre - reg, post - reg, reg - before

    def _bridge_prob(self, gap0, gap1):
        """Bridge crossing probability exp(-2 gap0+ gap1+ / (sigma^2 dt))."""
        return np.exp(-2.0 * np.maximum(gap0, 0.0) * np.maximum(gap1, 0.0) / self.sig2dt)

    def advance(self, x, idx, step, blk, out, hist):
        """Step the paths ``idx``, started at ``x``, over the block ``blk``.

        Writes each exiting path's time, side, position and creep flag into
        the run's arrays ``out``, adds the block's discounted regulator and
        e^{-qt} dt at each step's start bin (into ``hist``) up to the exit, and
        returns the surviving paths' positions and ids.
        """
        a, b, dt = self.a, self.b, self.dt
        start, pre, post = self._walk(x, blk)
        k, m = start.shape
        if self.reflect:
            start, pre, post, xi_inc = self._regulate(start, pre, post, blk.u_sup)
            hit_up = np.zeros((k, m), dtype=bool)
        elif self.use_bridge:
            p_up = np.where(pre >= b, 1.0, self._bridge_prob(b - start, b - pre))
            hit_up = blk.u < p_up
        else:
            hit_up = pre >= b
        if self.use_bridge:
            if self.reflect:
                u2 = blk.u
            else:
                # conditional uniform given no up-crossing
                with np.errstate(divide="ignore", invalid="ignore"):
                    u2 = np.where(hit_up, 2.0, (blk.u - p_up) / (1.0 - p_up))
            p_dn = np.where(pre <= a, 1.0, self._bridge_prob(start - a, pre - a))
            hit_creep = (~hit_up) & (u2 < p_dn)
        else:
            hit_creep = (~hit_up) & (pre <= a)
        event = hit_up | hit_creep | (post < a)

        # per-path work only for the paths that exit in this block
        exits = event.any(axis=0)
        rows = np.flatnonzero(exits)
        first = event[:, rows].argmax(axis=0)
        up = hit_up[first, rows]
        crept = hit_creep[first, rows]
        t_now = (step + first) * dt
        times = t_now + dt
        if self.sig_eff == 0.0 and np.any(up):
            # drift-only crossing time is exact within the step
            x_up = start[first[up], rows[up]]
            drift = self.drift0
            if self.refract_level is not None:
                drift = drift - self.delta * (x_up > self.refract_level)
            times[up] = t_now[up] + (b - x_up) / drift
        gone = idx[rows]
        out["times"][gone] = times
        out["sides"][gone] = np.where(up, UP, DOWN)
        out["pos"][gone] = np.where(up, float(b), np.where(crept, float(a), post[first, rows]))
        out["creep"][gone] = crept
        if self.reflect or hist is not None:
            last = np.full(m, k - 1)
            last[rows] = first
            live = np.arange(k)[:, None] <= last     # the steps each path takes here
        if self.reflect:
            disc = np.array([math.exp(-self.q * ((step + j) * dt + 0.5 * dt))
                             for j in range(k)])
            out["xi"][idx] += np.sum(np.where(live, xi_inc * disc[:, None], 0.0), axis=0)
        if hist is not None:
            # in time order per path, as the per-step recursion adds them
            cols, paths = np.nonzero(live)
            w = np.array([math.exp(-self.q * ((step + j) * dt)) * dt for j in range(k)])
            bins = np.clip(((start[cols, paths] - a) / self.bin_w).astype(np.int64),
                           0, self.n_bins - 1)
            np.add.at(hist.reshape(-1), idx[paths] * self.n_bins + bins, w[cols])
        return post[-1][~exits], idx[~exits]


@functools.cache
def _keep_freed_blocks():
    """Fix glibc's mmap and trim thresholds at 4 and 8 MB, once per process (else a no-op).

    A block frees about 2 MB of arrays; the adaptive defaults hand it back to the
    system and fault it in again for the next block (29,000 minor faults per
    1,000-path tempered-stable run) unless an earlier larger array raised them.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 4 << 20)          # M_MMAP_THRESHOLD
    mallopt(-1, 8 << 20)          # M_TRIM_THRESHOLD


def _simulate_kernel(model, a, b, x0, scheme, n_paths, q=0.0, **kind):
    """Run the blocked kernel over batches: (ExitSamples, ResolventEstimate or None).

    For reflected runs there is no upper exit; ``xi_discounted`` carries
    int e^{-qs} dxi.
    """
    _keep_freed_blocks()
    kernel = _Kernel(model, a, b, x0, scheme, q, **kind)
    batches = _run_batches(n_paths, scheme, kernel.run)
    samples = ExitSamples(
        times=np.concatenate([r["times"] for r in batches]),
        sides=np.concatenate([r["sides"] for r in batches]),
        positions=np.concatenate([r["pos"] for r in batches]),
        creep=np.concatenate([r["creep"] for r in batches]),
        xi_discounted=(np.concatenate([r["xi"] for r in batches])
                       if kernel.reflect else None),
        horizon=kernel.horizon)
    if not kernel.n_bins:
        return samples, None
    n = samples.n_paths
    mean = np.sum([r["hist"] for r in batches], axis=0) / n
    var = np.maximum(np.sum([r["hist_sq"] for r in batches], axis=0) / n - mean ** 2, 0.0)
    return samples, ResolventEstimate(
        edges=np.linspace(a, b, kernel.n_bins + 1), density=mean / kernel.bin_w,
        stderr=np.sqrt(var / n) / kernel.bin_w, samples=samples, scheme=scheme)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def simulate_first_passage(model, a, b, x0, scheme, n_paths, q=0.0):
    """First-passage samples from [a, b] started at x0.

    Upper exits happen by continuous crossing (no positive jumps), so the
    recorded position is exactly b; lower exits record the post-jump
    overshoot position, or a itself for crossings by the continuous part.
    Paths reaching the horizon are capped, not dropped.
    """
    _models.check_exit(a, b, q, x0)
    samples, _ = _simulate_kernel(model, a, b, x0, scheme, n_paths, q=q)
    return samples


def _mean_stderr(vals):
    """Sample mean and its standard error; the error is inf below two paths."""
    mean = float(np.mean(vals))
    if vals.size < 2:
        return mean, math.inf
    return mean, float(np.std(vals, ddof=1) / math.sqrt(vals.size))


def _discounted_mean(samples, q, mask, weight=1.0):
    """Mean and standard error of e^{-q tau} weight on the paths in ``mask``, 0 elsewhere."""
    vals = np.zeros(samples.n_paths)
    vals[mask] = np.exp(-q * samples.times[mask]) * weight
    return _mean_stderr(vals)


def estimate_overshoot_functional(model, f, a, b, q, x0, scheme, n_paths,
                                  samples=None):
    """MC estimate of E_x[e^{-q tau_a^-} f(X at tau_a^-) 1{down exit first}].

    ``samples`` allows reusing one simulation for several penalties; capped
    paths contribute zero (bias at most e^{-q*horizon} * sup|f|, visible via
    ``capped_fraction``).  A penalty that is not finite at an exit position
    raises HypothesisViolationError.
    """
    _models.check_exit(a, b, q, x0)
    if samples is None:
        samples = simulate_first_passage(model, a, b, x0, scheme, n_paths, q=q)
    down = samples.sides == DOWN
    fv = 1.0
    if np.any(down):
        posd = samples.positions[down]
        fv = np.asarray(penalty_function(f, a, b)(posd), dtype=float)
        bad = np.flatnonzero(~np.isfinite(fv))
        if bad.size:
            raise HypothesisViolationError(
                f"penalty f({posd[bad[0]]:g}) = {fv[bad[0]]} at an exit position")
    mean, stderr = _discounted_mean(samples, q, down, fv)
    return MCEstimate(mean=mean, stderr=stderr, n_paths=samples.n_paths,
                      scheme=scheme, capped_fraction=samples.capped_fraction)


def estimate_exit_transform(samples, q, side=UP):
    """MC estimate of E[e^{-q tau} 1{exit on the given side}] from samples."""
    return _discounted_mean(samples, q, samples.sides == side)


def estimate_creeping(samples, q):
    """MC estimate of E[e^{-q tau} 1{hit the lower level exactly}]."""
    return _discounted_mean(samples, q, samples.creep)


def simulate_reflected(model, b, a, x0, scheme, n_paths, q=0.0, n_bins=0):
    """Paths reflected at the upper barrier b until first passage below a.

    Reflection uses exact Brownian-bridge supremum sampling per step, so the
    regulator xi (and its discounted integral) carries no O(sqrt(dt))
    boundary bias.  Returns ExitSamples (no up exits) and, if requested, a
    ResolventEstimate of the occupation density on [a, b].
    """
    _models.check_exit(a, b, q, x0)
    samples, res = _simulate_kernel(model, a, b, x0, scheme, n_paths, q=q,
                                    reflect=True, n_bins=n_bins)
    return (samples, res) if n_bins else samples


def simulate_refracted(model, delta, c, a, b, x0, scheme, n_paths, q=0.0, n_bins=0):
    """Refracted paths: drift reduced by delta while above c.

    delta = 0 degenerates to the plain process path-for-path (same streams).
    """
    _models.check_exit(a, b, q, x0)
    _models.check_refraction(model, delta, c, a, b)
    samples, res = _simulate_kernel(model, a, b, x0, scheme, n_paths, q=q,
                                    delta=delta, refract_level=c, n_bins=n_bins)
    return (samples, res) if n_bins else samples


def estimate_resolvent(model, a, b, q, x0, scheme, n_paths, n_bins=50):
    """Histogram estimate of the killed q-resolvent density on [a, b].

    Accumulates e^{-qs} dt over path positions per bin; per-bin standard
    errors come from across-path variation.  The exit samples ride along for
    mass-balance checks.
    """
    _models.check_exit(a, b, q, x0)
    _, res = _simulate_kernel(model, a, b, x0, scheme, n_paths, q=q,
                              n_bins=n_bins)
    return res
