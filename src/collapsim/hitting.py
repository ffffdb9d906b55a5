"""The discrete localization ("hitting") process on grid wavefunctions.

A hitting multiplies the wavefunction by a normalized Gaussian of width
1/sqrt(alpha) centered at a random point x drawn from the density
P(x) = ||L_x psi||^2, and renormalizes.  On the grid P is a mixture of
Gaussians of variance 1/(2 alpha) about the nodes, so x is drawn exactly:
a node from |psi|^2, plus a Gaussian offset.  Hit times are Poisson with the
configured rate, and each hit is applied at its exact time; between hits
the particle moves freely (Ghirardi, Rimini & Weber's free particle).  One
ensemble engine runs every trajectory count, a single trajectory included,
and logs each hit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridLeakageError
from .noise import TILE_BYTES, trajectory_generator
from .params import CollapseParams
from .schrodinger import _kinetic_phase, split_step_batch
from .states import DEFAULT_LEAK_TOL, GridWavefunction, edges_and_peaks


def _gaussian_factor(psi: GridWavefunction, x, alpha: float, work: np.ndarray) -> np.ndarray:
    """L_x on the grid: one row per center of ``x``, a scalar center gives
    one (N,) row, written into ``work[0]`` of a (2, ..., N) float workspace,
    whose ``work[1]`` it uses too.  It is 0 where it
    falls below exp(-300), 5e-131 of its peak, so that neither exp nor a
    product with it yields a subnormal, which takes a slow path: on 32 rows
    of 2048 points, where 2 % of the exact factor is subnormal, exp took
    5.5x and a hit's complex product 2x the time."""
    x = np.asarray(x)[..., None]
    u, r = work
    # minimum-image distance keeps the operator single-valued on the ring:
    # psi.wrap_displacement's u - L round(u / L), with its bits, in place
    np.subtract(psi.positions, x, out=u)
    np.round(np.divide(u, psi.length, out=r), out=r)
    r *= psi.length
    u -= r
    u *= u
    u *= -0.5 * alpha
    np.greater(u, -300.0, out=r)  # 1 near the center, 0 in the tail
    np.exp(np.maximum(u, -300.0, out=u), out=u)
    u *= r
    u *= (alpha / np.pi) ** 0.25
    return u


def hit_rows(
    psi: GridWavefunction, alpha: float, amps: np.ndarray, u, z, work: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Hit each row of ``amps`` (m, N) in place, at a center drawn exactly
    from P(x) = ||L_x psi||^2.  On the grid P is the mixture over nodes j
    of N(x_j, 1/(2 alpha)) with weights |psi_j|^2 dx, so node j comes from
    the row's uniform on [0, 1) in ``u`` and the offset z/sqrt(2 alpha)
    from its standard normal in ``z``; the center is wrapped into
    [x0, x0 + L).  Each row becomes L_x psi / ||L_x psi||.  |psi|^2, its
    cumsum and the factor take the first m rows of the planes of ``work``,
    a (3, m' >= m, N) float workspace.  Returns (centers, weights
    ||L_x psi||^2 = sum_j |psi_j|^2 g_j^2 dx)."""
    work = work[:, : len(amps)]
    prob, cdf = work[0], work[2]
    np.abs(amps, out=prob)
    prob *= prob
    prob *= psi.dx
    np.cumsum(prob, axis=1, out=cdf)
    total = cdf[:, -1]
    if np.any(np.abs(total - 1.0) > 1e-8):
        raise ValueError("hitting density requires normalized states")
    target = np.asarray(u) * total
    # the count of cdf entries <= target is searchsorted(side="right"); the
    # comparison's 0s and 1s sum exactly in the factor's plane
    below = np.less_equal(cdf, target[:, None], out=work[1]).sum(axis=1)
    j = np.minimum(below, psi.n - 1)
    x = psi.x0 + np.mod(psi.dx * j + np.asarray(z) / np.sqrt(2.0 * alpha), psi.length)
    x[x >= psi.x0 + psi.length] = psi.x0  # an offset that rounds up to L
    g = _gaussian_factor(psi, x, alpha, work[1:])
    prob *= g  # |psi|^2 g^2 dx, in place
    prob *= g
    weight = prob.sum(axis=1)
    g /= np.sqrt(weight)[:, None]
    amps *= g
    return x, weight


@dataclass
class QmslEnsembleResult:
    """Batched trajectory summaries on a shared grid."""

    amplitudes: np.ndarray        # (n_traj, N) final normalized amplitudes
    hit_counts: np.ndarray        # (n_traj,)
    # (hits, 4) rows (trajectory, time, center, ||L_x psi||^2), ordered by
    # trajectory, then time
    events: np.ndarray


CHUNK = 256
"""Trajectories ``run_qmsl_ensemble`` advances at a time; a trajectory's
results do not depend on it."""


def step_count(t_end: float, dt: float) -> int:
    """Number of ``dt`` steps in ``t_end``; ValueError unless it is whole."""
    n_steps = int(round(t_end / dt))
    if abs(n_steps * dt - t_end) > 1e-9 * max(t_end, 1.0):
        raise ValueError("t_end must be an integer number of steps")
    return n_steps


def band_cuts(n: int) -> tuple[int, int]:
    """The leakage screen's band cut-offs K on an N-point grid."""
    return n // 8, 3 * n // 16


def tail_bounds(spectra: np.ndarray, norm: float, work: np.ndarray) -> np.ndarray:
    """T = sum_{|j|>K} |chi_j| / N plus a rounding margin, which bounds what
    the band |j| <= K leaves out of ``spectra`` @ taps of modulus 1/N, for
    spectra of position-space norm at most ``norm``: a row per spectrum, a
    column per ``band_cuts`` K.  The moduli go into a float plane ``work``
    of at least the spectra's shape."""
    n, cuts = spectra.shape[1], band_cuts(spectra.shape[1])
    # sum_j |chi_j| <= sqrt(N) ||chi|| = N ||psi||, and 8 u times it bounds the
    # rounding of a row's band and full products (each about sqrt(2) u times
    # sum_j |chi_j|, Higham 2002, section 3.1) and of its tail sums
    margin = 4 * np.finfo(float).eps * n * norm
    a = spectra[:, cuts[0] + 1 : n - cuts[0]]  # |j| > N/8
    a = np.abs(a, out=work[: len(a), : a.shape[1]])
    tails = [a[:, k - cuts[0] : a.shape[1] - k + cuts[0]].sum(axis=1) for k in cuts]
    return np.stack(tails, axis=1) / n + margin


def run_qmsl_ensemble(
    psi0: GridWavefunction,
    params: CollapseParams,
    t_end: float,
    n_traj: int,
    master_seed: int,
    dt: float,
) -> QmslEnsembleResult:
    """Free-particle hitting ensemble, hits at their exact Poisson times.

    Inter-arrival times are exponential, and each hit is applied at its
    own time tau.  Each trajectory draws from its own (master_seed, index)
    stream in the same order whatever the chunk size, so the results and
    the hit log (trajectory, time, center and ||L_x psi||^2 of each hit)
    do not depend on ``CHUNK``, and a one-trajectory run is trajectory 0
    of any larger one.  The ensemble's grid kernel is
    ``states.ensemble_density`` of the final amplitudes.

    A chunk advances a window of W steps at a time.  A row is held as its
    momentum-picture spectrum chi = fft(U(-t) psi(t)), which free flight
    leaves alone, in the chunk's rows of the result's amplitudes, which
    are taken to t_end in place at the end.  Round i of a window takes
    each row whose i-th hit in it is due to its own tau, psi = ifft(chi
    kin(tau)), hits it and stores fft(psi) conj(kin(tau)).  A round works
    in one workspace of the chunk, two complex planes (the rows and their
    phases) and three float planes (``hit_rows``'s), each of at most a
    tile's rows, so it allocates no (rows, N) array.  A hit draws from
    the row's stream a uniform, which picks a node from |psi|^2, then a
    standard normal, the center's offset from that node (``hit_rows``),
    then the exponential wait to the next hit.  A hit belongs to the first
    step whose accumulated time is >= tau.

    Leakage is checked at every step: chi's edge amplitudes at t are
    chi @ [kin(t), kin(t) exp(-2 pi i k/N)] / N, one (N, 2W) block of taps
    a window, W as large as one ``noise.TILE_BYTES`` tile allows.  An edge
    is at most its band part, over |j| <= K, plus the ``tail_bounds`` T of
    the spectrum, which free flight leaves alone (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, section 3.1, for the rounding
    margin).  The screen takes the band product at the first K of
    ``band_cuts`` where every row whose T can fit under the cap,
    ``DEFAULT_LEAK_TOL`` times the RMS amplitude (a lower bound on the
    peak, fixed in time), fits.  Rows whose band edge plus T may pass the
    cap (a moving or narrow packet) take the full-width product, and its
    edges over the cap get the exact test against the peak.  The first
    failing step raises ``GridLeakageError``, as a step-by-step check would.
    A window's taps are computed when a product first reads them: on the
    band |j| <= 3N/16 for a band product, and on the whole grid only for
    a window with a row the band cannot certify.
    """
    if abs(psi0.norm_sq() - 1.0) > 1e-8:
        raise ValueError("initial state must be normalized")
    n_steps = step_count(t_end, dt)
    n = psi0.n
    lam = params.lambda_rate
    # a window's taps and each plane of a hit round's workspace fit one tile
    tile_rows = max(1, TILE_BYTES // (16 * n))
    width = max(1, min(n_steps, tile_rows // 2))
    taps = np.empty((width, 2, n), dtype=complex)  # (step, edge, k)
    shift = np.exp(-2j * np.pi * np.arange(n) / n)  # x_{N-1} is x_0 - dx on the ring
    chi0 = np.fft.fft(psi0.amplitudes)
    # a row keeps the norm of psi0 until its first hit and unit norm after
    norms = np.linalg.norm(psi0.amplitudes), 1.0 / np.sqrt(psi0.dx)
    cap, cuts = DEFAULT_LEAK_TOL * (min(norms) / np.sqrt(n)), band_cuts(n)  # tol times the RMS

    def fill_taps(m):
        # the window's taps on the columns |j| < m, once: x_0's kin(t)/N and
        # x_{N-1}'s kin(t) exp(-2 pi i k/N)/N; m = N is the whole grid
        nonlocal filled
        if filled >= m:
            return
        x0, x1 = taps[:w, 0], taps[:w, 1]
        scaled = _kinetic_phase(psi0, times, x0[:, :m]).view(float)
        scaled *= 1.0 / n  # the bits of a complex divide by N
        sides = [slice(0, m)]
        if m < n:
            x0[:, n - m + 1 :] = x0[:, m - 1 : 0 : -1]  # column N - j holds k_j^2
            sides.append(slice(n - m + 1, n))
        for side in sides:
            np.multiply(x0[:, side], shift[side], out=x1[:, side])
        filled = m

    def screen(spectra, first, stop, bounds):
        # leakage tests of spectra held on the steps [first, stop) of a window
        lo = int(np.min(first, initial=width))
        hi = max(lo, int(np.max(stop, initial=0)))
        block = taps[lo:hi].reshape(-1, n)
        steps = np.arange(lo, hi)
        held = (steps >= np.reshape(first, (-1, 1))) & (steps < np.reshape(stop, (-1, 1)))
        fits = bounds < cap
        sure = fits[:, -1]  # rows a band product can certify
        if sure.any():
            c = int(np.argmax(fits[sure], axis=1).max())
            k = cuts[c]  # np.matmul, not @, so the tests can see each product's width
            fill_taps(cuts[-1] + 1)
            edge = np.matmul(spectra[:, : k + 1], block[:, : k + 1].T)
            edge += np.matmul(spectra[:, n - k :], block[:, n - k :].T)
            edge = np.abs(edge).reshape(len(spectra), hi - lo, 2).max(axis=2)
            sure &= ~np.any(held & (edge + bounds[:, c, None] > cap), axis=1)
        if sure.all():
            return
        spectra, held = spectra[~sure], held[~sure]
        fill_taps(n)
        edge = np.matmul(spectra, block.T)
        edge = np.abs(edge).reshape(len(spectra), hi - lo, 2).max(axis=2)
        over = (edge > cap) & held
        for s in lo + np.nonzero(over.any(axis=0))[0]:
            amps = split_step_batch(spectra[over[:, s - lo]], _kinetic_phase(psi0, times[s]))
            edge, peak = edges_and_peaks(amps)
            leaks[s] |= np.any(edge > DEFAULT_LEAK_TOL * peak)
            worst[s] = max(worst[s], (edge / peak).max())

    final = np.empty((n_traj, n), dtype=complex)
    hit_counts = np.zeros(n_traj, dtype=int)
    events = [np.empty((0, 4))]

    for start in range(0, n_traj, CHUNK):
        idx = np.arange(start, min(start + CHUNK, n_traj))
        rngs = [trajectory_generator(master_seed, int(i)) for i in idx]
        next_hit = np.array([r.exponential(1.0 / lam) for r in rngs])
        chi, t = final[start : start + len(idx)], 0.0  # spectra until t_end
        chi[:] = chi0
        # a hit round's workspace: its spectra and phases, then |psi|^2, its
        # cumsum and the factor of hit_rows
        rows = min(tile_rows, len(idx))
        spec, work = np.empty((2, rows, n), dtype=complex), np.empty((3, rows, n))
        bounds = np.tile(tail_bounds(chi0[None], max(norms), work[0]), (len(idx), 1))
        for first_step in range(0, n_steps, width):
            w = min(width, n_steps - first_step)
            # accumulated one dt at a time, as a step-by-step loop's t
            times = np.add.accumulate(np.r_[t, np.full(w, dt)])[1:]
            t, filled = times[-1], 0  # no taps yet
            leaks, worst = np.zeros(w, dtype=bool), np.zeros(w)
            since = np.zeros(len(idx), dtype=int)  # first step of each row's spectrum
            active = np.nonzero(next_hit <= t)[0]
            while active.size:
                for part in np.split(active, range(tile_rows, active.size, tile_rows)):
                    amps, kin = spec[:, : part.size]
                    np.take(chi, part, axis=0, out=amps, mode="clip")  # "raise" buffers
                    tau = next_hit[part]
                    # the spectrum the hit replaces, on the steps it was held
                    step = np.searchsorted(times, tau, "left")
                    screen(amps, since[part], step, bounds[part])
                    since[part] = step
                    split_step_batch(amps, _kinetic_phase(psi0, tau, kin), out=amps)
                    u = [rngs[k].uniform() for k in part]
                    z = [rngs[k].standard_normal() for k in part]
                    x, weight = hit_rows(psi0, params.alpha, amps, u, z, work)
                    events.append(np.stack([idx[part], tau, x, weight], axis=1))
                    hit_counts[idx[part]] += 1
                    next_hit[part] += [rngs[k].exponential(1.0 / lam) for k in part]
                    # back to the picture
                    np.fft.fft(amps, axis=1, out=amps)
                    chi[part] = np.multiply(amps, np.conj(kin, out=kin), out=amps)
                    bounds[part] = tail_bounds(amps, max(norms), work[0])
                active = active[next_hit[active] <= t]
            screen(chi, since, w, bounds)
            if leaks.any():
                s = int(np.argmax(leaks))
                raise GridLeakageError(
                    f"boundary amplitude reached {worst[s]:.2e} of peak at "
                    f"t={times[s]:.4g}; enlarge the grid"
                )
        del spec, work
        kin = _kinetic_phase(psi0, t)
        for r in range(0, len(idx), tile_rows):  # to t_end in place, a tile of rows at a time
            split_step_batch(chi[r : r + tile_rows], kin, out=chi[r : r + tile_rows])
    log = np.concatenate(events)
    log = log[np.argsort(log[:, 0], kind="stable")]
    return QmslEnsembleResult(final, hit_counts, log)
