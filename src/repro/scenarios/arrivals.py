"""Request arrival-process generators for serving simulations.

Every generator is a pure function of its parameters and a seeded
``np.random.Generator``: given the same inputs it returns the same
sorted arrival-time array, which is what keeps every serving and
cluster simulation in this repo replayable bit-exactly.

Beyond the classic Poisson / evenly-spaced / bursty processes, this
module provides the time-varying patterns real serving fleets face:

- :func:`diurnal_arrivals` — a sinusoid-modulated Poisson process
  (day/night load swing), generated by Lewis thinning;
- :func:`flash_crowd_arrivals` — a baseline Poisson process with a
  rate spike over a window (a link going viral);
- :func:`onoff_arrivals` — a Markov-modulated on/off process whose
  bursts have geometric sojourn times (upstream batch jobs toggling).
"""

from __future__ import annotations

import numpy as np


def poisson_arrivals(rate_per_s: float, n_requests: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Arrival times of a Poisson process with the given mean rate."""
    if rate_per_s <= 0:
        raise ValueError("rate_per_s must be positive")
    if n_requests < 1:
        raise ValueError("n_requests must be positive")
    gaps = rng.exponential(1.0 / rate_per_s, size=n_requests)
    return np.cumsum(gaps)


def uniform_arrivals(rate_per_s: float, n_requests: int) -> np.ndarray:
    """Deterministic evenly-spaced arrivals."""
    if rate_per_s <= 0:
        raise ValueError("rate_per_s must be positive")
    gap = 1.0 / rate_per_s
    return gap * np.arange(1, n_requests + 1)


def bursty_arrivals(rate_per_s: float, n_requests: int,
                    rng: np.random.Generator,
                    burst_size: int = 4,
                    burst_spread_s: float = 0.05) -> np.ndarray:
    """Arrivals clustered into bursts (chat traffic is bursty).

    Bursts arrive as a Poisson process at ``rate / burst_size``; requests
    within a burst land within ``burst_spread_s`` of the burst start.
    """
    if burst_size < 1:
        raise ValueError("burst_size must be positive")
    n_bursts = (n_requests + burst_size - 1) // burst_size
    burst_times = poisson_arrivals(rate_per_s / burst_size, n_bursts, rng)
    times = []
    for burst_start in burst_times:
        for _ in range(burst_size):
            if len(times) == n_requests:
                break
            times.append(burst_start + rng.uniform(0, burst_spread_s))
    return np.sort(np.asarray(times[:n_requests]))


def _thinned_arrivals(peak_rate_per_s: float, n_requests: int,
                      rng: np.random.Generator, rate_at) -> np.ndarray:
    """Lewis-thinned inhomogeneous Poisson process.

    Candidates arrive at the constant ``peak_rate_per_s``; a candidate
    at time ``t`` is kept with probability ``rate_at(t) / peak``, which
    realizes the instantaneous rate function exactly.  Generation runs
    until ``n_requests`` candidates are accepted, so the returned array
    always has exactly that many sorted entries.
    """
    times = np.empty(n_requests, dtype=np.float64)
    accepted = 0
    t = 0.0
    while accepted < n_requests:
        t += rng.exponential(1.0 / peak_rate_per_s)
        if rng.random() * peak_rate_per_s < rate_at(t):
            times[accepted] = t
            accepted += 1
    return times


def diurnal_arrivals(base_rate_per_s: float, n_requests: int,
                     rng: np.random.Generator,
                     period_s: float = 86400.0,
                     amplitude: float = 0.8,
                     phase: float = 0.0) -> np.ndarray:
    """Sinusoid-modulated Poisson arrivals (day/night load swing).

    The instantaneous rate is
    ``base * (1 + amplitude * sin(2 pi t / period + phase))``, realized
    by thinning a Poisson process at the peak rate.  ``amplitude`` in
    ``[0, 1)`` keeps the rate strictly positive; ``period_s`` is the
    cycle length in simulated seconds (default: one day).
    """
    if base_rate_per_s <= 0:
        raise ValueError("base_rate_per_s must be positive")
    if n_requests < 1:
        raise ValueError("n_requests must be positive")
    if not 0.0 <= amplitude < 1.0:
        raise ValueError("amplitude must be in [0, 1)")
    if period_s <= 0:
        raise ValueError("period_s must be positive")
    peak = base_rate_per_s * (1.0 + amplitude)

    def rate_at(t: float) -> float:
        """Instantaneous arrival rate at time ``t`` (requests/s)."""
        phase_t = 2.0 * np.pi * t / period_s + phase
        return base_rate_per_s * (1.0 + amplitude * np.sin(phase_t))

    return _thinned_arrivals(peak, n_requests, rng, rate_at)


def flash_crowd_arrivals(base_rate_per_s: float, n_requests: int,
                         rng: np.random.Generator,
                         spike_start_s: float,
                         spike_duration_s: float,
                         spike_multiplier: float = 8.0) -> np.ndarray:
    """Poisson arrivals with a flash-crowd rate spike over a window.

    Outside ``[spike_start_s, spike_start_s + spike_duration_s)`` the
    rate is ``base_rate_per_s``; inside it jumps to
    ``base * spike_multiplier`` — the canonical traffic shape of a
    service link going viral, realized by thinning.
    """
    if base_rate_per_s <= 0:
        raise ValueError("base_rate_per_s must be positive")
    if n_requests < 1:
        raise ValueError("n_requests must be positive")
    if spike_start_s < 0 or spike_duration_s <= 0:
        raise ValueError("spike window must be non-negative and non-empty")
    if spike_multiplier < 1.0:
        raise ValueError("spike_multiplier must be >= 1")
    peak = base_rate_per_s * spike_multiplier
    spike_end_s = spike_start_s + spike_duration_s

    def rate_at(t: float) -> float:
        """Instantaneous arrival rate at time ``t`` (requests/s)."""
        if spike_start_s <= t < spike_end_s:
            return peak
        return base_rate_per_s

    return _thinned_arrivals(peak, n_requests, rng, rate_at)


def onoff_arrivals(on_rate_per_s: float, n_requests: int,
                   rng: np.random.Generator,
                   mean_on_s: float = 20.0,
                   mean_off_s: float = 60.0) -> np.ndarray:
    """Markov-modulated on/off Poisson arrivals (two-state MMPP).

    The source alternates between an ON state emitting Poisson arrivals
    at ``on_rate_per_s`` and a silent OFF state; sojourn times in each
    state are exponential with means ``mean_on_s`` / ``mean_off_s``
    (seconds).  The result is burstier than any single-rate Poisson
    process: long quiet stretches punctuated by dense arrival trains —
    the shape of upstream batch pipelines toggling on and off.
    """
    if on_rate_per_s <= 0:
        raise ValueError("on_rate_per_s must be positive")
    if n_requests < 1:
        raise ValueError("n_requests must be positive")
    if mean_on_s <= 0 or mean_off_s <= 0:
        raise ValueError("state sojourn means must be positive")
    times = np.empty(n_requests, dtype=np.float64)
    accepted = 0
    t = 0.0
    while accepted < n_requests:
        # ON period: emit arrivals until the state's sojourn expires.
        on_end = t + rng.exponential(mean_on_s)
        while accepted < n_requests:
            t += rng.exponential(1.0 / on_rate_per_s)
            if t >= on_end:
                break
            times[accepted] = t
            accepted += 1
        # OFF period: silence.
        t = on_end + rng.exponential(mean_off_s)
    return times[:n_requests]
