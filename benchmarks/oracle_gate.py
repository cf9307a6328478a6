"""Oracle gate: solo posteriors of small instances against the dense oracle.

Runs before timing. Tolerances are those of acceptance criterion 1: 1e-8
relative on mu, xi and the inclusion probability, and on the log-odds
where either probability saturates.
"""
from __future__ import annotations

import math

from solocp import Hyperparameters, oracle_site_posterior
from solocp.posterior import all_site_posteriors, inclusion_scores

TOL = 1e-8


def _logit_gap(q: float, lw0: float, lw1: float) -> float:
    return math.log(q) - math.log1p(-q) + lw1 - lw0


def _close(got_p, got_lo, ref_p, ref_lo) -> bool:
    if 1e-12 < min(got_p, ref_p) and max(got_p, ref_p) < 1 - 1e-12:
        return abs(got_p - ref_p) <= TOL * ref_p
    return abs(got_lo - ref_lo) <= TOL * max(1.0, abs(ref_lo))


def mismatches(series) -> list[str]:
    """Sites where the fast solo path disagrees with the oracle."""
    hypers = Hyperparameters.solo_defaults(series.length)
    q = hypers.q
    probs, log_odds = inclusion_scores(series, hypers)
    found = []
    for s in all_site_posteriors(series, hypers):
        o = oracle_site_posterior(series, s.site, hypers)
        where = f"{type(series).__name__} M={series.length} site {s.site}"
        for got, ref in zip(s.mu + s.xi, o.mu + o.xi):
            if abs(got - ref) > TOL * max(abs(ref), 1e-12):
                found.append(f"{where}: mu/xi {got!r} vs oracle {ref!r}")
        ref_lo = float(_logit_gap(q, *o.log_marginal))
        pairs = [(s.inclusion_prob, _logit_gap(q, *s.log_omega))]
        if s.site >= 2:
            pairs.append((float(probs[s.site - 2]), float(log_odds[s.site - 2])))
        for p, lo in pairs:
            if not _close(p, lo, o.inclusion_prob, ref_lo):
                found.append(
                    f"{where}: probability {p!r} / log-odds {lo!r} vs oracle "
                    f"{o.inclusion_prob!r} / {ref_lo!r}"
                )
    return found
