"""The fault injector: deterministic runtime evaluation of a plan.

Mirrors the zero-overhead observability pattern of :mod:`repro.obs`:
every component holds a ``faults`` attribute that defaults to
:data:`NULL_FAULTS` (``enabled = False``) and guards its injection sites
with ``if self.faults.enabled and self.faults.fires(SITE, core):`` — so
runs without a plan pay one attribute check per site and behave exactly
as before.

Determinism contract
--------------------
Each site owns a private ``random.Random`` seeded from
``sha256(f"{seed}:{site}")`` (see :func:`~repro.faults.plan.site_seed`);
stochastic draws therefore depend only on the plan seed and the ordered
sequence of *consults* of that site, never on wall clock, ``id()``
ordering, or ``PYTHONHASHSEED``.  Scripted ``at=`` triggers fire on
exact consult indices (1-based) and do not consume RNG draws, so mixing
the two stays reproducible.  The injector can be deactivated
(:meth:`FaultInjector.stop`) for build/quiesce phases: deactivated
consults are not counted and draw nothing, so the schedule resumes
exactly where it paused.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.obs.context import NULL_OBS

from .plan import FaultPlan, SiteRule, site_seed


class NullFaultInjector:
    """Disabled injector — the default wired into every machine.

    ``fires`` always answers ``False``; hot paths additionally guard on
    ``enabled`` so the common case costs a single attribute check.
    """

    enabled = False
    active = False

    def fires(self, site: str, core=None) -> bool:
        return False

    def fire_count(self, site: str) -> int:
        return 0

    def consult_count(self, site: str) -> int:
        return 0

    def summary(self) -> Dict[str, Dict[str, int]]:
        return {}


#: Shared disabled injector (stateless, safe to share like ``NULL_OBS``).
NULL_FAULTS = NullFaultInjector()


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at runtime, deterministically.

    Every fire is reported, with its site, consult index and fire count,
    to the :class:`~repro.obs.context.Observability` of the machine the
    injector is attached to (:attr:`obs`, which the machine sets), so
    two captured runs of the same plan can be diffed event-for-event.
    """

    enabled = True

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        #: The attached machine's observability context.
        self.obs = NULL_OBS
        #: ``False`` during system build and quiesce: consults pass
        #: through without counting, so recovery-free phases (coherent
        #: ring allocation, teardown) cannot trip injected faults.
        self.active = False
        self._rngs: Dict[str, random.Random] = {}
        self._consults: Dict[str, int] = {}
        self._fires: Dict[str, int] = {}
        for site, rule in plan.rules.items():
            if rule.rate > 0.0:
                self._rngs[site] = random.Random(site_seed(plan.seed, site))
            self._consults[site] = 0
            self._fires[site] = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        self.active = True

    def stop(self) -> None:
        self.active = False

    # ------------------------------------------------------------------
    def fires(self, site: str, core=None) -> bool:
        """One consult of ``site``: does the plan fire here?"""
        rule: Optional[SiteRule] = self.plan.rules.get(site)
        if rule is None or not self.active:
            return False
        self._consults[site] += 1
        index = self._consults[site]
        fired = index in rule.at
        if not fired and rule.rate > 0.0:
            # The draw happens on every counted consult so the schedule
            # depends only on the consult sequence, not on prior hits.
            fired = self._rngs[site].random() < rule.rate
        if fired and rule.max_fires is not None \
                and self._fires[site] >= rule.max_fires:
            fired = False
        if fired:
            self._fires[site] += 1
            if self.obs.enabled:
                self.obs.fault_injected(core, site, index, self._fires[site])
        return fired

    # ------------------------------------------------------------------
    def fire_count(self, site: str) -> int:
        return self._fires.get(site, 0)

    def consult_count(self, site: str) -> int:
        return self._consults.get(site, 0)

    def summary(self) -> Dict[str, Dict[str, int]]:
        """Per-site consult/fire totals (for reports and tests)."""
        return {site: {"consults": self._consults[site],
                       "fires": self._fires[site]}
                for site in sorted(self._consults)}
