"""FaultInjector semantics: scripted triggers, rates, caps, activation."""

from repro.faults.injector import NULL_FAULTS, FaultInjector
from repro.faults.plan import (
    SITE_INV_STALL,
    SITE_POOL_GROW,
    FaultPlan,
    SiteRule,
)
from repro.net.packets import build_frame
from repro.obs.context import Observability
from repro.obs.trace import EV_FAULT_INJECT, EV_INV_TIMEOUT
from repro.system import System, SystemConfig


def _injector(**rules):
    plan = FaultPlan(seed=5, rules={site: rule
                                    for site, rule in rules.items()})
    inj = FaultInjector(plan)
    inj.start()
    return inj


def test_null_injector_never_fires():
    assert not NULL_FAULTS.enabled
    assert NULL_FAULTS.fires(SITE_POOL_GROW) is False
    assert NULL_FAULTS.summary() == {}


def test_scripted_at_fires_exact_consults():
    inj = _injector(**{SITE_POOL_GROW: SiteRule(at=(2, 4))})
    fired = [inj.fires(SITE_POOL_GROW) for _ in range(5)]
    assert fired == [False, True, False, True, False]
    assert inj.fire_count(SITE_POOL_GROW) == 2
    assert inj.consult_count(SITE_POOL_GROW) == 5


def test_unplanned_site_not_counted():
    inj = _injector(**{SITE_POOL_GROW: SiteRule(at=(1,))})
    assert inj.fires(SITE_INV_STALL) is False
    assert inj.consult_count(SITE_INV_STALL) == 0


def test_inactive_consults_uncounted():
    inj = _injector(**{SITE_POOL_GROW: SiteRule(at=(1,))})
    inj.stop()
    assert inj.fires(SITE_POOL_GROW) is False
    assert inj.consult_count(SITE_POOL_GROW) == 0
    inj.start()
    # The schedule resumes exactly where it paused: this is consult 1.
    assert inj.fires(SITE_POOL_GROW) is True


def test_rate_draws_are_deterministic():
    rule = SiteRule(rate=0.3)
    a = _injector(**{SITE_POOL_GROW: rule})
    b = _injector(**{SITE_POOL_GROW: rule})
    seq_a = [a.fires(SITE_POOL_GROW) for _ in range(200)]
    seq_b = [b.fires(SITE_POOL_GROW) for _ in range(200)]
    assert seq_a == seq_b
    assert any(seq_a) and not all(seq_a)


def test_different_seeds_differ():
    rule = SiteRule(rate=0.3)
    a = FaultInjector(FaultPlan(seed=1, rules={SITE_POOL_GROW: rule}))
    b = FaultInjector(FaultPlan(seed=2, rules={SITE_POOL_GROW: rule}))
    a.start(), b.start()
    seq_a = [a.fires(SITE_POOL_GROW) for _ in range(200)]
    seq_b = [b.fires(SITE_POOL_GROW) for _ in range(200)]
    assert seq_a != seq_b


def test_max_fires_caps_but_keeps_consuming_draws():
    inj = _injector(**{SITE_POOL_GROW: SiteRule(rate=1.0, max_fires=2)})
    fired = [inj.fires(SITE_POOL_GROW) for _ in range(5)]
    assert fired == [True, True, False, False, False]
    assert inj.fire_count(SITE_POOL_GROW) == 2
    assert inj.consult_count(SITE_POOL_GROW) == 5


def test_mixed_scripted_and_rate_is_reproducible():
    rule = SiteRule(rate=0.3, at=(2, 5))
    a = _injector(**{SITE_POOL_GROW: rule})
    b = _injector(**{SITE_POOL_GROW: rule})
    seq_a = [a.fires(SITE_POOL_GROW) for _ in range(100)]
    seq_b = [b.fires(SITE_POOL_GROW) for _ in range(100)]
    assert seq_a == seq_b
    assert seq_a[1] and seq_a[4]   # the scripted indices always fire


def test_summary_shape():
    inj = _injector(**{SITE_POOL_GROW: SiteRule(at=(1,))})
    inj.fires(SITE_POOL_GROW)
    assert inj.summary() == {
        SITE_POOL_GROW: {"consults": 1, "fires": 1}}


def test_fires_are_traced_through_the_machines_context():
    """An injector built without any context still reports every fire
    to the captured machine it is attached to — beside the timeouts the
    fires cause."""
    obs = Observability.capture()
    injector = FaultInjector(FaultPlan.parse("inv.stall:rate=0.2", seed=1))
    system = System.build(SystemConfig(scheme="identity-strict", obs=obs,
                                       faults=injector))
    system.setup_queues()
    core, frame = system.machine.core(0), build_frame(1448)
    injector.start()
    for _ in range(40):
        system.driver.receive_one(core, 0, frame)
    injector.stop()
    fires = injector.fire_count(SITE_INV_STALL)
    kinds = obs.tracer.counts_by_kind()
    assert fires > 0
    assert kinds[EV_FAULT_INJECT] == kinds[EV_INV_TIMEOUT] == fires
    assert obs.metrics.counters[f"faults.injected.{SITE_INV_STALL}"].value \
        == fires
