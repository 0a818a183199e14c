"""Scheme registry tests."""

import pytest

from repro.dma.registry import (
    ALL_SCHEMES,
    FIGURE_SCHEMES,
    PAPER_ALIASES,
    create_dma_api,
    scheme_properties,
)
from repro.errors import ConfigurationError


def test_all_schemes_construct(make_api):
    for scheme in ALL_SCHEMES:
        api = make_api(scheme)
        assert api.properties is scheme_properties(scheme)
        assert api.properties.label


def test_paper_aliases_resolve(make_api):
    plus = make_api("identity+")
    minus = make_api("identity-")
    assert plus.name == "identity-strict"
    assert minus.name == "identity-deferred"
    assert scheme_properties("identity+").no_window
    assert not scheme_properties("identity-").no_window


def test_figure_schemes_subset():
    assert set(FIGURE_SCHEMES) <= set(ALL_SCHEMES)
    assert "copy" in FIGURE_SCHEMES and "no-iommu" in FIGURE_SCHEMES


def test_unknown_scheme_rejected(machine, allocators, iommu):
    with pytest.raises(ConfigurationError):
        create_dma_api("bogus", machine, iommu, 1, allocators)
    with pytest.raises(ConfigurationError):
        scheme_properties("bogus")


def test_iommu_required_for_protected_schemes(machine, allocators):
    with pytest.raises(ConfigurationError):
        create_dma_api("copy", machine, None, 1, allocators)


def test_only_copy_claims_full_security():
    full = [s for s in ALL_SCHEMES
            if scheme_properties(s).iommu_protection
            and scheme_properties(s).sub_page
            and scheme_properties(s).no_window]
    assert full == ["copy"]


def test_scheme_kwargs_pass_through(make_api):
    api = make_api("copy", sticky=False, size_classes=(4096,))
    assert api.pool.sticky is False
    assert api.pool.size_classes == (4096,)


def test_aliases_cover_paper_names():
    assert set(PAPER_ALIASES) \
        == {"identity+", "identity-", "strict", "deferred",
            "strict-percore", "deferred-bounded", "strict-prefetch"}
    # The prose shorthands mean the identity-mapped modes (§2.2).
    assert PAPER_ALIASES["strict"] == "identity-strict"
    assert PAPER_ALIASES["deferred"] == "identity-deferred"
    # Scalable-invalidation shorthands route to the identity variants.
    assert PAPER_ALIASES["strict-percore"] == "identity-strict-percore"
    assert PAPER_ALIASES["deferred-bounded"] == "identity-deferred-bounded"
    assert PAPER_ALIASES["strict-prefetch"] == "identity-strict-prefetch"
