import pytest

from autonetsim.andl import compile_network, parse
from autonetsim.config import apply_override
from autonetsim.kernel import US


def compiled(listing_small, overrides=()):
    ast, _ = parse(listing_small)
    return compile_network(ast, overrides=overrides)


def test_override_device_param(listing_small):
    cfg = compiled(listing_small)
    assert apply_override(cfg, "gw1.processingDelay", "60us")
    assert cfg.device("gw1").params["processingDelay"] == "60us"


def test_override_port_slopes(listing_small):
    cfg = compiled(listing_small)
    assert apply_override(cfg, "port.en1.s1.idleSlopeA", "50Mb/s")
    assert cfg.slopes["en1->s1"]["A"] == 50_000_000


def test_override_sim_and_metrics(listing_small):
    cfg = compiled(listing_small)
    assert apply_override(cfg, "sim.queueCapacity", "64")
    assert apply_override(cfg, "sim.ttTolerance", "2us")
    assert apply_override(cfg, "metrics.queues", "false")
    assert cfg.queue_capacity == 64
    assert cfg.tt_tolerance == 2 * US
    assert cfg.metric_flags["queues"] is False


def test_override_link_bandwidth(listing_small):
    cfg = compiled(listing_small)
    assert apply_override(cfg, "eth1.bandwidth", "1Gb/s")
    link = next(l for l in cfg.links if l.name == "eth1")
    assert link.rate == 10**9


def test_unknown_override_key(listing_small):
    cfg = compiled(listing_small)
    assert not apply_override(cfg, "no.such.key", "1")


def test_precedence_cli_over_ini_over_generated(listing_small):
    # generated default: unset (40us); ini raises it; CLI wins over ini
    assert "processingDelay" not in compiled(listing_small).device("gw1").params
    listing = listing_small.replace("record-eventlog = false", "gw1.processingDelay = 55us")
    assert compiled(listing).device("gw1").params["processingDelay"] == "55us"
    cfg = compiled(listing, [("gw1.processingDelay", "70us")])
    assert cfg.device("gw1").params["processingDelay"] == "70us"


def test_unknown_cli_override_raises(listing_small):
    with pytest.raises(KeyError):
        compiled(listing_small, [("bogus.key", "1")])


def test_unknown_ini_key_warns_once(listing_small):
    # The listing carries record-eventlog; it is kept as an extra and warned about
    # once, and command-line pairs add no second warning.
    cfg = compiled(listing_small, [("gw1.processingDelay", "70us")])
    assert sum("record-eventlog" in w for w in cfg.warnings) == 1
    assert cfg.extras["record-eventlog"] == "false"
