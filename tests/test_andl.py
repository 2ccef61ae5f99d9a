import hashlib
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from autonetsim.andl import (
    CompileError, compile_network, has_errors, parse, print_file, validate,
)
from autonetsim.andl.parser import line_starts, position, tokenize
from autonetsim.cli import main
from autonetsim.engine import Runtime
from autonetsim.ethernet import eth_frame_duration, eth_wire_bits, pad_payload
from autonetsim.gateway import COUNT_PREFIX, RECORD_HEADER
from autonetsim.kernel import MS, NS, US

import conftest


def test_parse_small_network(listing_small):
    ast, diags = parse(listing_small)
    assert not has_errors(diags)
    assert len(ast.networks) == 1
    net = ast.networks[0]
    names = [d.name for d in net.devices]
    assert names == ["eth1", "cb1", "cb2", "cn1", "cn2", "en1", "en2", "gw1", "gw2", "s1"]
    assert [s.name for s in net.segments] == ["backbone", "canbus"]
    assert [m.name for m in net.messages] == ["msg1", "msg2"]
    assert net.inline_ini == ["record-eventlog = false"]
    msg1 = net.messages[0]
    assert msg1.payload == 6 and msg1.period == 1 * MS
    assert msg1.entries[1].binding.pool == "gw1_1"
    assert msg1.entries[1].binding.holdup == 2 * MS
    assert msg1.entries[2].binding is None  # bare gateway entry


def test_parse_empty_network():
    ast, diags = parse("network n { devices { } connections { } communication { } }")
    assert not has_errors(diags)
    assert ast.networks[0].name == "n"


def test_parse_missing_semicolon_has_position():
    ast, diags = parse("network n { devices { node x } connections { } }")
    errors = [d for d in diags if d.severity == "error"]
    assert errors and errors[0].line == 1 and errors[0].col > 1


def test_parse_collects_multiple_errors():
    text = """
network n {
  devices {
    node x
    node ok;
    switch ;
  }
}
"""
    _, diags = parse(text)
    assert sum(1 for d in diags if d.severity == "error") >= 2


def test_fault_inside_class_binding_is_reported_once():
    lines = (Path(__file__).resolve().parents[1] / "scenarios" / "two_pools.andl").read_text().splitlines(True)
    assert "bodyBus: can{id 120;};" in lines[43] and "pool slow{holdUp 60ms;}" in lines[70]
    lines[43] = lines[43].replace("can{id 120;}", "can{id x;}")
    _, diags = parse("".join(lines))
    assert [(d.line, d.message) for d in diags] == [(44, "expected CAN id, found 'x'")]
    # Parsing resumed after the binding, so a fault in a later message is found too.
    lines[70] = lines[70].replace("holdUp 60ms;", "holdUp soon;")
    _, diags = parse("".join(lines))
    assert [(d.line, d.message) for d in diags] == [
        (44, "expected CAN id, found 'x'"), (71, "expected holdUp, found 'soon'")]


@pytest.mark.parametrize("edit, position, message", [
    (("pool gw1_1;", "pool 5;"), (24, 12), "expected pool name, found '5'"),
    (("en2 <--> {new std.ETH}", "en2 <--> {new 5}"), (33, 21), "expected type name, found '5'"),
    (("```\nrecord-eventlog = false\n```", "eventlog"), (10, 1), "inline ini payload must be fenced with ```"),
    # A fence whose body is a brace is no brace, skipped or consumed by the item.
    (("pool gw1_1;", "pool 5 ```{```;"), (24, 12), "expected pool name, found '5'"),
    (("pool gw1_1;", "pool 5 ```}```;"), (24, 12), "expected pool name, found '5'"),
    (("pool gw1_1;", "delay ```{```;"), (24, 13), "expected parameter value, found '{'"),
], ids=["device-body", "connection-link-type", "inline-ini",
        "fenced-open-brace-skipped", "fenced-close-brace-skipped", "fenced-open-brace-consumed"])
def test_fault_inside_a_braced_item_is_reported_once(listing_small, edit, position, message):
    ast, diags = parse(listing_small.replace(*edit))
    assert [(d.line, d.col, d.message) for d in diags] == [(*position, message)]
    (net,) = ast.networks
    assert [m.name for m in net.messages] == ["msg1", "msg2"]
    assert [s.name for s in net.segments] == ["backbone", "canbus"]
    assert [d.name for d in net.devices][-2:] == ["gw2", "s1"]


@pytest.mark.parametrize("text, position, names", [
    ("network n { devices { ```node``` a; node b; } }", (1, 23), ["b"]),
    (None, (19, 5), ["eth1", "cb1", "cb2", "cn2", "en1", "en2", "gw1", "gw2", "s1"]),
], ids=["reproducer", "small-network"])
def test_a_fenced_keyword_is_no_keyword(listing_small, text, position, names):
    text = text or listing_small.replace("node cn1;", "```node``` cn1;")
    ast, diags = parse(text)
    assert [(d.line, d.col, d.message) for d in diags] == [(*position, "expected a device kind, found 'node'")]
    assert [d.name for d in ast.networks[0].devices] == names


_COMM = "  communication {      //Communication in the network\n"


def _add_message(text):
    return (_COMM, f"{_COMM}    message m3 {{ {text} }}\n")


def _case(edits, needle, *, id, code=1, args=()):
    return pytest.param(edits, needle, code, args, id=id)


_TWO_BINDINGS = """network n {
  devices { canLink cb1; node telem; node ecu; gateway gw; switch s; switch s2; }
  connections { segment backA { telem <--> s; s <--> s2; } segment backB { s2 <--> gw; }
    segment canside { ecu <--> cb1; gw <--> cb1; } }
  communication {
    message cmd { sender telem; receivers ecu; payload 4B; period 1ms;
      mapping { backA: avb{id 3;}; backB: %s; gw; canside: can{id 55;}; } }
  }
}
"""

# Two messages whose frames a gateway cannot tell apart: it would route each frame
# for both. Id 37 on two buses of one segment, id 37 tunneled from two segments to
# one gateway, and frames of two runs that end at one gateway, keyed by it.
_ONE_RULE_TWO_MESSAGES = {
    "two-buses": """network n {
  devices { canLink cb1; canLink cb2; node a; node b; node e1; node e2; gateway gw; switch s; }
  connections { segment can { a <--> cb1; gw <--> cb1; b <--> cb2; gw <--> cb2; }
    segment eth { gw <--> s; e1 <--> s; e2 <--> s; } }
  communication {
    message m1 { sender a; receivers e1, e2; payload 4B; period 1ms;
      mapping { can: can{id 37;}; gw; eth: be{priority 1;}; } }
    message m2 { sender b; receivers e1, e2; payload 4B; period 1ms;
      mapping { can: can{id 37;}; gw; eth: be{priority 1;}; } }
  }
}
""",
    "tunneled": """network n {
  devices { canLink ca; canLink cb; canLink cx; canLink cy; node a; node b; node x; node y;
    gateway ga; gateway gb; gateway gx; switch s; }
  connections { segment sa { a <--> ca; ga <--> ca; } segment sb { b <--> cb; gb <--> cb; }
    segment out { x <--> cx; gx <--> cx; y <--> cy; gx <--> cy; }
    segment eth { ga <--> s; gb <--> s; gx <--> s; } }
  communication {
    message m1 { sender a; receivers x; payload 4B; period 1ms;
      mapping { sa: can{id 37;}; ga; eth: be{priority 1;}; gx; out: can{id 37;}; } }
    message m2 { sender b; receivers y; payload 4B; period 1ms;
      mapping { sb: can{id 37;}; gb; eth: be{priority 1;}; gx; out: can{id 37;}; } }
  }
}
""",
    "keyed": """network n {
  devices { canLink cb; node a; node b; node x; node y; gateway gw; switch s; }
  connections { segment eth { a <--> s; b <--> s; gw <--> s; }
    segment can { x <--> cb; y <--> cb; gw <--> cb; } }
  communication {
    message m1 { sender a; receivers x; payload 4B; period 1ms;
      mapping { eth: be{priority 1;}; gw; can: can{id 37;}; } }
    message m2 { sender b; receivers y; payload 4B; period 1ms;
      mapping { eth: be{priority 1;}; gw; can: can{id 38;}; } }
  }
}
""",
}


@pytest.mark.parametrize("edits, needle, code, args", [
    _case([("ethernetLink ETH {", "ethernetLink ETH extends ETH {")],
          "inheritance cycle through ETH", id="inheritance-cycle"),
    _case([("node cn1;", "node cn1 extends std.ETH;")],
          "cn1 (node) cannot extend std.ETH (ethernetLink)", id="cannot-extend"),
    _case([_add_message("sender en1; receivers cn1; payload 4B; period 1ms; mapping { "
                        "backbone: be{priority 1;}; canbus: can{id 40;}; gw1: pool gw1_1{holdUp 1ms;}; }")],
          "message m3: pool at gw1 needs an Ethernet egress", id="pool-ethernet-to-can"),
    _case([("gw1 <--> cb1;", "gw1 <--> cb1; gw1 <--> cb2;"), ("gw2;           //gw2 also", "//")],
          "message msg1: pool at gw1 needs an Ethernet egress", id="pool-can-to-can"),
    _case([("canLink cb2;", "canLink cb2; canLink cb3; node cn3;"),
           ("gw1 <--> cb1;", "gw1 <--> cb1; cn3 <--> cb3; gw1 <--> cb3;"),
           _add_message("sender cn3; receivers en2; payload 2B; period 1ms; mapping { "
                        "canbus: can{id 37;}; gw1: pool gw1_1{holdUp 1ms;}; backbone: be{priority 1;}; }")],
          "pool gw1.gw1_1: conflicting hold-ups for id 37", id="conflicting-hold-ups"),
    _case([_add_message("sender cn1; receivers en2; payload 2B; period 1ms; mapping { "
                        "canbus: can{id 38;}; gw1: pool gw1_1{holdUp 2ms;}; backbone: be{priority 1;}; }")],
          "pool gw1.gw1_1: members map to different backbone classes", id="pool-classes"),
    _case([("    segment canbus {", "    segment extra { en1 <--> cb1; }\n    segment canbus {")],
          "bus 'cb1' appears in two segments", id="bus-in-two-segments"),
    _case([("cn1 <--> cb1;", "cn1 <--> cb1; cn1 <--> s1;")],
          "segment 'canbus' mixes CAN and Ethernet", id="mixed-segment"),
    _case([("en2 <--> {new std.ETH} <--> s1;", "en2 <--> eth1 <--> s1;")],
          "link 'eth1' used in more than one connection", id="link-used-twice"),
    _case([("cn2 <--> cb2;", "cn2 <--> cb2; cb1 <--> cb2;")],
          "cannot connect two CAN links", id="two-can-links"),
    _case([("en1 <--> eth1 <--> s1;", "en1 <--> cb1 <--> s1;")],
          "'cb1' is not an ethernetLink", id="link-not-ethernet"),
    _case([("sender cn1;", "sender cn1; multicast;")],
          "message msg1: multicast TT streams are not supported", id="multicast-tt"),
    _case([("backbone: avb{id 1;};", "backbone: rc{vlID 3; bag 0ms;};")],
          "small.andl:64:34: error: bag must be positive, not 0 ps", id="zero-bag"),
    _case([_add_message("sender en1; receivers en2; payload 4B; period 1ms; mapping { backbone: avb{id 1;}; }")],
          "duplicate avb id 1 (m3 vs msg2)", id="duplicate-stream-id"),
    _case([("backbone: avb{id 1;};", "backbone: avb{id 0;};"),
           _add_message("sender en1; receivers en2; payload 4B; period 1ms; mapping { backbone: avb{id 0;}; }")],
          "duplicate avb id 0 (m3 vs msg2)", id="duplicate-stream-id-0"),
    # Device parameters are parsed once, against one table, at the device's line.
    _case([("switch s1;", "switch s1 { hardwareDelay fast; }")],
          "small.andl:27:1: error: s1.hardwareDelay: not a duration: 'fast'", id="hardware-delay"),
    _case([("gateway gw2;", "gateway gw2 { processingDelay soon; }")],
          "small.andl:26:1: error: gw2.processingDelay: not a duration: 'soon'", id="processing-delay"),
    _case([("node cn1;", "node cn1 { driftPpm abc; }")],
          "small.andl:19:1: error: cn1.driftPpm: not a drift in ppm: 'abc'", id="drift-not-a-number"),
    _case([("node cn1;", "node cn1 { driftPpm 2000000; }")],
          "small.andl:19:1: error: cn1.driftPpm: |drift_ppm| must be < 10^6", id="drift-out-of-range"),
    _case([("    bandwidth 100Mb/s;", "    bandwidth fast;")],
          "small.andl:3:1: error: ETH.bandwidth: not a rate: 'fast'", id="link-type-bandwidth"),
    _case([("switch s1;", "switch s1 { speed 9; }")],
          "small.andl:27:1: warning: s1: unknown parameter 'speed' (ignored)", code=0, id="unknown-parameter"),
    # Diagnostics no other test reaches.
    _case([(None, "types std { node N; }\n")], "no network declared", id="no-network"),
    _case([], "network 'nope' not found", args=("--network", "nope"), id="network-not-found"),
    _case([("node cn2;", "node cn2; node cn2;")], "duplicate device name 'cn2'", id="duplicate-device"),
    _case([("gw2 <--> cb2;", "s1 <--> cb2;")], "'s1' cannot attach to a CAN bus", id="switch-on-can"),
    _case([("cn1 <--> cb1;", "cn1 <--> eth1 <--> cb1;")],
          "CAN attachments take no link reference", id="can-link-reference"),
    _case([("en1 <--> eth1 <--> s1;", "en1 <--> eth1;")],
          "Ethernet links connect nodes, switches, or gateways", id="ethernet-to-a-link"),
    _case([("en2 <--> {new std.ETH} <--> s1;", "en2 <--> {new std.NOPE} <--> s1;")],
          "'std.NOPE' is not an ethernetLink type", id="new-not-a-link-type"),
    _case([("en2 <--> {new std.ETH} <--> s1;", "en2 <--> {new std.ETH} <--> s1; en1 <--> en2;")],
          "small.andl:21:1: error: node en1 has 2 links; a node has one Ethernet link or one CAN bus",
          id="node-two-links"),
    _case([("sender cn1;", "sender gw1;")], "message msg1: 'gw1' is not a node", id="sender-not-a-node"),
    _case([("period 1ms;", "period 0ms;")], "message msg1: period must be positive", id="zero-period"),
    _case([("receivers cn2;", "")], "message msg1: needs at least one receiver", id="no-receiver"),
    _case([("gw2;           //gw2 also", "s1;           //gw2 also")],
          "message msg1: 's1' is not a gateway", id="not-a-gateway"),
    _case([("gw1: pool gw1_1{", "gw1: pool nope{")], "gateway gw1 declares no pool 'nope'", id="no-such-pool"),
    _case([("backbone: avb{id 1;};", "nowhere: avb{id 1;};")],
          "message msg2: unknown segment 'nowhere'", id="unknown-segment"),
    _case([("canbus: can{id 37;};", "canbus: be{priority 1;};")],
          "segment canbus is CAN; use a can binding", id="can-segment-binding"),
    _case([("backbone: avb{id 1;};", "backbone: can{id 1;};")],
          "segment backbone is Ethernet; can binding not allowed", id="ethernet-segment-binding"),
    _case([("node en2;", "node en2; node lone;"), ("receivers en2;", "receivers lone;")],
          "message msg2: receiver 'lone' is unreachable", id="unreachable"),
    _case([("gw2;           //gw2 also", "//")],
          "message msg1: gateway gw2 on path but not listed in mapping", id="gateway-not-listed"),
    _case([("backbone: avb{id 1;};", "backbone: avb{id 1;}; gw1;")],
          "message msg2: gateway gw1 listed but not on the message path", id="gateway-off-path"),
    _case([("payload 6B;", "payload 9B;")], "message msg1: CAN payload exceeds 8 bytes", id="can-payload"),
    _case([("payload 500B;", "payload 1501B;")], "message msg2: payload exceeds 1500 bytes", id="eth-payload"),
    # A listing's values take the document's ranges: what validates, a compiled document also holds.
    _case([("payload 500B;", "payload 0B;")], "small.andl:58:1: error: message msg2: payload must be at least 1 byte",
          id="zero-payload"),
    _case([("payload 500B;", "")], "small.andl:58:1: error: message msg2: payload must be at least 1 byte",
          id="no-payload"),
    _case([("period 125us;", "period 125us; offset 999999999s;")],
          "small.andl:62:28: error: offset must be at most 9223372036854775807, not 999999999000000000000 ps",
          id="offset-past-the-tick-range"),
    _case([("holdUp 2ms;", "holdUp 9223372036854775808ps;")],
          "small.andl:53:32: error: holdUp must be at most 9223372036854775807, not 9223372036854775808 ps",
          id="hold-up-past-the-tick-range"),
    _case([("can{id 37;}", "can{id 5000;}")], "small.andl:52:24: error: id must be at most 2047, not 5000",
          id="can-id-over-11-bits"),
    _case([], "pool gw1.gw1_1: hold-up of id 37 exceeds its period", code=0, id="hold-up-over-period"),
    _case([("record-eventlog = false", "record-eventlog")],
          "inline ini line without '=': 'record-eventlog'", code=0, id="ini-without-equals"),
    _case([("node cn1;", "node cn1 extends NOPE;")], "unknown type 'NOPE' in extends", id="unknown-type"),
    _case([("cn1 <--> cb1;", "cn1 <--> cb1; cn1 <--> cb1;")], "'cn1' attached to 'cb1' twice",
          code=0, id="attached-twice"),
    # Facts derived after the topology carry the line of their gateway, message or
    # inline-ini block; facts with no single source line are printed without one.
    _case([("canLink cb2;", "canLink cb2; canLink cb3; node cn3;"),
           ("gw1 <--> cb1;", "gw1 <--> cb1; cn3 <--> cb3; gw1 <--> cb3;"),
           _add_message("sender cn3; receivers en2; payload 2B; period 1ms; mapping { "
                        "canbus: can{id 37;}; gw1: pool gw1_1{holdUp 1ms;}; backbone: be{priority 1;}; }")],
          "small.andl:23:1: error: pool gw1.gw1_1: conflicting hold-ups for id 37",
          id="pool-conflict-at-gateway"),
    _case([], "small.andl:23:1: warning: pool gw1.gw1_1: hold-up of id 37 exceeds its period",
          code=0, id="hold-up-warning-at-gateway"),
    _case([_add_message("sender en1; receivers cn1; payload 4B; period 1ms; mapping { "
                        "backbone: be{priority 1;}; canbus: can{id 40;}; gw1: pool gw1_1{holdUp 1ms;}; }")],
          "small.andl:46:1: error: message m3: pool at gw1 needs an Ethernet egress", id="egress-at-message"),
    _case([("gw2 <--> {new std.ETH} <--> s1;",
            "gw2 <--> {new std.ETH} <--> s1; gw1 <--> {new std.ETH} <--> en1;")],
          "small.andl:23:1: error: gateway gw1 has 2 Ethernet links; one uplink is supported",
          id="second-uplink"),
    _case([("record-eventlog = false", "sim.queueCapacity = lots")],
          "small.andl:9:1: error: inline ini: override 'sim.queueCapacity'", id="ini-value-at-block"),
    _case([], "small.andl:9:1: warning: unknown inline-ini key 'record-eventlog' (ignored)",
          code=0, id="ini-unknown-key-at-block"),
    _case([("record-eventlog = false", "port.en1.en2.idleSlopeA = 10Mb/s")],
          "small.andl:9:1: warning: unknown inline-ini key 'port.en1.en2.idleSlopeA' (ignored)",
          code=0, id="ini-idle-slope-without-link"),
    _case([("record-eventlog = false", "port.en1.s1.idleSlopeA = 99Mb/s")],
          "small.andl: error: AVB reservation on en1->s1 is 99000000 b/s, above 75% of 100000000 b/s",
          id="reservation-cap-without-position"),
    _case([(None, "network n {\n"
                  "  devices { node a; node b; switch s; }\n"
                  "  connections { segment e { a <--> s; b <--> s; } }\n"
                  "  communication {\n"
                  "    message t1 { sender a; receivers b; payload 1500B; period 200us;\n"
                  "      mapping { e: tt{ctID 1;}; } }\n"
                  "    message t2 { sender a; receivers b; payload 1500B; period 200us;\n"
                  "      mapping { e: tt{ctID 2;}; } }\n"
                  "  }\n}\n")],
          "small.andl: error: TDMA schedule: ", id="tdma-without-position"),
    # One switched run, telem -> s -> s2 -> gw, crosses backA and backB, but its frames
    # carry one binding: gw had no rule for them (avb), or matched them only by the
    # destination (be).
    *(_case([(None, _TWO_BINDINGS % back_b)],
            "small.andl:6:1: error: message cmd: the switched run from telem to gw crosses segments "
            "with different bindings", id=f"run-with-two-bindings-{name}")
      for name, back_b in [("avb", "avb{id 4;}"), ("be", "be{priority 1;}")]),
    _case([(None, _ONE_RULE_TWO_MESSAGES["two-buses"])],
          "small.andl:8:1: error: gateway gw: CAN id 37 from segment can is routed for m1 and m2",
          id="one-rule-two-messages-two-buses"),
    _case([(None, _ONE_RULE_TWO_MESSAGES["tunneled"])],
          "small.andl:10:1: error: gateway gx: CAN id 37 from segment eth is routed for m1 and m2",
          id="one-rule-two-messages-tunneled"),
    _case([(None, _ONE_RULE_TWO_MESSAGES["keyed"])],
          "small.andl:8:1: error: gateway gw: the key ('dst', 'gw') from segment eth is routed for m1 and m2",
          id="one-rule-two-messages-keyed"),
    # A TT talker releases at its schedule's offsets; msg1's offset, on the CAN
    # sender of a TT backbone stream, still delays its releases.
    _case([("backbone: avb{id 1;};", "backbone: tt{ctID 3;};"), ("period 125us;", "period 125us; offset 300us;")],
          "small.andl:58:1: warning: message msg2: offset is ignored; a TT message is released by the TDMA schedule",
          code=0, id="tt-offset-ignored"),
])
def test_validate_reports_compiler_diagnostic(tmp_path, listing_small, capsys, edits, needle, code, args):
    text = listing_small
    for old, new in edits:
        if old is None:  # the whole listing
            text = new
            continue
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    src = tmp_path / "small.andl"
    src.write_text(text)
    assert main(["validate", str(src), *args]) == code
    assert needle in capsys.readouterr().err


def test_validate_stops_at_parse_errors(tmp_path, listing_small, capsys):
    # The faulty gateway is not in the partial AST; checking that AST would report
    # its connections as unknown devices too.
    src = tmp_path / "small.andl"
    src.write_text(listing_small.replace("pool gw1_1;", "pool 5;"))
    assert main(["validate", str(src)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"{src}:24:12: error: expected pool name, found '5'"]


def test_validate_small_network_clean(listing_small):
    ast, diags = parse(listing_small)
    all_diags = diags + validate(ast)
    assert not has_errors(all_diags)


def test_validate_can_payload_limit(listing_small):
    ast, _ = parse(listing_small.replace("payload 6B;", "payload 9B;"))
    diags = validate(ast)
    assert any("exceeds 8 bytes" in d.message for d in diags)


def test_validate_duplicate_can_id(listing_small):
    extra = """
    message msg3 {
      sender cn1;
      receivers cn2;
      payload 2B;
      period 5ms;
      mapping {
        canbus: can{id 37;};
        gw1: pool gw1_1{holdUp 2ms;};
        gw2;
        backbone: tt{ctID 103;};
      }
    }
  }
}
"""
    text = listing_small.rstrip()
    text = text[: text.rindex("}")]
    text = text[: text.rindex("}")] + extra
    ast, diags = parse(text)
    assert not has_errors(diags)
    vdiags = validate(ast)
    assert any("duplicate CAN id 37" in d.message for d in vdiags)


def test_validate_unknown_device_and_unreachable():
    text = """
network n {
  devices { node a; node b; node c; switch s; }
  connections { segment eth { a <--> s; b <--> s; } }
  communication {
    message m1 { sender a; receivers nobody; payload 4B; period 1ms;
      mapping { eth: be{priority 0;}; } }
    message m2 { sender a; receivers c; payload 4B; period 1ms;
      mapping { eth: be{priority 0;}; } }
  }
}
"""
    ast, diags = parse(text)
    assert not has_errors(diags)
    vdiags = validate(ast)
    assert any("unknown device 'nobody'" in d.message for d in vdiags)
    assert any("unreachable" in d.message for d in vdiags)


def test_validate_gateway_mismatch(listing_small):
    # dropping the bare gw2 entry leaves a path gateway unlisted
    ast, _ = parse(listing_small.replace("gw2;           //gw2 also responsible for the msg path", ""))
    vdiags = validate(ast)
    assert any("gateway gw2 on path but not listed" in d.message for d in vdiags)


def test_validate_avb_overreservation():
    text = """
network n {
  devices { node a; node b; switch s; }
  connections { segment eth { a <--> s; b <--> s; } }
  communication {
    message m { sender a; receivers b; payload 1500B; period 150us;
      mapping { eth: avb{id 1;}; } }
  }
}
"""
    # 1538 B wire every 150 us is ~82 Mb/s, above the 75% cap on 100 Mb/s
    ast, _ = parse(text)
    vdiags = validate(ast)
    assert any("above 75%" in d.message for d in vdiags)


def test_validate_missing_segment_mapping(listing_small):
    ast, _ = parse(listing_small.replace("backbone: tt{ctID 102;}; //TT traffic on backbone", ""))
    vdiags = validate(ast)
    assert any("without a mapping" in d.message for d in vdiags)


def test_compile_small_network(listing_small):
    ast, _ = parse(listing_small)
    cfg = compile_network(ast)
    assert cfg.name == "smallNetwork"
    assert {b.name for b in cfg.buses} == {"cb1", "cb2"}
    assert cfg.segments == {"backbone": "ethernet", "canbus": "can"}
    # routing: id 37 from the CAN side of gw1 goes to gw2 as TT ct 102 via the pool
    rule = next(r for r in cfg.rules if r.gateway == "gw1" and r.can_id == 37)
    (dest,) = rule.dests
    assert dest["kind"] == "pool" and dest["pool"] == "gw1_1"
    assert dest["tag"] == {"kind": "tt", "ct": 102}
    assert dest["keys"] == [("tt", 102)]
    # the pool carries the 2 ms hold-up for id 37
    pool = next(p for p in cfg.pools if p.gateway == "gw1")
    assert pool.holdup_by_id == {37: 2 * MS}
    # gw2 unpacks id 37 back onto cb2
    back = next(r for r in cfg.rules if r.gateway == "gw2" and r.can_id == 37)
    assert back.dests == [{"kind": "can", "bus": "cb2", "can_id": 37}]
    # switch forwards ct 102 toward gw2 and the AVB stream toward en2
    keys = {f.key: f.ports for f in cfg.forwarding}
    assert keys[("tt", 102)] == ["gw2"]
    assert keys[("avb", 1)] == ["en2"]
    # schedule exists with windows on both backbone hops of the aggregate
    links = {w.link for w in cfg.schedule.windows}
    assert links == {"gw1->s1", "s1->gw2"}
    # inline ini was unknown -> ignored: its warning is all the document keeps of it
    warning = "9:1: warning: unknown inline-ini key 'record-eventlog' (ignored)"
    assert warning in cfg.warnings
    assert [ln for ln in cfg.to_json().splitlines() if "record-eventlog" in ln] == [f'  "{warning}",']


def test_compile_is_deterministic(listing_small):
    ast1, _ = parse(listing_small)
    ast2, _ = parse(listing_small)
    assert compile_network(ast1).to_json() == compile_network(ast2).to_json()


def test_compile_error_raises(listing_small):
    ast, _ = parse(listing_small.replace("payload 6B;", "payload 9B;"))
    with pytest.raises(CompileError):
        compile_network(ast)


def test_compile_leaves_the_ast_as_parsed(listing_small, listing_backbone):
    for listing in (listing_small, listing_backbone):
        ast, _ = parse(listing)
        before = print_file(ast)
        compile_network(ast)
        assert print_file(ast) == before


def test_new_link_instance_inherits_its_types_bandwidth():
    text = """
types std {
  ethernetLink BASE { bandwidth 10Mb/s; }
  ethernetLink KID extends BASE;
}
network n {
  devices { node a; node b; switch s; }
  connections { segment eth { a <--> {new std.KID} <--> s; b <--> s; } }
  communication {}
}
"""
    ast, diags = parse(text)
    assert not has_errors(diags)
    rates = {link.name: link.rate for link in compile_network(ast).links}
    assert rates == {"link1": 10_000_000, "link2": 100_000_000}


def test_compile_backbone_extension(listing_backbone):
    ast, diags = parse(listing_backbone)
    assert not has_errors(diags)
    cfg = compile_network(ast)
    switches = [d.name for d in cfg.devices if d.kind == "switch"]
    assert switches == ["switch0", "switch1", "switch2"]
    # every declared node can be reached from every other (single component)
    adj = {}
    for link in cfg.links:
        adj.setdefault(link.a, set()).add(link.b)
        adj.setdefault(link.b, set()).add(link.a)
    for bus in cfg.buses:
        for n in bus.attached:
            adj.setdefault(n, set()).add(bus.name)
            adj.setdefault(bus.name, set()).add(n)
    nodes = {d.name for d in cfg.devices if d.kind != "ethernetLink"}
    seen = set()
    stack = [next(iter(nodes))]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(adj.get(v, ()))
    assert nodes <= seen
    # the lidar stream is one multicast virtual link across both receivers
    fwd = {f.key: (f.switch, f.ports) for f in cfg.forwarding}
    assert fwd[("rc", 11)][0] in ("switch0", "switch1", "switch2")
    rc_entries = [f for f in cfg.forwarding if f.key == ("rc", 11)]
    by_switch = {f.switch: f.ports for f in rc_entries}
    assert by_switch["switch2"] == ["log", "fusi"]


def test_validate_gateway_with_two_ethernet_links():
    text = """
network g2 {
  devices { node a; node b; gateway gw; switch s1; switch s2; }
  connections { segment eth {
    a <--> s1; s1 <--> gw; gw <--> s2; s2 <--> b;
  } }
  communication {
    message m { sender a; receivers b; payload 10B; period 1ms;
      mapping { eth: be{priority 0;}; gw; } }
  }
}
"""
    ast, _ = parse(text)
    vdiags = validate(ast)
    assert any("one uplink is supported" in d.message for d in vdiags)


def test_config_json_roundtrip(listing_small):
    from autonetsim.config import NetworkConfig

    ast, _ = parse(listing_small)
    cfg = compile_network(ast)
    again = NetworkConfig.from_json(cfg.to_json())
    assert again.to_json() == cfg.to_json()


def test_print_parse_roundtrip(listing_small, listing_backbone):
    for text in (listing_small, listing_backbone):
        ast, diags = parse(text)
        assert not has_errors(diags)
        printed = print_file(ast)
        ast2, diags2 = parse(printed)
        assert not has_errors(diags2)
        assert ast2 == ast


_ident = st.from_regex(r"[a-z][a-z0-9]{0,6}", fullmatch=True)
_stream = st.integers(min_value=0, max_value=10**6)
# Each kind of segment binding as ANDL text, in the forms the printer does not always write back.
_binding = st.one_of(
    st.integers(min_value=0, max_value=2047).map("can{{id {};}}".format),
    _stream.map("tt{{ctID {};}}".format),
    st.tuples(_stream, st.sampled_from(["", " class A;", " class B;"])).map(lambda t: "avb{{id {};{}}}".format(*t)),
    st.tuples(_stream, st.integers(min_value=1, max_value=10**6), st.sampled_from(["ps", "ns", "us", "ms"]))
      .map(lambda t: "rc{{vlID {}; bag {}{};}}".format(*t)),
    st.integers(min_value=0, max_value=7).map("be{{priority {};}}".format),
)


@settings(deadline=None, max_examples=60)
@given(
    names=st.lists(_ident, min_size=2, max_size=5, unique=True),
    payload=st.integers(min_value=1, max_value=1500),
    period_us=st.integers(min_value=1, max_value=10_000),
    binding=_binding,
)
def test_print_parse_roundtrip_generated(names, payload, period_us, binding):
    sender, receiver = names[0], names[1]
    medium = ("canLink", "bus") if binding.startswith("can") else ("switch", "sw")  # a CAN binding on a CAN segment
    devs = "".join(f"    node {n};\n" for n in names)
    conns = "".join(f"      {n} <--> {medium[1]};\n" for n in names)
    text = f"""
network g {{
  devices {{
{devs}    {medium[0]} {medium[1]};
  }}
  connections {{
    segment seg {{
{conns}    }}
  }}
  communication {{
    message m {{
      sender {sender};
      receivers {receiver};
      payload {payload}B;
      period {period_us}us;
      mapping {{ seg: {binding}; }}
    }}
  }}
}}
"""
    ast, diags = parse(text)
    assert not has_errors(diags)
    ast2, diags2 = parse(print_file(ast))
    assert not has_errors(diags2)
    assert ast2 == ast


_BOUNDS_LISTING = """network n {
  devices { canLink cb { bitrate %(bitrate)s; } node c1; node c2; node e1; node e2;
    ethernetLink el { bandwidth %(bandwidth)s; } gateway g { processingDelay %(processingDelay)s; }
    switch s { hardwareDelay %(hardwareDelay)s; } }
  connections { segment can { c1 <--> cb; c2 <--> cb; g <--> cb; } segment eth { e1 <--> el <--> s; e2 <--> s; } }
  communication {
    message c { sender c1; receivers c2; payload %(payload)s; period 1ms; offset %(offset)s;
      mapping { can: can{id %(id)s;}; } }
    message r { sender e1; receivers e2; payload 4B; period 1ms; mapping { eth: rc{vlID 1; bag %(bag)s;}; } }
    message b { sender e2; receivers e1; payload 4B; period 1ms; mapping { eth: be{priority %(priority)s;}; } }
  }
}
"""
_IN_RANGE = {"payload": "1B", "offset": "0ps", "id": "0", "bag": "1ps", "priority": "0", "bitrate": "1b/s",
             "bandwidth": "1b/s", "processingDelay": "0ps", "hardwareDelay": "0ps"}


@pytest.mark.parametrize("field, value, ok", [
    ("id", "2047", True), ("id", "2048", False),
    ("priority", "7", True), ("priority", "8", False),
    ("bag", "1ps", True), ("bag", "0ps", False),
    ("payload", "1B", True), ("payload", "0B", False),
    ("offset", f"{2**63 - 1}ps", True), ("offset", f"{2**63}ps", False),
    ("bandwidth", f"{2**63 - 1}b/s", True), ("bandwidth", f"{2**63}b/s", False),
    ("bitrate", f"{2**63 - 1}b/s", True), ("bitrate", f"{2**63}b/s", False),
    ("hardwareDelay", f"{2**63 - 1}ps", True), ("hardwareDelay", f"{2**63}ps", False),
    ("processingDelay", f"{2**63 - 1}ps", True), ("processingDelay", f"{2**63}ps", False),
])
def test_a_listing_takes_the_documents_ranges(tmp_path, capsys, field, value, ok):
    from autonetsim.config import NetworkConfig

    text = _BOUNDS_LISTING % {**_IN_RANGE, field: value}
    src = tmp_path / "bounds.andl"
    src.write_text(text)
    assert main(["validate", str(src)]) == (0 if ok else 1)
    assert "Traceback" not in capsys.readouterr().err
    if ok:
        cfg = compile_network(parse(text)[0])
        assert NetworkConfig.from_json(cfg.to_json()).to_json() == cfg.to_json()


SMALL_NETWORK = Path(__file__).resolve().parents[1] / "scenarios" / "small_network.andl"
MUTATION_ALPHABET = "abcdefghijklmnopqrstuvwxyzBMS0123456789{};:<->.,=/\"'` \n"


def mutate(rng: random.Random, text: str) -> str:
    """Insert, delete or replace 1 to 4 characters at random places."""
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(text) + 1)
        c = rng.choice(MUTATION_ALPHABET)
        op = rng.randrange(3)
        if op == 0:
            text = text[:i] + c + text[i:]
        elif op == 1:
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + c + text[i + 1:]
    return text


def test_mutated_scenarios_give_diagnostics_not_crashes():
    rng = random.Random(20181)
    base = SMALL_NETWORK.read_text()
    for _ in range(3000):
        text = mutate(rng, base)
        ast, diags = parse(text)
        if has_errors(diags):
            continue
        try:
            compile_network(ast)
        except CompileError:
            pass


@pytest.mark.parametrize("old, new", [
    ("bandwidth 100Mb/s;", "bandwidth 0Mb/s;"),
    ("canLink cb1;", "canLink cb1 { bitrate 0kb/s; }"),
], ids=["ethernet", "can"])
def test_zero_rate_is_a_compile_error(old, new):
    ast, diags = parse(SMALL_NETWORK.read_text().replace(old, new))
    assert not has_errors(diags)
    with pytest.raises(CompileError, match="must be positive"):
        compile_network(ast)


def lexed(text):
    """The lexer's tokens as (kind, value, line, col) and its diagnostics as (line, col, message)."""
    lines = line_starts(text)
    kinds, values, starts, diags = tokenize(text, lines)
    return ([(kind, value, *position(lines, start)) for kind, value, start in zip(kinds, values, starts)],
            [(d.line, d.col, d.message) for d in diags])


def test_column_after_a_fence_counts_from_the_fences_last_line():
    tokens, diags = lexed("inline ini ```a=1``` ; @")
    assert tokens == [
        ("ident", "inline", 1, 1), ("ident", "ini", 1, 8), ("fenced", "a=1", 1, 12),
        ("punct", ";", 1, 22), ("eof", "", 1, 25)]
    assert diags == [(1, 24, "unexpected character '@'")]
    tokens, _ = lexed("x ```\na\n  b``` ;")
    assert [(value, line, col) for _, value, line, col in tokens][-2:] == [(";", 3, 8), ("", 3, 9)]


@pytest.mark.parametrize("text, tokens, diags", [
    ("x;\n# // last",
     [("ident", "x", 1, 1), ("punct", ";", 1, 2), ("eof", "", 2, 10)],
     [(2, 1, "unexpected character '#'")]),
    ("inline ini ```\na=1\nb=2\n```@ ;",
     [("ident", "inline", 1, 1), ("ident", "ini", 1, 8), ("fenced", "a=1\nb=2", 1, 12),
      ("punct", ";", 4, 6), ("eof", "", 4, 7)],
     [(4, 4, "unexpected character '@'")]),
], ids=["comment-on-the-last-line", "stray-character-after-a-fence"])
def test_lexer_positions_at_the_end_of_a_text_and_of_a_fence(text, tokens, diags):
    assert lexed(text) == (tokens, diags) == reference_tokenize(text)


# The lexer as it was before the single-pass rewrite: one anchored match per lexeme.
_REFERENCE_TOKEN_RE = re.compile(
    r"""
    (?P<comment>//[^\n]*)
  | (?P<fence>```)
  | (?P<arrow><-->)
  | (?P<scalar>\d+(?:\.\d+)?[A-Za-z/%]*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[{}();:,.=])
  | (?P<space>[ \t\r]+)
  | (?P<newline>\n)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


def reference_tokenize(text):
    """(kind, value, line, col) tokens and (line, col, message) diagnostics of the old lexer.
    One deliberate difference: after a fence it counted the column from 1; this copy
    counts from the fence's last newline, or goes on along the line when it has none."""
    tokens, diags = [], []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        kind = m.lastgroup
        value = m.group()
        if kind == "newline":
            line += 1
            col = 1
        elif kind in ("space", "comment"):
            col += len(value)
        elif kind == "fence":
            end = text.find("```", m.end())
            if end < 0:
                diags.append((line, col, "unterminated ``` fence"))
                break
            tokens.append(("fenced", text[m.end():end].strip("\n"), line, col))
            line += text.count("\n", pos, end + 3)
            last_newline = text.rfind("\n", pos, end + 3)
            col = end + 3 - last_newline if last_newline >= 0 else col + end + 3 - pos  # the fix
            pos = end + 3
            continue
        elif kind == "bad":
            diags.append((line, col, f"unexpected character {value!r}"))
            col += 1
        else:
            tokens.append((kind, value, line, col))
            col += len(value)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens, diags


LEXER_FRAGMENTS = [
    "```", "`", "```\nk = v\n```", "//", "// note\n", "<-->", "<-", "-->", "1.5us", "10ms", "0.5ps",
    "100Mb/s", "6B", "7", "1.", "\n", "\r\n", "\t", " ", "@", "\u00e9", "\u00a0", "\u0663", "#", "{", "}",
    ";", ".", "x_1",
]


@pytest.mark.parametrize("scenario", ["small_network.andl", "two_pools.andl"])
def test_lexer_matches_the_reference_lexer(scenario):
    base = (SMALL_NETWORK.parent / scenario).read_text()
    rng = random.Random(8)
    texts = [base, "", "```", "a ```b", "x\n```\n"]
    for _ in range(600):
        text = base
        for _ in range(rng.randint(1, 6)):
            i = rng.randrange(len(text) + 1)
            op = rng.randrange(3)
            if op == 0:
                text = text[:i] + rng.choice(LEXER_FRAGMENTS) + text[i:]
            elif op == 1:
                text = text[:i] + text[i + rng.randint(1, 4):]
            else:
                text = text[:i] + rng.choice(LEXER_FRAGMENTS) + text[i + 1:]
        texts.append(text)
    for text in texts:
        assert lexed(text) == reference_tokenize(text), text


# -- tables derived once per frame ------------------------------------------------
#
# One message sends 8 B every 1 ms from c1 on busA, through gwA and the switch
# s, to c2 and c3 behind gwB on busB.  Both receivers share gwA's frame.

def _shared_frame_text(backbone: str, receivers: str = "c2, c3", holdup: str | None = None) -> str:
    gw_a = f"gwA: pool p{{holdUp {holdup};}};" if holdup else "gwA;"
    return f"""
network shared {{
  devices {{ canLink busA; canLink busB; node c1; node c2; node c3;
    gateway gwA {{ pool p; }} gateway gwB; switch s; }}
  connections {{
    segment bb {{ gwA <--> s; gwB <--> s; }}
    segment canA {{ c1 <--> busA; gwA <--> busA; }}
    segment canB {{ c2 <--> busB; c3 <--> busB; gwB <--> busB; }}
  }}
  communication {{
    message m {{ sender c1; receivers {receivers}; payload 8B; period 1ms;
      mapping {{ canA: can{{id 10;}}; {gw_a} gwB; bb: {backbone}; canB: can{{id 10;}}; }} }}
  }}
}}
"""


def _compiled(text):
    ast, diags = parse(text)
    assert not has_errors(diags)
    return compile_network(ast)


_AVB = "avb{id 1;}"
_TT = "tt{ctID 1;}"


@pytest.mark.parametrize("receivers", ["c2", "c2, c3"])
def test_receivers_sharing_a_frame_share_its_reservation(receivers):
    # FOUND (MENDED): a shared frame was reserved once per receiver
    cfg = _compiled(_shared_frame_text(_AVB, receivers))
    # 8 B in a one-record aggregate pads to 46 B, 84 B on the wire, every 1 ms
    assert cfg.slopes == {"gwA->s": {"A": 672_000}, "s->gwB": {"A": 672_000}}
    result = Runtime(cfg).run(20 * MS)
    assert result.link_frames["gwA->s"] == 21


@pytest.mark.parametrize("receivers", ["c2", "c2, c3"])
@pytest.mark.parametrize("backbone", [_AVB, _TT], ids=["avb", "tt"])
def test_a_pool_member_is_counted_once_per_message(backbone, receivers):
    # FOUND (MENDED): a pool member was recorded once per receiver
    cfg = _compiled(_shared_frame_text(backbone, receivers, holdup="3ms"))
    # four 11 B records and the count prefix: 46 B, 84 B on the wire
    if backbone == _AVB:
        assert cfg.slopes == {"gwA->s": {"A": 672_000}, "s->gwB": {"A": 672_000}}
    else:
        assert {(w.link, w.duration) for w in cfg.schedule.windows} == {
            ("gwA->s", 6720 * NS), ("s->gwB", 6720 * NS)}


def test_a_hold_up_above_the_period_is_reported_once():
    # FOUND (MENDED): the warning came once per receiver
    cfg = _compiled(_shared_frame_text(_AVB, holdup="5ms"))
    assert [w for w in cfg.warnings if "exceeds its period" in w] == [
        "4:1: warning: pool gwA.p: hold-up of id 10 exceeds its period; "
        "aggregates may carry several instances of one id"]


def test_a_pool_without_an_ethernet_egress_is_reported_once():
    # FOUND (MENDED): the error came once per receiver
    text = """
network canonly {
  devices { canLink b1; canLink b2; canLink b3; node c1; node c2; node c3; gateway gw { pool p; } }
  connections { segment s1 { c1 <--> b1; gw <--> b1; } segment s2 { c2 <--> b2; gw <--> b2; }
                segment s3 { c3 <--> b3; gw <--> b3; } }
  communication {
    message m { sender c1; receivers c2, c3; payload 8B; period 1ms;
      mapping { s1: can{id 10;}; gw: pool p{holdUp 1ms;}; s2: can{id 10;}; s3: can{id 10;}; } }
  }
}
"""
    ast, _ = parse(text)
    assert [str(d) for d in validate(ast) if d.severity == "error"] == [
        "7:1: error: message m: pool at gw needs an Ethernet egress"]


@pytest.mark.parametrize("backbone", [_TT, _AVB], ids=["tt", "avb"])
def test_an_unpooled_gateway_aggregate_is_sized_as_one_record(backbone):
    # ROADMAP item 4: an unpooled gateway aggregate on a TT or AVB backbone
    cfg = _compiled(_shared_frame_text(backbone, "c2"))
    payload = pad_payload(COUNT_PREFIX + RECORD_HEADER + 8)
    if backbone == _AVB:
        bits_per_s = eth_wire_bits(payload) * 1000
        assert cfg.slopes == {"gwA->s": {"A": bits_per_s}, "s->gwB": {"A": bits_per_s}}
    else:
        duration = eth_frame_duration(payload, 100_000_000)
        assert {(w.link, w.duration) for w in cfg.schedule.windows} == {
            ("gwA->s", duration), ("s->gwB", duration)}
        assert cfg.schedule.releases == {}  # the gateway sends when the record arrives


def _diverging_text(multicast: bool) -> str:
    mc = " multicast;" if multicast else ""
    return f"""
network diverging {{
  devices {{ node a; node r1; node r2; node r3; switch s1; switch s2; switch s3; }}
  connections {{ segment eth {{
    a <--> s1; s1 <--> s2; s1 <--> s3; r1 <--> s2; r2 <--> s3; r3 <--> s3;
  }} }}
  communication {{
    message m {{ sender a; receivers r1, r2, r3; payload 200B; period 1ms;{mc}
      mapping {{ eth: avb{{id 1;}}; }} }}
  }}
}}
"""


def test_unicast_avb_reserves_each_receivers_frame_on_every_link_it_crosses():
    # ROADMAP "Quality of design": each frame's reservation is derived once per link
    slopes = _compiled(_diverging_text(multicast=False)).slopes
    one = 1_904_000  # 200 B payload, 238 B on the wire, every 1 ms
    assert slopes == {"a->s1": {"A": 3 * one}, "s1->s2": {"A": one}, "s2->r1": {"A": one},
                      "s1->s3": {"A": 2 * one}, "s3->r2": {"A": one}, "s3->r3": {"A": one}}


def test_multicast_avb_reserves_its_one_frame_once_per_link():
    # ROADMAP "Quality of design": each frame's reservation is derived once per link
    slopes = _compiled(_diverging_text(multicast=True)).slopes
    assert set(slopes) == {"a->s1", "s1->s2", "s2->r1", "s1->s3", "s3->r2", "s3->r3"}
    assert all(slot == {"A": 1_904_000} for slot in slopes.values())


# sha256 of ``compile_network(...).to_json()``: a change to how tables are
# derived must leave these documents byte for byte as they are.
COMPILED_DIGESTS = {
    "small_network": "c905493d912a2decb091acb27265294d7ddbce0b9e8af4fe440ad022b5ac994b",
    "two_pools": "f04d45541142f3fde37bee4dba0b0fb91d724ce105818819f6d7da685dcfcb9b",
    "LISTING_SMALL_NETWORK": "0aeed5d27374d6ad5ae03a394cee9463879483ce9dc517b9dad799aedc009f37",
    "LISTING_BACKBONE_EXTENSION": "369db65af492cfc211bee9594ef9fd030c51d1a8a0606689612f2de28a3af79a",
}
SCENARIO_TEXTS = {p.stem: p.read_text() for p in sorted(SMALL_NETWORK.parent.glob("*.andl"))}


def test_every_scenario_has_a_pinned_compiled_digest():
    assert set(SCENARIO_TEXTS) <= set(COMPILED_DIGESTS)


@pytest.mark.parametrize("name", sorted(COMPILED_DIGESTS))
def test_compiled_document_matches_its_digest(name):
    # ROADMAP "Quality of design": the one-walk derivation changes no compiled document
    text = SCENARIO_TEXTS[name] if name in SCENARIO_TEXTS else getattr(conftest, name)
    digest = hashlib.sha256(_compiled(text).to_json().encode()).hexdigest()
    assert digest == COMPILED_DIGESTS[name]


# -- forwarding keys ---------------------------------------------------------------
#
# A frame carries the key the compiler gave it, and a switch or gateway makes one
# lookup by that key, with no fallback: every key a frame carries must be in the
# tables along its run.  A ("dst", x) key names the end of its run; a frame with
# any other key travels every run that leaves its sender or gateway.

def _eth_to_can_text(receivers: str) -> str:
    return f"""
network ethtocan {{
  devices {{ canLink cb; node telem; node ecu; node ecu2; gateway gw; switch s; }}
  connections {{ segment bb {{ telem <--> s; gw <--> s; }} segment can {{ ecu <--> cb; ecu2 <--> cb; gw <--> cb; }} }}
  communication {{
    message cmd {{ sender telem; receivers {receivers}; payload 4B; period 1ms;
      mapping {{ bb: avb{{id 3;}}; gw; can: can{{id 55;}}; }} }}
  }}
}}
"""


KEYED_TEXTS = {
    **{name: SCENARIO_TEXTS.get(name) or getattr(conftest, name) for name in COMPILED_DIGESTS},
    "diverging-unicast": _diverging_text(multicast=False),
    "diverging-multicast": _diverging_text(multicast=True),
    "eth-to-can-one-receiver": _eth_to_can_text("ecu"),  # keyed ("avb", 3)
    "eth-to-can-two-receivers": _eth_to_can_text("ecu, ecu2"),  # keyed ("dst", "gw")
}


@pytest.mark.parametrize("name", sorted(KEYED_TEXTS))
def test_every_frame_key_is_in_the_tables_along_its_run(name):
    cfg = _compiled(KEYED_TEXTS[name])
    kinds = {d.name: d.kind for d in cfg.devices}
    link_segment = {frozenset((ln.a, ln.b)): ln.segment for ln in cfg.links}
    bus_segment = {b.name: b.segment for b in cfg.buses}
    forwarding = {(f.switch, f.key): f.ports for f in cfg.forwarding}
    key_rules = {(r.gateway, r.segment, r.key) for r in cfg.rules if r.key}
    for msg in cfg.messages:
        runs: dict[str, set] = {}  # sender or gateway -> (its run to a gateway or receiver, ...)
        before: dict[str, str] = {}  # gateway -> the bus its records come from
        for path in msg.paths.values():
            for i in range(len(path) - 1):
                if kinds[path[i]] != "switch" and frozenset(path[i : i + 2]) in link_segment:
                    j = i + 1
                    while kinds[path[j]] == "switch":
                        j += 1
                    runs.setdefault(path[i], set()).add(tuple(path[i : j + 1]))
                    before[path[i]] = path[i - 1]
        for start, start_runs in runs.items():
            if start == msg.sender:
                keys = [f["key"] for f in msg.eth_talker]
            else:  # the gateway's aggregates of the records from its CAN bus
                segment = bus_segment[before[start]]
                (rule,) = [r for r in cfg.rules if (r.gateway, r.segment, r.can_id)
                           == (start, segment, msg.bindings[segment]["id"])]
                keys = [k for d in rule.dests if d["kind"] != "can" for k in d["keys"]]
            assert keys, (msg.name, start)
            for key in keys:
                key_runs = [run for run in start_runs if key[0] != "dst" or key[1] == run[-1]]
                assert key_runs, (msg.name, start, key)
                for run in key_runs:
                    for switch, peer in zip(run[1:-1], run[2:]):
                        assert peer in forwarding.get((switch, key), ()), (msg.name, switch, key)
                    if start == msg.sender and kinds[run[-1]] == "gateway":
                        segment = link_segment[frozenset(run[-2:])]
                        assert (run[-1], segment, key) in key_rules, (msg.name, run[-1], key)
            for run in start_runs:  # every run carries some frame
                assert any(key[0] != "dst" or key[1] == run[-1] for key in keys), (msg.name, run)


# -- one interface per node ---------------------------------------------------------
#
# A node is an end station: only switches, gateways and CAN buses carry traffic
# onward.  Each network below gave a node a second link; the compiler took it,
# and the run lost frames without an error.

ONE_INTERFACE_CASES = {
    # a -> s -> relay -> cb -> r: all 11 frames of a 10 ms run were dropped at s
    "relay-through-a-node": ("relay", 2, """
network relay {
  devices { canLink cb; node a; node r; switch s;
    node relay; }
  connections { segment bb { a <--> s; relay <--> s; } segment can { relay <--> cb; r <--> cb; } }
  communication {
    message m { sender a; receivers r; payload 4B; period 1ms;
      mapping { bb: be{priority 1;}; can: can{id 5;}; } }
  }
}
"""),
    # the path a -> t0 -> c, but every frame left on a->s0 and was dropped there
    "receiver-behind-the-second-link": ("a", 2, """
network second {
  devices { node b; node c; switch s0; switch t0;
    node a; }
  connections { segment bb { a <--> s0; b <--> s0; } segment bb2 { a <--> t0; c <--> t0; } }
  communication {
    message m { sender a; receivers c; payload 4B; period 1ms; mapping { bb2: be{priority 1;}; } }
  }
}
"""),
    # b received every frame on Ethernet, c on the bus none
    "can-and-ethernet": ("a", 2, """
network caneth {
  devices { canLink cb; node b; node c; switch s;
    node a; }
  connections { segment bb { a <--> s; b <--> s; } segment can { a <--> cb; c <--> cb; } }
  communication {
    message m { sender a; receivers b, c; payload 4B; period 1ms;
      mapping { bb: be{priority 1;}; can: can{id 5;}; } }
  }
}
"""),
    # b on cb1 received every frame, c on cb2 none
    "two-can-buses": ("a", 2, """
network twocan {
  devices { canLink cb1; canLink cb2; node b; node c;
    node a; }
  connections { segment can1 { a <--> cb1; b <--> cb1; } segment can2 { a <--> cb2; c <--> cb2; } }
  communication {
    message m { sender a; receivers b, c; payload 4B; period 1ms;
      mapping { can1: can{id 5;}; can2: can{id 5;}; } }
  }
}
"""),
    # an Ethernet link and two buses: the count sums both tallies
    "ethernet-and-two-can-buses": ("a", 3, """
network ethtwocan {
  devices { canLink cb1; canLink cb2; node b; node c; node d; switch s;
    node a; }
  connections { segment bb { a <--> s; b <--> s; }
    segment can1 { a <--> cb1; c <--> cb1; } segment can2 { a <--> cb2; d <--> cb2; } }
  communication {
    message m { sender a; receivers b, c, d; payload 4B; period 1ms;
      mapping { bb: be{priority 1;}; can1: can{id 5;}; can2: can{id 5;}; } }
  }
}
"""),
}


@pytest.mark.parametrize("case", sorted(ONE_INTERFACE_CASES))
def test_a_node_has_one_interface(case):
    node, count, text = ONE_INTERFACE_CASES[case]
    ast, diags = parse(text)
    assert not has_errors(diags)
    assert [str(d) for d in validate(ast) if d.severity == "error"] == [
        f"4:1: error: node {node} has {count} links; a node has one Ethernet link or one CAN bus"]
