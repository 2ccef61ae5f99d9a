import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import autonetsim
from autonetsim.andl import compile_network, parse
from autonetsim.cli import main
from autonetsim.ethernet import eth_frame_duration
from autonetsim.kernel import MS, SEC

SCENARIO = Path(__file__).resolve().parents[1] / "scenarios" / "small_network.andl"


def write_listing(tmp_path, listing_small):
    p = tmp_path / "small.andl"
    p.write_text(listing_small)
    return p


def hash_dir(d: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(d.rglob("*")):
        if p.is_file():
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def test_importing_the_cli_leaves_the_process_pool_unimported():
    # Only a run with --jobs above 1 imports the process pool, where it starts one.
    code = "import sys, autonetsim.cli; print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    src = str(Path(autonetsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_compile_ok(tmp_path, listing_small, capsys):
    src = write_listing(tmp_path, listing_small)
    out = tmp_path / "net.json"
    assert main(["compile", str(src), "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["name"] == "smallNetwork"


def test_compile_semantic_error(tmp_path, listing_small, capsys):
    src = tmp_path / "bad.andl"
    src.write_text(listing_small.replace("payload 6B;", "payload 9B;"))
    assert main(["compile", str(src), "-o", str(tmp_path / "x.json")]) == 1
    assert "exceeds 8 bytes" in capsys.readouterr().err


def test_compile_missing_file(tmp_path):
    assert main(["compile", str(tmp_path / "nope.andl"), "-o", str(tmp_path / "x.json")]) == 2


@pytest.mark.parametrize("command", ["validate", "compile", "run"])
def test_input_that_is_not_utf8_is_an_unreadable_file(tmp_path, capsys, command):
    src = tmp_path / "utf16.andl"
    src.write_bytes(b"\xff\xfen\x00e\x00t\x00")
    out = tmp_path / "out"
    args = {"validate": [], "compile": ["-o", str(out)], "run": ["--horizon", "1ms", "--out", str(out)]}[command]
    assert main([command, str(src), *args]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"{src}: not UTF-8 text")
    assert not out.exists()


def test_validate(tmp_path, listing_small, capsys):
    src = write_listing(tmp_path, listing_small)
    assert main(["validate", str(src)]) == 0
    assert "ok" in capsys.readouterr().out


def test_run_from_andl_and_from_config(tmp_path, listing_small, capsys):
    src = write_listing(tmp_path, listing_small)
    cfgp = tmp_path / "net.json"
    assert main(["compile", str(src), "-o", str(cfgp)]) == 0
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert main(["run", str(src), "--horizon", "50ms", "--out", str(out1)]) == 0
    assert main(["run", str(cfgp), "--horizon", "50ms", "--out", str(out2)]) == 0
    assert hash_dir(out1) == hash_dir(out2)
    text = capsys.readouterr().out
    assert "delivered msg1@cn2" in text


def test_run_deterministic_hashes(tmp_path, listing_small):
    src = write_listing(tmp_path, listing_small)
    outs = []
    for name in ("d1", "d2"):
        out = tmp_path / name
        assert main(["run", str(src), "--horizon", "100ms", "--out", str(out)]) == 0
        outs.append(hash_dir(out))
    assert outs[0] == outs[1]


def test_run_zero_horizon_usage_error(tmp_path, listing_small, capsys):
    src = write_listing(tmp_path, listing_small)
    assert main(["run", str(src), "--horizon", "0s", "--out", str(tmp_path / "o")]) == 2


def test_run_override_layers(tmp_path, listing_small, capsys):
    src = write_listing(tmp_path, listing_small)
    out = tmp_path / "ov"
    assert main([
        "run", str(src), "--horizon", "20ms", "--out", str(out),
        "--set", "gw1.processingDelay=60us", "--set", "metrics.stations=false",
    ]) == 0
    assert main([
        "run", str(src), "--horizon", "20ms", "--out", str(tmp_path / "bad"),
        "--set", "nonsense.key=1",
    ]) == 1


@pytest.mark.parametrize("how", ["set", "inline-ini"])
def test_link_bandwidth_override_is_applied_before_derivation(tmp_path, capsys, how):
    # link2 is the scenario's gw1 <--> s1.  Its TT windows must be sized for the
    # overridden rate; windows sized for 100 Mb/s drop every aggregate as unschedulable.
    text, argv, overrides = SCENARIO.read_text(), [], [("link2.bandwidth", "10Mb/s")]
    if how == "set":
        argv = ["--set", "link2.bandwidth=10Mb/s"]
    else:
        text = text.replace("metrics.stations = true", "metrics.stations = true\nlink2.bandwidth = 10Mb/s")
        overrides = []
    src = tmp_path / "small.andl"
    src.write_text(text)
    assert main(["run", str(src), "--horizon", "50ms", "--out", str(tmp_path / "o"), *argv]) == 0
    summary = capsys.readouterr().out
    assert "delivered msg1@cn2: 51" in summary
    assert "drops: 0" in summary
    cfg = compile_network(parse(text)[0], overrides=overrides)
    assert next(l.rate for l in cfg.links if l.name == "link2") == 10_000_000
    # A flush carries at most three 6-byte records: a minimum-size frame.
    windows = {w.duration for w in cfg.schedule.windows if w.link == "gw1->s1"}
    assert windows == {eth_frame_duration(46, 10_000_000)}


def test_idle_slope_override_is_held_to_the_reservation_cap(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["run", str(SCENARIO), "--horizon", "10ms", "--out", str(out),
                 "--set", "port.en1.s1.idleSlopeA=99Mb/s"]) == 1
    assert "AVB reservation on en1->s1 is 99000000 b/s, above 75% of 100000000 b/s" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("pair", ["port.nope.s1.idleSlopeA=10Mb/s", "port.en1.en2.idleSlopeB=1Mb/s"])
def test_idle_slope_override_needs_a_link_between_its_ends(tmp_path, capsys, pair):
    out = tmp_path / "o"
    assert main(["run", str(SCENARIO), "--horizon", "10ms", "--out", str(out), "--set", pair]) == 1
    assert f"unknown override key {pair.partition('=')[0]!r}" in capsys.readouterr().err
    assert not out.exists()
    # Either direction of a link names a port.
    assert main(["run", str(SCENARIO), "--horizon", "10ms", "--out", str(out),
                 "--set", "port.s1.en1.idleSlopeA=10Mb/s"]) == 0


@pytest.mark.parametrize("pair", [
    "link2.bandwidth=10Mb/s", "eth1.bandwidth=1Gb/s", "s1.hardwareDelay=1us",
    "port.en1.s1.idleSlopeA=1Mb/s", "port.s1.en2.idleSlopeB=1Mb/s",
])
def test_compiled_document_refuses_keys_its_tables_derive_from(tmp_path, capsys, pair):
    cfgp = tmp_path / "net.json"
    assert main(["compile", str(SCENARIO), "-o", str(cfgp)]) == 0
    capsys.readouterr()
    out = tmp_path / "o"
    assert main(["run", str(cfgp), "--horizon", "10ms", "--out", str(out), "--set", pair]) == 2
    assert repr(pair.partition("=")[0]) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("pair", ["port.nope.s1.idleSlopeA=10Mb/s", "nope.hardwareDelay=1us"])
def test_compiled_document_calls_an_unknown_key_unknown_as_the_source_does(tmp_path, capsys, pair):
    cfgp = tmp_path / "net.json"
    assert main(["compile", str(SCENARIO), "-o", str(cfgp)]) == 0
    capsys.readouterr()
    for src in (SCENARIO, cfgp):
        out = tmp_path / "o"
        assert main(["run", str(src), "--horizon", "10ms", "--out", str(out), "--set", pair]) == 1
        assert f"unknown override key {pair.partition('=')[0]!r}" in capsys.readouterr().err
        assert not out.exists()


def test_an_unknown_override_key_is_one_plain_line(tmp_path, capsys):
    cfgp = tmp_path / "net.json"
    assert main(["compile", str(SCENARIO), "-o", str(cfgp)]) == 0
    capsys.readouterr()
    for src in (SCENARIO, cfgp):
        assert main(["run", str(src), "--horizon", "1ms", "--out", str(tmp_path / "o"), "--set", "s1.foo=bar"]) == 1
        assert capsys.readouterr().err.splitlines() == ["unknown override key 's1.foo'"]


@pytest.mark.parametrize("edit, needle", [
    (lambda doc: doc["messages"][0].update(dst=["x"]), "messages[0]: unknown field 'dst'"),
    (lambda doc: doc["rules"][0].update(extra=1), "rules[0]: unknown field 'extra'"),
    (lambda doc: doc["links"][0].pop("rate"), "links[0]: lacks field 'rate'"),
    (lambda doc: doc["forwarding"].__setitem__(0, 3), "forwarding[0]: expected a JSON object"),
    (lambda doc: doc.update(messages=3), "messages: expected a JSON list"),
    (lambda doc: doc["links"][0].update(rate="fast"),
     "links[0]: field 'rate' of a LinkCfg must be an integer, not \"fast\""),
    (lambda doc: doc["schedule"]["windows"][0].update(offset="0"),
     "schedule.windows[0]: field 'offset' of a TdmaWindow must be an integer, not \"0\""),
    (lambda doc: doc["messages"][0].update(period=True),
     "messages[0]: field 'period' of a MessageCfg must be an integer, not true"),
    (lambda doc: doc["devices"][0].update(name=3), "devices[0]: field 'name' of a DeviceCfg must be a string, not 3"),
    (lambda doc: doc.update(can_stuffing=0), "the document: field 'can_stuffing' of a NetworkConfig must be true or false, not 0"),
    # No document field holds a seed (no model draws a random number) or the unknown inline-ini keys (ignored).
    (lambda doc: doc.update(seed=0), "the document: unknown field 'seed'; a NetworkConfig has no such field"),
    (lambda doc: doc.update(extras={}), "the document: unknown field 'extras'; a NetworkConfig has no such field"),
    # A zero period or a negative window offset never let the run end, a zero
    # rate divided by zero, and a receiver that is no string was a bare KeyError.
    (lambda doc: doc["messages"][0].update(period=0),
     "messages[0]: field 'period' of a MessageCfg must be positive, not 0"),
    (lambda doc: doc["schedule"]["windows"][0].update(offset=-5),
     "schedule.windows[0]: field 'offset' of a TdmaWindow must be at least 0, not -5"),
    (lambda doc: doc["links"][0].update(rate=0), "links[0]: field 'rate' of a LinkCfg must be positive, not 0"),
    (lambda doc: doc["messages"][0].update(receivers=["cn2", 3]),
     "messages[0]: field 'receivers' of a MessageCfg must be a list of strings, not [\"cn2\", 3]"),
    (lambda doc: doc["messages"][0]["paths"].update(cn2=["cn1", None]),
     "messages[0]: field 'paths' of a MessageCfg must be an object of lists of strings, not"),
    # Nested values have types, and names point to what the document declares.
    (lambda doc: doc["messages"][1]["eth_talker"][0].update(key=5), "messages[1].eth_talker[0].key: expected a JSON list"),
    (lambda doc: doc["messages"][1]["eth_talker"][0].update(key=["avb", "1"]),
     "messages[1].eth_talker[0]: field 'key' of a TalkerFrame must be "
     "[\"rc\" or \"tt\" or \"avb\", an integer] or [\"dst\", a string], not [\"avb\", \"1\"]"),
    (lambda doc: doc["messages"][0]["bindings"]["backbone"].update(kind="x"),
     "messages[0].bindings[\"backbone\"]: field 'kind' must be \"can\" or \"tt\" or \"avb\" or \"rc\" or \"be\", not \"x\""),
    (lambda doc: doc["messages"][1]["bindings"]["backbone"].update({"class": "C"}),
     "messages[1].bindings[\"backbone\"]: field 'class' of an AvbBinding must be \"A\" or \"B\", not \"C\""),
    (lambda doc: doc["pools"][0]["holdup_by_id"].update({"37": -1}),
     "pools[0]: field 'holdup_by_id' of a PoolCfg must be at least 0, not -1"),
    # An id's key is its canonical decimal text: "037" was id 37 and overwrote the hold-up of "37".
    (lambda doc: doc["pools"][0]["holdup_by_id"].update({"037": 1}),
     "pools[0].holdup_by_id[\"037\"]: a key must be an integer in canonical decimal text"),
    (lambda doc: doc["metric_flags"].update(queus=False),
     "metric_flags: unknown field 'queus'; a MetricFlags has no such field"),
    (lambda doc: doc["messages"][0]["can_talker"].update(id=2048),
     "messages[0].can_talker: field 'id' of a CanAddress must be at most 2047, not 2048"),
    (lambda doc: doc["messages"][0].update(receivers=["nobody"]), "messages[0].receivers[0]: \"nobody\" names no node"),
    (lambda doc: doc["messages"][0]["can_talker"].update(bus="cb2"), "messages[0]: \"cb2.cn1\" names no bus member"),
    (lambda doc: doc["messages"][0]["can_receivers"]["cn2"].update(bus="cb1"),
     "messages[0]: \"cb1.cn2\" names no bus member"),
    (lambda doc: doc["messages"][1].update(sender="cn1"), "messages[1].sender: \"cn1\" names no device with a link"),
    (lambda doc: doc["messages"][1]["eth_talker"][0].update(release="msg2:en2"),
     "messages[1].eth_talker[0].release: \"msg2:en2\" names no TT release"),
    (lambda doc: doc["pools"][0].update(holdup_by_id={}), "rules[0]: \"gw1.gw1_1[37]\" names no pool id"),
    (lambda doc: doc["forwarding"][0].update(ports=["cn1"]), "forwarding[0]: \"s1->cn1\" names no port"),
    (lambda doc: doc["rules"][0].update(can_id=None),
     "rules[0]: a rule matches a CAN id, or a forwarding key and then sends to CAN only"),
    # A nullable field's range fault was worded as a type fault ("an integer or null").
    (lambda doc: doc["rules"][0].update(can_id=2**70),
     "rules[0]: field 'can_id' of a RuleCfg must be at most 2047, not 1180591620717411303424"),
    (lambda doc: doc["devices"][3]["params"].update(driftPpm="fast"), "devices[3].params: not a drift in ppm: 'fast'"),
    (lambda doc: doc["devices"][3]["params"].update(speed="9"),
     "devices[3].params: unknown field 'speed'; a DeviceParams has no such field"),
    (lambda doc: doc["devices"][0]["params"].update(bandwidth="100000000000Gb/s"),
     "devices[0].params: field 'bandwidth' of a DeviceParams must be at most 9223372036854775807, "
     "not 100000000000000000000"),
    # A TDMA window overlapping another on its port, leaving the cycle or on no port ran as given.
    (lambda doc: doc["schedule"]["windows"].append(dict(doc["schedule"]["windows"][0], offset=1)),
     "schedule: windows 102 and 102 overlap on gw1->s1"),
    (lambda doc: doc["schedule"]["windows"][1].update(offset=doc["schedule"]["cycle"] - 1),
     "schedule: window 102 on s1->gw2 leaves the cycle"),
    (lambda doc: doc["schedule"]["windows"][0].update(link="nowhere"),
     "schedule.windows[0].link: \"nowhere\" names no port"),
    (lambda doc: doc["slopes"].pop("s1->en2"),
     "slopes: port s1->en2 sends AVB class A frames but reserves nothing for them"),
    # A name given twice ran as one or failed as a registered path, and so did a
    # bus that is no CAN link; a CAN payload over 8 bytes failed at the sender.
    (lambda doc: doc["devices"].append(dict(doc["devices"][0])), "devices[10]: device \"eth1\" given twice"),
    (lambda doc: doc["devices"].append(dict(doc["devices"][0], kind="node")), "devices[10]: device \"eth1\" given twice"),
    (lambda doc: doc["messages"].append(json.loads(json.dumps(doc["messages"][0]))),
     "messages[2]: message \"msg1\" given twice"),
    (lambda doc: doc["messages"][1].update(name="msg1"), "messages[1]: message \"msg1\" given twice"),
    (lambda doc: doc["pools"].append(dict(doc["pools"][0])), "pools[1]: pool \"gw1.gw1_1\" given twice"),
    (lambda doc: doc["links"][2].update(b="gw1"), "links[2]: port \"gw1->gw1\" given twice"),
    (lambda doc: doc["devices"][1].update(kind="gateway"), "buses[0]: \"cb1\" names no canLink"),
    (lambda doc: doc["messages"][0].update(payload=9),
     "messages[0]: field 'payload' of a MessageCfg with a CAN binding must be at most 8, not 9"),
], ids=["message-field", "rule-field", "missing-field", "not-an-object", "not-a-list",
        "int-field-a-string", "window-field-a-string", "int-field-a-bool", "str-field-an-int", "bool-field-an-int",
        "dropped-seed", "dropped-extras",
        "zero-period", "negative-window-offset", "zero-rate", "receiver-an-int", "path-member-null",
        "talker-key-an-int", "talker-key-of-strings", "binding-kind-unknown", "avb-class-unknown",
        "negative-hold-up", "pool-id-not-canonical", "metric-flag-unknown", "can-id-over-11-bits",
        "receiver-undeclared", "talker-off-its-bus",
        "listener-off-its-bus", "talker-without-a-link", "talker-without-tt-releases",
        "pool-without-the-id", "forward-to-no-port", "rule-matches-nothing", "rule-can-id-past-the-range",
        "drift-not-a-number",
        "unknown-device-parameter", "bandwidth-past-the-range", "windows-overlap", "window-past-the-cycle",
        "window-on-no-port",
        "avb-port-without-reservation", "device-twice", "device-twice-other-kind", "message-twice",
        "message-renamed-to-another", "pool-twice", "link-to-itself", "bus-of-another-kind", "can-payload-9"])
def test_malformed_compiled_document_is_refused(tmp_path, capsys, edit, needle):
    cfgp = tmp_path / "net.json"
    assert main(["compile", str(SCENARIO), "-o", str(cfgp)]) == 0
    doc = json.loads(cfgp.read_text())
    edit(doc)
    cfgp.write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "o"
    assert main(["run", str(cfgp), "--horizon", "1ms", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and needle in err[0]
    assert not out.exists()


@pytest.mark.parametrize("edit", [
    lambda doc: doc["devices"][9]["params"].update(hardwareDelay=f"{2**63 - 1}ps"),
    lambda doc: doc["schedule"].update(cycle=2**63 - 1),
    lambda doc: doc["pools"][0]["holdup_by_id"].update({"37": 2**63 - 1}),
], ids=["switch-hardware-delay", "schedule-cycle", "pool-hold-up"])
def test_a_time_past_the_tick_range_stops_the_run_with_one_line(tmp_path, capsys, edit):
    cfgp = tmp_path / "net.json"
    assert main(["compile", str(SCENARIO), "-o", str(cfgp)]) == 0
    doc = json.loads(cfgp.read_text())
    edit(doc)
    cfgp.write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "o"
    assert main(["run", str(cfgp), "--horizon", "1ms", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"{cfgp}: error: time ") and err[0].endswith("outside [0, 2^63-1] ticks")
    assert not out.exists()


def test_a_run_takes_no_seed(tmp_path, capsys):
    # No model draws a random number, so there is no seed to give.
    with pytest.raises(SystemExit) as exc:
        main(["run", str(SCENARIO), "--horizon", "10ms", "--seed", "7", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_compiled_document_takes_other_keys_as_the_source_does(tmp_path):
    cfgp = tmp_path / "net.json"
    assert main(["compile", str(SCENARIO), "-o", str(cfgp)]) == 0
    pairs = ["--set", "gw1.processingDelay=60us", "--set", "cb1.bitrate=250kb/s", "--set", "sim.canStuffing=true"]
    hashes = {}
    for name, src, argv in (("plain", SCENARIO, []), ("andl", SCENARIO, pairs), ("doc", cfgp, pairs)):
        assert main(["run", str(src), "--horizon", "20ms", "--out", str(tmp_path / name), *argv]) == 0
        hashes[name] = hash_dir(tmp_path / name)
    assert hashes["andl"] == hashes["doc"] != hashes["plain"]


def test_run_structured_format_and_jobs(tmp_path, listing_small):
    src1 = write_listing(tmp_path, listing_small)
    src2 = tmp_path / "copy.andl"
    src2.write_text(listing_small)
    out = tmp_path / "multi"
    assert main([
        "run", str(src1), str(src2), "--horizon", "20ms", "--out", str(out),
        "--format", "structured", "--jobs", "2",
    ]) == 0
    doc1 = json.loads((out / "small" / "results.json").read_text())
    doc2 = json.loads((out / "copy" / "results.json").read_text())
    assert doc1 == doc2


def _tree(d: Path) -> dict[str, bytes]:
    return {str(p.relative_to(d)): p.read_bytes() for p in sorted(d.rglob("*")) if p.is_file()}


def test_run_jobs_output_matches_serial_run(tmp_path, capsys):
    root = Path(__file__).resolve().parents[1] / "scenarios"
    files = [str(root / "small_network.andl"), str(root / "two_pools.andl")]
    outputs = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["run", *files, "--horizon", "200ms", "--out", str(out),
                     "--jobs", jobs]) == 0
        outputs[jobs] = capsys.readouterr().out, _tree(out)
    assert outputs["1"][0].index("small_network.andl]") < outputs["1"][0].index("two_pools.andl]")
    assert len(outputs["1"][1]) > 2
    assert outputs["2"] == outputs["1"]
    # A file that fails in a worker fails the run as it does serially.
    bad = tmp_path / "bad.andl"
    bad.write_text("network broken {")
    codes = []
    for jobs in ("1", "2"):
        codes.append(main(["run", files[0], str(bad), "--horizon", "20ms",
                           "--out", str(tmp_path / f"bad{jobs}"), "--jobs", jobs]))
        outputs[jobs] = capsys.readouterr().out
    assert codes == [1, 1]
    assert outputs["2"] == outputs["1"]


@pytest.mark.parametrize("edit, expected", [
    (("pool gw1_1;", "pool 5;"), ["{bad}:24:12: error: expected pool name, found '5'"]),
    (("gateway gw2;", "gateway gw2 { processingDelay soon; }"),
     ["{bad}:26:1: error: gw2.processingDelay: not a duration: 'soon'"]),
    (("record-eventlog = false", "port.en1.s1.idleSlopeA = 99Mb/s"),
     ["{bad}: error: AVB reservation on en1->s1 is 99000000 b/s, above 75% of 100000000 b/s"]),
], ids=["parse-error", "compile-error", "error-without-position"])
def test_run_prints_each_diagnostic_once_with_its_file(tmp_path, listing_small, capsys, edit, expected):
    good = write_listing(tmp_path, listing_small)
    bad = tmp_path / "bad.andl"
    bad.write_text(listing_small.replace(*edit))
    assert main(["compile", str(good), "-o", str(tmp_path / "net.json")]) == 0
    compile_err = capsys.readouterr().err.splitlines()
    assert main(["run", str(good), str(bad), "--horizon", "10ms",
                 "--out", str(tmp_path / "o"), "--jobs", "1"]) == 1
    captured = capsys.readouterr()
    # The good file's warnings as `compile` prints them, then the bad file's
    # diagnostics, each once and each naming its file.
    assert compile_err and all(line.startswith(f"{good}:") for line in compile_err)
    err = captured.err.splitlines()
    bad_lines = [line for line in err if line.startswith(f"{bad}:")]
    assert err == compile_err + bad_lines
    for line in expected:
        assert bad_lines.count(line.format(bad=bad)) == 1
    assert f"[{good}]" in captured.out and f"[{bad}]" not in captured.out


def test_analyze_latency_and_jitter(tmp_path, listing_small, capsys):
    src = write_listing(tmp_path, listing_small)
    out = tmp_path / "res"
    assert main(["run", str(src), "--horizon", "100ms", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["analyze", str(out), "latency", "--filter", "msg1"]) == 0
    text = capsys.readouterr().out
    assert "cn2.app[msg1].rxLatency" in text and "mean=" in text
    assert main(["analyze", str(out), "jitter", "--filter", "msg2"]) == 0
    assert "jitter=" in capsys.readouterr().out
    assert main(["analyze", str(out), "bandwidth"]) == 0
    capsys.readouterr()
    assert main(["analyze", str(out), "queues"]) == 0
    capsys.readouterr()
    assert main(["analyze", str(out), "latency", "--filter", "zzz"]) == 1
    assert (out / "analysis_latency.csv").exists()


def test_analyze_missing_dir(tmp_path):
    assert main(["analyze", str(tmp_path / "void"), "latency"]) == 2


def _queue_point(raw: str):
    """A damage that makes the first queue-length series one point of value ``raw``, as JSON text."""
    def damage(text):
        doc = json.loads(text)
        doc["vectors"][next(k for k in sorted(doc["vectors"]) if "QueueLength[" in k)] = [[0, "@"]]
        return json.dumps(doc).replace('"@"', raw)
    return damage


@pytest.mark.parametrize("fmt, damage, metric", [
    ("structured", lambda text: text[:100], "latency"),
    ("csv", lambda text: text + "12345\n", "latency"),
    ("structured", lambda text: "[]", "latency"),
    ("structured", lambda text: '{"vectors": []}', "latency"),
    ("structured", lambda text: '{"vectors": {"n.app[m].rxLatency": [[0, "abc"]]}, "scalars": {}, "links": {}}', "latency"),
    ("csv", lambda text: text + "0,abc\n", "latency"),
    ("structured", _queue_point('"inf"'), "queues"),
    ("structured", _queue_point('"nan"'), "queues"),
    ("structured", _queue_point("1e400"), "queues"),
    ("structured", _queue_point("1" + "0" * 400), "queues"),
    ("csv", lambda text: text + "0,inf\n", "queues"),
], ids=["structured", "csv", "a-list", "vectors-a-list", "value-not-a-number", "csv-value-not-a-number",
        "value-inf", "value-nan", "value-past-the-float-range", "int-past-the-float-range", "csv-value-inf"])
# truncated; a row without a comma; not exports; a point value that is not a finite number
def test_analyze_refuses_unreadable_results(tmp_path, capsys, fmt, damage, metric):
    out = tmp_path / "res"
    assert main(["run", str(SCENARIO), "--horizon", "10ms", "--format", fmt, "--out", str(out)]) == 0
    if fmt == "structured":
        export = out / "results.json"
    else:
        export = next(p for p in sorted(out.glob("*.csv")) if p.name != "scalars.csv")
    export.write_text(damage(export.read_text()))
    capsys.readouterr()
    assert main(["analyze", str(out), metric]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"{out}: unreadable results: ")


@pytest.mark.parametrize("fmt", ["structured", "csv"])
def test_analyze_queues_skips_an_empty_series(tmp_path, capsys, fmt):
    out = tmp_path / "res"
    assert main(["run", str(SCENARIO), "--horizon", "10ms", "--format", fmt, "--out", str(out)]) == 0
    empty = "en1.port.s1.QueueLength[AVB_A]"
    if fmt == "structured":
        export = out / "results.json"
        doc = json.loads(export.read_text())
        doc["vectors"][empty] = []
        export.write_text(json.dumps(doc))
    else:
        (out / f"{empty}.csv").write_text("time_ps,value\n")
    capsys.readouterr()
    assert main(["analyze", str(out), "queues"]) == 0
    text = capsys.readouterr().out
    assert "max occupancy" in text and empty not in text


def test_run_window_bandwidth(tmp_path, listing_small, capsys):
    src = write_listing(tmp_path, listing_small)
    out = tmp_path / "w"
    assert main(["run", str(src), "--horizon", "100ms", "--out", str(out),
                 "--window", "10ms:60ms"]) == 0
    capsys.readouterr()
    assert main(["analyze", str(out), "bandwidth", "--filter", "en1->s1"]) == 0
    text = capsys.readouterr().out
    assert "utilizedBandwidth[10ms:60ms]" in text
    # the run window's rates are the same with metrics.completions on or off
    off = tmp_path / "off"
    assert main(["run", str(src), "--horizon", "100ms", "--out", str(off),
                 "--set", "metrics.completions=false"]) == 0

    def run_window_rows(results):
        return [line for line in (results / "scalars.csv").read_text().splitlines()
                if ",utilizedBandwidth," in line]

    assert run_window_rows(off) and run_window_rows(off) == run_window_rows(out)


def test_analyze_bandwidth_prints_the_exported_rates(tmp_path, capsys):
    scenario = Path(__file__).resolve().parents[1] / "scenarios" / "small_network.andl"
    out = tmp_path / "r"
    assert main(["run", str(scenario), "--horizon", "20ms", "--format", "structured",
                 "--out", str(out)]) == 0
    scalars = json.loads((out / "results.json").read_text())["scalars"]
    exported = {name: entry["value"] for name, entry in scalars.items() if "utilizedBandwidth" in name}
    capsys.readouterr()
    assert main(["analyze", str(out), "bandwidth"]) == 0
    printed = {}
    for line in capsys.readouterr().out.splitlines():
        name, desc = line.split(None, 1)
        if "bit/s" in desc:
            printed[name] = desc.split()[0]
    assert exported and printed == exported


def test_run_infeasible_schedule_exits_semantic(tmp_path, capsys):
    # two TT streams that cannot both fit their shared link each millisecond
    text = """
network infeasible {
  devices { node a; node b; switch s; }
  connections { segment eth { a <--> s; b <--> s; } }
  communication {
    message t1 { sender a; receivers b; payload 1500B; period 200us;
      mapping { eth: tt{ctID 1;}; } }
    message t2 { sender a; receivers b; payload 1500B; period 200us;
      mapping { eth: tt{ctID 2;}; } }
  }
}
"""
    src = tmp_path / "inf.andl"
    src.write_text(text)
    assert main(["run", str(src), "--horizon", "10ms", "--out", str(tmp_path / "o")]) == 1
    assert "no feasible offset" in capsys.readouterr().err


def test_shipped_scenarios_compile_and_run(tmp_path, capsys):
    from pathlib import Path

    root = Path(__file__).resolve().parents[1] / "scenarios"
    for name in ("small_network.andl", "two_pools.andl"):
        out = tmp_path / name.replace(".andl", "")
        assert main(["validate", str(root / name)]) == 0
        assert main(["run", str(root / name), "--horizon", "300ms",
                     "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "delivered doorState@displayEcu" in text


INI = "record-eventlog = false"
BE9 = ("avb{id 1;}", "be{priority 9;}")
BE9_DIAG = "small.andl:64:31: error: priority must be at most 7, not 9"


@pytest.mark.parametrize("edit, argv, code, needle", [
    ((INI, "metrics.stations = maybe"), ["validate"], 1, "metrics.stations"),
    ((INI, "sim.queueCapacity = lots"), ["compile"], 1, "sim.queueCapacity"),
    (None, ["run", "--set", "metrics.stations=maybe"], 2, "metrics.stations"),
    (None, ["run", "--set", "sim.queueCapacity=lots"], 2, "sim.queueCapacity"),
    # A port that holds no frame drops every frame.
    (None, ["run", "--set", "sim.queueCapacity=0"], 2, "override 'sim.queueCapacity' must be positive, not 0"),
    (None, ["run", "--set", "sim.queueCapacity=-5"], 2, "override 'sim.queueCapacity' must be positive, not -5"),
    ((INI, "sim.queueCapacity = 0"), ["compile"], 1, "override 'sim.queueCapacity' must be positive, not 0"),
    # An override value takes the range of the document field it lands in.
    ((INI, "s1.hardwareDelay = 99999999s"), ["compile"], 1,
     "override 's1.hardwareDelay' must be at most 9223372036854775807, not 99999999000000000000"),
    # Not a run knob: an inline-ini key that names none is ignored with a warning; --set refuses it.
    ((INI, "sim.ttTolerance = 99999999s"), ["validate"], 0,
     "unknown inline-ini key 'sim.ttTolerance' (ignored)"),
    ((INI, "sim.seed = 3"), ["validate"], 0, "unknown inline-ini key 'sim.seed' (ignored)"),
    (None, ["run", "--set", "sim.seed=3"], 1, "unknown override key 'sim.seed'"),
    (None, ["run", "--set", "eth1.bandwidth=100000000000Gb/s"], 2,
     "override 'eth1.bandwidth' must be at most 9223372036854775807, not 100000000000000000000"),
    (None, ["run", "--set", "s1.hardwareDlay=1us"], 1, "unknown override key 's1.hardwareDlay'"),
    (None, ["run", "--set", "gw1.processingDelay=fast"], 2, "gw1.processingDelay"),
    (None, ["run", "--horizon", "9999999s"], 2, "--horizon"),
    (None, ["run", "--window", "5ms:1ms"], 2, "--window"),
    (None, ["run", "--window", "5ms:11ms"], 2, "after the horizon"),
    (None, ["run", "--jobs", "0"], 2, "--jobs"),
    (BE9, ["validate"], 1, BE9_DIAG),
    (BE9, ["compile"], 1, BE9_DIAG),
    (BE9, ["run"], 1, BE9_DIAG),
    (("gateway gw2;", "gateway gw2 { processingDelay soon; }"), ["run"], 1,
     "26:1: error: gw2.processingDelay: not a duration: 'soon'"),
    (("node cn1;", "node cn1 { driftPpm abc; }"), ["run"], 1, "19:1: error: cn1.driftPpm: not a drift in ppm"),
    (None, ["run", "--set", "cn1.driftPpm=1/0"], 2, "cn1.driftPpm"),
], ids=["ini-bool", "ini-int", "set-bool", "set-int", "set-int-zero", "set-int-negative", "ini-int-zero",
        "ini-duration-past-the-tick-range", "ini-tolerance-is-an-unknown-key",
        "ini-seed-is-an-unknown-key", "set-seed-is-an-unknown-key", "set-bandwidth-past-the-range", "set-unknown-device-parameter",
        "set-duration", "horizon", "window",
        "window-past-horizon", "jobs", "be-priority-validate", "be-priority-compile", "be-priority-run",
        "processing-delay-run", "drift-run", "set-drift"])
def test_bad_values_are_diagnosed_before_running(
        tmp_path, listing_small, capsys, monkeypatch, edit, argv, code, needle):
    import autonetsim.cli as cli

    def no_runtime(*args, **kwargs):
        raise AssertionError("the simulation was built")

    monkeypatch.setattr(cli, "Runtime", no_runtime)
    src = tmp_path / "small.andl"
    src.write_text(listing_small if edit is None else listing_small.replace(*edit))
    out = tmp_path / "out"
    command, *rest = argv
    args = {
        "validate": [str(src)],
        "compile": [str(src), "-o", str(out)],
        "run": [str(src), "--horizon", "10ms", "--out", str(out)],
    }[command]
    assert main([command, *args, *rest]) == code
    assert needle in capsys.readouterr().err
    assert not out.exists()


def _strip(doc: dict, field: str) -> int:
    """Delete ``field`` from every message, talker entry and rule destination; how many went."""
    entries = [*doc["messages"], *(f for m in doc["messages"] for f in m["eth_talker"]),
               *(d for r in doc["rules"] for d in r["dests"])]
    hits = [entry for entry in entries if field in entry]
    for entry in hits:
        del entry[field]
    return len(hits)


def test_run_rejects_config_without_derived_message_fields(tmp_path, listing_small, capsys):
    src = write_listing(tmp_path, listing_small)
    cfgp = tmp_path / "net.json"
    assert main(["compile", str(src), "-o", str(cfgp)]) == 0
    # "key" of each eth_talker entry and "keys" of each Ethernet destination
    # replaced a "dst"; a document without them would send its frames nowhere.
    for field in ("can_talker", "eth_talker", "can_receivers", "key", "keys"):
        doc = json.loads(cfgp.read_text())
        assert _strip(doc, field)
        old = tmp_path / f"old_{field}.json"
        old.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / f"r_{field}"
        assert main(["run", str(old), "--horizon", "10ms", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert repr(field) in err and "recompile it" in err
        assert not out.exists()


def test_run_rejects_config_with_a_node_linked_twice(tmp_path, listing_small, capsys):
    src = write_listing(tmp_path, listing_small)
    cfgp = tmp_path / "net.json"
    assert main(["compile", str(src), "-o", str(cfgp)]) == 0
    doc = json.loads(cfgp.read_text())
    doc["links"].append({"a": "en1", "b": "en2", "name": "extra", "rate": 100_000_000, "segment": "backbone"})
    cfgp.write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "r"
    assert main(["run", str(cfgp), "--horizon", "10ms", "--out", str(out)]) == 1
    assert "node en1 has a second link; a node has one interface" in capsys.readouterr().err
    assert not out.exists()


def test_run_window_with_completions_off_matches_completions_on(tmp_path, listing_small, capsys):
    src = write_listing(tmp_path, listing_small)

    def windowed_rows(completions):
        out = tmp_path / completions
        assert main(["run", str(src), "--horizon", "10ms", "--window", "1ms:5ms",
                     "--set", f"metrics.completions={completions}", "--out", str(out)]) == 0
        return [line for line in (out / "scalars.csv").read_text().splitlines()
                if ",utilizedBandwidth[1ms:5ms]," in line]

    off = windowed_rows("false")
    assert off and off == windowed_rows("true")
    capsys.readouterr()


SMALL_NETWORK = Path(__file__).resolve().parents[1] / "scenarios" / "small_network.andl"


def _logged_run(tmp_path, monkeypatch, name, *extra):
    """Run small_network.andl to 50ms with every completed frame logged as
    (link, sim.now, wire bits); return the log and the exported scalars."""
    import autonetsim.cli as cli

    log = []

    class LoggingRuntime(cli.Runtime):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            completed = self.store.link_completed

            def logged(link, bits):
                log.append((link, self.sim.now, bits))
                completed(link, bits)

            self.store.link_completed = logged

    monkeypatch.setattr(cli, "Runtime", LoggingRuntime)
    out = tmp_path / name
    assert main(["run", str(SMALL_NETWORK), "--horizon", "50ms", "--format", "structured",
                 "--out", str(out), *extra]) == 0
    return log, json.loads((out / "results.json").read_text())["scalars"]


@pytest.mark.parametrize("case", ["run-window", "completion-ticks", "no-drain"])
def test_windowed_bandwidth_is_the_completion_log_sum(tmp_path, monkeypatch, capsys, case):
    horizon = 50 * MS
    t0, t1 = 0, horizon
    if case == "completion-ticks":
        # The ends fall on completions of different links, so a frame counted
        # on the wrong side of an end cannot cancel against the other end.
        log, _ = _logged_run(tmp_path, monkeypatch, "ticks")
        t0 = sorted(t for link, t, _ in log if link == "cb1")[10]
        t1 = sorted(t for link, t, _ in log if link == "en1->s1" and t < horizon)[-10]
    window = f"{t0}ps:{t1}ps"
    log, scalars = _logged_run(tmp_path, monkeypatch, case, "--window", window,
                               *(["--no-drain"] if case == "no-drain" else []))
    if case == "completion-ticks":
        assert t0 in {t for link, t, _ in log if link == "cb1"}
        assert t1 in {t for link, t, _ in log if link == "en1->s1"}
    if case == "run-window":
        assert any(t > horizon for _, t, _ in log)  # drained frames must not count
    capsys.readouterr()
    links = sorted({link for link, _, _ in log})
    assert "cb1" in links and "en1->s1" in links
    for link in links:
        for name, (a, b) in (("utilizedBandwidth", (0, horizon)), (f"utilizedBandwidth[{window}]", (t0, t1))):
            brute = sum(bits for l, t, bits in log if l == link and a < t <= b) * SEC / (b - a)
            assert float(scalars[f"{link}.{name}"]["value"]) == brute, (link, name)
