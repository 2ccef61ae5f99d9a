import pytest

# Two-bus CAN + real-time Ethernet backbone scenario used across tests:
# one pooled CAN->CAN message tunneled as TT, one AVB stream between the
# Ethernet nodes.
LISTING_SMALL_NETWORK = """
types std {            //Types can be defined and reused
  ethernetLink ETH {   //Definition for Ethernet link
    bandwidth 100Mb/s; //Link has bandwidth of 100MBit/s
  }
}

network smallNetwork { //network name is smallNetwork
  inline ini {         //Inline ini for special parameters
```
record-eventlog = false
```
  }

  devices {            //Define all devices in the network
    ethernetLink eth1 extends std.ETH; //First Ethernet cable
    canLink cb1;       //First CAN bus
    canLink cb2;       //Second CAN bus
    node cn1;          //First CAN node
    node cn2;          //Second CAN node
    node en1;          //First Ethernet node
    node en2;          //Second Ethernet node
    gateway gw1 {      //Gateway for first CAN bus
      pool gw1_1;      //Pool for Aggregation of CAN frames
    }
    gateway gw2;       //Gateway for second CAN bus
    switch s1;         //Real-time Ethernet Switch
  }

  connections {        //Physical connections (Segments = groups)
    segment backbone { //Ethernet Backbone part
      en1 <--> eth1 <--> s1;          //Ethernet Link
      en2 <--> {new std.ETH} <--> s1; //Ethernet Link
      gw1 <--> {new std.ETH} <--> s1; //Ethernet Link
      gw2 <--> {new std.ETH} <--> s1; //Ethernet Link
    }
    segment canbus {   //CAN bus part (busses share config)
      cn1 <--> cb1;    //CAN node connected to first bus
      gw1 <--> cb1;    //Gateway connected to first bus
      cn2 <--> cb2;    //CAN node connected to second bus
      gw2 <--> cb2;    //Gateway connected to second bus
    }
  }

  communication {      //Communication in the network
    message msg1 {     //First message definition
      sender cn1;      //First CAN node is sender
      receivers cn2;   //Second CAN node is receiver
      payload 6B;      //Message payload is 6 Bytes
      period 1ms;      //1ms cyclic transmission
      mapping {        //mapping to traffic class, id, gw strategy
        canbus: can{id 37;}; //Message ID 37 on CAN
        gw1: pool gw1_1{holdUp 2ms;}; //Aggregation time
        gw2;           //gw2 also responsible for the msg path
        backbone: tt{ctID 102;}; //TT traffic on backbone
      }
    }
    message msg2 {     //Second message definition
      sender en1;      //First Ethernet node is sender
      receivers en2;   //Second Ethernet node is receiver
      payload 500B;    //Message payload is 500 Bytes
      period 125us;    //125us cyclic transmission
      mapping {        //mapping to traffic class
        backbone: avb{id 1;}; //AVB traffic on backbone
      }
    }
  }
}
"""

# Three-switch backbone fragment: lidars and a camera at switch0, the CAN
# gateways and a sync node at switch1, camera/logging/fusion at switch2.
LISTING_BACKBONE_EXTENSION = """
types std {
  ethernetLink ETH100M {
    bandwidth 100Mb/s;
  }
}

network recbarBackbone {
  devices {
    node lid1; node lid2; node cam1; node cam2;
    node ecu1; node log; node fusi;
    node ecu3b0;
    canLink canbus0;
    gateway gateway0;
    switch switch0; switch switch1; switch switch2;
  }

  connections {
    segment backbone {
      lid1 <--> {new std.ETH100M} <--> switch0;
      lid2 <--> {new std.ETH100M} <--> switch0;
      cam1 <--> {new std.ETH100M} <--> switch0;
      switch0 <--> {new std.ETH100M} <--> switch1;
      ecu1 <--> {new std.ETH100M} <--> switch1;
      gateway0 <--> {new std.ETH100M} <--> switch1;
      switch1 <--> {new std.ETH100M} <--> switch2;
      cam2 <--> {new std.ETH100M} <--> switch2;
      log <--> {new std.ETH100M} <--> switch2;
      fusi <--> {new std.ETH100M} <--> switch2;
    }
    segment canbus {
      ecu3b0 <--> canbus0;
      gateway0 <--> canbus0;
    }
  }

  communication {
    message lidar1Stream {
      sender lid1;
      receivers log, fusi;
      payload 1024B;
      period 3ms;
      mapping {
        backbone: rc{vlID 11; bag 1ms;};
      }
    }
    message syncBeat {
      sender ecu1;
      receivers log;
      payload 46B;
      period 10ms;
      mapping {
        backbone: be{priority 5;};
      }
    }
    message wheelTicks {
      sender ecu3b0;
      receivers log;
      payload 8B;
      period 10ms;
      mapping {
        canbus: can{id 77;};
        gateway0;
        backbone: be{priority 3;};
      }
    }
  }
}
"""


def assert_tt_arrivals_in_windows(rt) -> None:
    """Every TT frame reaches each station on its path inside a window of its
    CT on the link into it: at a receiver its deliveries, at a switch or
    gateway the arrivals in its recorded ``rx`` series.  A window ends
    inclusively, and one that ends at the cycle's end holds the arrival at
    the next cycle's start."""
    schedule = rt.cfg.schedule
    checked = 0
    for msg in rt.cfg.messages:
        cts = {b["ct"] for b in msg.bindings.values() if b["kind"] == "tt"}
        for receiver, path in msg.paths.items():
            for hop, station in zip(path, path[1:]):
                windows = [w for w in schedule.windows if w.ct_id in cts and w.link == f"{hop}->{station}"]
                if not windows:
                    continue
                if station == receiver:
                    arrivals = [s.arrival for s in rt.store.latencies[(msg.name, receiver)]]
                else:
                    arrivals = [t for t, _ in rt.store.vectors[(f"{station}.rx[{msg.name}]", "rxLatency")]]
                assert arrivals, (msg.name, hop, station)
                for t in arrivals:
                    cyc = t % schedule.cycle
                    assert any(w.offset <= c <= w.offset + w.duration
                               for w in windows for c in (cyc, cyc + schedule.cycle)), (msg.name, station, t)
                checked += len(arrivals)
    assert checked, "no TT arrival to check"


@pytest.fixture
def listing_small():
    return LISTING_SMALL_NETWORK


@pytest.fixture
def listing_backbone():
    return LISTING_BACKBONE_EXTENSION
