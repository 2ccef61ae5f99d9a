"""autonetsim: deterministic simulation of mixed-critical automotive networks.

CAN buses, real-time Ethernet traffic classes (time-triggered,
rate-constrained, AVB credit-based shaping, best effort), and
CAN<->Ethernet gateways with message aggregation, driven by a
domain-specific network description language.
"""

from .kernel import (
    MS, NS, PS, SEC, US, Event, EventKind, Oscillator, RunSummary,
    SchedulingInPast, SimTimeOverflow, Simulator, fmt_duration,
    parse_byte_count, parse_duration, parse_rate,
)
from .can import CanBus, CanFrame, can_frame_duration, can_wire_bits
from .ethernet import (
    AVB, BE, RC, TT, CreditState, EthFrame, EthPort, PayloadOutOfRange, Switch,
    TdmaWindow, check_reservation_cap, eth_frame_duration, eth_wire_bits,
)
from .gateway import (
    CanRecord, Gateway, Pool, RouteDest, aggregate_len, compute_holdup, split_records,
)
from .metrics import LatencySample, MetricStore, RecordingFlags
from .config import NetworkConfig, apply_override
from .engine import Runtime
from . import andl

__version__ = "0.1.0"
