//! # ofh-net — deterministic discrete-event Internet simulator
//!
//! This crate is the substrate for the `openforhire` reproduction of the IMC '21
//! paper *"Open for hire: attack trends and misconfiguration pitfalls of IoT
//! devices"*. The paper's experiments (an Internet-wide IPv4 scan, a month-long
//! honeypot deployment, and a /8 network-telescope capture) all operate on the real
//! Internet, which is not reproducible. `ofh-net` provides the closest synthetic
//! equivalent: a **deterministic, event-driven simulation** of a (scaled) IPv4
//! address space in which hosts exchange real protocol bytes.
//!
//! Design notes (following the smoltcp school of event-driven network code):
//!
//! * **No wall clock, no ambient randomness.** Time is a simulated millisecond
//!   counter ([`SimTime`]) starting at the simulation epoch (2021-03-01T00:00Z,
//!   the first scan day of the paper). All randomness flows from seeds derived
//!   via [`rng::derive_seed`]. The same seed always produces the same packet
//!   trace, which is what makes the reproduction's tables reproducible.
//! * **Session-level transport.** TCP is modelled as a reliable, ordered,
//!   connection-oriented byte stream with an explicit lifecycle
//!   (connect/accept/refuse/data/close) plus latency and loss; UDP as unreliable
//!   datagrams. Sequence numbers and retransmission are below the abstraction
//!   line — the paper's pipelines only ever observe banners, payloads, and flow
//!   metadata, all of which are delivered faithfully.
//! * **Sparse occupancy.** The simulated Internet may span 2^32 addresses, but
//!   only occupied addresses carry agents; probes to empty space cost one heap
//!   event. A flow tap can be attached to a CIDR range of *unoccupied* space,
//!   which is exactly how the paper's /8 network telescope works.
//!
//! The crate deliberately contains no IoT/scanning logic: it knows about
//! addresses, time, packets, sessions, faults, and agents — nothing else.
//!
//! ```
//! use ofh_net::{ip, Agent, ConnToken, NetCtx, Payload, SimNet, SimNetConfig, SimTime, SockAddr, TcpDecision};
//!
//! struct Greeter;
//! impl Agent for Greeter {
//!     fn on_tcp_open(&mut self, _: &mut NetCtx<'_>, _: ConnToken, _: u16, _: SockAddr) -> TcpDecision {
//!         TcpDecision::accept_with(b"hello, world")
//!     }
//! }
//!
//! struct Caller { dst: SockAddr, got: Vec<u8> }
//! impl Agent for Caller {
//!     fn on_boot(&mut self, ctx: &mut NetCtx<'_>) { ctx.tcp_connect(self.dst); }
//!     fn on_tcp_data(&mut self, _: &mut NetCtx<'_>, _: ConnToken, data: &Payload) {
//!         self.got.extend_from_slice(data);
//!     }
//! }
//!
//! let mut net = SimNet::new(SimNetConfig::default());
//! let server = ip(10, 0, 0, 1);
//! net.attach(server, Box::new(Greeter));
//! let caller = net.attach(ip(10, 0, 0, 2), Box::new(Caller {
//!     dst: SockAddr::new(server, 23),
//!     got: Vec::new(),
//! }));
//! net.run_until(SimTime(5_000));
//! assert_eq!(net.agent_downcast::<Caller>(caller).unwrap().got, b"hello, world");
//! ```

pub mod addr;
pub mod agent;
pub mod cidr;
pub mod event;
pub mod fasthash;
pub mod fault;
pub mod packet;
pub mod rng;
pub mod shard;
pub mod sim;
pub mod slab;
pub mod time;
pub mod wheel;

pub use addr::{ip, ipu, SockAddr};
pub use agent::{Agent, AgentId, ConnToken, NetCtx, TcpDecision};
pub use event::{EventQueue, HeapQueue};
pub use cidr::{Cidr, CidrSet};
pub use fasthash::{FastMap, FastSet};
pub use fault::{churn_dark, Direction, FaultPhase, FaultPlan, FaultSchedule, FaultScope, Ramp};
pub use packet::{FlowKind, FlowObservation, Payload, Transport};
pub use shard::{shard_of, ShardSpec, MAX_SHARDS};
pub use sim::{EgressStats, HostSpawner, LatencyModel, SimNet, SimNetConfig};
pub use slab::Slab;
pub use time::{SimDate, SimDuration, SimTime, SIM_EPOCH_DATE};
pub use wheel::TimerWheel;
