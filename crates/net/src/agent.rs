//! The agent model: everything attached to the simulated Internet — IoT
//! devices, honeypots, scanners, botnets, scanning services — implements
//! [`Agent`] and reacts to network events through a [`NetCtx`].
//!
//! The callback style mirrors event-driven network stacks: the simulator owns
//! the event loop; agents are state machines that receive connection
//! lifecycle events, datagrams, and timers, and issue new traffic through the
//! context handle. Agents must not block or sleep — to wait, set a timer.

use std::any::Any;
use std::net::Ipv4Addr;

use rand::rngs::StdRng;

use crate::addr::SockAddr;
use crate::packet::Payload;
use crate::sim::Fabric;
use crate::time::{SimDuration, SimTime};

/// Identifier of an agent attached to the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AgentId(pub u32);

/// Identifier of a TCP connection, shared by both endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnToken(pub u64);

/// A server's verdict on an inbound TCP connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcpDecision {
    /// Accept the connection, optionally sending a greeting (banner) as the
    /// first bytes on the wire — Telnet prompts, AMQP `Connection.Start`,
    /// SSH identification strings all arrive this way.
    Accept { greeting: Option<Payload> },
    /// Refuse (RST). The initiator sees `on_tcp_refused`.
    Refuse,
}

impl TcpDecision {
    /// Accept without a greeting.
    pub fn accept() -> Self {
        TcpDecision::Accept { greeting: None }
    }

    /// Accept and greet with `banner`. Static byte strings (`b"login: "`)
    /// convert without copying; owned `Vec`s/`String`s without reallocating.
    pub fn accept_with(banner: impl Into<Payload>) -> Self {
        TcpDecision::Accept {
            greeting: Some(banner.into()),
        }
    }
}

/// Behaviour of a simulated host. All methods have no-op defaults; implement
/// the ones the host cares about.
///
/// `Any` is a supertrait so experiments can recover concrete agent state
/// (collected logs, scan results) from the simulator after a run via
/// [`crate::sim::SimNet::agent_downcast_mut`].
pub trait Agent: Any {
    /// Called once when the agent is attached to the network.
    fn on_boot(&mut self, ctx: &mut NetCtx<'_>) {
        let _ = ctx;
    }

    /// Inbound TCP connection request to `local_port` from `peer`.
    /// Default: refuse everything.
    fn on_tcp_open(
        &mut self,
        ctx: &mut NetCtx<'_>,
        conn: ConnToken,
        local_port: u16,
        peer: SockAddr,
    ) -> TcpDecision {
        let _ = (ctx, conn, local_port, peer);
        TcpDecision::Refuse
    }

    /// An outbound connection this agent initiated is now established.
    fn on_tcp_established(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken) {
        let _ = (ctx, conn);
    }

    /// An outbound connection was refused (RST — host up, port closed).
    fn on_tcp_refused(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken) {
        let _ = (ctx, conn);
    }

    /// An outbound connection timed out (no host, or the SYN/SYN-ACK was lost).
    fn on_tcp_timeout(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken) {
        let _ = (ctx, conn);
    }

    /// Bytes arrived on an established connection (either side). The
    /// [`Payload`] derefs to `&[u8]`; clone it (a refcount bump) to keep the
    /// bytes beyond the callback without copying.
    fn on_tcp_data(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken, data: &Payload) {
        let _ = (ctx, conn, data);
    }

    /// The peer closed the connection. An agent that closes a connection
    /// itself ([`NetCtx::tcp_close`]) gets no callback for it, so it drops
    /// its own per-connection state when it closes.
    fn on_tcp_closed(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken) {
        let _ = (ctx, conn);
    }

    /// The connection was torn down by the network (an injected reset or a
    /// blackout), not by the peer. Delivered to *both* ends. Defaults to
    /// [`Self::on_tcp_closed`] — for most agents a reset is just an abrupt
    /// close; resilient clients (the scanner's grab retry path) override it.
    fn on_tcp_reset(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken) {
        self.on_tcp_closed(ctx, conn);
    }

    /// A UDP datagram arrived at `local_port`.
    fn on_udp(&mut self, ctx: &mut NetCtx<'_>, local_port: u16, peer: SockAddr, payload: &Payload) {
        let _ = (ctx, local_port, peer, payload);
    }

    /// A timer set with [`NetCtx::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut NetCtx<'_>, token: u64) {
        let _ = (ctx, token);
    }
}

/// Handle through which an agent interacts with the network fabric during a
/// callback. Borrowed for the duration of one callback only — agents never
/// store it.
pub struct NetCtx<'a> {
    pub(crate) fabric: &'a mut Fabric,
    pub(crate) me: AgentId,
    pub(crate) my_addr: Ipv4Addr,
}

impl<'a> NetCtx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.fabric.now()
    }

    /// This agent's address.
    pub fn my_addr(&self) -> Ipv4Addr {
        self.my_addr
    }

    /// The fabric-level deterministic RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.fabric.rng
    }

    /// Initiate a TCP connection to `dst` from an ephemeral source port.
    /// The outcome arrives later via `on_tcp_established` / `on_tcp_refused` /
    /// `on_tcp_timeout`.
    pub fn tcp_connect(&mut self, dst: SockAddr) -> ConnToken {
        let sport = self.fabric.next_ephemeral_port();
        self.fabric.tcp_connect(self.me, self.my_addr, sport, dst, 0)
    }

    /// Like [`Self::tcp_connect`], attaching an opaque `tag` retrievable via
    /// [`Self::conn_tag`] for the connection's lifetime. High-volume
    /// initiators (scanners) use the tag to recover per-probe context on
    /// `on_tcp_established` instead of maintaining a side table for every
    /// probe into mostly-empty space.
    pub fn tcp_connect_tagged(&mut self, dst: SockAddr, tag: u64) -> ConnToken {
        let sport = self.fabric.next_ephemeral_port();
        self.fabric.tcp_connect(self.me, self.my_addr, sport, dst, tag)
    }

    /// Send a probe SYN to `dst` from an ephemeral port, ZMap-style: the
    /// caller treats a refusal or a timeout as "nothing there" and ignores
    /// those callbacks. A probe that connects behaves exactly like
    /// [`Self::tcp_connect_tagged`] (the tag and peer are on the
    /// connection). With no fault schedule, a probe into unoccupied space or
    /// to a port an implicit host does not serve is stateless: the fabric
    /// counts its timeout or refusal at once and may deliver no callback
    /// for it at all, hence no token. The taps see the SYN either way.
    pub fn tcp_probe_tagged(&mut self, dst: SockAddr, tag: u64) {
        let sport = self.fabric.next_ephemeral_port();
        self.fabric
            .tcp_probe(self.me, self.my_addr, sport, dst, tag);
    }

    /// The tag attached at connect time (`None` once the connection is gone).
    pub fn conn_tag(&self, conn: ConnToken) -> Option<u64> {
        self.fabric.conn_tag(conn)
    }

    /// The remote (server-side) socket address of a live connection this
    /// agent initiated.
    pub fn conn_peer(&self, conn: ConnToken) -> Option<SockAddr> {
        self.fabric.conn_peer(conn)
    }

    /// Send bytes on a connection this agent participates in. Accepts
    /// anything convertible to [`Payload`]: static byte strings travel
    /// pointer-only, owned buffers are shared, not copied.
    pub fn tcp_send(&mut self, conn: ConnToken, data: impl Into<Payload>) {
        self.fabric.tcp_send(self.me, conn, data.into());
    }

    /// Close a connection. The peer receives `on_tcp_closed`; the closing
    /// agent gets no callback, so it drops its own state for `conn` now.
    pub fn tcp_close(&mut self, conn: ConnToken) {
        self.fabric.tcp_close(self.me, conn);
    }

    /// Send a UDP datagram from `src_port` to `dst`.
    pub fn udp_send(&mut self, src_port: u16, dst: SockAddr, payload: impl Into<Payload>) {
        let src = SockAddr::new(self.my_addr, src_port);
        self.fabric.udp_send(self.me, src, dst, payload.into(), false);
    }

    /// Send a UDP datagram with a **spoofed source address** — the reflection
    /// attack primitive: any reply goes to the claimed source (the victim),
    /// and telescope taps record the claimed source with `spoofed = true`.
    pub fn udp_send_spoofed(
        &mut self,
        claimed_src: SockAddr,
        dst: SockAddr,
        payload: impl Into<Payload>,
    ) {
        self.fabric.udp_send(self.me, claimed_src, dst, payload.into(), true);
    }

    /// Schedule `on_timer(token)` after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.fabric.set_timer(self.me, delay, token);
    }

    /// Start recording the ids of connections opened through this context.
    /// Composite agents (an infected device hosting a bot) wrap a nested
    /// callback in a capture to attribute the connections it opened to the
    /// right sub-agent. Captures do not nest.
    pub fn begin_conn_capture(&mut self) {
        self.fabric.begin_conn_capture();
    }

    /// Stop recording and return the connections opened since
    /// [`Self::begin_conn_capture`].
    pub fn end_conn_capture(&mut self) -> Vec<ConnToken> {
        self.fabric
            .end_conn_capture()
            .into_iter()
            .map(ConnToken)
            .collect()
    }

    /// Set the initial IP TTL for packets this agent sends (default 64).
    /// Different OS stacks use different initial TTLs (Linux 64, Windows 128,
    /// many embedded stacks 255); the telescope records the decremented value.
    pub fn set_initial_ttl(&mut self, ttl: u8) {
        self.fabric.set_ttl(self.me, ttl);
    }

    /// Set the advertised TCP window used in this agent's SYNs (default
    /// 65535). Scanning tools are identifiable by this value (masscan: 1024).
    pub fn set_syn_window(&mut self, window: u16) {
        self.fabric.set_window(self.me, window);
    }
}
