//! MQTT broker device behaviour.
//!
//! A misconfigured broker (`MqttNoAuth`) answers any CONNECT — even without
//! credentials — with CONNACK return code 0, the paper's Table 2 indicator.
//! After connecting, a wildcard SUBSCRIBE is answered with SUBACK followed by
//! the retained messages of every topic ("all the topics and channels on the
//! target host are listed", §3.1.3) — which is also how the ZTag engine
//! recognizes Home Assistant / OctoPrint / HVAC devices from Table 11 topic
//! names. PUBLISHes to a no-auth broker are stored, making the data-poisoning
//! attacks of §5.1.2 observable.

use std::collections::HashMap;

use ofh_net::Payload;
use ofh_net::{Agent, ConnToken, NetCtx, SockAddr, TcpDecision, Transport};
use ofh_wire::mqtt::{ConnectReturnCode, Packet};
use ofh_wire::{ports, Protocol};

use crate::misconfig::Misconfig;

/// A simulated MQTT broker on an IoT device.
pub struct MqttDevice {
    /// `Some(MqttNoAuth)` = open broker; `None` = credentials required.
    pub misconfig: Option<Misconfig>,
    /// Accepted credentials when configured.
    pub credentials: Option<(String, Vec<u8>)>,
    /// Retained topic -> payload (seeded from the device profile).
    pub topics: Vec<(String, Vec<u8>)>,
    /// Ground truth: poisoning writes received.
    pub poison_writes: u64,
    /// `$SYS/#` subscription attempts (the paper's most-targeted topics).
    pub sys_subscriptions: u64,
    authed: HashMap<ConnToken, bool>,
    buffers: HashMap<ConnToken, Vec<u8>>,
}

impl MqttDevice {
    pub fn new(misconfig: Option<Misconfig>, topics: Vec<(String, Vec<u8>)>) -> Self {
        MqttDevice {
            misconfig,
            credentials: None,
            topics,
            poison_writes: 0,
            sys_subscriptions: 0,
            authed: HashMap::new(),
            buffers: HashMap::new(),
        }
    }

    pub fn with_credentials(mut self, user: &str, pass: &[u8]) -> Self {
        self.credentials = Some((user.to_string(), pass.to_vec()));
        self
    }

    fn open(&self) -> bool {
        matches!(self.misconfig, Some(Misconfig::MqttNoAuth))
    }

    fn handle(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken, packet: Packet) {
        match packet {
            Packet::Connect {
                username, password, ..
            } => {
                let accept = self.open()
                    || match (&self.credentials, username, password) {
                        (Some((u, p)), Some(cu), Some(cp)) => *u == cu && *p == cp,
                        _ => false,
                    };
                let code = if accept {
                    self.authed.insert(conn, true);
                    ConnectReturnCode::Accepted
                } else {
                    ConnectReturnCode::NotAuthorized
                };
                ctx.tcp_send(
                    conn,
                    Packet::ConnAck {
                        session_present: false,
                        return_code: code,
                    }
                    .encode(),
                );
            }
            Packet::Subscribe { packet_id, topics } => {
                if !self.authed.get(&conn).copied().unwrap_or(false) {
                    return;
                }
                if topics.iter().any(|(t, _)| t.starts_with("$SYS")) {
                    self.sys_subscriptions += 1;
                }
                ctx.tcp_send(
                    conn,
                    Packet::SubAck {
                        packet_id,
                        return_codes: vec![0; topics.len().max(1)],
                    }
                    .encode(),
                );
                // Deliver retained messages for matching filters.
                for (filter, _) in &topics {
                    for (topic, payload) in &self.topics {
                        if topic_matches(filter, topic) {
                            ctx.tcp_send(
                                conn,
                                Packet::Publish {
                                    topic: topic.clone(),
                                    packet_id: None,
                                    payload: payload.clone(),
                                    qos: 0,
                                    retain: true,
                                }
                                .encode(),
                            );
                        }
                    }
                }
            }
            Packet::Publish { topic, payload, .. } => {
                if !self.authed.get(&conn).copied().unwrap_or(false) {
                    return;
                }
                self.poison_writes += 1;
                match self.topics.iter_mut().find(|(t, _)| *t == topic) {
                    Some((_, existing)) => *existing = payload,
                    None => self.topics.push((topic, payload)),
                }
            }
            Packet::PingReq => ctx.tcp_send(conn, Packet::PingResp.encode()),
            Packet::Disconnect => {
                self.authed.remove(&conn);
            }
            _ => {}
        }
    }
}

/// MQTT topic-filter matching (`#` multi-level, `+` single-level).
pub fn topic_matches(filter: &str, topic: &str) -> bool {
    let mut f = filter.split('/');
    let mut t = topic.split('/');
    loop {
        match (f.next(), t.next()) {
            (Some("#"), _) => return true,
            (Some("+"), Some(_)) => continue,
            (Some(fs), Some(ts)) if fs == ts => continue,
            (None, None) => return true,
            _ => return false,
        }
    }
}

impl Agent for MqttDevice {
    fn on_tcp_open(
        &mut self,
        _ctx: &mut NetCtx<'_>,
        conn: ConnToken,
        local_port: u16,
        _peer: SockAddr,
    ) -> TcpDecision {
        if !super::serves(Protocol::Mqtt, ports::MQTT, Transport::Tcp, local_port) {
            return TcpDecision::Refuse;
        }
        self.authed.insert(conn, false);
        TcpDecision::accept()
    }

    fn on_tcp_data(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken, data: &Payload) {
        let buf = self.buffers.entry(conn).or_default();
        buf.extend_from_slice(data);
        for packet in Packet::drain(buf) {
            self.handle(ctx, conn, packet);
        }
    }

    fn on_tcp_closed(&mut self, _ctx: &mut NetCtx<'_>, conn: ConnToken) {
        self.authed.remove(&conn);
        self.buffers.remove(&conn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofh_net::{ip, SimNet, SimNetConfig, SimTime};

    /// A client that connects, optionally subscribes, publishes, and records
    /// decoded packets.
    struct MqttClient {
        dst: SockAddr,
        creds: Option<(String, Vec<u8>)>,
        subscribe: Option<String>,
        publish: Option<(String, Vec<u8>)>,
        got: Vec<Packet>,
        buf: Vec<u8>,
    }

    impl Agent for MqttClient {
        fn on_boot(&mut self, ctx: &mut NetCtx<'_>) {
            ctx.tcp_connect(self.dst);
        }
        fn on_tcp_established(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken) {
            ctx.tcp_send(
                conn,
                Packet::Connect {
                    client_id: "probe".into(),
                    username: self.creds.as_ref().map(|(u, _)| u.clone()),
                    password: self.creds.as_ref().map(|(_, p)| p.clone()),
                    keep_alive: 60,
                    clean_session: true,
                }
                .encode(),
            );
        }
        fn on_tcp_data(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken, data: &Payload) {
            self.buf.extend_from_slice(data);
            for p in Packet::drain(&mut self.buf) {
                if matches!(
                    p,
                    Packet::ConnAck {
                        return_code: ConnectReturnCode::Accepted,
                        ..
                    }
                ) {
                    if let Some(filter) = self.subscribe.take() {
                        ctx.tcp_send(
                            conn,
                            Packet::Subscribe {
                                packet_id: 1,
                                topics: vec![(filter, 0)],
                            }
                            .encode(),
                        );
                    }
                    if let Some((topic, payload)) = self.publish.take() {
                        ctx.tcp_send(
                            conn,
                            Packet::Publish {
                                topic,
                                packet_id: None,
                                payload,
                                qos: 0,
                                retain: false,
                            }
                            .encode(),
                        );
                    }
                }
                self.got.push(p);
            }
        }
    }

    fn run(device: MqttDevice, client: MqttClient) -> (Vec<Packet>, u64, u64) {
        let mut net = SimNet::new(SimNetConfig::default());
        let daddr = ip(16, 6, 0, 1);
        let did = net.attach(daddr, Box::new(device));
        let cid = net.attach(ip(16, 6, 0, 2), Box::new(client));
        net.run_until(SimTime(60_000));
        let got = net.agent_downcast::<MqttClient>(cid).unwrap().got.clone();
        let d = net.agent_downcast::<MqttDevice>(did).unwrap();
        (got, d.poison_writes, d.sys_subscriptions)
    }

    fn client(dst: SockAddr) -> MqttClient {
        MqttClient {
            dst,
            creds: None,
            subscribe: None,
            publish: None,
            got: Vec::new(),
            buf: Vec::new(),
        }
    }

    #[test]
    fn open_broker_returns_code_zero() {
        let dev = MqttDevice::new(Some(Misconfig::MqttNoAuth), vec![]);
        let (got, _, _) = run(dev, client(SockAddr::new(ip(16, 6, 0, 1), 1883)));
        assert!(matches!(
            got[0],
            Packet::ConnAck {
                return_code: ConnectReturnCode::Accepted,
                ..
            }
        ));
    }

    #[test]
    fn configured_broker_rejects_anonymous() {
        let dev = MqttDevice::new(None, vec![]).with_credentials("iot", b"s3cret");
        let (got, _, _) = run(dev, client(SockAddr::new(ip(16, 6, 0, 1), 1883)));
        assert!(matches!(
            got[0],
            Packet::ConnAck {
                return_code: ConnectReturnCode::NotAuthorized,
                ..
            }
        ));
    }

    #[test]
    fn wildcard_subscribe_lists_topics() {
        let dev = MqttDevice::new(
            Some(Misconfig::MqttNoAuth),
            vec![
                ("homeassistant/light/state".into(), b"on".to_vec()),
                ("octoPrint/temperature/bed".into(), b"60".to_vec()),
            ],
        );
        let mut c = client(SockAddr::new(ip(16, 6, 0, 1), 1883));
        c.subscribe = Some("#".into());
        let (got, _, _) = run(dev, c);
        let topics: Vec<String> = got
            .iter()
            .filter_map(|p| match p {
                Packet::Publish { topic, .. } => Some(topic.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(topics.len(), 2);
        assert!(topics.iter().any(|t| t.starts_with("homeassistant/")));
    }

    #[test]
    fn publish_poisons_topic() {
        let dev = MqttDevice::new(
            Some(Misconfig::MqttNoAuth),
            vec![("sensors/temp".into(), b"21".to_vec())],
        );
        let mut c = client(SockAddr::new(ip(16, 6, 0, 1), 1883));
        c.publish = Some(("sensors/temp".into(), b"999".to_vec()));
        let (_, poison_writes, _) = run(dev, c);
        assert_eq!(poison_writes, 1);
    }

    #[test]
    fn sys_topic_subscriptions_counted() {
        let dev = MqttDevice::new(Some(Misconfig::MqttNoAuth), vec![]);
        let mut c = client(SockAddr::new(ip(16, 6, 0, 1), 1883));
        c.subscribe = Some("$SYS/#".into());
        let (_, _, sys) = run(dev, c);
        assert_eq!(sys, 1);
    }

    #[test]
    fn topic_filter_semantics() {
        assert!(topic_matches("#", "a/b/c"));
        assert!(topic_matches("a/+/c", "a/b/c"));
        assert!(topic_matches("a/b/c", "a/b/c"));
        assert!(!topic_matches("a/+/c", "a/b/d"));
        assert!(!topic_matches("a/b", "a/b/c"));
        assert!(topic_matches("a/#", "a/b/c"));
        assert!(!topic_matches("b/#", "a/b"));
    }
}
