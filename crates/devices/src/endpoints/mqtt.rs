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

use std::sync::OnceLock;

use ofh_net::Payload;
use ofh_net::{Agent, ConnToken, NetCtx, SockAddr, TcpDecision, Transport};
use ofh_wire::mqtt::{ConnectReturnCode, Packet};
use ofh_wire::{ports, Protocol};

use super::{catalog_row, row_profiles, ConnList};
use crate::misconfig::Misconfig;
use crate::profiles::DeviceProfile;

/// Retained MQTT topics advertising a profile's identity (Table 11 rows).
fn default_topics(profile: Option<&DeviceProfile>) -> Vec<(String, Vec<u8>)> {
    match profile {
        Some(p) => {
            let id = p.identifier;
            if id.ends_with('/') {
                vec![
                    (format!("{id}device0/state"), b"ok".to_vec()),
                    (format!("{id}device0/config"), b"{}".to_vec()),
                ]
            } else {
                vec![(id.to_string(), b"21.5".to_vec())]
            }
        }
        None => vec![("devices/generic/status".into(), b"up".to_vec())],
    }
}

/// The retained PUBLISH a subscriber receives for `topic`.
fn retained_publish(topic: &str, payload: &[u8]) -> Vec<u8> {
    Packet::Publish {
        topic: topic.to_string(),
        packet_id: None,
        payload: payload.to_vec(),
        qos: 0,
        retain: true,
    }
    .encode()
}

/// One retained topic of a catalog row, with its PUBLISH encoded.
struct Retained {
    topic: String,
    payload: Vec<u8>,
    publish: Box<[u8]>,
}

/// A broker's fixed replies and every catalog row's retained topics
/// ([`catalog_row`]), encoded once per process.
struct Replies {
    /// CONNACK accepting and refusing a CONNECT.
    connack: [Box<[u8]>; 2],
    pingresp: Box<[u8]>,
    topics: Vec<Vec<Retained>>,
}

fn replies() -> &'static Replies {
    static TABLE: OnceLock<Replies> = OnceLock::new();
    TABLE.get_or_init(|| {
        let connack = |return_code| {
            Packet::ConnAck {
                session_present: false,
                return_code,
            }
            .encode()
            .into_boxed_slice()
        };
        Replies {
            connack: [
                connack(ConnectReturnCode::Accepted),
                connack(ConnectReturnCode::NotAuthorized),
            ],
            pingresp: Packet::PingResp.encode().into_boxed_slice(),
            topics: row_profiles()
                .map(|profile| {
                    default_topics(profile)
                        .into_iter()
                        .map(|(topic, payload)| Retained {
                            publish: retained_publish(&topic, &payload).into_boxed_slice(),
                            topic,
                            payload,
                        })
                        .collect()
                })
                .collect(),
        }
    })
}

/// A broker's retained topics: its catalog row's, shared until a client
/// writes one; then (and for a device built outside the catalog) its own
/// list, encoded per subscription.
enum Topics {
    Shared(&'static [Retained]),
    Own(Vec<(String, Vec<u8>)>),
}

/// One client connection's state.
#[derive(Default)]
struct Session {
    authed: bool,
    /// Stream bytes not yet decoded into a packet.
    buf: Vec<u8>,
}

/// A simulated MQTT broker on an IoT device.
pub struct MqttDevice {
    /// `Some(MqttNoAuth)` = open broker; `None` = credentials required.
    pub misconfig: Option<Misconfig>,
    /// Accepted credentials when configured.
    pub credentials: Option<(&'static str, &'static [u8])>,
    /// Ground truth: poisoning writes received.
    pub poison_writes: u64,
    /// `$SYS/#` subscription attempts (the paper's most-targeted topics).
    pub sys_subscriptions: u64,
    /// Retained topic -> payload (seeded from the device profile).
    topics: Topics,
    sessions: ConnList<Session>,
}

impl MqttDevice {
    /// A broker retaining `topics`.
    pub fn new(misconfig: Option<Misconfig>, topics: Vec<(String, Vec<u8>)>) -> Self {
        Self::with_topics(Topics::Own(topics), misconfig)
    }

    /// A broker of the catalog: its retained topics are a shared table row.
    pub(crate) fn cataloged(
        profile: Option<&'static DeviceProfile>,
        misconfig: Option<Misconfig>,
    ) -> Self {
        let topics = match catalog_row(profile) {
            Some(row) => Topics::Shared(&replies().topics[row]),
            None => Topics::Own(default_topics(profile)),
        };
        Self::with_topics(topics, misconfig)
    }

    fn with_topics(topics: Topics, misconfig: Option<Misconfig>) -> Self {
        MqttDevice {
            misconfig,
            credentials: None,
            poison_writes: 0,
            sys_subscriptions: 0,
            topics,
            sessions: ConnList::default(),
        }
    }

    pub fn with_credentials(mut self, user: &'static str, pass: &'static [u8]) -> Self {
        self.credentials = Some((user, pass));
        self
    }

    fn open(&self) -> bool {
        matches!(self.misconfig, Some(Misconfig::MqttNoAuth))
    }

    fn authed(&self, conn: ConnToken) -> bool {
        self.sessions.get(conn).is_some_and(|s| s.authed)
    }

    /// Send the retained message of every topic `filter` matches.
    fn deliver_retained(&self, ctx: &mut NetCtx<'_>, conn: ConnToken, filter: &str) {
        match &self.topics {
            Topics::Shared(rows) => {
                for r in rows.iter().filter(|r| topic_matches(filter, &r.topic)) {
                    ctx.tcp_send(conn, Payload::from_static(&r.publish));
                }
            }
            Topics::Own(list) => {
                for (topic, payload) in list.iter().filter(|(t, _)| topic_matches(filter, t)) {
                    ctx.tcp_send(conn, retained_publish(topic, payload));
                }
            }
        }
    }

    /// Store a client's PUBLISH: the broker takes its own copy of the
    /// topic list on the first write.
    fn retain(&mut self, topic: String, payload: Vec<u8>) {
        if let Topics::Shared(rows) = self.topics {
            let list = rows.iter().map(|r| (r.topic.clone(), r.payload.clone())).collect();
            self.topics = Topics::Own(list);
        }
        let Topics::Own(list) = &mut self.topics else {
            unreachable!("the topic list was just made the broker's own")
        };
        match list.iter_mut().find(|(t, _)| *t == topic) {
            Some((_, existing)) => *existing = payload,
            None => list.push((topic, payload)),
        }
    }

    fn handle(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken, packet: Packet) {
        match packet {
            Packet::Connect {
                username, password, ..
            } => {
                let accept = self.open()
                    || match (self.credentials, username, password) {
                        (Some((u, p)), Some(cu), Some(cp)) => u == cu && p == cp.as_slice(),
                        _ => false,
                    };
                if accept {
                    self.sessions.get_or_default(conn).authed = true;
                }
                let connack = &replies().connack[usize::from(!accept)];
                ctx.tcp_send(conn, Payload::from_static(connack));
            }
            Packet::Subscribe { packet_id, topics } => {
                if !self.authed(conn) {
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
                    self.deliver_retained(ctx, conn, filter);
                }
            }
            Packet::Publish { topic, payload, .. } => {
                if !self.authed(conn) {
                    return;
                }
                self.poison_writes += 1;
                self.retain(topic, payload);
            }
            Packet::PingReq => ctx.tcp_send(conn, Payload::from_static(&replies().pingresp)),
            Packet::Disconnect => {
                if let Some(s) = self.sessions.get_mut(conn) {
                    s.authed = false;
                }
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
        self.sessions.insert(conn, Session::default());
        TcpDecision::accept()
    }

    fn on_tcp_data(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken, data: &Payload) {
        let buf = &mut self.sessions.get_or_default(conn).buf;
        buf.extend_from_slice(data);
        for packet in Packet::drain(buf) {
            self.handle(ctx, conn, packet);
        }
    }

    fn on_tcp_closed(&mut self, _ctx: &mut NetCtx<'_>, conn: ConnToken) {
        self.sessions.remove(conn);
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

    #[test]
    fn shared_replies_match_the_per_packet_encoder() {
        let t = replies();
        for (i, code) in [ConnectReturnCode::Accepted, ConnectReturnCode::NotAuthorized]
            .into_iter()
            .enumerate()
        {
            let want = Packet::ConnAck {
                session_present: false,
                return_code: code,
            };
            assert_eq!(&*t.connack[i], &want.encode()[..]);
        }
        assert_eq!(&*t.pingresp, &Packet::PingResp.encode()[..]);
        for profile in row_profiles() {
            let dev = MqttDevice::cataloged(profile, Some(Misconfig::MqttNoAuth));
            let Topics::Shared(rows) = dev.topics else {
                panic!("a catalog broker owns its topics")
            };
            let want = default_topics(profile);
            assert_eq!(rows.len(), want.len());
            for (r, (topic, payload)) in rows.iter().zip(want) {
                // As every subscription encoded it before the shared table.
                let publish = Packet::Publish {
                    topic: topic.clone(),
                    packet_id: None,
                    payload: payload.clone(),
                    qos: 0,
                    retain: true,
                }
                .encode();
                assert_eq!((&r.topic, &r.payload), (&topic, &payload));
                assert_eq!(&*r.publish, &publish[..], "{topic}");
            }
        }
    }

    #[test]
    fn poisoned_catalog_broker_lists_the_new_topic() {
        let profile = crate::PROFILES
            .iter()
            .find(|p| p.name == "Home Assistant (MQTT)")
            .unwrap();
        let topics_after = |publish: Option<(String, Vec<u8>)>| {
            let dev = MqttDevice::cataloged(Some(profile), Some(Misconfig::MqttNoAuth));
            let mut c = client(SockAddr::new(ip(16, 6, 0, 1), 1883));
            c.publish = publish;
            // The client publishes, then a second connection subscribes.
            let mut net = SimNet::new(SimNetConfig::default());
            let did = net.attach(ip(16, 6, 0, 1), Box::new(dev));
            net.attach(ip(16, 6, 0, 2), Box::new(c));
            net.run_until(SimTime(60_000));
            let mut sub = client(SockAddr::new(ip(16, 6, 0, 1), 1883));
            sub.subscribe = Some("#".into());
            let sid = net.attach(ip(16, 6, 0, 3), Box::new(sub));
            net.run_until(SimTime(120_000));
            let got: Vec<(String, Vec<u8>)> = net
                .agent_downcast::<MqttClient>(sid)
                .unwrap()
                .got
                .iter()
                .filter_map(|p| match p {
                    Packet::Publish { topic, payload, .. } => {
                        Some((topic.clone(), payload.clone()))
                    }
                    _ => None,
                })
                .collect();
            let d = net.agent_downcast::<MqttDevice>(did).unwrap();
            (got, d.poison_writes, matches!(d.topics, Topics::Own(_)))
        };
        let (before, writes, owned) = topics_after(None);
        assert_eq!(before, default_topics(Some(profile)));
        assert_eq!((writes, owned), (0, false), "an unwritten broker copied its topics");

        let (after, writes, owned) =
            topics_after(Some(("homeassistant/light/kitchen".into(), b"pwned".to_vec())));
        let mut want = default_topics(Some(profile));
        want.push(("homeassistant/light/kitchen".into(), b"pwned".to_vec()));
        assert_eq!(after, want);
        assert_eq!((writes, owned), (1, true));

        // A write to a default topic replaces its retained payload.
        let first = default_topics(Some(profile))[0].0.clone();
        let (after, _, _) = topics_after(Some((first.clone(), b"999".to_vec())));
        assert_eq!(after[0], (first, b"999".to_vec()));
        assert_eq!(after.len(), default_topics(Some(profile)).len());
    }
}
