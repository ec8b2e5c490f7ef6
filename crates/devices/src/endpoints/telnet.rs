//! Telnet device behaviour.
//!
//! Three postures, matching the Table 2 indicators:
//!
//! * **No auth, root console** (`TelnetNoAuthRoot`): connecting immediately
//!   yields `root@<host>:~$` — the paper's strongest misconfiguration.
//! * **No auth, console** (`TelnetNoAuth`): immediate `$ ` prompt.
//! * **Configured**: a `login:` prompt; a username/password exchange follows,
//!   accepted only if it matches the device's (possibly default) credentials.
//!   Devices with Table 12 default credentials are what brute-forcing bots
//!   actually break into.

use ofh_net::Payload;
use ofh_net::{Agent, ConnToken, NetCtx, SockAddr, TcpDecision, Transport};
use ofh_wire::telnet::{negotiate, option, Verb};
use ofh_wire::Protocol;

use crate::misconfig::Misconfig;

/// Login-exchange state for one connection.
#[derive(Debug, Clone, PartialEq, Eq)]
enum LoginState {
    AwaitingUser,
    AwaitingPassword { username: String },
    LoggedIn,
}

/// A simulated Telnet-exposed IoT device.
pub struct TelnetDevice {
    /// The device's identifying banner line (Table 11), e.g.
    /// `PK5001Z login:` — sent before the prompt.
    pub banner: String,
    /// Security posture; `None` = authenticated access only.
    pub misconfig: Option<Misconfig>,
    /// Credentials the login accepts (default credentials on weak devices).
    pub credentials: Option<(String, String)>,
    /// Listening port (23, or 2323 for the alternate-port population that
    /// explains the ZMap-vs-Sonar delta in Table 4).
    pub port: u16,
    /// Hostname used in shell prompts.
    pub hostname: String,
    /// Ground truth: successful logins observed (bot infections land here).
    pub successful_logins: u64,
    /// Shell commands received after login (dropper activity).
    pub commands_seen: Vec<String>,
    sessions: std::collections::HashMap<ConnToken, LoginState>,
}

impl TelnetDevice {
    pub fn new(banner: impl Into<String>, misconfig: Option<Misconfig>, port: u16) -> Self {
        TelnetDevice {
            banner: banner.into(),
            misconfig,
            credentials: None,
            port,
            hostname: "device".into(),
            successful_logins: 0,
            commands_seen: Vec::new(),
            sessions: std::collections::HashMap::new(),
        }
    }

    pub fn with_credentials(mut self, user: &str, pass: &str) -> Self {
        self.credentials = Some((user.to_string(), pass.to_string()));
        self
    }

    fn prompt(&self) -> String {
        match self.misconfig {
            Some(Misconfig::TelnetNoAuthRoot) => format!("root@{}:~$ ", self.hostname),
            Some(Misconfig::TelnetNoAuth) => "$ ".to_string(),
            _ => "login: ".to_string(),
        }
    }

    fn greeting(&self) -> Vec<u8> {
        let mut g = Vec::new();
        // Typical embedded telnetd negotiation prefix.
        g.extend_from_slice(&negotiate(Verb::Will, option::ECHO));
        g.extend_from_slice(&negotiate(Verb::Will, option::SUPPRESS_GO_AHEAD));
        g.extend_from_slice(self.banner.as_bytes());
        g.extend_from_slice(b"\r\n");
        g.extend_from_slice(self.prompt().as_bytes());
        g
    }
}

impl Agent for TelnetDevice {
    fn on_tcp_open(
        &mut self,
        _ctx: &mut NetCtx<'_>,
        conn: ConnToken,
        local_port: u16,
        _peer: SockAddr,
    ) -> TcpDecision {
        if !super::serves(Protocol::Telnet, self.port, Transport::Tcp, local_port) {
            return TcpDecision::Refuse;
        }
        let state = if self.misconfig.is_some() && self.misconfig != Some(Misconfig::TelnetNoAuth) {
            LoginState::LoggedIn
        } else if matches!(self.misconfig, Some(Misconfig::TelnetNoAuth)) {
            LoginState::LoggedIn
        } else {
            LoginState::AwaitingUser
        };
        self.sessions.insert(conn, state);
        TcpDecision::accept_with(self.greeting())
    }

    fn on_tcp_data(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken, data: &Payload) {
        let text = String::from_utf8_lossy(&ofh_wire::telnet::visible_text(data))
            .trim()
            .to_string();
        let Some(state) = self.sessions.get(&conn).cloned() else {
            return;
        };
        match state {
            LoginState::LoggedIn => {
                if text.is_empty() {
                    ctx.tcp_send(conn, self.prompt());
                } else {
                    // Real shells react to input (here: a busybox-style
                    // error echoing the command). This response *deviation*
                    // is what separates devices from static-banner honeypots
                    // during active fingerprinting (Vetterl et al.).
                    let reply = format!("sh: {}: not found\r\n{}", text, self.prompt());
                    self.commands_seen.push(text);
                    ctx.tcp_send(conn, reply);
                }
            }
            LoginState::AwaitingUser => {
                self.sessions
                    .insert(conn, LoginState::AwaitingPassword { username: text });
                ctx.tcp_send(conn, "Password: ");
            }
            LoginState::AwaitingPassword { username } => {
                let ok = self
                    .credentials
                    .as_ref()
                    .is_some_and(|(u, p)| *u == username && *p == text);
                if ok {
                    self.successful_logins += 1;
                    self.sessions.insert(conn, LoginState::LoggedIn);
                    ctx.tcp_send(conn, format!("Welcome\r\n{}@{}:~$ ", username, self.hostname));
                } else {
                    self.sessions.insert(conn, LoginState::AwaitingUser);
                    ctx.tcp_send(conn, "Login incorrect\r\nlogin: ");
                }
            }
        }
    }

    fn on_tcp_closed(&mut self, _ctx: &mut NetCtx<'_>, conn: ConnToken) {
        self.sessions.remove(&conn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofh_net::{ip, SimNet, SimNetConfig, SimTime};

    /// Test client that performs a scripted exchange and records output.
    struct Script {
        dst: SockAddr,
        sends: Vec<Vec<u8>>,
        received: Vec<u8>,
        next: usize,
    }

    impl Script {
        fn new(dst: SockAddr, sends: Vec<Vec<u8>>) -> Self {
            Script {
                dst,
                sends,
                received: Vec::new(),
                next: 0,
            }
        }
    }

    impl Agent for Script {
        fn on_boot(&mut self, ctx: &mut NetCtx<'_>) {
            ctx.tcp_connect(self.dst);
        }
        fn on_tcp_data(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken, data: &Payload) {
            self.received.extend_from_slice(data);
            if self.next < self.sends.len() {
                let msg = self.sends[self.next].clone();
                self.next += 1;
                ctx.tcp_send(conn, msg);
            }
        }
    }

    fn run(device: TelnetDevice, sends: Vec<Vec<u8>>) -> (TelnetDevice, Vec<u8>) {
        let mut net = SimNet::new(SimNetConfig::default());
        let daddr = ip(16, 5, 0, 1);
        let did = net.attach(daddr, Box::new(device));
        let cid = net.attach(
            ip(16, 5, 0, 2),
            Box::new(Script::new(SockAddr::new(daddr, 23), sends)),
        );
        net.run_until(SimTime(120_000));
        let received = net.agent_downcast::<Script>(cid).unwrap().received.clone();
        // Move the device out by re-downcasting (clone the interesting bits).
        let d = net.agent_downcast_mut::<TelnetDevice>(did).unwrap();
        let device = TelnetDevice {
            banner: d.banner.clone(),
            misconfig: d.misconfig,
            credentials: d.credentials.clone(),
            port: d.port,
            hostname: d.hostname.clone(),
            successful_logins: d.successful_logins,
            commands_seen: d.commands_seen.clone(),
            sessions: Default::default(),
        };
        (device, received)
    }

    #[test]
    fn root_console_banner_matches_table2() {
        let dev = TelnetDevice::new("PK5001Z login:", Some(Misconfig::TelnetNoAuthRoot), 23);
        let (_, received) = run(dev, vec![]);
        let text = String::from_utf8_lossy(&ofh_wire::telnet::visible_text(&received)).to_string();
        assert!(text.contains("PK5001Z login:"));
        assert!(text.contains("root@device:~$"), "got {text:?}");
    }

    #[test]
    fn noauth_console_shows_dollar_prompt() {
        let dev = TelnetDevice::new("BusyBox v1.19", Some(Misconfig::TelnetNoAuth), 23);
        let (_, received) = run(dev, vec![]);
        let text = String::from_utf8_lossy(&ofh_wire::telnet::visible_text(&received)).to_string();
        assert!(text.ends_with("$ "), "got {text:?}");
        assert!(!text.contains("root@"));
    }

    #[test]
    fn configured_device_requires_login() {
        let dev = TelnetDevice::new("192.168.0.64 login:", None, 23)
            .with_credentials("admin", "admin");
        let (dev, received) =
            run(dev, vec![b"admin".to_vec(), b"admin".to_vec(), b"ls".to_vec()]);
        let text = String::from_utf8_lossy(&ofh_wire::telnet::visible_text(&received)).to_string();
        assert!(text.contains("Password: "));
        assert!(text.contains("Welcome"));
        assert_eq!(dev.successful_logins, 1);
        assert_eq!(dev.commands_seen, vec!["ls".to_string()]);
    }

    #[test]
    fn wrong_credentials_rejected() {
        let dev = TelnetDevice::new("login:", None, 23).with_credentials("admin", "secret");
        let (dev, received) = run(dev, vec![b"admin".to_vec(), b"admin".to_vec()]);
        let text = String::from_utf8_lossy(&ofh_wire::telnet::visible_text(&received)).to_string();
        assert!(text.contains("Login incorrect"));
        assert_eq!(dev.successful_logins, 0);
    }

    #[test]
    fn other_ports_refused() {
        struct Probe {
            dst: SockAddr,
            refused: bool,
        }
        impl Agent for Probe {
            fn on_boot(&mut self, ctx: &mut NetCtx<'_>) {
                ctx.tcp_connect(self.dst);
            }
            fn on_tcp_refused(&mut self, _c: &mut NetCtx<'_>, _conn: ConnToken) {
                self.refused = true;
            }
        }
        let mut net = SimNet::new(SimNetConfig::default());
        let daddr = ip(16, 5, 0, 1);
        net.attach(
            daddr,
            Box::new(TelnetDevice::new("x", Some(Misconfig::TelnetNoAuth), 23)),
        );
        let pid = net.attach(
            ip(16, 5, 0, 2),
            Box::new(Probe {
                dst: SockAddr::new(daddr, 8080),
                refused: false,
            }),
        );
        net.run_until(SimTime(30_000));
        assert!(net.agent_downcast::<Probe>(pid).unwrap().refused);
    }

    #[test]
    fn alternate_port_2323_served() {
        let mut dev = TelnetDevice::new("x", Some(Misconfig::TelnetNoAuth), 2323);
        dev.hostname = "cam".into();
        let mut net = SimNet::new(SimNetConfig::default());
        let daddr = ip(16, 5, 0, 1);
        net.attach(daddr, Box::new(dev));
        let cid = net.attach(
            ip(16, 5, 0, 2),
            Box::new(Script::new(SockAddr::new(daddr, 2323), vec![])),
        );
        net.run_until(SimTime(30_000));
        assert!(!net.agent_downcast::<Script>(cid).unwrap().received.is_empty());
    }
}
