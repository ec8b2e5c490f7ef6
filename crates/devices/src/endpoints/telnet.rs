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

use std::sync::OnceLock;

use ofh_net::Payload;
use ofh_net::{Agent, ConnToken, NetCtx, SockAddr, TcpDecision, Transport};
use ofh_wire::telnet::{negotiate, option, Verb};
use ofh_wire::Protocol;

use super::{catalog_row, row_profiles, text, ConnList, Responses};
use crate::misconfig::Misconfig;
use crate::profiles::DeviceProfile;

/// Hostname in the device's shell prompts.
const HOSTNAME: &str = "device";

/// The shell prompt per posture ([`posture`]): a login prompt, a user
/// console, a root console on [`HOSTNAME`].
const PROMPTS: [&str; 3] = ["login: ", "$ ", "root@device:~$ "];

/// The banner of a device with no catalog profile.
const GENERIC_BANNER: &str = "login:";

/// Which of [`PROMPTS`] a device with `misconfig` shows.
fn posture(misconfig: Option<Misconfig>) -> usize {
    match misconfig {
        Some(Misconfig::TelnetNoAuthRoot) => 2,
        Some(Misconfig::TelnetNoAuth) => 1,
        _ => 0,
    }
}

/// The bytes a device sends when a connection opens: the option
/// negotiation, its banner line and its prompt.
fn greeting(banner: &str, misconfig: Option<Misconfig>) -> Vec<u8> {
    let mut g = Vec::new();
    // Typical embedded telnetd negotiation prefix.
    g.extend_from_slice(&negotiate(Verb::Will, option::ECHO));
    g.extend_from_slice(&negotiate(Verb::Will, option::SUPPRESS_GO_AHEAD));
    g.extend_from_slice(banner.as_bytes());
    g.extend_from_slice(b"\r\n");
    g.extend_from_slice(PROMPTS[posture(misconfig)].as_bytes());
    g
}

/// The greeting of every catalog row ([`catalog_row`]) in each posture,
/// encoded once per process.
fn greetings() -> &'static [[Box<[u8]>; 3]] {
    static TABLE: OnceLock<Vec<[Box<[u8]>; 3]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        row_profiles()
            .map(|profile| {
                let banner = profile.map_or(GENERIC_BANNER, |p| p.identifier);
                [None, Some(Misconfig::TelnetNoAuth), Some(Misconfig::TelnetNoAuthRoot)]
                    .map(|m| greeting(banner, m).into_boxed_slice())
            })
            .collect()
    })
}

/// Login-exchange state for one connection.
#[derive(Debug, Clone, PartialEq, Eq)]
enum LoginState {
    AwaitingUser,
    AwaitingPassword { username: String },
    LoggedIn,
}

/// A simulated Telnet-exposed IoT device.
pub struct TelnetDevice {
    /// Security posture; `None` = authenticated access only.
    pub misconfig: Option<Misconfig>,
    /// Credentials the login accepts (default credentials on weak devices).
    pub credentials: Option<(&'static str, &'static str)>,
    /// Listening port (23, or 2323 for the alternate-port population that
    /// explains the ZMap-vs-Sonar delta in Table 4).
    pub port: u16,
    /// Ground truth: successful logins observed (bot infections land here).
    pub successful_logins: u64,
    /// Shell commands received after login (dropper activity).
    pub commands_seen: Vec<String>,
    /// The identifying banner line (Table 11, e.g. `PK5001Z login:`) and
    /// prompt, sent when a connection opens.
    greeting: Responses<[u8]>,
    sessions: ConnList<LoginState>,
}

impl TelnetDevice {
    /// A device greeting with `banner`, encoded once here.
    pub fn new(banner: &str, misconfig: Option<Misconfig>, port: u16) -> Self {
        Self::with_greeting(greeting(banner, misconfig).into(), misconfig, port)
    }

    /// A device of the catalog: its greeting is a shared table entry.
    pub(crate) fn cataloged(
        profile: Option<&'static DeviceProfile>,
        misconfig: Option<Misconfig>,
        port: u16,
    ) -> Self {
        let greeting = match catalog_row(profile) {
            Some(row) => Responses::Shared(&*greetings()[row][posture(misconfig)]),
            None => greeting(profile.map_or(GENERIC_BANNER, |p| p.identifier), misconfig).into(),
        };
        Self::with_greeting(greeting, misconfig, port)
    }

    fn with_greeting(greeting: Responses<[u8]>, misconfig: Option<Misconfig>, port: u16) -> Self {
        TelnetDevice {
            misconfig,
            credentials: None,
            port,
            successful_logins: 0,
            commands_seen: Vec::new(),
            greeting,
            sessions: ConnList::default(),
        }
    }

    pub fn with_credentials(mut self, user: &'static str, pass: &'static str) -> Self {
        self.credentials = Some((user, pass));
        self
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
        let state = if self.misconfig.is_some() {
            LoginState::LoggedIn
        } else {
            LoginState::AwaitingUser
        };
        self.sessions.insert(conn, state);
        TcpDecision::accept_with(self.greeting.payload())
    }

    fn on_tcp_data(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken, data: &Payload) {
        let text_in = String::from_utf8_lossy(&ofh_wire::telnet::visible_text(data))
            .trim()
            .to_string();
        let prompt = PROMPTS[posture(self.misconfig)];
        let Some(state) = self.sessions.get_mut(conn) else {
            return;
        };
        match state {
            LoginState::LoggedIn => {
                if text_in.is_empty() {
                    ctx.tcp_send(conn, text(prompt));
                } else {
                    // Real shells react to input (here: a busybox-style
                    // error echoing the command). This response *deviation*
                    // is what separates devices from static-banner honeypots
                    // during active fingerprinting (Vetterl et al.).
                    let reply = format!("sh: {text_in}: not found\r\n{prompt}");
                    self.commands_seen.push(text_in);
                    ctx.tcp_send(conn, reply);
                }
            }
            LoginState::AwaitingUser => {
                *state = LoginState::AwaitingPassword { username: text_in };
                ctx.tcp_send(conn, text("Password: "));
            }
            LoginState::AwaitingPassword { username } => {
                let ok = self
                    .credentials
                    .is_some_and(|(u, p)| u == username.as_str() && p == text_in);
                if ok {
                    self.successful_logins += 1;
                    let reply = format!("Welcome\r\n{username}@{HOSTNAME}:~$ ");
                    *state = LoginState::LoggedIn;
                    ctx.tcp_send(conn, reply);
                } else {
                    *state = LoginState::AwaitingUser;
                    ctx.tcp_send(conn, text("Login incorrect\r\nlogin: "));
                }
            }
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

    /// Run a scripted exchange; returns what the client received and the
    /// device's ground truth (successful logins, commands seen).
    fn run(device: TelnetDevice, sends: Vec<Vec<u8>>) -> (Vec<u8>, u64, Vec<String>) {
        let mut net = SimNet::new(SimNetConfig::default());
        let daddr = ip(16, 5, 0, 1);
        let did = net.attach(daddr, Box::new(device));
        let cid = net.attach(
            ip(16, 5, 0, 2),
            Box::new(Script::new(SockAddr::new(daddr, 23), sends)),
        );
        net.run_until(SimTime(120_000));
        let received = net.agent_downcast::<Script>(cid).unwrap().received.clone();
        let d = net.agent_downcast::<TelnetDevice>(did).unwrap();
        (received, d.successful_logins, d.commands_seen.clone())
    }

    #[test]
    fn root_console_banner_matches_table2() {
        let dev = TelnetDevice::new("PK5001Z login:", Some(Misconfig::TelnetNoAuthRoot), 23);
        let (received, _, _) = run(dev, vec![]);
        let text = String::from_utf8_lossy(&ofh_wire::telnet::visible_text(&received)).to_string();
        assert!(text.contains("PK5001Z login:"));
        assert!(text.contains("root@device:~$"), "got {text:?}");
    }

    #[test]
    fn noauth_console_shows_dollar_prompt() {
        let dev = TelnetDevice::new("BusyBox v1.19", Some(Misconfig::TelnetNoAuth), 23);
        let (received, _, _) = run(dev, vec![]);
        let text = String::from_utf8_lossy(&ofh_wire::telnet::visible_text(&received)).to_string();
        assert!(text.ends_with("$ "), "got {text:?}");
        assert!(!text.contains("root@"));
    }

    #[test]
    fn configured_device_requires_login() {
        let dev = TelnetDevice::new("192.168.0.64 login:", None, 23)
            .with_credentials("admin", "admin");
        let (received, logins, commands) =
            run(dev, vec![b"admin".to_vec(), b"admin".to_vec(), b"ls".to_vec()]);
        let text = String::from_utf8_lossy(&ofh_wire::telnet::visible_text(&received)).to_string();
        assert!(text.contains("Password: "));
        assert!(text.contains("Welcome\r\nadmin@device:~$ "));
        assert_eq!(logins, 1);
        assert_eq!(commands, vec!["ls".to_string()]);
    }

    #[test]
    fn wrong_credentials_rejected() {
        let dev = TelnetDevice::new("login:", None, 23).with_credentials("admin", "secret");
        let (received, logins, _) = run(dev, vec![b"admin".to_vec(), b"admin".to_vec()]);
        let text = String::from_utf8_lossy(&ofh_wire::telnet::visible_text(&received)).to_string();
        assert!(text.contains("Login incorrect"));
        assert_eq!(logins, 0);
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
        let dev = TelnetDevice::new("x", Some(Misconfig::TelnetNoAuth), 2323);
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

    /// The greeting as every connection built it before the shared table:
    /// negotiation, banner, and a prompt formatted on the spot.
    fn greeting_per_connection(banner: &str, misconfig: Option<Misconfig>) -> Vec<u8> {
        let prompt = match misconfig {
            Some(Misconfig::TelnetNoAuthRoot) => format!("root@{HOSTNAME}:~$ "),
            Some(Misconfig::TelnetNoAuth) => "$ ".to_string(),
            _ => "login: ".to_string(),
        };
        let mut g = Vec::new();
        g.extend_from_slice(&negotiate(Verb::Will, option::ECHO));
        g.extend_from_slice(&negotiate(Verb::Will, option::SUPPRESS_GO_AHEAD));
        g.extend_from_slice(banner.as_bytes());
        g.extend_from_slice(b"\r\n");
        g.extend_from_slice(prompt.as_bytes());
        g
    }

    #[test]
    fn shared_greetings_match_the_per_connection_encoder() {
        let mut postures = vec![None];
        postures.extend(Misconfig::ALL.map(Some));
        for profile in row_profiles() {
            let banner = profile.map_or(GENERIC_BANNER, |p| p.identifier);
            for &m in &postures {
                let dev = TelnetDevice::cataloged(profile, m, 23);
                assert!(matches!(dev.greeting, Responses::Shared(_)));
                let want = greeting_per_connection(banner, m);
                assert_eq!(&*dev.greeting, &want[..], "{banner} {m:?}");
                assert_eq!(&*TelnetDevice::new(banner, m, 23).greeting, &*dev.greeting);
            }
        }
    }
}
