//! Dionaea — the malware-catching honeypot.
//!
//! Deployed as an "Arduino IoT device with frontend" (Table 7): HTTP, MQTT,
//! FTP and SMB. Dionaea's specialty is capturing the binaries themselves:
//! FTP brute-force followed by `STOR` uploads delivered the Mozi and Lokibot
//! samples of §5.1.5, and its SMB emulation caught WannaCry droppers riding
//! the Eternal* exploits.

use ofh_net::Payload;
use ofh_net::{Agent, ConnToken, NetCtx, SockAddr, TcpDecision};
use ofh_wire::ftp::{Command, Reply};
use ofh_wire::mqtt::Packet;
use ofh_wire::{ports, Protocol};

use crate::deployed::common::{looks_like_binary, Sessions};
use crate::deployed::DeployedHoneypot;
use crate::events::{AttackEvent, EventKind, EventLog};

/// Per-connection FTP dialogue (unused on Dionaea's other services).
#[derive(Debug, Default)]
enum FtpState {
    #[default]
    NeedUser,
    NeedPass {
        user: String,
    },
    LoggedIn,
    /// After `STOR`: the next binary segment is the uploaded file.
    Storing {
        filename: String,
    },
}

/// The Dionaea honeypot agent.
pub struct DionaeaHoneypot {
    pub log: EventLog,
    sessions: Sessions<FtpState>,
}

impl Default for DionaeaHoneypot {
    fn default() -> Self {
        Self::new()
    }
}

impl DionaeaHoneypot {
    pub fn new() -> Self {
        DionaeaHoneypot {
            log: EventLog::new("Dionaea"),
            sessions: Sessions::default(),
        }
    }
}

impl DeployedHoneypot for DionaeaHoneypot {
    fn drain(&mut self) -> (Vec<AttackEvent>, u64) {
        (std::mem::take(&mut self.log.events), self.sessions.shed())
    }
}

impl Agent for DionaeaHoneypot {
    fn on_tcp_open(
        &mut self,
        ctx: &mut NetCtx<'_>,
        conn: ConnToken,
        local_port: u16,
        peer: SockAddr,
    ) -> TcpDecision {
        let protocol = match local_port {
            ports::HTTP => Protocol::Http,
            ports::MQTT => Protocol::Mqtt,
            ports::FTP => Protocol::Ftp,
            ports::SMB => Protocol::Smb,
            _ => return TcpDecision::Refuse,
        };
        if !self
            .sessions
            .admit(&mut self.log, ctx.now(), conn, protocol, peer)
        {
            return TcpDecision::Refuse;
        }
        match protocol {
            Protocol::Ftp => TcpDecision::accept_with(
                Reply::new(Reply::SERVICE_READY, "Arduino FTP service ready").render(),
            ),
            _ => TcpDecision::accept(),
        }
    }

    fn on_tcp_data(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken, data: &Payload) {
        let Some(s) = self.sessions.get_mut(conn) else {
            return;
        };
        let now = ctx.now();
        match s.protocol {
            Protocol::Ftp => {
                // STOR data phase: a binary segment is the uploaded file.
                if let FtpState::Storing { filename } = &s.state {
                    if looks_like_binary(data) {
                        let url = Some(format!("ftp://upload/{filename}"));
                        s.state = FtpState::LoggedIn;
                        let drop = EventKind::PayloadDrop {
                            payload: data.to_vec(),
                            url,
                        };
                        s.log(&mut self.log, now, drop);
                        ctx.tcp_send(
                            conn,
                            Reply::new(Reply::TRANSFER_COMPLETE, "Transfer complete").render(),
                        );
                        return;
                    }
                }
                for line in s.lines(data) {
                    let Ok(cmd) = Command::parse(&line) else { continue };
                    let arg = cmd.arg.unwrap_or_default();
                    match (cmd.verb.as_str(), &mut s.state) {
                        ("USER", _) => {
                            s.state = FtpState::NeedPass { user: arg };
                            ctx.tcp_send(
                                conn,
                                Reply::new(Reply::NEED_PASSWORD, "Please specify the password").render(),
                            );
                        }
                        ("PASS", FtpState::NeedPass { user }) => {
                            // Dionaea accepts logins to observe what follows.
                            let attempt = EventKind::LoginAttempt {
                                username: std::mem::take(user),
                                password: arg,
                                success: true,
                            };
                            s.state = FtpState::LoggedIn;
                            s.log(&mut self.log, now, attempt);
                            ctx.tcp_send(
                                conn,
                                Reply::new(Reply::LOGGED_IN, "Login successful").render(),
                            );
                        }
                        ("STOR", FtpState::LoggedIn) => {
                            s.state = FtpState::Storing { filename: arg };
                            ctx.tcp_send(
                                conn,
                                Reply::new(Reply::FILE_OK, "Ok to send data").render(),
                            );
                        }
                        ("QUIT", _) => {
                            ctx.tcp_send(conn, Reply::new(221, "Goodbye").render());
                            ctx.tcp_close(conn);
                            // The closer gets no `on_tcp_closed`: end the
                            // session now. Lines after QUIT go unanswered.
                            self.sessions.close(conn);
                            return;
                        }
                        _ => {
                            ctx.tcp_send(conn, Reply::new(502, "Command not implemented").render());
                        }
                    }
                }
            }
            Protocol::Http => s.http_page(
                ctx,
                conn,
                &mut self.log,
                data,
                b"<html>Arduino device frontend</html>",
                "Dionaea-emulated/1.0",
            ),
            Protocol::Mqtt => {
                s.buf.extend_from_slice(data);
                for packet in Packet::drain(&mut s.buf) {
                    s.mqtt_broker(ctx, conn, &mut self.log, packet);
                }
            }
            Protocol::Smb => s.smb_lure(ctx, conn, &mut self.log, data),
            _ => {}
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
    use ofh_wire::smb::{command as smb_cmd, SmbMessage};

    struct FtpBot {
        dst: SockAddr,
        payload: Vec<u8>,
        stage: usize,
    }

    impl Agent for FtpBot {
        fn on_boot(&mut self, ctx: &mut NetCtx<'_>) {
            ctx.tcp_connect(self.dst);
        }
        fn on_tcp_data(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken, data: &Payload) {
            let text = String::from_utf8_lossy(data).into_owned();
            match self.stage {
                0 if text.starts_with("220") => {
                    self.stage = 1;
                    ctx.tcp_send(conn, Command::new("USER", Some("admin")).render());
                }
                1 if text.starts_with("331") => {
                    self.stage = 2;
                    ctx.tcp_send(conn, Command::new("PASS", Some("admin")).render());
                }
                2 if text.starts_with("230") => {
                    self.stage = 3;
                    ctx.tcp_send(conn, Command::new("STOR", Some("mozi.m")).render());
                }
                3 if text.starts_with("150") => {
                    self.stage = 4;
                    ctx.tcp_send(conn, self.payload.clone());
                }
                _ => {}
            }
        }
    }

    #[test]
    fn ftp_bruteforce_and_malware_upload() {
        let mut net = SimNet::new(SimNetConfig::default());
        let haddr = ip(16, 1, 0, 12);
        let hid = net.attach(haddr, Box::new(DionaeaHoneypot::new()));
        let sample = ofh_intel::MalwareSample::synthesize(ofh_intel::MalwareFamily::Mozi, 0);
        net.attach(
            ip(16, 1, 0, 97),
            Box::new(FtpBot {
                dst: SockAddr::new(haddr, 21),
                payload: sample.payload.clone(),
                stage: 0,
            }),
        );
        net.run_until(SimTime(120_000));
        let h = net.agent_downcast::<DionaeaHoneypot>(hid).unwrap();
        // Login logged.
        assert!(h.log.events.iter().any(|e| matches!(
            &e.kind,
            EventKind::LoginAttempt { username, success: true, .. } if username == "admin"
        )));
        // Uploaded binary captured, hash identifiable as Mozi.
        let dropped = h
            .log
            .events
            .iter()
            .find_map(|e| match &e.kind {
                EventKind::PayloadDrop { payload, .. } if !payload.is_empty() => Some(payload),
                _ => None,
            })
            .expect("payload captured");
        let reg = ofh_intel::MalwareRegistry::standard(1);
        assert_eq!(
            reg.identify(dropped).unwrap().family,
            ofh_intel::MalwareFamily::Mozi
        );
    }

    #[test]
    fn quit_ends_the_session() {
        /// Logs in over FTP and quits, `left` times in a row; the next
        /// session starts when the previous one is closed or refused.
        struct Quitter {
            dst: SockAddr,
            left: u32,
        }
        impl Quitter {
            fn next(&mut self, ctx: &mut NetCtx<'_>) {
                self.left -= 1;
                if self.left > 0 {
                    ctx.tcp_connect(self.dst);
                }
            }
        }
        impl Agent for Quitter {
            fn on_boot(&mut self, ctx: &mut NetCtx<'_>) {
                ctx.tcp_connect(self.dst);
            }
            fn on_tcp_data(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken, data: &Payload) {
                if data.starts_with(b"220 ") {
                    ctx.tcp_send(conn, b"USER a\r\nPASS b\r\nQUIT\r\n".to_vec());
                }
            }
            fn on_tcp_closed(&mut self, ctx: &mut NetCtx<'_>, _conn: ConnToken) {
                self.next(ctx);
            }
            fn on_tcp_refused(&mut self, ctx: &mut NetCtx<'_>, _conn: ConnToken) {
                self.next(ctx);
            }
        }
        let mut net = SimNet::new(SimNetConfig::default());
        let haddr = ip(16, 1, 0, 12);
        let hid = net.attach(haddr, Box::new(DionaeaHoneypot::new()));
        let qid = net.attach(
            ip(16, 1, 0, 95),
            Box::new(Quitter {
                dst: SockAddr::new(haddr, 21),
                left: 1_100,
            }),
        );
        net.run_until(SimTime(3_600_000));
        assert_eq!(net.agent_downcast::<Quitter>(qid).unwrap().left, 0);
        let h = net.agent_downcast::<DionaeaHoneypot>(hid).unwrap();
        let logins = h
            .log
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::LoginAttempt { .. }))
            .count();
        assert_eq!(logins, 1_100);
        assert_eq!((h.sessions.shed(), h.sessions.live()), (0, 0));
    }

    #[test]
    fn smb_and_http_surfaces() {
        struct Smb {
            dst: SockAddr,
        }
        impl Agent for Smb {
            fn on_boot(&mut self, ctx: &mut NetCtx<'_>) {
                ctx.tcp_connect(self.dst);
            }
            fn on_tcp_established(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken) {
                ctx.tcp_send(
                    conn,
                    SmbMessage {
                        command: smb_cmd::TRANS2,
                        status: 0,
                        flags2: 0,
                        mid: 7,
                        data: vec![],
                    }
                    .encode(),
                );
            }
        }
        let mut net = SimNet::new(SimNetConfig::default());
        let haddr = ip(16, 1, 0, 12);
        let hid = net.attach(haddr, Box::new(DionaeaHoneypot::new()));
        net.attach(ip(16, 1, 0, 96), Box::new(Smb { dst: SockAddr::new(haddr, 445) }));
        net.run_until(SimTime(60_000));
        let h = net.agent_downcast::<DionaeaHoneypot>(hid).unwrap();
        assert!(h
            .log
            .events
            .iter()
            .any(|e| matches!(&e.kind, EventKind::ExploitSignature { .. })));
    }
}
