//! Conpot — the ICS/SCADA honeypot.
//!
//! Deployed as a "Siemens S7 PLC" (Table 7): SSH, Telnet, S7 and HTTP, plus
//! the Modbus service §5.1.4 analyses. The observed industrial attacks:
//! register poisoning (reads/writes of the holding register, device
//! identification, report-server-id — only ~10% of Modbus traffic used valid
//! function codes), and the ICSA-16-299-01 DoS performed by flooding S7
//! PDU-type-1 Job requests.

use ofh_net::Payload;
use ofh_net::{Agent, ConnToken, NetCtx, SockAddr, TcpDecision};
use ofh_wire::modbus::{self, Frame as ModbusFrame};
use ofh_wire::s7::{pdu_type, S7Message};
use ofh_wire::{ports, Protocol};

use crate::deployed::common::{LoginMachine, LoginState, LoginStep, Sessions};
use crate::deployed::DeployedHoneypot;
use crate::events::{AttackEvent, EventKind, EventLog};

/// The Conpot honeypot agent.
pub struct ConpotHoneypot {
    pub log: EventLog,
    telnet: LoginMachine,
    ssh: LoginMachine,
    sessions: Sessions<LoginState>,
    /// Simulated holding registers (poisoning targets).
    pub registers: Vec<u16>,
}

impl Default for ConpotHoneypot {
    fn default() -> Self {
        Self::new()
    }
}

impl ConpotHoneypot {
    pub fn new() -> Self {
        ConpotHoneypot {
            log: EventLog::new("Conpot"),
            telnet: LoginMachine::new(2),
            ssh: LoginMachine::new(2),
            sessions: Sessions::default(),
            registers: vec![0x0100; 16],
        }
    }
}

impl DeployedHoneypot for ConpotHoneypot {
    fn drain(&mut self) -> (Vec<AttackEvent>, u64) {
        (std::mem::take(&mut self.log.events), self.sessions.shed())
    }
}

impl Agent for ConpotHoneypot {
    fn on_tcp_open(
        &mut self,
        ctx: &mut NetCtx<'_>,
        conn: ConnToken,
        local_port: u16,
        peer: SockAddr,
    ) -> TcpDecision {
        let protocol = match local_port {
            ports::TELNET => Protocol::Telnet,
            ports::SSH => Protocol::Ssh,
            ports::S7 => Protocol::S7,
            ports::MODBUS => Protocol::Modbus,
            ports::HTTP => Protocol::Http,
            _ => return TcpDecision::Refuse,
        };
        if !self
            .sessions
            .admit(&mut self.log, ctx.now(), conn, protocol, peer)
        {
            return TcpDecision::Refuse;
        }
        match protocol {
            // Conpot's characteristic banner (its Table 6 signature).
            Protocol::Telnet => {
                TcpDecision::accept_with(b"Connected to [00:13:EA:00:00:00]\r\nlogin: ".to_vec())
            }
            Protocol::Ssh => {
                TcpDecision::accept_with(b"SSH-2.0-OpenSSH_6.7p1 SiemensPLC\r\n".to_vec())
            }
            _ => TcpDecision::accept(),
        }
    }

    fn on_tcp_data(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken, data: &Payload) {
        let Some(s) = self.sessions.get_mut(conn) else {
            return;
        };
        let now = ctx.now();
        match s.protocol {
            Protocol::S7 => {
                let Ok(msg) = S7Message::decode(data) else {
                    s.log(&mut self.log, now, EventKind::Datagram { len: data.len() });
                    return;
                };
                if msg.pdu_type == pdu_type::JOB {
                    // PDU-type-1 Job: the ICSA-16-299-01 flood element.
                    s.log(
                        &mut self.log,
                        now,
                        EventKind::ExploitSignature {
                            name: "S7 PDU-type-1 job".into(),
                        },
                    );
                    match msg.function() {
                        Some(ofh_wire::s7::function::WRITE_VAR) => s.log(
                            &mut self.log,
                            now,
                            EventKind::DataWrite {
                                target: "s7-var".into(),
                            },
                        ),
                        Some(ofh_wire::s7::function::READ_VAR) => s.log(
                            &mut self.log,
                            now,
                            EventKind::DataRead {
                                target: "s7-var".into(),
                            },
                        ),
                        _ => {}
                    }
                    // Ack the job (the vulnerable PLC spawns a job per
                    // request — exactly why the flood works).
                    let ack = S7Message {
                        pdu_type: pdu_type::ACK_DATA,
                        pdu_ref: msg.pdu_ref,
                        parameters: msg.parameters.clone(),
                        data: Vec::new(),
                    };
                    ctx.tcp_send(conn, ack.encode());
                }
            }
            Protocol::Modbus => {
                let Ok(frame) = ModbusFrame::decode(data) else {
                    return;
                };
                use ofh_wire::modbus::function::*;
                match frame.function {
                    READ_HOLDING_REGISTERS => {
                        s.log(
                            &mut self.log,
                            now,
                            EventKind::DataRead {
                                target: "holding-register".into(),
                            },
                        );
                        let mut data = vec![(self.registers.len() * 2) as u8];
                        for r in &self.registers {
                            data.extend_from_slice(&r.to_be_bytes());
                        }
                        ctx.tcp_send(
                            conn,
                            ModbusFrame {
                                transaction_id: frame.transaction_id,
                                unit_id: frame.unit_id,
                                function: READ_HOLDING_REGISTERS,
                                data,
                            }
                            .encode(),
                        );
                    }
                    WRITE_SINGLE_REGISTER => {
                        s.log(
                            &mut self.log,
                            now,
                            EventKind::DataWrite {
                                target: "holding-register".into(),
                            },
                        );
                        if frame.data.len() >= 4 {
                            let addr = u16::from_be_bytes([frame.data[0], frame.data[1]]) as usize;
                            let value = u16::from_be_bytes([frame.data[2], frame.data[3]]);
                            if let Some(r) = self.registers.get_mut(addr) {
                                *r = value;
                            }
                        }
                        ctx.tcp_send(conn, frame.encode()); // echo = success
                    }
                    READ_DEVICE_IDENTIFICATION | REPORT_SERVER_ID => {
                        s.log(
                            &mut self.log,
                            now,
                            EventKind::DataRead {
                                target: "device-identification".into(),
                            },
                        );
                        ctx.tcp_send(
                            conn,
                            ModbusFrame {
                                transaction_id: frame.transaction_id,
                                unit_id: frame.unit_id,
                                function: frame.function,
                                data: b"Siemens SIMATIC S7-200".to_vec(),
                            }
                            .encode(),
                        );
                    }
                    _ => {
                        // Invalid function codes — ~90% of observed traffic.
                        s.log(
                            &mut self.log,
                            now,
                            EventKind::ExploitSignature {
                                name: "Modbus invalid function".into(),
                            },
                        );
                        ctx.tcp_send(
                            conn,
                            ModbusFrame::exception(&frame, modbus::EXCEPTION_ILLEGAL_FUNCTION)
                                .encode(),
                        );
                    }
                }
            }
            Protocol::Telnet | Protocol::Ssh => {
                let ssh = s.protocol == Protocol::Ssh;
                let machine = if ssh { &self.ssh } else { &self.telnet };
                for line in s.lines(data) {
                    if line.starts_with("SSH-") {
                        ctx.tcp_send(conn, "KEXINIT\n"); // see cowrie.rs
                        continue;
                    }
                    if ssh && s.ssh_auth(ctx, conn, &mut self.log, machine, &line) {
                        continue;
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
                            ctx.tcp_send(conn, if success { "S7> " } else { "login: " });
                        }
                        LoginStep::Command(cmd) => {
                            s.log(&mut self.log, now, EventKind::Command { line: cmd });
                            ctx.tcp_send(conn, "S7> ");
                        }
                    }
                }
            }
            Protocol::Http => s.http_page(
                ctx,
                conn,
                &mut self.log,
                data,
                b"<html><title>SIMATIC S7-200</title></html>",
                "Siemens Simatic S7",
            ),
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

    struct Sender {
        dst: SockAddr,
        payloads: Vec<Vec<u8>>,
        replies: Vec<Vec<u8>>,
    }

    impl Agent for Sender {
        fn on_boot(&mut self, ctx: &mut NetCtx<'_>) {
            ctx.tcp_connect(self.dst);
        }
        fn on_tcp_established(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken) {
            for p in self.payloads.drain(..) {
                ctx.tcp_send(conn, p);
            }
        }
        fn on_tcp_data(&mut self, _c: &mut NetCtx<'_>, _conn: ConnToken, data: &Payload) {
            self.replies.push(data.to_vec());
        }
    }

    fn run(port: u16, payloads: Vec<Vec<u8>>) -> (ConpotHoneypot, Vec<Vec<u8>>) {
        let mut net = SimNet::new(SimNetConfig::default());
        let haddr = ip(16, 1, 0, 15);
        let hid = net.attach(haddr, Box::new(ConpotHoneypot::new()));
        let sid = net.attach(
            ip(16, 1, 0, 92),
            Box::new(Sender { dst: SockAddr::new(haddr, port), payloads, replies: Vec::new() }),
        );
        net.run_until(SimTime(60_000));
        let replies = net.agent_downcast::<Sender>(sid).unwrap().replies.clone();
        let h = net.agent_downcast_mut::<ConpotHoneypot>(hid).unwrap();
        let out = ConpotHoneypot {
            log: std::mem::take(&mut h.log),
            registers: h.registers.clone(),
            ..ConpotHoneypot::new()
        };
        (out, replies)
    }

    #[test]
    fn s7_job_flood_logged_as_exploit() {
        let job = S7Message::job(1, ofh_wire::s7::function::READ_VAR, &[]).encode();
        let (h, replies) = run(102, vec![job.clone(), job.clone(), job]);
        let sigs = h
            .log
            .events
            .iter()
            .filter(|e| matches!(&e.kind, EventKind::ExploitSignature { name } if name.contains("PDU-type-1")))
            .count();
        assert_eq!(sigs, 3);
        // Each job is acked (the job-spawning behaviour).
        assert_eq!(replies.len(), 3);
    }

    #[test]
    fn modbus_register_poisoning() {
        let write = ModbusFrame::write_single_register(5, 2, 0xBEEF).encode();
        let read = ModbusFrame::read_holding_registers(6, 0, 16).encode();
        let (h, _) = run(502, vec![write, read]);
        assert_eq!(h.registers[2], 0xBEEF);
        assert!(h.log.events.iter().any(|e| matches!(&e.kind, EventKind::DataWrite { .. })));
        assert!(h.log.events.iter().any(|e| matches!(&e.kind, EventKind::DataRead { .. })));
    }

    #[test]
    fn modbus_invalid_function_gets_exception() {
        let bad = ModbusFrame {
            transaction_id: 9,
            unit_id: 1,
            function: 0x63,
            data: vec![],
        };
        let (h, replies) = run(502, vec![bad.encode()]);
        assert!(h.log.events.iter().any(|e| matches!(
            &e.kind,
            EventKind::ExploitSignature { name } if name.contains("invalid function")
        )));
        let resp = ModbusFrame::decode(&replies[0]).unwrap();
        assert!(resp.is_exception());
    }

    #[test]
    fn telnet_banner_is_conpots() {
        let (_, replies) = run(23, vec![]);
        let banner = String::from_utf8_lossy(&replies[0]).into_owned();
        assert!(banner.contains("Connected to [00:13:EA"));
    }
}
