//! Future scope: the paper's §6 extension — scanning TR-069 and OPC UA.
//!
//! "With regard to future work, we plan to extend the scanning scope of
//! protocols to include TR069, SMB, and industrial IoT protocols like DDS
//! and OPC UA." This example builds a custom sweep over TR-069 CPEs and
//! OPC UA servers from the same public building blocks the six-protocol
//! study uses: the address permutation, the agent model, and the simulator.
//!
//! ```sh
//! cargo run --release --example future_scope [seed]
//! ```

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use ofh_core::devices::endpoints::{OpcUaDevice, Tr069Device};
use ofh_core::devices::Universe;
use ofh_core::net::rng::rng_for;
use ofh_core::net::{
    Agent, ConnToken, NetCtx, Payload, SimDuration, SimNet, SimNetConfig, SimTime, SockAddr,
};
use ofh_core::scan::AddressPermutation;
use ofh_core::wire::opcua::{Acknowledge, Hello};
use ofh_core::wire::tr069::Inform;
use ofh_core::wire::{http, ports};
use rand::Rng;

/// What the custom sweep learned about one host.
#[derive(Debug, Clone)]
enum Finding {
    /// TR-069 CPE that answered without auth (identity leaked).
    OpenCpe(Inform),
    /// TR-069 CPE demanding credentials (exposed, configured).
    SecuredCpe,
    /// OPC UA server that completed the HEL/ACK handshake.
    OpcUaServer,
}

/// A sweep agent for the two future-scope protocols, built on the same
/// permutation + paced-batch structure as the six-protocol scanner.
struct FutureScanner {
    perm: AddressPermutation,
    base: u32,
    batch: u32,
    grabs: BTreeMap<ConnToken, (Ipv4Addr, u16)>,
    findings: BTreeMap<Ipv4Addr, Finding>,
    probes: u64,
}

const TICK: u64 = u64::MAX;

impl FutureScanner {
    fn new(universe: &Universe, seed: u64) -> FutureScanner {
        FutureScanner {
            perm: AddressPermutation::new(universe.size(), seed),
            base: u32::from(universe.cidr().first()),
            batch: 4_096,
            grabs: BTreeMap::new(),
            findings: BTreeMap::new(),
            probes: 0,
        }
    }
}

impl Agent for FutureScanner {
    fn on_boot(&mut self, ctx: &mut NetCtx<'_>) {
        ctx.set_timer(SimDuration::from_millis(1), TICK);
    }

    fn on_timer(&mut self, ctx: &mut NetCtx<'_>, _token: u64) {
        let mut issued = 0;
        while issued < self.batch {
            let Some(offset) = self.perm.next() else {
                return; // sweep complete; pending grabs drain on their own
            };
            let addr = Ipv4Addr::from(self.base.wrapping_add(offset as u32));
            for port in [ports::TR069, ports::OPCUA] {
                let conn = ctx.tcp_connect(SockAddr::new(addr, port));
                self.grabs.insert(conn, (addr, port));
                self.probes += 1;
                issued += 1;
            }
        }
        ctx.set_timer(SimDuration::from_millis(100), TICK);
    }

    fn on_tcp_established(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken) {
        let Some(&(_, port)) = self.grabs.get(&conn) else { return };
        match port {
            ports::TR069 => {
                ctx.tcp_send(conn, ofh_core::wire::tr069::connection_request().render())
            }
            ports::OPCUA => ctx.tcp_send(conn, Hello::probe("opc.tcp://scanner/").encode()),
            _ => {}
        }
    }

    fn on_tcp_data(&mut self, ctx: &mut NetCtx<'_>, conn: ConnToken, data: &Payload) {
        let Some(&(addr, port)) = self.grabs.get(&conn) else { return };
        let finding = match port {
            ports::TR069 => match http::Response::parse(data) {
                Ok(resp) if resp.status == 200 => Inform::parse(
                    &String::from_utf8_lossy(&resp.body),
                )
                .ok()
                .map(Finding::OpenCpe),
                Ok(resp) if resp.status == 401 => Some(Finding::SecuredCpe),
                _ => None,
            },
            ports::OPCUA => Acknowledge::decode(data).ok().map(|_| Finding::OpcUaServer),
            _ => None,
        };
        if let Some(f) = finding {
            self.findings.insert(addr, f);
        }
        self.grabs.remove(&conn);
        ctx.tcp_close(conn);
    }

    fn on_tcp_refused(&mut self, _ctx: &mut NetCtx<'_>, conn: ConnToken) {
        self.grabs.remove(&conn);
    }

    fn on_tcp_timeout(&mut self, _ctx: &mut NetCtx<'_>, conn: ConnToken) {
        self.grabs.remove(&conn);
    }
}

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(7);
    let universe = Universe::new(Ipv4Addr::new(16, 0, 0, 0), 16);
    let mut rng = rng_for(seed, "future-scope");
    let mut net = SimNet::new(SimNetConfig { seed, ..SimNetConfig::default() });

    // A synthetic future-scope population: CPEs (most open — the TR-069
    // attack surface Mirai variants exploited) and industrial OPC UA servers.
    let (pop_base, pop_len) = universe.population_space();
    let mut truth = (0u32, 0u32, 0u32);
    for i in 0..400u32 {
        let addr = Ipv4Addr::from(u32::from(pop_base) + rng.gen_range(0..pop_len as u32));
        if net.is_occupied(addr) {
            continue;
        }
        match i % 4 {
            0 | 1 => {
                net.attach(addr, Box::new(Tr069Device::new(false, "Huawei", "HG532e")));
                truth.0 += 1;
            }
            2 => {
                net.attach(addr, Box::new(Tr069Device::new(true, "AVM", "FRITZ!Box 7590")));
                truth.1 += 1;
            }
            _ => {
                net.attach(
                    addr,
                    Box::new(OpcUaDevice::new(&format!("opc.tcp://plc-{i}:4840/"))),
                );
                truth.2 += 1;
            }
        }
    }
    println!(
        "deployed {} open CPEs, {} secured CPEs, {} OPC UA servers",
        truth.0, truth.1, truth.2
    );

    let sid = net.attach(universe.scanner_addr(), Box::new(FutureScanner::new(&universe, seed)));
    net.run_until(SimTime::ZERO + SimDuration::from_hours(2));

    let scanner = net.agent_downcast::<FutureScanner>(sid).unwrap();
    let mut open_cpe = 0u32;
    let mut secured = 0u32;
    let mut opcua = 0u32;
    let mut makes: BTreeMap<String, u32> = BTreeMap::new();
    for f in scanner.findings.values() {
        match f {
            Finding::OpenCpe(inform) => {
                open_cpe += 1;
                *makes.entry(format!("{} {}", inform.manufacturer, inform.product_class)).or_insert(0) += 1;
            }
            Finding::SecuredCpe => secured += 1,
            Finding::OpcUaServer => opcua += 1,
        }
    }
    println!(
        "\nsweep: {} probes over 2^{} addresses x 2 ports",
        scanner.probes, universe.bits
    );
    println!("  TR-069 CPEs answering without auth : {open_cpe} (truth {})", truth.0);
    println!("  TR-069 CPEs requiring auth         : {secured} (truth {})", truth.1);
    println!("  OPC UA servers (HEL/ACK complete)  : {opcua} (truth {})", truth.2);
    println!("\nidentified models (via leaked Informs):");
    for (make, n) in makes {
        println!("  {make}: {n}");
    }
    assert_eq!(open_cpe, truth.0);
    assert_eq!(secured, truth.1);
    assert_eq!(opcua, truth.2);
    println!("\nfuture-scope sweep recovered the ground truth exactly.");
}
