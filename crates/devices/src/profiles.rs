//! The device-profile catalog — Appendix Table 11 of the paper.
//!
//! Each profile carries the banner or response text the paper used to
//! identify the device type, plus which protocol that identifier appears on.
//! The population builder instantiates devices from these profiles and the
//! ZTag-style tagger in `ofh-scan` identifies them back from live responses;
//! Table 11 and Fig. 2 are regenerated from that loop.

use ofh_wire::Protocol;
use serde::Serialize;

use crate::types::DeviceType;

/// A device profile: make/model plus its identifying network behaviour.
///
/// Serialize-only: the strings are `&'static str` into Table 11's verbatim
/// entries, which cannot be deserialized from owned data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct DeviceProfile {
    /// Make/model as Table 11 names it.
    pub name: &'static str,
    /// The protocol whose response carries the identifier.
    pub protocol: Protocol,
    pub device_type: DeviceType,
    /// The identifying banner/response fragment (Table 11 rightmost column).
    pub identifier: &'static str,
    /// Relative placement weight within (protocol, device_type): popular
    /// consumer devices dominate the population.
    pub weight: u32,
}

macro_rules! profile {
    ($name:expr, $proto:ident, $ty:ident, $id:expr, $w:expr) => {
        DeviceProfile {
            name: $name,
            protocol: Protocol::$proto,
            device_type: DeviceType::$ty,
            identifier: $id,
            weight: $w,
        }
    };
}

/// The catalog, transcribed from Appendix Table 11 (plus the IP phone class
/// §5.3 mentions among attacking devices).
///
/// A `static`, not a `const`: Rust does not promise that two uses of a
/// `const` share one address, and the device agents key their shared
/// response tables by a profile's position here ([`position`]).
pub static PROFILES: &[DeviceProfile] = &[
    // Cameras.
    profile!("HiKVision Camera", Telnet, Camera, "192.168.0.64 login:", 30),
    profile!("Polycom HDX", Telnet, Camera, "Welcome to ViewStation", 6),
    profile!("D-Link DCS-6620", Telnet, Camera, "Welcome to DCS-6620", 5),
    profile!("D-Link DCS-5220", Telnet, Camera, "Network-Camera login:", 8),
    profile!("Avtech AVN801", Upnp, Camera, "Server: Linux/2.x UPnP/1.0 Avtech/1.0", 14),
    profile!("Panasonic BB-HCM581", Upnp, Camera, "Friendly Name: Network Camera BB-HCM581", 7),
    profile!("Anbash NC336FG", Upnp, Camera, "Model Name: NC336FG", 4),
    profile!("Beward N100", Upnp, Camera, "Friendly Name: N100 H.264 IP Camera - 004B1000E3E2", 5),
    profile!("Io Data TS-WLC2", Upnp, Camera, "Model Name: TS-WLC2", 4),
    profile!("Io Data TS-WPTCAM", Upnp, Camera, "Model Name: TS-WPTCAM", 4),
    profile!("Io Data TS-WLCAM", Upnp, Camera, "Model Name: TS-WLCAM", 3),
    profile!("Io Data TS-WLCE", Upnp, Camera, "Model Name: TS-WLCE", 3),
    profile!("G-Cam EFD-4430", Upnp, Camera, "Friendly Name: G-Cam/EFD-4430", 3),
    profile!("Seyeon Tech FW7511-TVM", Upnp, Camera, "Model Name: FW7511-TVM", 3),
    // DSL modems.
    profile!("ZyXEL PK5001Z", Telnet, DslModem, "PK5001Z login:", 20),
    profile!("ZTE ZXHN H108N", Telnet, DslModem, "Welcome to the world of CLI", 10),
    profile!("Technicolor modem", Telnet, DslModem, "TG234 login:", 8),
    profile!("ZTE ZXV10", Telnet, DslModem, "F670L Login", 8),
    profile!("Datacom DM991", Telnet, DslModem, "DM991CR - G.SHDSL Modem Router", 4),
    profile!("TP-Link TD-W8960N", Telnet, DslModem, "TD-W8960N 6.0 DSL Modem", 9),
    profile!("Cisco C11-4P", Telnet, DslModem, "MODEM : C111-4P", 4),
    profile!("TP-Link TD-W8968", Telnet, DslModem, "TD-W8968 4.0 DSL Modem Router", 7),
    // Routers.
    profile!("BelAir 100N", Telnet, Router, "BelAir100N - BelAir Backhaul and Access Wireless Router", 5),
    profile!("Tenda Wireless Router", Upnp, Router, "Manufacturer: Tenda", 16),
    profile!("Totolink N150", Upnp, Router, "Friendly Name: TOTOLINK N150RA", 7),
    profile!("ZTE H108N", Upnp, Router, "Model Name: H108N", 10),
    profile!("OBSERVA BHS_RTA 1.0.0", Upnp, Router, "Model Name: BHS_RTA", 5),
    profile!("DASAN H660GM", Upnp, Router, "Model Name: H660GM", 6),
    profile!("Huawei HG532e", Upnp, Router, "Model Name: HG532e", 14),
    profile!("ASUSTeK RT-AC53", Upnp, Router, "Friendly Name: RT-AC53", 8),
    profile!("NDM", Coap, Router, "/ndm/login", 10),
    profile!("QLink", Coap, Router, "title: Qlink-ACK Resource", 6),
    // Smart home.
    profile!("Signify Philips hue bridge", Upnp, SmartHome, "Model Name: Philips hue bridge 2015", 12),
    profile!("EQ3 HomeMatic", Upnp, SmartHome, "Model Name: HomeMatic Central", 5),
    profile!("Hyperion 2.0.0", Upnp, SmartHome, "Model Description: Hyperion Open Source Ambient Light", 4),
    profile!("Home Assistant (Telnet)", Telnet, SmartHome, "Home Assistant: Installation Type: Home Assistant OS", 6),
    profile!("Home Assistant (MQTT)", Mqtt, SmartHome, "homeassistant/light/", 14),
    // TV receivers.
    profile!("Emby", Upnp, TvReceiver, "Friendly Name: Emby - DS720plus", 5),
    profile!("Dedicated Micros Digital Sprite 2", Telnet, TvReceiver, "Welcome to the DS2 command line processor", 4),
    profile!("Roku", Upnp, TvReceiver, "Server: Roku UPnP/1.0 MiniUPnPd/1.4", 9),
    // Access points / NAS / speakers.
    profile!("Realtek RTL8671", Upnp, AccessPoint, "Model Name: RTL8671", 7),
    profile!("Synology DS918+", Upnp, Nas, "Friendly Name: DiskStation (DS918+)", 6),
    profile!("Sonos ZP100", Upnp, SmartSpeaker, "Model Number: ZP120", 6),
    // 3D printer / HVAC / industrial.
    profile!("Octoprint", Mqtt, Printer3d, "octoPrint/temperature/bed", 6),
    profile!("Gozmart", Mqtt, Hvac, "gozmart/sonoff/CC50E3C943CC110511/app", 5),
    profile!("Advantech", Mqtt, Hvac, "Advantech/", 5),
    profile!("Emerson", Telnet, RemoteDisplayUnit, "Emerson Network Power Co., Ltd.", 4),
    profile!("Trimble SPS855", Upnp, RemoteDisplayUnit, "Friendly Name: SPS855, 6013R31531: Trimble", 3),
    // IP phones (attack-source device class of §5.3).
    profile!("Generic SIP Phone", Upnp, IpPhone, "Model Name: SIP-T21P", 5),
];

/// The position of `profile` in [`PROFILES`], or `None` for a profile that
/// is not one of the catalog's entries (a copy made elsewhere).
pub fn position(profile: &DeviceProfile) -> Option<usize> {
    let size = std::mem::size_of::<DeviceProfile>();
    let offset = (profile as *const DeviceProfile as usize)
        .wrapping_sub(PROFILES.as_ptr() as usize);
    let index = offset / size;
    (offset % size == 0 && index < PROFILES.len()).then_some(index)
}

/// Profiles whose identifier appears on `protocol`.
pub fn profiles_for(protocol: Protocol) -> Vec<&'static DeviceProfile> {
    PROFILES.iter().filter(|p| p.protocol == protocol).collect()
}

/// Find the profile identified by a response fragment.
pub fn identify(protocol: Protocol, response: &str) -> Option<&'static DeviceProfile> {
    PROFILES
        .iter()
        .find(|p| p.protocol == protocol && response.contains(p.identifier))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_table11_protocols() {
        assert!(!profiles_for(Protocol::Telnet).is_empty());
        assert!(!profiles_for(Protocol::Upnp).is_empty());
        assert!(!profiles_for(Protocol::Mqtt).is_empty());
        assert!(!profiles_for(Protocol::Coap).is_empty());
        // The paper: "the response received from XMPP and AMQP services were
        // not sufficient to label the target as an IoT device".
        assert!(profiles_for(Protocol::Xmpp).is_empty());
        assert!(profiles_for(Protocol::Amqp).is_empty());
    }

    #[test]
    fn identifiers_are_unique_per_protocol() {
        for (i, a) in PROFILES.iter().enumerate() {
            for b in &PROFILES[i + 1..] {
                if a.protocol == b.protocol {
                    assert!(
                        !a.identifier.contains(b.identifier)
                            && !b.identifier.contains(a.identifier),
                        "{} vs {} identifiers collide",
                        a.name,
                        b.name
                    );
                }
            }
        }
    }

    #[test]
    fn every_profile_identifies_itself() {
        for p in PROFILES {
            let got = identify(p.protocol, &format!("junk {} junk", p.identifier));
            assert_eq!(got.map(|g| g.name), Some(p.name));
        }
    }

    #[test]
    fn hikvision_detected_from_banner() {
        // The paper's §4.1.2 worked example.
        let p = identify(Protocol::Telnet, "192.168.0.64 login:").unwrap();
        assert_eq!(p.name, "HiKVision Camera");
        assert_eq!(p.device_type, DeviceType::Camera);
    }

    #[test]
    fn positions_address_the_catalog() {
        for (i, p) in PROFILES.iter().enumerate() {
            assert_eq!(position(p), Some(i), "{}", p.name);
        }
        for p in profiles_for(Protocol::Upnp) {
            assert!(std::ptr::eq(&PROFILES[position(p).unwrap()], p));
        }
        let copy = PROFILES[3];
        assert_eq!(position(&copy), None, "a copy is not a catalog entry");
    }

    #[test]
    fn weights_positive() {
        assert!(PROFILES.iter().all(|p| p.weight > 0));
    }
}
