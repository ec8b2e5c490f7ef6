//! ZTag-style device-type annotation.
//!
//! ZTag annotates raw scan data with metadata; the paper uses banner and
//! static-response fragments as tags to identify device types (§4.1.2,
//! Appendix Table 11, Fig. 2). Matching is case-insensitive substring search
//! against the profile catalog.

use ofh_devices::profiles::{DeviceProfile, PROFILES};
use ofh_wire::Protocol;

/// Identify the device profile a normalized response belongs to.
pub fn tag_device(protocol: Protocol, response_text: &str) -> Option<&'static DeviceProfile> {
    let lower = response_text.to_ascii_lowercase();
    PROFILES
        .iter()
        .find(|p| p.protocol == protocol && lower.contains(&p.identifier.to_ascii_lowercase()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofh_devices::DeviceType;

    #[test]
    fn telnet_camera_banner() {
        let p = tag_device(Protocol::Telnet, "192.168.0.64 login:").unwrap();
        assert_eq!(p.name, "HiKVision Camera");
        assert_eq!(p.device_type, DeviceType::Camera);
    }

    #[test]
    fn upnp_matching_is_case_insensitive() {
        // SSDP responses carry `SERVER:` upper-case; Table 11 writes
        // `Server:` — the tagger must not care.
        let text = "HTTP/1.1 200 OK\r\nSERVER: LINUX/2.X UPNP/1.0 AVTECH/1.0\r\n";
        let p = tag_device(Protocol::Upnp, text).unwrap();
        assert_eq!(p.name, "Avtech AVN801");
    }

    #[test]
    fn mqtt_topic_tagging() {
        let text = "MQTT Connection Code:0\ntopic: homeassistant/light/kitchen\n";
        let p = tag_device(Protocol::Mqtt, text).unwrap();
        assert_eq!(p.device_type, DeviceType::SmartHome);
    }

    #[test]
    fn coap_attr_tagging() {
        let text = "CoAP 2.05\n/qlink\ntitle: Qlink-ACK Resource\n";
        let p = tag_device(Protocol::Coap, text).unwrap();
        assert_eq!(p.name, "QLink");
    }

    #[test]
    fn wrong_protocol_does_not_tag() {
        assert!(tag_device(Protocol::Mqtt, "192.168.0.64 login:").is_none());
        assert!(tag_device(Protocol::Xmpp, "anything at all").is_none());
    }

    #[test]
    fn unidentifiable_responses() {
        assert!(tag_device(Protocol::Telnet, "login:").is_none());
        assert!(tag_device(Protocol::Upnp, "HTTP/1.1 200 OK\r\n").is_none());
    }
}
