//! SSDP / UPnP — discovery codec.
//!
//! The paper's UPnP scan sends an `ssdp:discover` M-SEARCH to UDP 1900 and
//! classifies any host whose response discloses a root device as
//! "Resource Disclosure" (Table 3) — the single largest misconfiguration
//! class in Table 5 (998,129 devices), exploitable for SSDP amplification.
//! Device types are then derived from the `SERVER`, `Friendly Name` and
//! `Model Name` fields (Appendix Table 11).
//!
//! SSDP messages are HTTP-like header blocks over UDP; this module formats
//! and parses them, plus a device-description struct standing in for the XML
//! document behind `LOCATION`.

use crate::error::WireError;

/// The standard discovery probe, as sent by the paper's custom UDP scan.
pub fn msearch_all() -> String {
    "M-SEARCH * HTTP/1.1\r\n\
     HOST: 239.255.255.250:1900\r\n\
     MAN: \"ssdp:discover\"\r\n\
     MX: 3\r\n\
     ST: ssdp:all\r\n\r\n"
        .to_string()
}

/// Whether `text` is an M-SEARCH discovery probe: exactly the texts for
/// which `SsdpMessage::parse(text).is_ok_and(|m| m.is_msearch())` holds,
/// checked on borrowed lines without building the message. A device answers
/// every datagram it receives through this check.
pub fn is_msearch(text: &str) -> bool {
    let mut lines = text.split("\r\n");
    let start_line = lines.next().unwrap_or_default();
    start_line.starts_with("M-SEARCH")
        && (start_line.contains("HTTP/1.1") || start_line.contains("HTTP/1.0"))
        && lines.take_while(|line| !line.is_empty()).all(|line| line.contains(':'))
}

/// An SSDP message: start line plus ordered headers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SsdpMessage {
    pub start_line: String,
    pub headers: Vec<(String, String)>,
}

impl SsdpMessage {
    /// A 200 OK discovery response advertising a root device.
    pub fn discovery_response(server: &str, usn_uuid: &str, location: &str) -> SsdpMessage {
        SsdpMessage {
            start_line: "HTTP/1.1 200 OK".into(),
            headers: vec![
                ("CACHE-CONTROL".into(), "max-age=120".into()),
                ("ST".into(), "upnp:rootdevice".into()),
                ("USN".into(), format!("uuid:{usn_uuid}::upnp:rootdevice")),
                ("EXT".into(), String::new()),
                ("SERVER".into(), server.into()),
                ("LOCATION".into(), location.into()),
            ],
        }
    }

    pub fn render(&self) -> String {
        let mut s = format!("{}\r\n", self.start_line);
        for (k, v) in &self.headers {
            s.push_str(&format!("{k}: {v}\r\n"));
        }
        s.push_str("\r\n");
        s
    }

    /// Parse an SSDP header block. Requires a start line; tolerates missing
    /// trailing blank line (datagram truncation).
    pub fn parse(text: &str) -> Result<SsdpMessage, WireError> {
        let mut lines = text.split("\r\n");
        let start_line = lines
            .next()
            .filter(|l| !l.is_empty())
            .ok_or(WireError::BadMagic { what: "ssdp" })?
            .to_string();
        if !start_line.contains("HTTP/1.1") && !start_line.contains("HTTP/1.0") {
            return Err(WireError::BadMagic { what: "ssdp" });
        }
        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                break;
            }
            match line.split_once(':') {
                Some((k, v)) => headers.push((k.trim().to_string(), v.trim().to_string())),
                None => {
                    return Err(WireError::invalid("ssdp header", line.to_string()));
                }
            }
        }
        Ok(SsdpMessage {
            start_line,
            headers,
        })
    }

    /// Case-insensitive header lookup (SSDP implementations vary wildly).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether this is an M-SEARCH discovery probe.
    pub fn is_msearch(&self) -> bool {
        self.start_line.starts_with("M-SEARCH")
    }

    /// Whether this response discloses a root device.
    pub fn discloses_rootdevice(&self) -> bool {
        self.header("ST").is_some_and(|v| v.contains("rootdevice"))
            || self.header("USN").is_some_and(|v| v.contains("rootdevice"))
    }
}

/// The device description document behind `LOCATION` — the fields Appendix
/// Table 11 identifies devices with. Rendered in a compact text form the
/// ZTag-style tagger matches on (`Friendly Name: …`, `Model Name: …`),
/// mirroring how the paper quotes these responses.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DeviceDescription {
    pub friendly_name: String,
    pub manufacturer: String,
    pub model_name: String,
    pub model_description: String,
    pub model_number: String,
}

impl DeviceDescription {
    pub fn render(&self) -> String {
        let mut s = String::new();
        let mut field = |label: &str, v: &str| {
            if !v.is_empty() {
                s.push_str(&format!("{label}: {v}\r\n"));
            }
        };
        field("Friendly Name", &self.friendly_name);
        field("Manufacturer", &self.manufacturer);
        field("Model Name", &self.model_name);
        field("Model Description", &self.model_description);
        field("Model Number", &self.model_number);
        s
    }

    pub fn parse(text: &str) -> DeviceDescription {
        let mut d = DeviceDescription::default();
        for line in text.lines() {
            if let Some((k, v)) = line.split_once(':') {
                let v = v.trim().trim_end_matches('\r').to_string();
                match k.trim() {
                    "Friendly Name" => d.friendly_name = v,
                    "Manufacturer" => d.manufacturer = v,
                    "Model Name" => d.model_name = v,
                    "Model Description" => d.model_description = v,
                    "Model Number" => d.model_number = v,
                    _ => {}
                }
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msearch_is_recognized() {
        let probe = msearch_all();
        let m = SsdpMessage::parse(&probe).unwrap();
        assert!(m.is_msearch());
        assert_eq!(m.header("st"), Some("ssdp:all"));
        assert_eq!(m.header("MAN"), Some("\"ssdp:discover\""));
    }

    #[test]
    fn golden_discovery_response_matches_paper_shape() {
        // Table 3's example response: upnp:rootdevice with MiniUPnPd SERVER.
        let resp = SsdpMessage::discovery_response(
            "Ubuntu/lucid UPnP/1.0 MiniUPnPd/1.4",
            "5a34308c-1a2c-4546-ac5d-7663dd01dca1",
            "http://192.168.0.1:16537/rootDesc.xml",
        );
        let text = resp.render();
        assert!(text.contains("ST: upnp:rootdevice\r\n"));
        assert!(text.contains("SERVER: Ubuntu/lucid UPnP/1.0 MiniUPnPd/1.4\r\n"));
        let back = SsdpMessage::parse(&text).unwrap();
        assert!(back.discloses_rootdevice());
        assert_eq!(
            back.header("usn"),
            Some("uuid:5a34308c-1a2c-4546-ac5d-7663dd01dca1::upnp:rootdevice")
        );
    }

    #[test]
    fn parse_rejects_non_http() {
        assert!(SsdpMessage::parse("").is_err());
        assert!(SsdpMessage::parse("GARBAGE\r\nmore\r\n").is_err());
        assert!(SsdpMessage::parse("HTTP/1.1 200 OK\r\nno-colon-line\r\n").is_err());
    }

    #[test]
    fn device_description_roundtrip() {
        let d = DeviceDescription {
            friendly_name: "N100 H.264 IP Camera - 004B1000E3E2".into(),
            manufacturer: "Beward".into(),
            model_name: "N100".into(),
            model_description: String::new(),
            model_number: String::new(),
        };
        let text = d.render();
        assert!(text.contains("Friendly Name: N100 H.264 IP Camera - 004B1000E3E2"));
        assert_eq!(DeviceDescription::parse(&text), d);
    }

    #[test]
    fn parse_skips_unknown_fields() {
        let d = DeviceDescription::parse("Nonsense: x\r\nModel Name: RTL8671\r\n");
        assert_eq!(d.model_name, "RTL8671");
        assert!(d.friendly_name.is_empty());
    }
}
