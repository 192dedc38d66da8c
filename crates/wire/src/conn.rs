//! Client-side connection pieces: the `--wire` mode knob and the text
//! `HELLO` negotiation.

use std::fmt;
use std::io::{self, BufRead, Write};
use std::str::FromStr;
use uucs_protocol::wire::{read_server_msg, write_client_msg};
use uucs_protocol::{ClientMsg, ServerMsg, WIRE_VERSION_TEXT};

/// Which wire framing a client should use — the `--wire` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireMode {
    /// Plain text (wire v1), no negotiation: byte-identical to a
    /// legacy client. The default for embedded transports, so existing
    /// behavior never changes without an explicit opt-in.
    #[default]
    Text,
    /// Require binary (wire v2): if the server cannot negotiate it,
    /// the connection fails with a permanent error instead of quietly
    /// degrading — for deployments that *mean* it.
    Binary,
    /// Negotiate: try `HELLO`, use binary if the server agrees, fall
    /// back to text (including against legacy servers that answer
    /// `ERROR`). What the `uucs-client` daemon defaults to.
    Auto,
}

impl FromStr for WireMode {
    type Err = String;
    fn from_str(s: &str) -> Result<WireMode, String> {
        match s {
            "text" => Ok(WireMode::Text),
            "binary" => Ok(WireMode::Binary),
            "auto" => Ok(WireMode::Auto),
            other => Err(format!("unknown wire mode {other:?} (text|binary|auto)")),
        }
    }
}

impl fmt::Display for WireMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            WireMode::Text => "text",
            WireMode::Binary => "binary",
            WireMode::Auto => "auto",
        })
    }
}

/// Outcome of the text-phase `HELLO` exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Negotiated {
    /// The server answered `HELLO <version>`; this connection speaks
    /// `version` from here on (1 = stay in text, 2 = switch to binary
    /// framing immediately).
    Version(u32),
    /// A legacy server answered `ERROR` (the unknown-verb rule): it
    /// speaks only text and the connection is still perfectly usable.
    LegacyText,
}

/// Runs the client half of the `HELLO` exchange on a fresh connection:
/// requests `want` (normally [`WIRE_VERSION_BINARY`]) and interprets
/// the reply. Must be the first exchange on the connection.
///
/// Errors: anything other than a `HELLO` or `ERROR` reply is
/// `InvalidData` (the peer is confused); transport errors pass
/// through.
pub fn negotiate(
    w: &mut impl Write,
    r: &mut impl BufRead,
    want: u32,
) -> io::Result<Negotiated> {
    write_client_msg(w, &ClientMsg::Hello { version: want })?;
    match read_server_msg(r)? {
        ServerMsg::Hello { version } => {
            if version > want || version < WIRE_VERSION_TEXT {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("server negotiated version {version}, outside 1..={want}"),
                ));
            }
            Ok(Negotiated::Version(version))
        }
        // A legacy server answers ERROR for the unknown HELLO verb and
        // keeps the connection — exactly the fallback path.
        ServerMsg::Error(_) => Ok(Negotiated::LegacyText),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected HELLO reply {other:?}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use uucs_protocol::wire::write_server_msg;
    use uucs_protocol::WIRE_VERSION_BINARY;

    #[test]
    fn wire_mode_parses() {
        assert_eq!("text".parse::<WireMode>().unwrap(), WireMode::Text);
        assert_eq!("binary".parse::<WireMode>().unwrap(), WireMode::Binary);
        assert_eq!("auto".parse::<WireMode>().unwrap(), WireMode::Auto);
        assert!("fancy".parse::<WireMode>().is_err());
        assert_eq!(WireMode::default(), WireMode::Text);
        assert_eq!(WireMode::Auto.to_string(), "auto");
    }

    fn negotiate_against(reply: &ServerMsg) -> io::Result<Negotiated> {
        let mut reply_bytes = Vec::new();
        write_server_msg(&mut reply_bytes, reply).unwrap();
        let mut sent = Vec::new();
        let mut reader = Cursor::new(reply_bytes);
        negotiate(&mut sent, &mut reader, WIRE_VERSION_BINARY)
    }

    #[test]
    fn negotiation_interprets_replies() {
        assert_eq!(
            negotiate_against(&ServerMsg::Hello {
                version: WIRE_VERSION_BINARY
            })
            .unwrap(),
            Negotiated::Version(WIRE_VERSION_BINARY)
        );
        assert_eq!(
            negotiate_against(&ServerMsg::Hello {
                version: WIRE_VERSION_TEXT
            })
            .unwrap(),
            Negotiated::Version(WIRE_VERSION_TEXT)
        );
        assert_eq!(
            negotiate_against(&ServerMsg::Error("unknown client message".into())).unwrap(),
            Negotiated::LegacyText
        );
        // A server "negotiating" a version we never offered is broken.
        assert!(negotiate_against(&ServerMsg::Hello { version: 9 }).is_err());
        // Any other reply is a protocol violation.
        assert!(negotiate_against(&ServerMsg::Ack(1)).is_err());
    }

    #[test]
    fn negotiation_sends_hello_first() {
        let mut reply_bytes = Vec::new();
        write_server_msg(
            &mut reply_bytes,
            &ServerMsg::Hello {
                version: WIRE_VERSION_BINARY,
            },
        )
        .unwrap();
        let mut sent = Vec::new();
        let mut reader = Cursor::new(reply_bytes);
        negotiate(&mut sent, &mut reader, WIRE_VERSION_BINARY).unwrap();
        assert_eq!(String::from_utf8(sent).unwrap(), "HELLO 2\n");
    }
}
