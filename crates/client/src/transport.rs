//! Transports carrying the wire protocol to a server.

use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;
use uucs_protocol::wire::{read_server_msg, write_client_msg, Endpoint};
use uucs_protocol::{ClientMsg, ServerMsg, WIRE_VERSION_BINARY, WIRE_VERSION_TEXT};
use uucs_wire::conn::{negotiate, Negotiated};
use uucs_wire::frame::{read_server_frame, write_client_frame};
use uucs_wire::WireMode;

/// A connection to a UUCS server.
pub trait ClientTransport {
    /// Sends one message and reads the reply.
    fn exchange(&mut self, msg: &ClientMsg) -> io::Result<ServerMsg>;
}

/// A TCP connection to a server in whichever framing the dial settled
/// on: the text line protocol (wire v1) or negotiated binary frames
/// (wire v2). Requests may be pipelined — several [`TcpTransport::send`]s
/// before their [`TcpTransport::recv`]s — and replies come back in
/// request order in both framings.
pub struct TcpTransport {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// The connection speaks binary frames (wire v2).
    binary: bool,
    /// Binary request ids: the next one to send, and the one the next
    /// reply must echo (the server answers in request order). Ids only
    /// need to be unique within the pipeline window, so they wrap,
    /// skipping 0.
    next_req: u32,
    ack_req: u32,
}

impl TcpTransport {
    /// Connects to a server address over the text protocol, with no
    /// deadline.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::dial(addr, WireMode::Text, None)
    }

    /// Connects to the first resolved address that answers, with
    /// `deadline` (if any) bounding the dial and every later read and
    /// write, then settles the framing: [`WireMode::Text`] sends no
    /// `HELLO`; [`WireMode::Auto`] negotiates and falls back to text;
    /// [`WireMode::Binary`] fails with `InvalidData` when the server
    /// cannot speak wire v2.
    pub fn dial(
        addr: impl ToSocketAddrs,
        wire: WireMode,
        deadline: Option<Duration>,
    ) -> io::Result<Self> {
        let stream = open(addr, deadline)?;
        // The protocol is request/reply; Nagle only adds latency to
        // small request frames.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(deadline)?;
        stream.set_write_timeout(deadline)?;
        let mut transport = TcpTransport {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            binary: false,
            next_req: 1,
            ack_req: 1,
        };
        if wire == WireMode::Text {
            return Ok(transport);
        }
        // A server that answers HELLO with version 1, or a legacy server
        // that answers ERROR, leaves the socket in text.
        transport.binary = matches!(
            negotiate(&mut transport.writer, &mut transport.reader, WIRE_VERSION_BINARY)?,
            Negotiated::Version(v) if v >= WIRE_VERSION_BINARY
        );
        if wire == WireMode::Binary && !transport.binary {
            // Permanent (`InvalidData`): retrying a server that cannot
            // comply only delays the caller's fallback.
            let server = transport
                .writer
                .peer_addr()
                .map_or_else(|_| "server".to_string(), |a| format!("server {a}"));
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{server} cannot speak the binary wire (--wire binary)"),
            ));
        }
        Ok(transport)
    }

    /// The wire version this connection speaks.
    pub fn version(&self) -> u32 {
        if self.binary {
            WIRE_VERSION_BINARY
        } else {
            WIRE_VERSION_TEXT
        }
    }

    /// Sends one request without waiting for its reply.
    pub fn send(&mut self, msg: &ClientMsg) -> io::Result<()> {
        if !self.binary {
            return write_client_msg(&mut self.writer, msg);
        }
        write_client_frame(&mut self.writer, self.next_req, msg)?;
        self.next_req = self.next_req.wrapping_add(1).max(1);
        Ok(())
    }

    /// Receives the reply to the oldest unanswered request. A binary
    /// reply that echoes any other request id is `InvalidData`: the
    /// peer lost framing.
    pub fn recv(&mut self) -> io::Result<ServerMsg> {
        if !self.binary {
            return read_server_msg(&mut self.reader);
        }
        let (req_id, reply) = read_server_frame(&mut self.reader)?;
        let expected = self.ack_req;
        if req_id != expected {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("reply correlates request {req_id}, expected {expected}"),
            ));
        }
        self.ack_req = expected.wrapping_add(1).max(1);
        Ok(reply)
    }

    /// Ends the session politely (`BYE` has no reply).
    pub fn bye(&mut self) -> io::Result<()> {
        self.send(&ClientMsg::Bye)
    }
}

/// Connects to the first of `addr`'s resolved addresses that accepts,
/// each dial bounded by `deadline` when one is given.
fn open(addr: impl ToSocketAddrs, deadline: Option<Duration>) -> io::Result<TcpStream> {
    let Some(deadline) = deadline else {
        return TcpStream::connect(addr);
    };
    let mut last_err = None;
    for sa in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&sa, deadline) {
            Ok(stream) => return Ok(stream),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
    }))
}

impl ClientTransport for TcpTransport {
    fn exchange(&mut self, msg: &ClientMsg) -> io::Result<ServerMsg> {
        self.send(msg)?;
        self.recv()
    }
}

/// In-process transport: calls the server's handler directly. The same
/// [`Endpoint`] backs the TCP listener, so tests exercise identical
/// server logic without sockets.
pub struct LocalTransport {
    endpoint: Arc<dyn Endpoint>,
}

impl LocalTransport {
    /// Wraps a shared endpoint.
    pub fn new(endpoint: Arc<dyn Endpoint>) -> Self {
        LocalTransport { endpoint }
    }
}

impl ClientTransport for LocalTransport {
    fn exchange(&mut self, msg: &ClientMsg) -> io::Result<ServerMsg> {
        Ok(self.endpoint.handle(msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl Endpoint for Echo {
        fn handle(&self, msg: &ClientMsg) -> ServerMsg {
            match msg {
                ClientMsg::Sync { have, .. } => ServerMsg::Ack(*have),
                _ => ServerMsg::Error("unexpected".into()),
            }
        }
    }

    #[test]
    fn local_transport_calls_endpoint() {
        let mut t = LocalTransport::new(Arc::new(Echo));
        let reply = t
            .exchange(&ClientMsg::Sync {
                client: "c".into(),
                have: 5,
                want: 1,
            })
            .unwrap();
        assert_eq!(reply, ServerMsg::Ack(5));
    }
}
