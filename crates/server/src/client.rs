//! A small blocking client for the cedar-server protocol, used by
//! `cedar-cli` and the integration tests. It speaks the binary framing.

use crate::proto::{self, Request, Response};
use cedar_workloads::treedef::TreeDef;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

/// The wire format a [`Client`] speaks. Binary is the only one; the type
/// stays because the repo benchmark (`benchmark/`) names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireFormat {
    /// The zero-copy binary layout of [`crate::wire2`] behind protocol
    /// version [`proto::PROTO_VERSION_BINARY`].
    #[default]
    Binary,
}

impl WireFormat {
    /// The format's name, for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WireFormat::Binary => "binary",
        }
    }
}

/// One connection to a cedar-server; requests run synchronously in
/// submission order.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    /// Reused encode scratch so requests allocate nothing in steady
    /// state.
    buf: Vec<u8>,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            buf: Vec::new(),
        })
    }

    /// [`connect`](Client::connect) under the name the repo benchmark
    /// (`benchmark/`) calls.
    pub fn connect_with(addr: impl ToSocketAddrs, _wire: WireFormat) -> io::Result<Self> {
        Self::connect(addr)
    }

    /// Sends one request and waits for its response (a refusal in the
    /// legacy framing decodes as a typed error response too).
    pub fn request(&mut self, req: &Request) -> io::Result<Response> {
        proto::write_frame_binary_buf(&mut self.stream, req, &mut self.buf)?;
        match proto::read_frame_raw(&mut self.stream)? {
            Some(raw) => raw.decode_auto(),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before responding",
            )),
        }
    }

    /// Runs one aggregation query.
    pub fn query(
        &mut self,
        tree: &TreeDef,
        deadline: Option<f64>,
        seed: Option<u64>,
    ) -> io::Result<Response> {
        self.request(&Request::query(tree.clone(), deadline, seed))
    }

    /// Runs one aggregation query with the decision trace enabled; the
    /// response's result carries the trace report.
    pub fn query_explain(
        &mut self,
        tree: &TreeDef,
        deadline: Option<f64>,
        seed: Option<u64>,
    ) -> io::Result<Response> {
        self.request(&Request::query(tree.clone(), deadline, seed).with_explain(true))
    }

    /// Fetches the server's counter snapshot.
    pub fn stats(&mut self) -> io::Result<Response> {
        self.request(&Request::stats())
    }

    /// Fetches the server's Prometheus-text metrics snapshot.
    pub fn metrics(&mut self) -> io::Result<Response> {
        self.request(&Request::metrics())
    }

    /// Fetches the server's elasticity health snapshot.
    pub fn health(&mut self) -> io::Result<Response> {
        self.request(&Request::health())
    }

    /// Checks liveness.
    pub fn ping(&mut self) -> io::Result<Response> {
        self.request(&Request::ping())
    }

    /// Asks the server to shut down gracefully.
    pub fn shutdown_server(&mut self) -> io::Result<Response> {
        self.request(&Request::shutdown())
    }
}
