//! In-process serving harness: a real server on an ephemeral port plus a
//! typed client, so tests and benches exercise the full TCP + JSON path
//! without fixtures or port coordination.
//!
//! [`ServeHarness::start`] binds `127.0.0.1:0`, [`ServeHarness::client`]
//! connects a [`ServeClient`] that speaks the `crates/serve` protocol
//! with auto-assigned request ids, and [`ServeHarness::shutdown`] drains
//! the server and reports whether every connection closed. The client
//! also exposes raw line I/O ([`ServeClient::raw_line`],
//! [`ServeClient::send_raw`]) so the robustness tests can send malformed
//! JSON, oversized lines, and truncated frames through the same door.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use dbtf_telemetry::JsonValue;

use crate::metrics::ServeMetrics;
use crate::server::{Server, ServerConfig, ServerHandle};
use crate::store::FactorStore;

/// A failure on the client side of a serve conversation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Socket-level failure (including the server closing the stream).
    Io(String),
    /// The server answered with a typed error reply.
    Server {
        /// The stable error code (`parse`, `out_of_range`, ...).
        code: String,
        /// The server's human-readable message.
        message: String,
    },
    /// The server's reply could not be interpreted.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(msg) => write!(f, "serve client I/O error: {msg}"),
            ClientError::Server { code, message } => write!(f, "server error [{code}]: {message}"),
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Store metadata from an `info` query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreInfo {
    /// Tensor dimensions `[I, J, K]`.
    pub dims: [usize; 3],
    /// Factor rank.
    pub rank: usize,
    /// The served factor-set version.
    pub set_version: u64,
    /// `"ram"` or `"mmap"`.
    pub source: String,
}

/// A server running in-process on an ephemeral port.
pub struct ServeHarness {
    handle: Option<ServerHandle>,
}

impl ServeHarness {
    /// Starts a server over `store` with default config (port 0).
    pub fn start(store: FactorStore) -> ServeHarness {
        ServeHarness::start_with(store, ServerConfig::default())
    }

    /// Starts a server with an explicit config; the bind address is
    /// forced to an ephemeral localhost port.
    pub fn start_with(store: FactorStore, mut config: ServerConfig) -> ServeHarness {
        config.addr = "127.0.0.1:0".into();
        let handle = Server::start(store, config).expect("bind ephemeral serve port");
        ServeHarness {
            handle: Some(handle),
        }
    }

    fn handle(&self) -> &ServerHandle {
        self.handle.as_ref().expect("harness not shut down")
    }

    /// The server's live address.
    pub fn addr(&self) -> SocketAddr {
        self.handle().addr()
    }

    /// The server's counters.
    pub fn metrics(&self) -> Arc<ServeMetrics> {
        self.handle().metrics()
    }

    /// Whether the server is draining.
    pub fn is_draining(&self) -> bool {
        self.handle().is_draining()
    }

    /// A fresh typed client connection.
    pub fn client(&self) -> ServeClient {
        ServeClient::connect(self.addr()).expect("connect to in-process server")
    }

    /// Drains and stops; `true` when every connection closed in time.
    pub fn shutdown(mut self) -> bool {
        self.handle
            .take()
            .expect("harness not shut down")
            .shutdown(Duration::from_secs(5))
    }
}

/// A typed client speaking the serve protocol over one connection.
pub struct ServeClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

impl ServeClient {
    /// Connects to a serve endpoint.
    pub fn connect(addr: SocketAddr) -> std::io::Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(ServeClient {
            stream,
            reader,
            next_id: 1,
        })
    }

    fn io_err(e: std::io::Error) -> ClientError {
        ClientError::Io(e.to_string())
    }

    /// Sends raw bytes as-is (no newline added, no reply read) — the
    /// truncated-frame and mid-request-disconnect tests' entry point.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        self.stream.write_all(bytes).map_err(Self::io_err)?;
        self.stream.flush().map_err(Self::io_err)
    }

    /// Reads one reply line (newline stripped). An empty `Ok` is
    /// impossible: a closed stream is `Err(Io)`.
    pub fn read_reply_line(&mut self) -> Result<String, ClientError> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).map_err(Self::io_err)?;
        if n == 0 {
            return Err(ClientError::Io("server closed the connection".into()));
        }
        Ok(line.trim_end_matches('\n').to_string())
    }

    /// Sends one raw request line and returns the raw reply line.
    pub fn raw_line(&mut self, line: &str) -> Result<String, ClientError> {
        self.send_raw(format!("{line}\n").as_bytes())?;
        self.read_reply_line()
    }

    /// Sends a request body (the fields after `"id":N,`), returns the
    /// parsed reply after checking `id` and unwrapping `ok:false`.
    fn request(&mut self, body: &str) -> Result<JsonValue, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let reply = self.raw_line(&format!("{{\"id\":{id},{body}}}"))?;
        let value = JsonValue::parse(&reply)
            .map_err(|e| ClientError::Protocol(format!("unparseable reply {reply:?}: {e}")))?;
        check_reply(&value, Some(id))
    }

    /// `point i j k`.
    pub fn point(&mut self, i: usize, j: usize, k: usize) -> Result<bool, ClientError> {
        let reply = self.request(&format!("\"q\":\"point\",\"i\":{i},\"j\":{j},\"k\":{k}"))?;
        reply
            .get("value")
            .and_then(JsonValue::as_bool)
            .ok_or_else(|| ClientError::Protocol("point reply missing value".into()))
    }

    /// `slice` with 1-based wire `mode` (the free axis); `lo`/`hi` are
    /// the fixed indices in ascending mode order.
    pub fn slice(&mut self, mode: usize, lo: usize, hi: usize) -> Result<Vec<usize>, ClientError> {
        let (lo_name, hi_name) = match mode {
            1 => ("j", "k"),
            2 => ("i", "k"),
            _ => ("i", "j"),
        };
        let reply = self.request(&format!(
            "\"q\":\"slice\",\"mode\":{mode},\"{lo_name}\":{lo},\"{hi_name}\":{hi}"
        ))?;
        let items = reply
            .get("indices")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| ClientError::Protocol("slice reply missing indices".into()))?;
        items
            .iter()
            .map(|v| {
                v.as_u64()
                    .map(|n| n as usize)
                    .ok_or_else(|| ClientError::Protocol("non-integer slice index".into()))
            })
            .collect()
    }

    /// `topk` with 1-based wire `mode` (which factor the entity indexes).
    pub fn topk(
        &mut self,
        mode: usize,
        entity: usize,
        k: usize,
    ) -> Result<Vec<(usize, u64)>, ClientError> {
        let reply = self.request(&format!(
            "\"q\":\"topk\",\"mode\":{mode},\"entity\":{entity},\"k\":{k}"
        ))?;
        let items = reply
            .get("columns")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| ClientError::Protocol("topk reply missing columns".into()))?;
        items
            .iter()
            .map(|pair| {
                let pair = pair.as_array().unwrap_or(&[]);
                match (
                    pair.first().and_then(JsonValue::as_u64),
                    pair.get(1).and_then(JsonValue::as_u64),
                ) {
                    (Some(col), Some(weight)) => Ok((col as usize, weight)),
                    _ => Err(ClientError::Protocol("malformed topk column pair".into())),
                }
            })
            .collect()
    }

    /// Sends a whole batch of already-encoded request objects as one
    /// array line; returns the per-element replies in order.
    pub fn batch(&mut self, bodies: &[String]) -> Result<Vec<JsonValue>, ClientError> {
        let line = format!("[{}]", bodies.join(","));
        let reply = self.raw_line(&line)?;
        let value = JsonValue::parse(&reply)
            .map_err(|e| ClientError::Protocol(format!("unparseable batch reply: {e}")))?;
        match value {
            JsonValue::Array(items) => Ok(items),
            other => Ok(vec![other]),
        }
    }

    /// `ping`.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.request("\"q\":\"ping\"").map(|_| ())
    }

    /// `info`.
    pub fn info(&mut self) -> Result<StoreInfo, ClientError> {
        let reply = self.request("\"q\":\"info\"")?;
        let bad = |what: &str| ClientError::Protocol(format!("info reply missing {what}"));
        let dims = reply
            .get("dims")
            .and_then(JsonValue::as_array)
            .ok_or_else(|| bad("dims"))?;
        if dims.len() != 3 {
            return Err(bad("3 dims"));
        }
        let dim = |n: usize| {
            dims[n]
                .as_u64()
                .map(|v| v as usize)
                .ok_or_else(|| bad("dim"))
        };
        Ok(StoreInfo {
            dims: [dim(0)?, dim(1)?, dim(2)?],
            rank: reply
                .get("rank")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| bad("rank"))? as usize,
            set_version: reply
                .get("set_version")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| bad("set_version"))?,
            source: reply
                .get("source")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| bad("source"))?
                .to_string(),
        })
    }

    /// `stats`: the counter snapshot, in export order.
    pub fn stats(&mut self) -> Result<Vec<(String, f64)>, ClientError> {
        let reply = self.request("\"q\":\"stats\"")?;
        match reply.get("counters") {
            Some(JsonValue::Object(fields)) => Ok(fields
                .iter()
                .map(|(name, value)| (name.clone(), value.as_f64().unwrap_or(f64::NAN)))
                .collect()),
            _ => Err(ClientError::Protocol("stats reply missing counters".into())),
        }
    }

    /// One counter by name (convenience over [`ServeClient::stats`]).
    pub fn counter(&mut self, name: &str) -> Result<f64, ClientError> {
        self.stats()?
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
            .ok_or_else(|| ClientError::Protocol(format!("no counter {name:?}")))
    }

    /// `reload`: asks the server to hot-swap the factor set at `path`
    /// (a path on the *server's* filesystem, so send an absolute one
    /// unless both sides share a working directory). `source` overrides
    /// the storage kind (`"ram"`/`"mmap"`). Returns `(set_version,
    /// generation)`.
    pub fn reload(&mut self, path: &str, source: Option<&str>) -> Result<(u64, u64), ClientError> {
        let mut body = String::from("\"q\":\"reload\",\"path\":");
        crate::protocol::push_json_string(path, &mut body);
        if let Some(source) = source {
            body.push_str(",\"source\":");
            crate::protocol::push_json_string(source, &mut body);
        }
        let reply = self.request(&body)?;
        let bad = |what: &str| ClientError::Protocol(format!("reload reply missing {what}"));
        let get = |name: &str| reply.get(name).and_then(JsonValue::as_u64);
        Ok((
            get("set_version").ok_or_else(|| bad("set_version"))?,
            get("generation").ok_or_else(|| bad("generation"))?,
        ))
    }

    /// `shutdown`: asks the server to drain. The server acknowledges and
    /// then closes this connection.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        let reply = self.request("\"q\":\"shutdown\"")?;
        match reply.get("draining").and_then(JsonValue::as_bool) {
            Some(true) => Ok(()),
            _ => Err(ClientError::Protocol(
                "shutdown reply missing draining:true".into(),
            )),
        }
    }
}

/// Validates a reply's `id` and converts `ok:false` into
/// [`ClientError::Server`].
pub fn check_reply(value: &JsonValue, expect_id: Option<u64>) -> Result<JsonValue, ClientError> {
    if let Some(id) = expect_id {
        if value.get("id").and_then(JsonValue::as_u64) != Some(id) {
            return Err(ClientError::Protocol(format!("reply did not echo id {id}")));
        }
    }
    match value.get("ok").and_then(JsonValue::as_bool) {
        Some(true) => Ok(value.clone()),
        Some(false) => Err(ClientError::Server {
            code: value
                .get("code")
                .and_then(JsonValue::as_str)
                .unwrap_or("unknown")
                .to_string(),
            message: value
                .get("error")
                .and_then(JsonValue::as_str)
                .unwrap_or_default()
                .to_string(),
        }),
        None => Err(ClientError::Protocol("reply missing ok field".into())),
    }
}
