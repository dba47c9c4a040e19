//! TCP front end for the router.
//!
//! Speaks exactly the serve wire protocol (newline-delimited JSON, same
//! request/envelope shapes), so every existing client — the
//! `probase-cli` REPL, the `Client` type — points at a router without
//! modification. Each connection gets a reader thread; requests
//! on one connection are handled serially (pipelining across
//! connections, like the single-node server's per-connection ordering).

use crate::engine::Router;
use probase_obs::json::{self, Json};
use probase_serve::proto::{err_envelope, ErrorCode, Request};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Longest accepted request line, matching the single-node server.
const MAX_LINE: usize = 256 * 1024;

/// A running router front end.
pub struct RouterServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    router: Arc<Router>,
}

impl RouterServer {
    /// Bind `addr` and start accepting connections.
    pub fn start(router: Arc<Router>, addr: &str) -> std::io::Result<RouterServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_router = Arc::clone(&router);
        let accept_handle = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let conn_router = Arc::clone(&accept_router);
                std::thread::spawn(move || serve_connection(stream, conn_router));
            }
        });
        Ok(RouterServer {
            addr: local,
            shutdown,
            accept_handle: Some(accept_handle),
            router,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The routing engine behind this front end.
    pub fn router(&self) -> Arc<Router> {
        Arc::clone(&self.router)
    }

    /// Stop accepting connections and join the accept loop. In-flight
    /// connections finish their current request and then error out.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Kick the blocking accept.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
    }
}

fn serve_connection(stream: TcpStream, router: Arc<Router>) {
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut writer = write_half;
    let mut reader = BufReader::new(stream);
    let mut line: Vec<u8> = Vec::new();
    loop {
        line.clear();
        match read_bounded_line(&mut reader, &mut line) {
            Ok(0) => return, // clean EOF
            Ok(_) => {}
            Err(ReadError::TooLong) => {
                let reply = err_envelope(0, ErrorCode::LineTooLarge, "request line too large");
                let _ = writeln!(writer, "{reply}");
                return;
            }
            Err(ReadError::Io) => return,
        }
        let text = String::from_utf8_lossy(&line);
        let reply = respond(&router, text.trim());
        if writeln!(writer, "{reply}").is_err() {
            return;
        }
    }
}

fn respond(router: &Router, line: &str) -> Json {
    if line.is_empty() {
        return err_envelope(0, ErrorCode::BadRequest, "empty request line");
    }
    let v = match json::parse(line) {
        Ok(v) => v,
        Err(e) => return err_envelope(0, ErrorCode::BadRequest, &format!("bad JSON: {e}")),
    };
    let id = v.get("id").and_then(Json::as_u64).unwrap_or(0);
    match Request::from_json(&v) {
        Ok((id, req)) => router.handle(id, &req),
        Err(detail) => err_envelope(id, ErrorCode::BadRequest, &detail),
    }
}

enum ReadError {
    TooLong,
    Io,
}

/// `read_until` with a hard cap so a hostile peer cannot balloon memory.
fn read_bounded_line(
    reader: &mut BufReader<TcpStream>,
    line: &mut Vec<u8>,
) -> Result<usize, ReadError> {
    loop {
        let available = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(_) => return Err(ReadError::Io),
        };
        if available.is_empty() {
            return if line.is_empty() {
                Ok(0)
            } else {
                Ok(line.len())
            };
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                line.extend_from_slice(&available[..pos]);
                reader.consume(pos + 1);
                if line.len() > MAX_LINE {
                    return Err(ReadError::TooLong);
                }
                return Ok(line.len() + 1);
            }
            None => {
                let n = available.len();
                line.extend_from_slice(available);
                reader.consume(n);
                if line.len() > MAX_LINE {
                    return Err(ReadError::TooLong);
                }
            }
        }
    }
}
