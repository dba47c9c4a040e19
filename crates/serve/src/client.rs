//! A small blocking client for the newline-delimited JSON protocol,
//! with configurable retries.
//!
//! One request, one response, in order — the closed-loop shape the
//! tests use. (The server supports pipelining via response `id`s; this
//! client simply doesn't need it.)
//!
//! ## Retry model
//!
//! A [`ClientConfig`] turns on bounded retries with exponential backoff
//! and jitter. The rules, enforced here rather than left to callers:
//!
//! * **Only idempotent reads retry** ([`Request::is_idempotent`]) — a
//!   retried `add-evidence` would double-count evidence, so writes fail
//!   fast and the caller decides.
//! * **Transport failures** (socket errors, truncated or garbled
//!   responses) tear down the connection and retry on a fresh one; the
//!   old stream's state is unknowable after a desync.
//! * **Load-shedding envelopes** (`overloaded`, `deadline-exceeded`,
//!   `too-many-connections` — [`ErrorCode::retryable`]) retry on the
//!   same connection after backing off.
//! * A **retry budget** caps retries across the client's lifetime, so a
//!   dying server makes a busy client fail fast instead of amplifying
//!   the outage with coordinated retry storms; per-call attempts are
//!   separately capped by `max_retries`.
//! * Exhaustion is surfaced as [`ClientError::RetriesExhausted`] with
//!   the final underlying error, so callers can tell "failed once" from
//!   "failed after the client did everything it could".
//!
//! Backoff after attempt `n` is `base_delay * multiplier^n`, capped at
//! `max_delay`, then shrunk by up to `jitter` uniformly at random —
//! jitter is seeded ([`ClientConfig::seed`]) with the same xorshift64*
//! generator `probase-testkit` uses, so chaos runs replay exactly.

use crate::json::{self, Json};
use crate::proto::{ErrorCode, Request};
use crate::telemetry::ClientTelemetry;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server sent something that is not a valid response.
    Protocol(String),
    /// A well-formed error envelope: `(code, detail)`.
    Server(String, String),
    /// The call kept failing until its retries (or the client's budget)
    /// ran out; `last` is the final attempt's error.
    RetriesExhausted {
        /// Total attempts made, including the first.
        attempts: u32,
        /// The error the final attempt died with.
        last: Box<ClientError>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Protocol(d) => write!(f, "protocol error: {d}"),
            ClientError::Server(code, detail) => write!(f, "server error [{code}]: {detail}"),
            ClientError::RetriesExhausted { attempts, last } => {
                write!(f, "retries exhausted after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Retry and transport tunables for [`Client::connect_with`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Retries per call beyond the first attempt (0 disables retrying —
    /// the default, matching the pre-retry client exactly).
    pub max_retries: u32,
    /// Lifetime cap on retries across all calls (the retry budget).
    pub retry_budget: u32,
    /// Backoff before the first retry.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Exponential growth factor per retry.
    pub multiplier: f64,
    /// Fraction of the delay randomly shaved off, in `[0, 1]`
    /// (decorrelates retry storms across clients).
    pub jitter: f64,
    /// Seed for the jitter stream — fix it to make a test replayable.
    pub seed: u64,
    /// Socket read timeout; a blackholed request surfaces as an
    /// [`ClientError::Io`] timeout (retryable) instead of hanging
    /// forever. `None` blocks indefinitely (the default).
    pub read_timeout: Option<Duration>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            max_retries: 0,
            retry_budget: 0,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            multiplier: 2.0,
            jitter: 0.5,
            seed: 0x9E37_79B9_7F4A_7C15,
            read_timeout: None,
        }
    }
}

impl ClientConfig {
    /// A sensible retrying profile: 4 retries per call, a budget of 64,
    /// 10ms → 500ms exponential backoff with 50% jitter, 5s read
    /// timeout.
    pub fn retrying() -> Self {
        Self {
            max_retries: 4,
            retry_budget: 64,
            read_timeout: Some(Duration::from_secs(5)),
            ..Self::default()
        }
    }
}

/// A parsed response envelope.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Echo of the request id.
    pub id: u64,
    /// Store version the answer reflects (success only).
    pub version: u64,
    /// The `data` payload (success) or the whole envelope (error).
    pub data: Json,
    /// `Some((code, detail))` when the server answered an error.
    pub error: Option<(String, String)>,
    /// `true` when a sharded deployment answered from a subset of shards
    /// (single-node servers never set this).
    pub degraded: bool,
    /// `true` when the answer was clipped by a server-side cap (e.g. a
    /// conceptualize slice hit `MAX_K`) and may be missing entries.
    pub truncated: bool,
}

impl Envelope {
    fn parse(v: &Json) -> Result<Envelope, String> {
        let id = v.get("id").and_then(Json::as_u64).ok_or("missing id")?;
        let ok = v.get("ok").and_then(Json::as_bool).ok_or("missing ok")?;
        if ok {
            Ok(Envelope {
                id,
                version: v
                    .get("version")
                    .and_then(Json::as_u64)
                    .ok_or("missing version")?,
                data: v.get("data").cloned().ok_or("missing data")?,
                error: None,
                degraded: v.get("degraded").and_then(Json::as_bool).unwrap_or(false),
                truncated: v.get("truncated").and_then(Json::as_bool).unwrap_or(false),
            })
        } else {
            let code = v
                .get("error")
                .and_then(Json::as_str)
                .ok_or("missing error code")?;
            let detail = v.get("detail").and_then(Json::as_str).unwrap_or("");
            Ok(Envelope {
                id,
                version: 0,
                data: v.clone(),
                error: Some((code.to_string(), detail.to_string())),
                degraded: false,
                truncated: false,
            })
        }
    }
}

/// A connected client.
pub struct Client {
    addr: SocketAddr,
    config: ClientConfig,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
    rng_state: u64,
    retries_spent: u32,
    telemetry: ClientTelemetry,
}

impl Client {
    /// Connect to a running `probase-serve` with retries disabled (the
    /// historical behavior).
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connect with an explicit [`ClientConfig`].
    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> std::io::Result<Client> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidInput, "no address resolved"))?;
        let (reader, writer) = open_stream(addr, &config)?;
        Ok(Client {
            addr,
            // Mix the seed exactly like testkit's SplitMix64 so a zero
            // seed still jitters.
            rng_state: splitmix64(config.seed).max(1),
            config,
            reader,
            writer,
            next_id: 1,
            retries_spent: 0,
            telemetry: ClientTelemetry::new(),
        })
    }

    /// Retries spent so far against [`ClientConfig::retry_budget`].
    pub fn retries_spent(&self) -> u32 {
        self.retries_spent
    }

    /// The retry telemetry handles.
    pub fn telemetry(&self) -> &ClientTelemetry {
        &self.telemetry
    }

    /// Send one request and wait for its response envelope (which may be
    /// a server-side error — that is a *successful* call here). Applies
    /// the configured retry policy; see the module docs for the rules.
    pub fn call(&mut self, req: &Request) -> Result<Envelope, ClientError> {
        let idempotent = req.is_idempotent();
        let mut attempt: u32 = 0;
        let mut broken = false;
        loop {
            if broken {
                match self.reconnect() {
                    Ok(()) => {
                        broken = false;
                        self.telemetry.reconnect();
                    }
                    Err(e) => {
                        // A failed reconnect consumes a retry like any
                        // other transport failure.
                        let err = ClientError::Io(e);
                        if idempotent && self.may_retry(attempt) {
                            self.spend_retry(attempt);
                            attempt += 1;
                            continue;
                        }
                        return self.give_up(attempt, err);
                    }
                }
            }
            match self.call_once(req) {
                Ok(envelope) => {
                    if idempotent {
                        if let Some((code, _)) = &envelope.error {
                            let retryable =
                                ErrorCode::parse(code).is_some_and(ErrorCode::retryable);
                            if retryable && self.may_retry(attempt) {
                                // The server answered; the connection is
                                // fine — just shed. Back off and retry
                                // in place.
                                self.spend_retry(attempt);
                                attempt += 1;
                                continue;
                            }
                        }
                    }
                    return Ok(envelope);
                }
                Err(err) => {
                    let transient = matches!(err, ClientError::Io(_) | ClientError::Protocol(_));
                    if idempotent && transient && self.may_retry(attempt) {
                        self.spend_retry(attempt);
                        attempt += 1;
                        broken = true; // desynced stream: reconnect
                        continue;
                    }
                    return self.give_up(attempt, err);
                }
            }
        }
    }

    /// Like [`Client::call`], but turns server error envelopes into
    /// `Err` and returns `(version, data)` on success.
    pub fn call_ok(&mut self, req: &Request) -> Result<(u64, Json), ClientError> {
        let envelope = self.call(req)?;
        match envelope.error {
            None => Ok((envelope.version, envelope.data)),
            Some((code, detail)) => Err(ClientError::Server(code, detail)),
        }
    }

    /// One wire round trip, no retry logic.
    fn call_once(&mut self, req: &Request) -> Result<Envelope, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let mut line = req.to_json(id).to_string();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;

        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(ClientError::Protocol(
                "server closed the connection".to_string(),
            ));
        }
        let v = json::parse(response.trim())
            .map_err(|e| ClientError::Protocol(format!("bad response JSON: {e}")))?;
        let envelope = Envelope::parse(&v).map_err(|d| ClientError::Protocol(d.to_string()))?;
        if envelope.id != id {
            return Err(ClientError::Protocol(format!(
                "response id {} does not match request id {id}",
                envelope.id
            )));
        }
        Ok(envelope)
    }

    fn reconnect(&mut self) -> std::io::Result<()> {
        let (reader, writer) = open_stream(self.addr, &self.config)?;
        self.reader = reader;
        self.writer = writer;
        Ok(())
    }

    fn may_retry(&self, attempt: u32) -> bool {
        attempt < self.config.max_retries && self.retries_spent < self.config.retry_budget
    }

    /// Count the retry and sleep the backoff for `attempt`.
    fn spend_retry(&mut self, attempt: u32) {
        self.retries_spent += 1;
        self.telemetry.retry();
        let exp = self.config.base_delay.as_secs_f64()
            * self.config.multiplier.max(1.0).powi(attempt as i32);
        let capped = exp.min(self.config.max_delay.as_secs_f64());
        let jittered = capped * (1.0 - self.config.jitter.clamp(0.0, 1.0) * self.next_unit());
        if jittered > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(jittered));
        }
    }

    fn give_up(&mut self, attempt: u32, err: ClientError) -> Result<Envelope, ClientError> {
        if attempt > 0 {
            self.telemetry.exhausted();
            return Err(ClientError::RetriesExhausted {
                attempts: attempt + 1,
                last: Box::new(err),
            });
        }
        Err(err)
    }

    /// Next jitter value in `[0, 1)` — xorshift64*, mirroring
    /// `probase-testkit` so seeded chaos runs replay byte-for-byte.
    fn next_unit(&mut self) -> f64 {
        let mut x = self.rng_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng_state = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn open_stream(
    addr: SocketAddr,
    config: &ClientConfig,
) -> std::io::Result<(BufReader<TcpStream>, TcpStream)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(config.read_timeout)?;
    let writer = stream.try_clone()?;
    Ok((BufReader::new(stream), writer))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_disables_retries() {
        let c = ClientConfig::default();
        assert_eq!(c.max_retries, 0);
        assert_eq!(c.retry_budget, 0);
        assert!(c.read_timeout.is_none());
    }

    #[test]
    fn retrying_profile_is_bounded() {
        let c = ClientConfig::retrying();
        assert!(c.max_retries > 0);
        assert!(c.retry_budget >= c.max_retries);
        assert!(c.base_delay <= c.max_delay);
        assert!((0.0..=1.0).contains(&c.jitter));
    }

    #[test]
    fn exhausted_error_formats_with_cause() {
        let err = ClientError::RetriesExhausted {
            attempts: 3,
            last: Box::new(ClientError::Protocol("truncated".to_string())),
        };
        let text = err.to_string();
        assert!(text.contains("3 attempts"), "{text}");
        assert!(text.contains("truncated"), "{text}");
    }

    #[test]
    fn envelope_parse_reads_degraded_flag() {
        let ok = json::parse(r#"{"id":1,"ok":true,"version":4,"data":{}}"#).unwrap();
        assert!(!Envelope::parse(&ok).unwrap().degraded);
        let partial =
            json::parse(r#"{"id":1,"ok":true,"version":4,"degraded":true,"data":{}}"#).unwrap();
        assert!(Envelope::parse(&partial).unwrap().degraded);
        let err = json::parse(r#"{"id":1,"ok":false,"error":"internal","detail":"x"}"#).unwrap();
        assert!(!Envelope::parse(&err).unwrap().degraded);
    }

    /// Regression guard: a reconnect after a transport failure must
    /// re-apply the configured read timeout instead of reverting to the
    /// default (no timeout) — otherwise a blackholed server would hang
    /// the retried call forever.
    #[test]
    fn reconnect_preserves_configured_read_timeout() {
        use crate::proto::{ok_envelope, Request};
        use std::io::BufRead;

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // First connection: accept and slam the door, forcing the
            // client onto its reconnect path.
            drop(listener.accept().unwrap());
            // Second connection: answer one request properly.
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let v = json::parse(line.trim()).unwrap();
            let id = v.get("id").and_then(Json::as_u64).unwrap();
            let reply = ok_envelope(id, 1, Json::obj(vec![("pong", Json::Bool(true))]));
            use std::io::Write;
            let mut w = &stream;
            writeln!(w, "{reply}").unwrap();
        });

        let timeout = Some(Duration::from_millis(1234));
        let config = ClientConfig {
            max_retries: 2,
            retry_budget: 4,
            base_delay: Duration::ZERO,
            jitter: 0.0,
            read_timeout: timeout,
            ..ClientConfig::default()
        };
        let mut client = Client::connect_with(addr, config).unwrap();
        // The kernel may round SO_RCVTIMEO up to its tick granularity, so
        // compare against what the first connection reports rather than
        // the raw configured value.
        let fresh = client.reader.get_ref().read_timeout().unwrap();
        assert!(fresh.is_some(), "configured timeout applied on connect");
        let envelope = client.call(&Request::Ping).expect("retried call succeeds");
        assert!(envelope.error.is_none());
        // White-box: the live stream after reconnect still carries the
        // configured timeout.
        assert_eq!(client.reader.get_ref().read_timeout().unwrap(), fresh);
        server.join().unwrap();
    }
}
