//! The localhost TCP front-end.
//!
//! One listener serves two protocols on the same port:
//!
//! * the framed binary protocol ([`crate::proto`]) for
//!   module-load and call traffic, and
//! * plain HTTP `GET /metrics` — the first four bytes of a connection
//!   are peeked: `GET ` is answered as a one-shot HTTP scrape (`curl
//!   http://addr/metrics` works against the same port the binary
//!   clients use), the wire magic goes to the framed protocol, and
//!   anything else is closed unanswered.
//!
//! Connections are thread-per-connection: the real concurrency story
//! lives in [`crate::service`] (per-tenant executors and bounded
//! queues); a connection thread is just a thin codec loop, and a
//! malformed or hostile peer can only hurt its own connection.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::thread::JoinHandle;

use crate::proto::{read_frame, write_frame, Request, Response, WIRE};
use crate::quota::{ServeError, TenantQuota};
use crate::service::{CallResult, ExecService};
use llva_engine::supervisor::TierOutcome;

/// The TCP server: a listener plus the service it fronts.
pub struct Server {
    service: ExecService,
    listener: TcpListener,
    default_quota: TenantQuota,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral test port).
    /// Tenants named in `Hello` requests that don't exist yet are
    /// auto-registered with `default_quota`.
    ///
    /// # Errors
    ///
    /// IO errors from the bind.
    pub fn bind(
        service: ExecService,
        addr: impl ToSocketAddrs,
        default_quota: TenantQuota,
    ) -> io::Result<Server> {
        Ok(Server {
            service,
            listener: TcpListener::bind(addr)?,
            default_quota,
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    ///
    /// # Errors
    ///
    /// IO errors from the socket query.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the accept loop on this thread until the listener fails or
    /// a [`Request::Drain`] shuts the service down (the draining
    /// connection nudges the listener awake so this loop observes it).
    pub fn run(self) {
        for stream in self.listener.incoming() {
            if self.service.draining() {
                break;
            }
            let Ok(stream) = stream else { continue };
            let service = self.service.clone();
            let quota = self.default_quota;
            std::thread::spawn(move || {
                let _ = serve_connection(&service, stream, quota);
            });
        }
    }

    /// Runs the accept loop on a background thread (tests).
    #[must_use]
    pub fn spawn(self) -> JoinHandle<()> {
        std::thread::Builder::new()
            .name("llva-serve:accept".to_string())
            .spawn(move || self.run())
            .expect("spawn accept loop")
    }
}

/// Converts a call result to its wire response.
fn call_response(result: Result<CallResult, ServeError>) -> Response {
    match result {
        Ok(run) => {
            let tier = run.tier.to_string();
            match run.outcome {
                TierOutcome::Value(value) => Response::Value {
                    value,
                    tier,
                    degraded: run.degraded,
                    retries: run.retries,
                },
                TierOutcome::Trap(kind) => Response::Trap {
                    kind: kind.to_string(),
                    tier,
                },
                TierOutcome::OutOfFuel => Response::OutOfFuel { tier },
            }
        }
        Err(e) => Response::Error { message: e.to_string() },
    }
}

fn serve_connection(
    service: &ExecService,
    stream: TcpStream,
    default_quota: TenantQuota,
) -> io::Result<()> {
    // Protocol sniff: an HTTP scrape starts with "GET ", a framed
    // request with the wire magic, and anything else is refused unread.
    // A peek shorter than four bytes goes to the framed reader, which
    // checks the magic itself.
    let mut head = [0u8; 4];
    let peeked = stream.peek(&mut head)?;
    match &head[..peeked] {
        b"GET " => serve_http(service, stream),
        h if h.len() < 4 || h == WIRE.magic => serve_framed(service, stream, default_quota),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "neither a framed request nor an HTTP GET",
        )),
    }
}

fn serve_http(service: &ExecService, stream: TcpStream) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    // Read the request head (line + headers) up to a sane bound; the
    // body is irrelevant for GET.
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") && head.len() < 8192 {
        if reader.read(&mut byte)? == 0 {
            break;
        }
        head.push(byte[0]);
    }
    let request_line = head
        .split(|&b| b == b'\r')
        .next()
        .map(String::from_utf8_lossy)
        .unwrap_or_default()
        .into_owned();
    let path = request_line.split_whitespace().nth(1).unwrap_or("");
    let mut writer = BufWriter::new(stream);
    if path == "/metrics" || path == "/metrics/" {
        let body = service.metrics_text();
        write!(
            writer,
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        )?;
    } else {
        let body = "llva-serve: try GET /metrics\n";
        write!(
            writer,
            "HTTP/1.0 404 Not Found\r\nContent-Type: text/plain\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        )?;
    }
    writer.flush()
}

fn serve_framed(
    service: &ExecService,
    stream: TcpStream,
    default_quota: TenantQuota,
) -> io::Result<()> {
    // This connection's local address IS the listener address (the
    // server side of an accepted stream); a drain uses it to nudge the
    // blocked accept loop awake after the service is down.
    let listener_addr = stream.local_addr();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut tenant: Option<String> = None;
    let mut drained = false;
    while let Some(payload) = read_frame(&mut reader)? {
        let response = match Request::decode(&payload) {
            Err(e) => Response::Error {
                message: format!("bad request: {e}"),
            },
            Ok(Request::Hello { tenant: name }) => {
                match service.add_tenant(&name, default_quota) {
                    Ok(()) | Err(ServeError::TenantExists(_)) => {
                        tenant = Some(name.clone());
                        Response::Text {
                            body: format!("llva-serve ready, tenant {name}"),
                        }
                    }
                    Err(e) => Response::Error { message: e.to_string() },
                }
            }
            Ok(Request::Metrics) => Response::Text {
                body: service.metrics_text(),
            },
            // Admin-scoped like Metrics: no Hello needed. The reply
            // body is the final metrics flush.
            Ok(Request::Drain { deadline_ms }) => {
                let report = service.drain(std::time::Duration::from_millis(deadline_ms));
                drained = true;
                Response::Text {
                    body: report.final_metrics,
                }
            }
            Ok(request) => match &tenant {
                None => Response::Error {
                    message: "bad request: Hello must precede Load/Call".to_string(),
                },
                Some(tenant) => match request {
                    Request::Load { module, source } => {
                        match service.load_module(tenant, &module, &source) {
                            Ok(reply) => Response::Loaded {
                                cache: reply.cache,
                                functions: reply.functions as u64,
                            },
                            Err(e) => Response::Error { message: e.to_string() },
                        }
                    }
                    Request::Call { module, entry, args, fuel } => call_response(
                        service.call_with_fuel(tenant, &module, &entry, &args, fuel),
                    ),
                    Request::Hello { .. } | Request::Metrics | Request::Drain { .. } => {
                        unreachable!("handled above")
                    }
                },
            },
        };
        write_frame(&mut writer, &response.encode())?;
        if drained {
            // Wake the accept loop so it observes the drain and exits.
            if let Ok(addr) = listener_addr {
                let _ = TcpStream::connect(addr);
            }
            break;
        }
    }
    Ok(())
}

/// A minimal blocking client for the framed protocol (tests and the
/// `llva-serve` binary's selfcheck use it; real clients can, too).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connects and sends `Hello` for `tenant`.
    ///
    /// # Errors
    ///
    /// IO/protocol errors.
    pub fn connect(addr: impl ToSocketAddrs, tenant: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let mut client = Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        };
        match client.request(&Request::Hello { tenant: tenant.to_string() })? {
            Response::Text { .. } => Ok(client),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected hello reply: {other:?}"),
            )),
        }
    }

    /// Sends one request and reads one response.
    ///
    /// # Errors
    ///
    /// IO errors, or `InvalidData` on an undecodable reply.
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        write_frame(&mut self.writer, &request.encode())?;
        let payload = read_frame(&mut self.reader)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })?;
        Response::decode(&payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}
