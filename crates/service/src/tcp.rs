//! The line-delimited-JSON TCP front-end, built on `std::net` only.
//!
//! One connection is one session on a [`ClusterHost`]: the client writes
//! one request per line ([`crate::wire::parse_tenant_request`]), the server
//! writes one response per line as placements commit
//! (`{"type":"placement",...}`), plus in-band `{"type":"error",...}` lines
//! for requests that never reach the engine (malformed lines, duplicate
//! ids, quota rejections — the session keeps going). The client ends the
//! session by half-closing its write side (or closing the connection); the
//! server then drains every admitted job, flushes the remaining responses,
//! and closes. See `docs/ONLINE_SERVICE.md` for the full protocol, a worked
//! example, and the shutdown semantics.

use crate::admission::TenantId;
use crate::error::ServiceError;
use crate::host::{ClusterHost, HostSession};
use crate::sync::{join_or_resume, lock_clean};
use crate::wire;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex};

/// Longest request line the server buffers. A well-formed request is a
/// few hundred bytes; a longer line is answered `malformed` and skipped
/// rather than buffered without limit.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// The typed `code` field of in-band error lines, by failure class.
pub(crate) fn error_code_for(error: &ServiceError) -> &'static str {
    match error {
        ServiceError::MalformedRequest { .. } => "malformed",
        ServiceError::DuplicateRequest { .. } => "duplicate",
        ServiceError::AdmissionRejected { .. } => "admission_rejected",
        ServiceError::ServiceStopped | ServiceError::SessionLimit { .. } => "session_closed",
        _ => "error",
    }
}

/// Write one in-band error line under the shared writer lock. A client
/// that hung up cannot receive its error report; dropping it is fine (the
/// read side notices the hangup).
pub(crate) fn write_error_line(
    writer: &Mutex<TcpStream>,
    code: &str,
    job: Option<waterwise_traces::JobId>,
    message: &str,
) {
    let line = wire::encode_error(code, job, message);
    let mut guard = lock_clean(writer);
    let _ = guard.write_all(line.as_bytes());
    let _ = guard.write_all(b"\n");
    let _ = guard.flush();
}

/// The TCP front-end: client connections served concurrently against one
/// [`ClusterHost`] (one engine run, shared admission queue, per-tenant
/// quotas and fairness). A single client is a one-session host.
///
/// Requests may carry an optional `tenant` string field: absent, a request
/// is admitted under its connection's default tenant
/// (`client-<accept index>`). Per-request failures — malformed lines,
/// duplicate ids, quota rejections (`"code":"admission_rejected"`) — are
/// answered in-band and the session keeps going; a client ends its session
/// by half-closing, and its remaining responses are flushed before the
/// server closes the connection. An abrupt disconnect discards that
/// session's undelivered responses without disturbing the other sessions
/// or the host.
pub struct TcpClusterServer {
    listener: TcpListener,
}

impl TcpClusterServer {
    /// Bind the listener (port 0 for an ephemeral port).
    pub fn bind(addr: impl ToSocketAddrs) -> Result<Self, ServiceError> {
        Ok(Self {
            listener: TcpListener::bind(addr)?,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> Result<SocketAddr, ServiceError> {
        Ok(self.listener.local_addr()?)
    }

    /// Accept `sessions` connections and serve them **concurrently**
    /// against `host`, returning once every session has ended and
    /// drained. Pair the session count with the host's admission mode
    /// ([`crate::AdmissionMode::Streaming`] `close_after_sessions` or
    /// [`crate::AdmissionMode::Gated`] `sessions`): the host auto-closing
    /// after the final session is what lets the engine drain the last
    /// placements (under the discrete clock nothing else advances time),
    /// and therefore what lets this call return.
    ///
    /// The first session-level failure (transport setup, session-limit) is
    /// returned after all sessions finish; in-band per-request errors are
    /// not failures.
    pub fn serve_sessions(&self, host: &ClusterHost, sessions: usize) -> Result<(), ServiceError> {
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(sessions);
            let mut accept_error = None;
            for index in 0..sessions {
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        handles.push(scope.spawn(move || {
                            serve_host_session(
                                host,
                                stream,
                                TenantId::new(format!("client-{index}")),
                            )
                        }));
                    }
                    Err(e) => {
                        accept_error = Some(ServiceError::from(e));
                        break;
                    }
                }
            }
            let mut result = match accept_error {
                Some(error) => Err(error),
                None => Ok(()),
            };
            for handle in handles {
                let session_result = join_or_resume(handle);
                if result.is_ok() {
                    result = session_result;
                }
            }
            result
        })
    }
}

/// Serve one accepted connection as one host session: read requests (with
/// optional per-request tenant override), answer failures in-band, stream
/// placements back from the session outbox, and end the session at EOF.
fn serve_host_session(
    host: &ClusterHost,
    stream: TcpStream,
    default_tenant: TenantId,
) -> Result<(), ServiceError> {
    let session = match host.open_session(default_tenant) {
        Ok(session) => session,
        Err(error) => {
            // Tell the client why before hanging up.
            let writer = Mutex::new(stream);
            write_error_line(&writer, error_code_for(&error), None, &error.to_string());
            return Err(error);
        }
    };
    let writer = Arc::new(Mutex::new(stream.try_clone()?));
    let mut reader = BufReader::new(stream);
    let responses = session.take_responses();
    std::thread::scope(|scope| {
        let response_writer = scope.spawn({
            let writer = writer.clone();
            move || -> bool {
                let Some(responses) = responses else {
                    return true;
                };
                for response in responses.iter() {
                    let line = wire::encode_response(&response);
                    let mut guard = lock_clean(&writer);
                    let written = guard
                        .write_all(line.as_bytes())
                        .and_then(|_| guard.write_all(b"\n"))
                        .and_then(|_| guard.flush());
                    if written.is_err() {
                        // Dead client: stop draining; the reader notices
                        // the hangup and the session is abandoned.
                        return false;
                    }
                }
                true
            }
        });
        read_session_requests(&session, &mut reader, &writer);
        session.finish();
        let client_alive = join_or_resume(response_writer);
        if !client_alive {
            // Discard undelivered responses instead of filling the outbox.
            session.abandon();
        }
    });
    Ok(())
}

/// One read of the per-connection request stream.
enum LineRead {
    /// A complete line (newline stripped) is in the buffer.
    Line,
    /// The line exceeded [`MAX_LINE_BYTES`]; it was discarded through its
    /// newline and the buffer holds only its head.
    TooLong,
    /// End of stream: the client half-closed its write side.
    Eof,
}

/// Read bytes up to the next `\n` into `line` (newline stripped), holding
/// at most [`MAX_LINE_BYTES`] of it: the rest of a longer line is skipped
/// unbuffered. A final line without a newline still counts as a line.
fn read_bounded_line(reader: &mut impl BufRead, line: &mut Vec<u8>) -> std::io::Result<LineRead> {
    line.clear();
    let limit = MAX_LINE_BYTES as u64 + 1; // the line plus its newline
    if reader.by_ref().take(limit).read_until(b'\n', line)? == 0 {
        return Ok(LineRead::Eof);
    }
    if line.last() == Some(&b'\n') {
        line.pop();
    } else if line.len() as u64 == limit {
        reader.skip_until(b'\n')?;
        return Ok(LineRead::TooLong);
    }
    Ok(LineRead::Line)
}

/// The per-connection read loop: parse, submit, report failures in-band.
/// Returns at EOF or on a transport error (both end the request stream).
fn read_session_requests(
    session: &HostSession,
    reader: &mut BufReader<TcpStream>,
    writer: &Arc<Mutex<TcpStream>>,
) {
    let malformed = |line_no: usize, message: String| {
        let error = ServiceError::MalformedRequest {
            line: line_no,
            message,
        };
        write_error_line(writer, error_code_for(&error), None, &error.to_string());
    };
    let mut line_no = 0usize;
    let mut line = Vec::new();
    loop {
        let read = match read_bounded_line(reader, &mut line) {
            Ok(LineRead::Eof) => return, // Client half-closed its write side.
            Ok(read) => read,
            Err(_) => return, // Abrupt disconnect: treat as end of stream.
        };
        line_no += 1;
        if matches!(read, LineRead::TooLong) {
            malformed(
                line_no,
                format!("request line exceeds {MAX_LINE_BYTES} bytes"),
            );
            continue;
        }
        let Ok(text) = std::str::from_utf8(&line) else {
            malformed(line_no, "request line is not valid UTF-8".to_string());
            continue;
        };
        let trimmed = text.trim();
        if trimmed.is_empty() {
            continue; // Blank lines are keep-alive no-ops.
        }
        match wire::parse_tenant_request(trimmed) {
            Ok((tenant, request)) => {
                let id = request.spec.id;
                let submitted = match tenant {
                    Some(name) => session.submit_as(&TenantId::from(name), request.spec),
                    None => session.submit(request.spec),
                };
                if let Err(error) = submitted {
                    write_error_line(writer, error_code_for(&error), Some(id), &error.to_string());
                    if matches!(error, ServiceError::ServiceStopped) {
                        // The host is gone; nothing further can be served.
                        return;
                    }
                }
            }
            Err(message) => malformed(line_no, message),
        }
    }
}
