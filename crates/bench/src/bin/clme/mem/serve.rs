//! `--serve ADDR`: a minimal std-only HTTP responder for the layer's
//! metrics.

use super::stats::prom_text;
use clme_mem::{EncryptionLayer, StoreBackend};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::time::Duration;

/// How long one connection may take to send its request (and to accept
/// the response) before the server drops it and moves on.
pub const SERVE_TIMEOUT: Duration = Duration::from_secs(2);

/// The most bytes of request line and headers read from one connection.
pub const SERVE_REQUEST_CAP: u64 = 8 * 1024;

/// Answers connections on `listener`: `GET /metrics` with the layer's
/// Prometheus text exposition, `GET /healthz` with `ok`, a request line
/// that does not end within [`SERVE_REQUEST_CAP`] bytes with 400, and
/// anything else with 404. One request per connection, no keep-alive —
/// enough for a scraper, zero dependencies. A connection that sends
/// nothing for [`SERVE_TIMEOUT`] is dropped unanswered, so it stalls the
/// next client by at most that long. Stops after `max_requests`
/// answered requests (0 = never).
pub fn serve<B: StoreBackend>(
    listener: TcpListener,
    layer: &EncryptionLayer<B>,
    max_requests: usize,
) -> i32 {
    if let Ok(local) = listener.local_addr() {
        eprintln!("serving /metrics and /healthz on http://{local}");
    }
    let mut served = 0usize;
    for stream in listener.incoming() {
        let Ok(mut stream) = stream else { continue };
        if stream.set_read_timeout(Some(SERVE_TIMEOUT)).is_err()
            || stream.set_write_timeout(Some(SERVE_TIMEOUT)).is_err()
        {
            continue;
        }
        let request_line = {
            let mut reader = BufReader::new((&mut stream).take(SERVE_REQUEST_CAP));
            let mut line = String::new();
            if reader.read_line(&mut line).is_err() {
                continue;
            }
            // Drain the headers so well-behaved clients see a clean close.
            let mut header = String::new();
            while let Ok(n) = reader.read_line(&mut header) {
                if n == 0 || header.trim().is_empty() {
                    break;
                }
                header.clear();
            }
            line
        };
        let target = request_line.split_whitespace().nth(1).unwrap_or("");
        let (status, content_type, body) = match target {
            _ if !request_line.ends_with('\n') => {
                ("400 Bad Request", "text/plain", "bad request\n".into())
            }
            "/metrics" => ("200 OK", "text/plain; version=0.0.4", prom_text(layer)),
            "/healthz" => ("200 OK", "text/plain", "ok\n".to_string()),
            _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
        };
        let response = format!(
            "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        let _ = stream.write_all(response.as_bytes());
        served += 1;
        if max_requests != 0 && served >= max_requests {
            eprintln!("served {served} requests, stopping");
            break;
        }
    }
    0
}
