//! The TCP front end: thread-per-connection over the text protocol.
//!
//! [`spawn`] starts an accept loop on its own thread; each connection gets
//! a handler thread reading newline-delimited commands and writing one
//! response line per command ([`crate::protocol`]). `SHUTDOWN` (from any
//! connection) answers `OK bye`, then stops the accept loop and lets
//! in-flight handlers finish their current line.

use crate::protocol::{execute, parse_command, Command};
use crate::service::GraphService;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A running server: its address and the handle to stop/join it.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: JoinHandle<()>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the accept loop. Idempotent with a
    /// protocol-level `SHUTDOWN`.
    pub fn shutdown(self) {
        request_stop(&self.stop, self.addr);
        let _ = self.accept_thread.join();
    }

    /// Join the accept loop without requesting a stop (wait for a
    /// protocol-level `SHUTDOWN`).
    pub fn wait(self) {
        let _ = self.accept_thread.join();
    }
}

fn request_stop(stop: &AtomicBool, addr: SocketAddr) {
    if !stop.swap(true, Ordering::SeqCst) {
        // Unblock the accept() call with a throwaway connection. A
        // wildcard bind address (0.0.0.0 / ::) is not itself connectable
        // on every platform — poke the listener via loopback instead.
        let mut addr = addr;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect(addr);
    }
}

/// Start serving `service` on `listener`. Returns immediately; use the
/// handle to find the bound address and to stop the server.
pub fn spawn(service: Arc<GraphService>, listener: TcpListener) -> io::Result<ServerHandle> {
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept_stop = Arc::clone(&stop);
    let accept_thread = std::thread::Builder::new()
        .name("graphgen-serve-accept".into())
        .spawn(move || {
            for conn in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let service = Arc::clone(&service);
                let stop = Arc::clone(&accept_stop);
                // Handlers are detached: a handler parked on an idle
                // connection exits on client EOF (or with the process), so
                // shutdown never waits on somebody else's open socket.
                let _ = std::thread::Builder::new()
                    .name("graphgen-serve-conn".into())
                    .spawn(move || handle_connection(stream, &service, &stop, addr));
            }
        })?;
    Ok(ServerHandle {
        addr,
        stop,
        accept_thread,
    })
}

/// Decrements the active-connections gauge on every exit path of
/// [`handle_connection`] (early returns and panics included).
struct ActiveConnGuard<'a>(&'a GraphService);

impl Drop for ActiveConnGuard<'_> {
    fn drop(&mut self) {
        self.0.obs().m.connections_active.sub(1);
    }
}

fn handle_connection(
    stream: TcpStream,
    service: &GraphService,
    stop: &AtomicBool,
    addr: SocketAddr,
) {
    service.obs().m.connections_opened_total.inc();
    service.obs().m.connections_active.add(1);
    let _active = ActiveConnGuard(service);
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let response = match parse_command(&line) {
            Ok(None) => continue,
            Ok(Some(cmd)) => {
                let response = execute(service, &cmd);
                if matches!(cmd, Command::Shutdown) {
                    let _ = writeln!(writer, "{response}");
                    let _ = writer.flush();
                    request_stop(stop, addr);
                    return;
                }
                response
            }
            Err(e) => {
                // A failed request that names no verb: no histogram, no trace.
                service.obs().m.requests_total.inc();
                service.obs().m.request_errors_total.inc();
                crate::protocol::sanitize_line(&format!("ERR {e}"))
            }
        };
        if writeln!(writer, "{response}")
            .and_then(|()| writer.flush())
            .is_err()
        {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::tests::{fig1_db, Q1};
    use graphgen_common::metrics::ValueSnapshot;

    fn client(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
        let stream = TcpStream::connect(addr).unwrap();
        (BufReader::new(stream.try_clone().unwrap()), stream)
    }

    fn roundtrip(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, line: &str) -> String {
        writeln!(writer, "{line}").unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        response.trim_end().to_string()
    }

    #[test]
    fn end_to_end_over_tcp() {
        let service = Arc::new(GraphService::in_memory(fig1_db()));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = spawn(service, listener).unwrap();
        let addr = handle.addr();

        let (mut r1, mut w1) = client(addr);
        assert_eq!(roundtrip(&mut r1, &mut w1, "PING"), "OK pong");
        assert!(roundtrip(&mut r1, &mut w1, &format!("EXTRACT g {Q1}")).starts_with("OK version=1"));
        // A second, concurrent connection sees the same registry.
        let (mut r2, mut w2) = client(addr);
        assert!(roundtrip(&mut r2, &mut w2, "NEIGHBORS g 4").starts_with("OK version=1 n=4"));
        assert!(roundtrip(&mut r1, &mut w1, "APPLY AuthorPub +2,3").starts_with("OK rows=1 g@2"));
        assert!(roundtrip(&mut r2, &mut w2, "DEGREE g 2").starts_with("OK version=2 degree=4"));
        // Bad input gets an ERR line, and the connection stays usable.
        assert!(roundtrip(&mut r2, &mut w2, "NOPE").starts_with("ERR"));
        assert_eq!(roundtrip(&mut r2, &mut w2, "PING"), "OK pong");
        // Protocol-level shutdown.
        assert_eq!(roundtrip(&mut r1, &mut w1, "SHUTDOWN"), "OK bye");
        handle.wait();
    }

    #[test]
    fn unparsable_lines_count_as_failed_requests() {
        let service = Arc::new(GraphService::in_memory(fig1_db()));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = spawn(Arc::clone(&service), listener).unwrap();
        let (mut r, mut w) = client(handle.addr());
        let m = &service.obs().m;
        let (requests, errors) = (m.requests_total.get(), m.request_errors_total.get());
        let resp = roundtrip(&mut r, &mut w, "NOPE");
        assert!(
            resp.starts_with("ERR") && resp.contains("unknown command"),
            "{resp}"
        );
        assert_eq!(m.requests_total.get(), requests + 1);
        assert_eq!(m.request_errors_total.get(), errors + 1);
        assert!(service.obs().trace().is_empty(), "no verb, no trace event");
        let timed: u64 = (service.obs().registry().snapshot().into_iter())
            .filter(|s| s.name == "graphgen_request_ns")
            .map(|s| match s.value {
                ValueSnapshot::Histogram(h) => h.count,
                _ => 0,
            })
            .sum();
        assert_eq!(timed, 0, "no verb, no request histogram");
        handle.shutdown();
    }

    #[test]
    fn shutdown_handle_side() {
        let service = Arc::new(GraphService::in_memory(fig1_db()));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let handle = spawn(service, listener).unwrap();
        handle.shutdown();
    }
}
