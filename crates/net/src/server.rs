//! Thread-per-connection request/response server with a bounded worker
//! pool.
//!
//! One accept thread hands sockets to a fixed pool of workers over a
//! bounded queue. Under saturation the accept loop never blocks: when
//! the queue is full, an overflow responder completes the handshake,
//! reads the one pending request, and answers with a sealed `Busy`
//! frame — a typed [`NetError::Overloaded`] on the client side, which
//! backs off (with jitter) and re-sends instead of giving up. Each
//! worker runs the server handshake under a deadline (a peer that
//! connects and then goes silent is reaped, not parked forever) and
//! then a request/response loop: read one sealed frame, call the
//! handler, write one sealed reply. Handlers must therefore be
//! *idempotent* — a client that times out re-sends the same request over
//! a fresh connection, so the server may see a request twice.
//!
//! Shutdown polls no timer: every open session is registered, and
//! [`Server::shutdown`] closes the idle ones at once, lets the ones
//! whose request is being handled send their reply first, and the
//! workers exit when the accept thread drops the queue.

use std::collections::{HashMap, HashSet};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mycelium_math::rng::{SeedableRng, StdRng};

use crate::channel::{server_handshake, Identity};
use crate::error::NetError;
use crate::lock_recover;
use crate::metrics::NetMetrics;

/// A request handler: sealed request payload in, sealed reply payload out.
///
/// The handler sees only authenticated plaintext; `peer` is the client's
/// verified static public key, usable for authorization decisions.
pub trait Handler: Send + Sync + 'static {
    /// Handles one request.
    fn handle(&self, peer: [u8; 32], request: &[u8]) -> Result<Vec<u8>, NetError>;
}

impl<F> Handler for F
where
    F: Fn([u8; 32], &[u8]) -> Result<Vec<u8>, NetError> + Send + Sync + 'static,
{
    fn handle(&self, peer: [u8; 32], request: &[u8]) -> Result<Vec<u8>, NetError> {
        self(peer, request)
    }
}

/// Server tuning knobs.
#[derive(Clone)]
pub struct ServerConfig {
    /// Worker threads (and the bound on concurrent connections served).
    pub workers: usize,
    /// Largest accepted application payload.
    pub max_payload: usize,
    /// Deadline on the server-side handshake: a peer that connects and
    /// then stalls is cut loose instead of parking a worker forever.
    pub handshake_timeout: Duration,
    /// How long an established session may sit idle (no complete
    /// request) before the worker reaps it as half-open.
    pub idle_reap: Duration,
    /// Client static keys allowed to connect (`None` accepts any peer
    /// that completes key confirmation).
    pub roster: Option<HashSet<[u8; 32]>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            max_payload: crate::frame::DEFAULT_MAX_PAYLOAD,
            handshake_timeout: Duration::from_secs(5),
            idle_reap: Duration::from_secs(60),
            roster: None,
        }
    }
}

/// Concurrent overflow responders (threads answering `Busy` while the
/// worker queue is full); beyond this the connection is simply dropped
/// and the client's normal retry path takes over.
const MAX_OVERFLOW_RESPONDERS: usize = 8;

/// The open sessions of one server, so shutdown can close them at once.
#[derive(Default)]
struct Sessions {
    /// Set by [`Server::shutdown`]; no session opens or starts a request
    /// after it.
    closing: bool,
    /// Per connection: a clone of its socket, and whether a request on
    /// it is being handled (such a session is left to send its reply).
    open: HashMap<u64, (TcpStream, bool)>,
}

impl Sessions {
    /// Marks connection `conn` busy (a request is being handled) or
    /// idle; `false` once the server is closing, when the session ends.
    fn set_busy(&mut self, conn: u64, busy: bool) -> bool {
        if let Some(entry) = self.open.get_mut(&conn) {
            entry.1 = busy;
        }
        !self.closing
    }
}

/// A running server; dropping it without [`shutdown`](Server::shutdown)
/// leaks the threads until process exit.
pub struct Server {
    addr: SocketAddr,
    sessions: Arc<Mutex<Sessions>>,
    threads: Vec<std::thread::JoinHandle<()>>,
    metrics: Arc<Mutex<NetMetrics>>,
}

impl Server {
    /// Binds `bind_addr` (e.g. `127.0.0.1:0`) and starts the accept
    /// thread plus the worker pool. `seed` keys the per-connection
    /// handshake ephemerals.
    pub fn spawn(
        bind_addr: &str,
        identity: Identity,
        config: ServerConfig,
        handler: Arc<dyn Handler>,
        seed: u64,
    ) -> Result<Server, NetError> {
        let listener = TcpListener::bind(bind_addr)?;
        let addr = listener.local_addr()?;
        let sessions = Arc::new(Mutex::new(Sessions::default()));
        let metrics = NetMetrics::shared();
        let conn_counter = Arc::new(AtomicU64::new(0));
        let (tx, rx) = sync_channel::<TcpStream>(config.workers * 2);
        let rx = Arc::new(Mutex::new(rx));

        let mut threads = Vec::with_capacity(config.workers + 1);
        for _ in 0..config.workers {
            let rx = Arc::clone(&rx);
            let identity = identity.clone();
            let config = config.clone();
            let handler = Arc::clone(&handler);
            let sessions = Arc::clone(&sessions);
            let metrics = Arc::clone(&metrics);
            let conn_counter = Arc::clone(&conn_counter);
            threads.push(std::thread::spawn(move || {
                worker_loop(
                    &rx,
                    &identity,
                    &config,
                    handler.as_ref(),
                    &sessions,
                    &metrics,
                    &conn_counter,
                    seed,
                );
            }));
        }
        {
            let sessions = Arc::clone(&sessions);
            let identity = identity.clone();
            let config = config.clone();
            let metrics = Arc::clone(&metrics);
            let conn_counter = Arc::clone(&conn_counter);
            let responders = Arc::new(AtomicUsize::new(0));
            // Owns the queue's only sender: when this thread ends, the
            // workers' blocking receive ends too.
            threads.push(std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if lock_recover(&sessions).closing {
                        break;
                    }
                    match stream {
                        Ok(s) => match tx.try_send(s) {
                            Ok(()) => {}
                            // The queue is full: answer with a sealed
                            // Busy instead of blocking the accept loop.
                            Err(TrySendError::Full(s)) => reject_overloaded(
                                s,
                                &identity,
                                &config,
                                &metrics,
                                &conn_counter,
                                &responders,
                                seed,
                            ),
                            Err(TrySendError::Disconnected(_)) => break,
                        },
                        Err(_) => break,
                    }
                }
            }));
        }
        Ok(Server {
            addr,
            sessions,
            threads,
            metrics,
        })
    }

    /// The bound address (with the kernel-chosen port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's accumulated wire metrics.
    pub fn metrics(&self) -> Arc<Mutex<NetMetrics>> {
        Arc::clone(&self.metrics)
    }

    /// Stops accepting, closes every idle session at once, lets each
    /// request being handled send its reply, and joins every thread.
    pub fn shutdown(mut self) {
        {
            let mut sessions = lock_recover(&self.sessions);
            sessions.closing = true;
            for (stream, busy) in sessions.open.values() {
                if !busy {
                    let _ = stream.shutdown(Shutdown::Both);
                }
            }
        }
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Answers one overflow connection with a sealed `Busy` frame on a
/// short-lived detached thread, so the accept loop keeps draining while
/// every worker is busy. The responder pool itself is bounded; past the
/// cap the connection is dropped and the client's retry path handles it.
fn reject_overloaded(
    stream: TcpStream,
    identity: &Identity,
    config: &ServerConfig,
    metrics: &Arc<Mutex<NetMetrics>>,
    conn_counter: &AtomicU64,
    responders: &Arc<AtomicUsize>,
    seed: u64,
) {
    if responders.fetch_add(1, Ordering::SeqCst) >= MAX_OVERFLOW_RESPONDERS {
        responders.fetch_sub(1, Ordering::SeqCst);
        return;
    }
    let identity = identity.clone();
    let config = config.clone();
    let metrics = Arc::clone(metrics);
    let conn = conn_counter.fetch_add(1, Ordering::SeqCst);
    let responders = Arc::clone(responders);
    std::thread::spawn(move || {
        let _ = stream.set_read_timeout(Some(config.handshake_timeout));
        let _ = stream.set_write_timeout(Some(config.handshake_timeout));
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e_c0de).with_stream(conn);
        if let Ok(mut channel) = server_handshake(
            stream,
            &identity,
            config.roster.as_ref(),
            &mut rng,
            config.max_payload,
            Arc::clone(&metrics),
        ) {
            // Read the one pending request so the rejection is
            // attributable, then refuse it.
            if channel.recv().is_ok() && channel.send_busy().is_ok() {
                lock_recover(&metrics).overload_rejections += 1;
            }
        }
        responders.fetch_sub(1, Ordering::SeqCst);
    });
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    rx: &Mutex<Receiver<TcpStream>>,
    identity: &Identity,
    config: &ServerConfig,
    handler: &dyn Handler,
    sessions: &Mutex<Sessions>,
    metrics: &Arc<Mutex<NetMetrics>>,
    conn_counter: &AtomicU64,
    seed: u64,
) {
    loop {
        // Ends once the accept thread is gone and the queue drained.
        let next = lock_recover(rx).recv();
        let Ok(stream) = next else { return };
        let conn = conn_counter.fetch_add(1, Ordering::SeqCst);
        {
            // A session shutdown cannot reach is never opened.
            let mut open = lock_recover(sessions);
            match stream.try_clone() {
                Ok(clone) if !open.closing => open.open.insert(conn, (clone, false)),
                _ => continue,
            };
        }
        serve_session(
            stream, conn, identity, config, handler, sessions, metrics, seed,
        );
        lock_recover(sessions).open.remove(&conn);
    }
}

/// Runs one connection: the handshake under its deadline, then the
/// request/response loop until the peer leaves, the session idles past
/// `idle_reap`, or the server closes.
#[allow(clippy::too_many_arguments)]
fn serve_session(
    stream: TcpStream,
    conn: u64,
    identity: &Identity,
    config: &ServerConfig,
    handler: &dyn Handler,
    sessions: &Mutex<Sessions>,
    metrics: &Arc<Mutex<NetMetrics>>,
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e_c0de).with_stream(conn);
    // A peer that connects and then stalls mid-handshake must not
    // park this worker: the handshake runs under its own deadline.
    let _ = stream.set_read_timeout(Some(config.handshake_timeout));
    let _ = stream.set_write_timeout(Some(config.handshake_timeout));
    let channel = server_handshake(
        stream,
        identity,
        config.roster.as_ref(),
        &mut rng,
        config.max_payload,
        Arc::clone(metrics),
    );
    // A failed handshake (unknown peer, dummy wake-up socket, port scan,
    // mid-handshake stall, shutdown) costs this worker nothing further.
    let Ok(mut channel) = channel else { return };
    let _ = channel.set_read_timeout(Some(config.idle_reap));
    loop {
        match channel.recv() {
            Ok(request) => {
                if !lock_recover(sessions).set_busy(conn, true) {
                    return;
                }
                let sent = handler
                    .handle(channel.peer(), &request)
                    .and_then(|reply| channel.send(&reply));
                if !lock_recover(sessions).set_busy(conn, false) || sent.is_err() {
                    return;
                }
            }
            // A session that handshook and then went silent for
            // `idle_reap` is half-open; reap it so the worker goes back
            // to the queue. (A *mid-frame* stall is a hard Io error and
            // ends the session below.)
            Err(NetError::Timeout) => {
                lock_recover(metrics).sessions_reaped += 1;
                return;
            }
            // Anything else — peer gone, tampered frame, replay,
            // mid-frame stall, shutdown — ends this connection; the
            // client reconnects if it still cares.
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{client_handshake, SecureChannel};
    use std::sync::atomic::AtomicBool;
    use std::time::Instant;

    fn connect(addr: SocketAddr, server_pub: [u8; 32], role: u32) -> SecureChannel {
        let stream = TcpStream::connect(addr).unwrap();
        client_handshake(
            stream,
            &Identity::derive(5, role),
            Some(server_pub),
            &mut StdRng::seed_from_u64(role as u64),
            1 << 20,
            NetMetrics::shared(),
        )
        .unwrap()
    }

    #[test]
    fn shutdown_closes_idle_sessions_at_once_and_answers_in_flight_requests() {
        // A request for "slow" parks in the handler until the gate opens.
        let entered = Arc::new(AtomicBool::new(false));
        let gate = Arc::new(AtomicBool::new(false));
        let handler = {
            let (entered, gate) = (Arc::clone(&entered), Arc::clone(&gate));
            Arc::new(
                move |_peer: [u8; 32], req: &[u8]| -> Result<Vec<u8>, NetError> {
                    if req == b"slow" {
                        entered.store(true, Ordering::SeqCst);
                        while !gate.load(Ordering::SeqCst) {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                    }
                    Ok(req.to_vec())
                },
            )
        };
        let spawn = || {
            let identity = Identity::derive(5, 0);
            let handler: Arc<dyn Handler> = handler.clone();
            Server::spawn("127.0.0.1:0", identity, ServerConfig::default(), handler, 5).unwrap()
        };
        let server_pub = Identity::derive(5, 0).public;

        // An authenticated session that went idle does not hold
        // shutdown up.
        let server = spawn();
        let mut idle = connect(server.local_addr(), server_pub, 100);
        idle.send(b"ping").unwrap();
        assert_eq!(idle.recv().unwrap(), b"ping");
        let t = Instant::now();
        server.shutdown();
        let took = t.elapsed();
        assert!(took < Duration::from_millis(100), "shutdown took {took:?}");
        assert!(idle.recv().is_err(), "the idle session was closed");

        // A request being handled when shutdown starts still gets its
        // reply; the idle session beside it is closed.
        let server = spawn();
        let mut idle = connect(server.local_addr(), server_pub, 101);
        idle.send(b"ping").unwrap();
        assert_eq!(idle.recv().unwrap(), b"ping");
        let mut busy = connect(server.local_addr(), server_pub, 102);
        busy.send(b"slow").unwrap();
        while !entered.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let closer = std::thread::spawn(move || server.shutdown());
        idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert!(idle.recv().is_err(), "the idle session was closed");
        gate.store(true, Ordering::SeqCst);
        busy.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(busy.recv().unwrap(), b"slow");
        closer.join().unwrap();
    }

    #[test]
    fn echo_round_trip_and_shutdown() {
        let identity = Identity::derive(3, 0);
        let server_pub = identity.public;
        let handler = Arc::new(|_peer: [u8; 32], req: &[u8]| -> Result<Vec<u8>, NetError> {
            let mut out = req.to_vec();
            out.reverse();
            Ok(out)
        });
        let server =
            Server::spawn("127.0.0.1:0", identity, ServerConfig::default(), handler, 3).unwrap();
        let addr = server.local_addr();

        let mut rng = StdRng::seed_from_u64(99);
        let client_id = Identity::derive(3, 100);
        let stream = TcpStream::connect(addr).unwrap();
        let mut channel = client_handshake(
            stream,
            &client_id,
            Some(server_pub),
            &mut rng,
            1 << 20,
            NetMetrics::shared(),
        )
        .unwrap();
        channel.send(b"abc").unwrap();
        assert_eq!(channel.recv().unwrap(), b"cba");
        channel.send(b"xyz").unwrap();
        assert_eq!(channel.recv().unwrap(), b"zyx");
        drop(channel);
        server.shutdown();
    }

    #[test]
    fn saturated_server_rejects_with_busy_and_keeps_accepting() {
        let identity = Identity::derive(11, 0);
        let server_pub = identity.public;
        // The single worker parks inside the handler until the gate
        // opens, so every later connection piles up behind it.
        let gate = Arc::new(AtomicBool::new(false));
        let handler = {
            let gate = Arc::clone(&gate);
            Arc::new(
                move |_peer: [u8; 32], req: &[u8]| -> Result<Vec<u8>, NetError> {
                    while !gate.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Ok(req.to_vec())
                },
            )
        };
        let config = ServerConfig {
            workers: 1,
            handshake_timeout: Duration::from_millis(300),
            ..ServerConfig::default()
        };
        let server = Server::spawn("127.0.0.1:0", identity, config, handler, 11).unwrap();
        let addr = server.local_addr();
        let metrics = server.metrics();

        let connect = |role: u32, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let id = Identity::derive(11, role);
            let stream = TcpStream::connect(addr).unwrap();
            client_handshake(
                stream,
                &id,
                Some(server_pub),
                &mut rng,
                1 << 20,
                NetMetrics::shared(),
            )
        };

        // Occupy the worker, then fill the bounded queue (workers * 2)
        // with raw connections that never handshake.
        let mut busy_client = connect(100, 1).unwrap();
        busy_client.send(b"slow").unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let _fill_a = TcpStream::connect(addr).unwrap();
        let _fill_b = TcpStream::connect(addr).unwrap();
        std::thread::sleep(Duration::from_millis(50));

        // The next connection overflows: the accept loop must stay
        // live and answer with a sealed Busy, not block.
        let mut rejected = connect(101, 2).expect("overflow handshake must complete");
        rejected.send(b"overflow").unwrap();
        rejected
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        assert!(matches!(rejected.recv(), Err(NetError::Overloaded)));
        // The responder thread records the rejection just after the
        // client reads the Busy frame; give the counter a moment.
        let deadline = Instant::now() + Duration::from_secs(5);
        while lock_recover(&metrics).overload_rejections == 0 {
            assert!(Instant::now() < deadline, "overload rejection not counted");
            std::thread::sleep(Duration::from_millis(5));
        }

        // Draining the gate completes the parked request untouched.
        gate.store(true, Ordering::SeqCst);
        busy_client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(busy_client.recv().unwrap(), b"slow");

        drop(busy_client);
        drop(rejected);
        server.shutdown();
    }
}
