//! The HTTP front a shard ([`crate::server`]) and the mesh gateway share:
//! the listener, the accept loop, the connection handler pool,
//! authentication, and the answers to requests that never reach a route
//! (unreadable requests, unknown paths, wrong methods). A tier plugs in
//! only its per-route behaviour, as a [`Service`] — which is why a client
//! cannot tell a shard's front from the gateway's.
//!
//! Threading: the caller's thread runs the accept loop (a blocking
//! `accept`, so a new connection waits on no poll sleep);
//! [`FrontHandle::shutdown`] unblocks it. Accepted sockets go over an
//! mpsc channel to the handler threads; each connection is one request
//! (`Connection: close`).

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::Scope;
use std::time::{Duration, Instant};

use serde::Serialize;
use xplain_runtime::TenantRegistry;

use crate::http::{read_request, HttpError, Request, Response};
use crate::router::{route, Route, RouteError};

/// A tier's behaviour behind the front: what it answers on each route.
pub trait Service: Sync {
    /// The registry callers authenticate against (open mode: no auth).
    fn tenants(&self) -> &TenantRegistry;

    /// Answer one routed request. `tenant` is the authenticated caller
    /// (`None`: anonymous); `read_done` is when the request finished
    /// arriving.
    fn serve(
        &self,
        stream: &mut TcpStream,
        route: Route,
        request: &Request,
        tenant: Option<&str>,
        read_done: Instant,
    );
}

/// A bound listening socket, not yet accepting.
pub struct Front {
    listener: TcpListener,
    handle: FrontHandle,
}

/// Remote control for a running front (cloneable, thread-safe).
#[derive(Clone)]
pub struct FrontHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
}

impl FrontHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request graceful shutdown (idempotent).
    pub fn shutdown(&self) {
        request_shutdown(&self.shutdown, self.addr);
    }

    /// Request shutdown and build the `POST /v1/shutdown` answer.
    pub fn shutdown_response(&self) -> Response {
        #[derive(Serialize)]
        struct ShutdownBody {
            shutting_down: bool,
        }
        self.shutdown();
        Response::json(
            200,
            serde_json::to_string(&ShutdownBody {
                shutting_down: true,
            })
            .expect("body serializes"),
        )
    }
}

/// Flag shutdown and poke the accept loop awake: the listener blocks in
/// `accept` (zero added latency on real connections — an earlier polling
/// accept put a sleep on every request's critical path), so shutdown
/// opens one throwaway loopback connection to unblock it.
///
/// The poke is only load-bearing when the listener is *idle*: if the
/// accept backlog has pending connections, `accept` returns on its own
/// and the loop observes the flag — and an idle listener accepts the
/// poke immediately. A couple of retries cover transient connect
/// failures; past that, the next real connection ends the loop.
fn request_shutdown(flag: &AtomicBool, addr: SocketAddr) {
    flag.store(true, Ordering::Relaxed);
    for timeout_ms in [200, 1000] {
        if TcpStream::connect_timeout(&addr, Duration::from_millis(timeout_ms)).is_ok() {
            break;
        }
    }
}

impl Front {
    /// Bind the listening socket (fails fast on bad addresses).
    pub fn bind(addr: &str) -> std::io::Result<Front> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Front {
            listener,
            handle: FrontHandle {
                addr,
                shutdown: Arc::new(AtomicBool::new(false)),
            },
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.handle.addr
    }

    pub fn handle(&self) -> FrontHandle {
        self.handle.clone()
    }

    /// Spawn `threads` connection handlers on `scope` and run the accept
    /// loop on this thread until shutdown is requested. On return the
    /// connection channel is closed: the handlers finish the connections
    /// already accepted, then exit when `scope` joins them — so whatever
    /// the caller does between this return and the end of the scope
    /// (a shard cancels its queue, which ends live event streams) happens
    /// before the join.
    ///
    /// `read_timeout` bounds the whole read of one request, not each
    /// socket read (see [`read_request`]).
    pub fn serve<'scope, 'env, S: Service>(
        &'env self,
        scope: &'scope Scope<'scope, 'env>,
        service: &'env S,
        threads: usize,
        read_timeout: Duration,
    ) {
        let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        for _ in 0..threads.max(1) {
            let conn_rx = Arc::clone(&conn_rx);
            scope.spawn(move || loop {
                let next = conn_rx
                    .lock()
                    .expect("connection channel")
                    .recv_timeout(Duration::from_millis(100));
                match next {
                    Ok(stream) => handle_connection(stream, service, read_timeout),
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            });
        }
        let shutdown = &self.handle.shutdown;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if shutdown.load(Ordering::Relaxed) {
                        break; // likely the shutdown poke itself
                    }
                    let _ = conn_tx.send(stream);
                }
                Err(_) => {
                    if shutdown.load(Ordering::Relaxed) {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        }
    }
}

/// The 401 a route that attributes work (submit, tune) answers an
/// anonymous caller with while tenancy is enforced; `None` lets the
/// caller through.
pub fn unattributed(tenants: &TenantRegistry, tenant: Option<&str>) -> Option<Response> {
    (tenants.enforcing() && tenant.is_none()).then(|| {
        Response::error(
            401,
            "missing API key (send 'Authorization: Bearer <api-key>')",
        )
    })
}

/// Resolve the caller's tenant identity, or the error response that ends
/// the request.
///
/// Open mode: every request is the anonymous tenant (`Ok(None)`), headers
/// ignored. Enforcing mode:
///
/// * `Authorization: Bearer <key>` — authenticated against the registry's
///   FNV-hashed key table; malformed is 401, unknown keys are 403, on
///   every route.
/// * `X-Xplain-Tenant: <id>` — trusted forwarding from a mesh gateway
///   that already authenticated the bearer at the edge (shards sit on a
///   private network behind it; see DESIGN.md §12's trust model).
///   Unknown ids are 403.
/// * Neither header → `Ok(None)`. Routes that *attribute* work (submit,
///   tune) then answer [`unattributed`]'s 401; read/ops routes stay open
///   so liveness probes, mesh heartbeats, and work stealing keep working.
fn authenticate(tenants: &TenantRegistry, request: &Request) -> Result<Option<String>, Response> {
    if !tenants.enforcing() {
        return Ok(None);
    }
    if let Some(value) = request.header("authorization") {
        let key = match value.split_once(' ') {
            Some((scheme, rest)) if scheme.eq_ignore_ascii_case("bearer") => rest.trim(),
            _ => {
                return Err(Response::error(
                    401,
                    "malformed Authorization header (expected 'Bearer <api-key>')",
                ))
            }
        };
        return match tenants.authenticate(key) {
            Some(tenant) => Ok(Some(tenant.id.clone())),
            None => Err(Response::error(403, "unknown API key")),
        };
    }
    if let Some(id) = request.header("x-xplain-tenant") {
        return match tenants.lookup(id) {
            Some(tenant) => Ok(Some(tenant.id.clone())),
            None => Err(Response::error(403, &format!("unknown tenant id '{id}'"))),
        };
    }
    Ok(None)
}

/// Authenticate and route a request that arrived whole, or refuse it.
fn admit(tenants: &TenantRegistry, request: &Request) -> Result<(Route, Option<String>), Response> {
    let tenant = authenticate(tenants, request)?;
    match route(&request.method, &request.path) {
        Ok(r) => Ok((r, tenant)),
        Err(RouteError::NotFound) => Err(Response::error(404, "no such resource")),
        Err(RouteError::MethodNotAllowed { allowed }) => {
            Err(Response::error(405, "method not allowed").with_header("Allow", allowed))
        }
    }
}

fn handle_connection<S: Service>(mut stream: TcpStream, service: &S, read_timeout: Duration) {
    let _ = stream.set_read_timeout(Some(read_timeout));
    let _ = stream.set_nodelay(true);
    let read = read_request(&mut stream);
    let read_done = Instant::now();
    let refusal = match read {
        Ok(request) => match admit(service.tenants(), &request) {
            Ok((r, tenant)) => {
                return service.serve(&mut stream, r, &request, tenant.as_deref(), read_done)
            }
            Err(refusal) => refusal,
        },
        Err(HttpError::Closed) => return,
        Err(HttpError::TooLarge) => Response::error(413, "request exceeds size caps"),
        Err(HttpError::BadRequest(m)) => Response::error(400, &m),
        Err(HttpError::Io(_)) => Response::error(408, "timed out reading request"),
    };
    let _ = refusal.write_to(&mut stream);
}
