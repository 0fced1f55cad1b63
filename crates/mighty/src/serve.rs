//! `mighty serve` — a concurrent optimization service.
//!
//! A long-running server that accepts optimization jobs over a
//! line-delimited JSON protocol on a TCP socket and executes them on a
//! fixed pool of worker threads (`std::thread` only — the workspace's
//! zero-third-party-deps invariant extends to the service layer). The
//! design amortizes everything that a one-shot `mighty opt` process
//! pays per run:
//!
//! - the NPN majority database ([`mig_tt`]'s `MigDatabase::global()`)
//!   and the stock cell libraries/match indexes
//!   ([`mig_techmap::CellLibrary::shared_by_name`]) are build-once
//!   process-global values, pre-warmed at server start;
//! - every worker owns one persistent [`OptContext`] — arena pool and
//!   rewrite cache — that survives across jobs (context
//!   reuse never changes results; see `run_flow_session`);
//! - a bounded LRU result cache keyed by (canonical netlist content
//!   hash, flow script, effort) returns verified results without
//!   recomputation.
//!
//! Every response is equivalence-verified (the per-job `run_flow_session`
//! runs both the MIG-level and netlist-level checks; cache hits re-run
//! the netlist-level check against the incoming circuit) and
//! bit-identical to what `mighty opt` prints for the same flow — the
//! serve test suite asserts this across concurrent clients.
//!
//! # Protocol
//!
//! One JSON value per line, UTF-8. Requests:
//!
//! ```json
//! {"id": 1, "netlist": "my_adder", "flow": "size; rewrite", "effort": 2}
//! {"id": 2, "netlist": "module m(a, y); input a; output y; ...", "flow": "depth"}
//! {"op": "ping"}
//! {"op": "stats"}
//! {"op": "shutdown"}
//! ```
//!
//! `netlist` is structural Verilog text (anything containing a
//! `module` keyword) or a generated-benchmark name; the server never
//! reads files. Optional job fields: `rounds`, `timeout_ms`,
//! `pass_timeout_ms`, `max_nodes`, `selfcheck`, `progress` (stream
//! per-pass lines). `effort` may be at most 64, `rounds` at most 1024
//! and a flow's `pass*N` repeat at most 64; a job over a bound gets an
//! exit-2 `error` line and the connection stays open. Responses (one
//! line each, all carrying the job `id`):
//!
//! ```json
//! {"type": "progress", "id": 1, "pass": "size", "size": 180, "depth": 12, ...}
//! {"type": "result", "id": 1, "exit_code": 0, "mig_equiv": true, ..., "verilog": "..."}
//! {"type": "error", "id": 2, "exit_code": 3, "message": "..."}
//! ```
//!
//! A request line may be at most [`MAX_REQUEST_LINE`] bytes, newline
//! included. A longer one gets one `error` line (`"id": null`, exit
//! code 2) and the server closes that connection.
//!
//! `exit_code` mirrors the CLI contract: 0 ok, 2 malformed request,
//! 3 input error, 4 equivalence failure, 5 degraded (budget/rollback
//! semantics per job — a panicking or over-budget job degrades without
//! taking the server down). See `DESIGN.md` §15 for the full spec.
//!
//! # Transport
//!
//! No fixed wait sits between a client and the server. The accept loop
//! blocks in `accept`; a shutdown wakes it by connecting once to the
//! listener, and a SIGTERM/SIGINT is turned into that shutdown by
//! [`Server::wait`], which polls for it every 10 ms. Every accepted
//! stream has `TCP_NODELAY` set, and each response line goes out in
//! one write with its terminator, so no response waits for the
//! client's delayed ACK. Admitted jobs run in arrival order.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use mig_core::{Flow, OptContext, PassMetrics};
use mig_netlist::{parse_verilog, write_verilog, Network};

use crate::json::{escape_str, Json};
use crate::{run_flow_session, OptOutcome, RunOptions, MAX_EFFORT, MAX_ROUNDS};

/// Exit codes of the per-job contract (the CLI's codes, reused on the
/// wire).
pub mod exit_code {
    /// Job completed, verified, nothing degraded.
    pub const OK: i64 = 0;
    /// Malformed request (unparseable JSON, unknown field values).
    pub const USAGE: i64 = 2;
    /// Input error (netlist does not parse / unknown benchmark).
    pub const INPUT: i64 = 3;
    /// The optimized result failed an equivalence check.
    pub const EQUIV: i64 = 4;
    /// Completed and verified, but one or more passes degraded.
    pub const DEGRADED: i64 = 5;
}

/// Longest request line the server reads, newline included: 64 MiB.
/// That is six times the largest request the repository sends, the
/// JSON-escaped Verilog of `alu_400k` (10.4 MB), and 2.5 times the
/// 26 MB Verilog of `mul_1m`. A longer line is answered with a usage
/// error and the connection is closed, so one connection never buffers
/// more than this.
pub const MAX_REQUEST_LINE: usize = 64 << 20;

/// Server configuration (the `mighty serve` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `"127.0.0.1:7171"` (port 0 picks a free one).
    pub listen: String,
    /// Worker threads executing jobs (≥ 1).
    pub workers: usize,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Graceful-shutdown drain deadline in milliseconds.
    pub drain_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            listen: "127.0.0.1:0".to_string(),
            workers: 1,
            cache_capacity: 64,
            drain_ms: 10_000,
        }
    }
}

/// Aggregate counters, readable over the wire via `{"op": "stats"}`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Jobs fully executed (including degraded ones).
    pub jobs_done: usize,
    /// Jobs answered straight from the result cache.
    pub cache_hits: usize,
    /// Jobs that missed the cache and ran.
    pub cache_misses: usize,
    /// Jobs that ended with a non-zero exit code.
    pub jobs_failed: usize,
    /// Connections accepted since start.
    pub connections: usize,
}

/// One parsed, validated job.
struct Job {
    /// Pre-serialized JSON of the client's `id` (echoed verbatim).
    id: String,
    net: Network,
    flow: Flow,
    effort: usize,
    rounds: usize,
    opts: RunOptions,
    progress: bool,
    out: mpsc::Sender<String>,
}

/// The bounded LRU result cache. Keyed by (content hash, flow script,
/// effort) — everything that determines the optimized structure. Jobs
/// carrying budgets or self checks bypass it (budget outcomes depend on
/// wall time, so they are not replayable), as do degraded or
/// non-verified results.
struct JobCache {
    entries: HashMap<(u64, String, usize), CacheEntry>,
    /// Monotone use counter backing the LRU order.
    tick: u64,
    capacity: usize,
}

struct CacheEntry {
    last_used: u64,
    value: Arc<CachedResult>,
}

/// What a cache hit replays: the verified outcome minus its wall times.
struct CachedResult {
    optimized: Network,
    before: PassMetrics,
    after: PassMetrics,
    flow: String,
    stages: usize,
}

impl JobCache {
    fn new(capacity: usize) -> Self {
        JobCache {
            entries: HashMap::new(),
            tick: 0,
            capacity,
        }
    }

    fn get(&mut self, key: &(u64, String, usize)) -> Option<Arc<CachedResult>> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(key).map(|e| {
            e.last_used = tick;
            Arc::clone(&e.value)
        })
    }

    fn insert(&mut self, key: (u64, String, usize), value: CachedResult) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            // Evict the least-recently-used entry. Linear scan: the
            // cache is small (tens of entries) and eviction is off the
            // optimization hot path.
            if let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&oldest);
            }
        }
        self.entries.insert(
            key,
            CacheEntry {
                last_used: self.tick,
                value: Arc::new(value),
            },
        );
    }
}

/// State shared between the accept loop, connection threads, and
/// workers.
struct Shared {
    /// Admitted jobs, oldest first.
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    /// Where [`Shared::begin_shutdown`] connects to wake the accept
    /// loop: the bound address, with an unspecified IP replaced by
    /// loopback.
    wake_addr: SocketAddr,
    in_flight: AtomicUsize,
    /// Response lines handed to a connection writer thread but not yet
    /// flushed to (or abandoned with) its socket. The graceful drain
    /// waits for this to hit zero so an in-flight job's result reaches
    /// the client before the process exits.
    pending_writes: AtomicUsize,
    stats: Mutex<ServerStats>,
    cache: Mutex<JobCache>,
}

impl Shared {
    /// Flips the shutdown flag. The first call also wakes idle workers
    /// and connects once to the listener, so the accept loop's blocked
    /// `accept` returns and sees the flag. The connect times out
    /// rather than block shutdown; one that cannot complete finds the
    /// listener's backlog full, and those queued connections wake the
    /// loop instead.
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue_cv.notify_all();
        let _ = TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1));
    }

    fn idle(&self) -> bool {
        self.in_flight.load(Ordering::SeqCst) == 0
            && self.pending_writes.load(Ordering::SeqCst) == 0
            && self.queue.lock().expect("queue lock").is_empty()
    }

    /// Routes one response line to a connection's writer thread,
    /// keeping the pending-write accounting exact even when the writer
    /// is already gone.
    fn send_line(&self, tx: &mpsc::Sender<String>, line: String) {
        self.pending_writes.fetch_add(1, Ordering::SeqCst);
        if tx.send(line).is_err() {
            self.pending_writes.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// A running server: bound address plus the handles needed to stop it.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<thread::JoinHandle<()>>,
    worker_threads: Vec<thread::JoinHandle<()>>,
    drain_ms: u64,
}

impl Server {
    /// Binds, pre-warms the shared engine state, and starts the worker
    /// pool plus the accept loop. Returns as soon as the socket is
    /// listening.
    pub fn start(config: &ServeConfig) -> Result<Server, String> {
        let workers = config.workers.max(1);
        // Pre-warm the process-global immutable state so the first job
        // on every worker pays nothing: the 222-class NPN majority
        // database and both stock libraries with their match indexes.
        mig_tt::MigDatabase::global();
        for lib in mig_techmap::KNOWN_LIBRARIES {
            let _ = mig_techmap::CellLibrary::shared_by_name(lib);
        }

        let listener = TcpListener::bind(&config.listen)
            .map_err(|e| format!("cannot bind `{}`: {e}", config.listen))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;

        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            wake_addr: wake_addr(addr),
            in_flight: AtomicUsize::new(0),
            pending_writes: AtomicUsize::new(0),
            stats: Mutex::new(ServerStats::default()),
            cache: Mutex::new(JobCache::new(config.cache_capacity)),
        });

        let mut worker_threads = Vec::with_capacity(workers);
        for w in 0..workers {
            let shared = Arc::clone(&shared);
            worker_threads.push(
                thread::Builder::new()
                    .name(format!("mighty-worker-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .map_err(|e| format!("spawn worker: {e}"))?,
            );
        }

        let accept_shared = Arc::clone(&shared);
        let accept_thread = thread::Builder::new()
            .name("mighty-accept".to_string())
            .spawn(move || accept_loop(listener, &accept_shared))
            .map_err(|e| format!("spawn accept loop: {e}"))?;

        Ok(Server {
            addr,
            shared,
            accept_thread: Some(accept_thread),
            worker_threads,
            drain_ms: config.drain_ms,
        })
    }

    /// The bound socket address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the aggregate counters.
    pub fn stats(&self) -> ServerStats {
        *self.shared.stats.lock().expect("stats lock")
    }

    /// Requests a graceful shutdown: stop accepting, let queued and
    /// in-flight jobs finish.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Blocks until the server shut down (via [`Server::shutdown`], a
    /// `{"op": "shutdown"}` request, or an installed signal handler)
    /// and all jobs drained — or the drain deadline expired. Returns
    /// `true` when the drain completed in time.
    ///
    /// While the accept loop runs, this polls [`signal_pending`] every
    /// 10 ms and turns a signal into [`Server::shutdown`].
    pub fn wait(mut self) -> bool {
        if let Some(t) = self.accept_thread.take() {
            while !t.is_finished() {
                if signal_pending() {
                    self.shared.begin_shutdown();
                }
                thread::sleep(Duration::from_millis(10));
            }
            let _ = t.join();
        }
        // The accept loop only exits on shutdown, so from here the
        // queue can only shrink. Drain within the deadline.
        let deadline = Instant::now() + Duration::from_millis(self.drain_ms);
        while !self.shared.idle() && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        let drained = self.shared.idle();
        if drained {
            // Workers are idle; join them so the process exits clean.
            self.shared.queue_cv.notify_all();
            for t in self.worker_threads.drain(..) {
                let _ = t.join();
            }
        }
        // Non-drained workers are left detached; the caller decides
        // (the CLI exits the process, reporting the failed drain).
        drained
    }
}

/// The address that reaches a listener bound to `addr`: an unspecified
/// IP (`0.0.0.0`, `::`) accepts on every interface, loopback included.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, addr.port())
}

/// The accept loop: a blocking accept, woken on shutdown by
/// [`Shared::begin_shutdown`]'s connect.
fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            // Refuse new connections from here on: the listener is
            // dropped, so later connects get ECONNREFUSED.
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                shared.stats.lock().expect("stats lock").connections += 1;
                let shared = Arc::clone(shared);
                let _ = thread::Builder::new()
                    .name("mighty-conn".to_string())
                    .spawn(move || handle_connection(stream, &shared));
            }
            // E.g. out of file descriptors: back off instead of spinning.
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// One connection: a reader (this thread) that parses requests and a
/// writer thread that serializes responses from all of the
/// connection's jobs. The reader and every queued job hold clones of
/// the response sender; the writer exits when the last clone drops.
///
/// Responses go out as soon as they are written: `TCP_NODELAY` is set,
/// so Nagle's algorithm never holds a response's last segment until
/// the client's delayed ACK.
fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let (tx, rx) = mpsc::channel::<String>();
    let _ = stream.set_nodelay(true);
    let mut write_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let writer_shared = Arc::clone(shared);
    let writer = thread::Builder::new()
        .name("mighty-conn-write".to_string())
        .spawn(move || {
            // Once a write fails the client is gone; keep consuming
            // (without writing) so every queued line is accounted for —
            // the graceful drain waits on `pending_writes`.
            let mut broken = false;
            while let Ok(line) = rx.recv() {
                if !broken {
                    broken = write_line(&mut write_stream, line).is_err();
                }
                writer_shared.pending_writes.fetch_sub(1, Ordering::SeqCst);
            }
        });

    let mut reader = BufReader::new(stream);
    loop {
        let mut buf = Vec::new();
        match reader
            .by_ref()
            .take(MAX_REQUEST_LINE as u64)
            .read_until(b'\n', &mut buf)
        {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if buf.len() == MAX_REQUEST_LINE && buf.last() != Some(&b'\n') {
            shared.send_line(
                &tx,
                error_line(
                    "null",
                    exit_code::USAGE,
                    &format!(
                        "request line longer than {MAX_REQUEST_LINE} bytes; closing the connection"
                    ),
                ),
            );
            break;
        }
        // Like `BufRead::lines`: invalid UTF-8 ends the connection, and
        // the terminator (`\n` or `\r\n`) is not part of the line.
        let Ok(line) = std::str::from_utf8(&buf) else {
            break;
        };
        let line = match line.strip_suffix('\n') {
            Some(l) => l.strip_suffix('\r').unwrap_or(l),
            None => line,
        };
        if line.trim().is_empty() {
            continue;
        }
        match handle_request(line, &tx, shared) {
            RequestFate::Continue => {}
            RequestFate::CloseConnection => break,
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
    }
    drop(tx);
    if let Ok(w) = writer {
        let _ = w.join();
    }
}

/// Sends one response line and its `\n` terminator in a single
/// `write_all`, so the terminator never travels as a segment of its own.
fn write_line(w: &mut impl Write, mut line: String) -> io::Result<()> {
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

enum RequestFate {
    Continue,
    CloseConnection,
}

/// Parses and dispatches one request line.
fn handle_request(line: &str, tx: &mpsc::Sender<String>, shared: &Arc<Shared>) -> RequestFate {
    let value = match Json::parse(line) {
        Ok(v) => v,
        Err(e) => {
            shared.send_line(
                tx,
                error_line("null", exit_code::USAGE, &format!("bad JSON: {e}")),
            );
            return RequestFate::Continue;
        }
    };
    let id = render_id(&value);
    match value.get_str("op") {
        Some("ping") => {
            shared.send_line(tx, "{\"type\": \"pong\"}".to_string());
            RequestFate::Continue
        }
        Some("stats") => {
            let st = *shared.stats.lock().expect("stats lock");
            shared.send_line(
                tx,
                format!(
                    "{{\"type\": \"stats\", \"jobs_done\": {}, \"cache_hits\": {}, \
                 \"cache_misses\": {}, \"jobs_failed\": {}, \"connections\": {}}}",
                    st.jobs_done, st.cache_hits, st.cache_misses, st.jobs_failed, st.connections
                ),
            );
            RequestFate::Continue
        }
        Some("shutdown") => {
            shared.send_line(tx, "{\"type\": \"shutting_down\"}".to_string());
            shared.begin_shutdown();
            RequestFate::CloseConnection
        }
        Some(other) => {
            shared.send_line(
                tx,
                error_line(&id, exit_code::USAGE, &format!("unknown op `{other}`")),
            );
            RequestFate::Continue
        }
        None => {
            match parse_job(&value, &id, tx.clone()) {
                Ok(job) => {
                    let mut queue = shared.queue.lock().expect("queue lock");
                    // Checked under the queue lock: workers only exit
                    // when (shutdown && queue empty) holds under this
                    // same lock, so a job admitted here is guaranteed a
                    // worker — and one rejected here never strands.
                    if shared.shutdown.load(Ordering::SeqCst) {
                        drop(queue);
                        shared.send_line(
                            tx,
                            error_line(&id, exit_code::USAGE, "server is shutting down"),
                        );
                    } else {
                        queue.push_back(job);
                        shared.queue_cv.notify_one();
                    }
                }
                Err((code, msg)) => {
                    shared.send_line(tx, error_line(&id, code, &msg));
                }
            }
            RequestFate::Continue
        }
    }
}

/// Serializes the client's `id` member back to a JSON snippet (`null`
/// when absent — every response still carries the key).
fn render_id(value: &Json) -> String {
    match value.get("id") {
        Some(Json::Num(n)) => {
            if n.fract() == 0.0 && n.abs() < 9e15 {
                format!("{}", *n as i64)
            } else {
                format!("{n}")
            }
        }
        Some(Json::Str(s)) => format!("\"{}\"", escape_str(s)),
        Some(Json::Bool(b)) => format!("{b}"),
        _ => "null".to_string(),
    }
}

fn error_line(id: &str, code: i64, message: &str) -> String {
    format!(
        "{{\"type\": \"error\", \"id\": {id}, \"exit_code\": {code}, \"message\": \"{}\"}}",
        escape_str(message)
    )
}

/// Validates a job request into a ready-to-run [`Job`].
fn parse_job(value: &Json, id: &str, out: mpsc::Sender<String>) -> Result<Job, (i64, String)> {
    let spec = value
        .get_str("netlist")
        .ok_or((exit_code::USAGE, "missing `netlist`".to_string()))?;
    let net = if spec.contains("module") {
        parse_verilog(spec).map_err(|e| (exit_code::INPUT, format!("verilog: {e}")))?
    } else {
        mig_benchgen::generate(spec).ok_or((
            exit_code::INPUT,
            format!("`{spec}` is neither Verilog text nor a known benchmark"),
        ))?
    };
    let flow_script = value.get_str("flow").unwrap_or("size");
    let flow = Flow::parse(flow_script).map_err(|e| (exit_code::USAGE, format!("flow: {e}")))?;
    let get_usize = |key: &str, default: usize| -> Result<usize, (i64, String)> {
        match value.get(key) {
            None => Ok(default),
            Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as usize),
            Some(_) => Err((
                exit_code::USAGE,
                format!("`{key}` must be a non-negative integer"),
            )),
        }
    };
    let at_most = |key: &str, default: usize, max: usize| -> Result<usize, (i64, String)> {
        match get_usize(key, default)? {
            n if n > max => Err((exit_code::USAGE, format!("`{key}` must be at most {max}"))),
            n => Ok(n.max(1)),
        }
    };
    let effort = at_most("effort", 2, MAX_EFFORT)?;
    let rounds = at_most("rounds", 16, MAX_ROUNDS)?;
    let opts = RunOptions {
        timeout_ms: match get_usize("timeout_ms", 0)? {
            0 => None,
            n => Some(n as u64),
        },
        pass_timeout_ms: match get_usize("pass_timeout_ms", 0)? {
            0 => None,
            n => Some(n as u64),
        },
        max_nodes: match get_usize("max_nodes", 0)? {
            0 => None,
            n => Some(n),
        },
        selfcheck: value.get_bool("selfcheck").unwrap_or(false),
    };
    Ok(Job {
        id: id.to_string(),
        net,
        flow,
        effort,
        rounds,
        opts,
        progress: value.get_bool("progress").unwrap_or(false),
        out,
    })
}

/// The worker loop: one persistent [`OptContext`] per worker, reused
/// across jobs. On an (unexpected) panic escaping a job, the context is
/// replaced with a fresh one — a worker never dies, matching the PR-7
/// rule that a faulty job degrades without taking the service down.
fn worker_loop(shared: &Arc<Shared>) {
    let mut ctx = OptContext::with_jobs(1);
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("queue lock");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(100))
                    .expect("queue lock")
                    .0;
            }
        };
        shared.in_flight.fetch_add(1, Ordering::SeqCst);
        let panicked = {
            let ctx_ref = &mut ctx;
            catch_unwind(AssertUnwindSafe(|| execute_job(&job, ctx_ref, shared))).is_err()
        };
        if panicked {
            // The context may hold half-mutated scratch state; rebuild.
            ctx = OptContext::with_jobs(1);
            let mut stats = shared.stats.lock().expect("stats lock");
            stats.jobs_done += 1;
            stats.jobs_failed += 1;
            drop(stats);
            shared.send_line(
                &job.out,
                error_line(
                    &job.id,
                    exit_code::DEGRADED,
                    "job panicked; worker recovered",
                ),
            );
        }
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        shared.queue_cv.notify_all();
    }
}

/// Runs one job: cache probe, optimization with optional progress
/// streaming, verification, response.
fn execute_job(job: &Job, ctx: &mut OptContext, shared: &Arc<Shared>) {
    let start = Instant::now();
    // Budgeted or self-checked jobs are not replayable (their outcome
    // depends on wall time), so they bypass the cache entirely.
    let cacheable = job.opts == RunOptions::default();
    let key = (job.net.content_hash(), job.flow.to_string(), job.effort);

    if cacheable {
        let hit = shared.cache.lock().expect("cache lock").get(&key);
        if let Some(cached) = hit {
            // Never trust a cache entry blindly: re-verify the stored
            // result against the incoming circuit before replaying it.
            let mut optimized = cached.optimized.clone();
            optimized.set_name(job.net.name());
            let net_equiv = mig_sim::equivalent(&job.net, &optimized, job.rounds);
            let mut stats = shared.stats.lock().expect("stats lock");
            stats.jobs_done += 1;
            if net_equiv {
                stats.cache_hits += 1;
                drop(stats);
                shared.send_line(
                    &job.out,
                    result_line(
                        &job.id,
                        &ResultFields {
                            name: job.net.name(),
                            flow: &cached.flow,
                            before: cached.before,
                            after: cached.after,
                            stages: cached.stages,
                            mig_equiv: true,
                            net_equiv: true,
                            degraded: false,
                            cached: true,
                            hash: key.0,
                            millis: start.elapsed().as_millis(),
                            verilog: &write_verilog(&optimized),
                        },
                    ),
                );
                return;
            }
            // A failed re-verification means the entry cannot serve
            // this request (hash collision); drop it and fall through
            // to a real run.
            stats.jobs_failed += 1;
            drop(stats);
            shared
                .cache
                .lock()
                .expect("cache lock")
                .entries
                .remove(&key);
        }
    }

    let out = job.out.clone();
    let id = job.id.clone();
    let progress = job.progress;
    let progress_shared = Arc::clone(shared);
    let outcome: OptOutcome = run_flow_session(
        &job.net,
        &job.flow,
        job.effort,
        job.rounds,
        &job.opts,
        ctx,
        move |stage| {
            if progress {
                progress_shared.send_line(
                    &out,
                    format!(
                        "{{\"type\": \"progress\", \"id\": {id}, \"pass\": \"{}\", \
                     \"size\": {}, \"depth\": {}, \"activity\": {:.3}, \
                     \"millis\": {:.2}, \"outcome\": \"{}\"}}",
                        escape_str(&stage.pass),
                        stage.after.size,
                        stage.after.depth,
                        stage.after.activity,
                        stage.millis,
                        stage.outcome.name(),
                    ),
                );
            }
        },
    );

    let verified = outcome.mig_equiv && outcome.net_equiv;
    {
        let mut stats = shared.stats.lock().expect("stats lock");
        stats.jobs_done += 1;
        if cacheable {
            stats.cache_misses += 1;
        }
        if !verified {
            stats.jobs_failed += 1;
        }
    }
    if cacheable && verified && !outcome.degraded {
        shared.cache.lock().expect("cache lock").insert(
            key.clone(),
            CachedResult {
                optimized: outcome.optimized.clone(),
                before: outcome.before,
                after: outcome.after,
                flow: outcome.flow.clone(),
                stages: outcome.stages.len(),
            },
        );
    }
    shared.send_line(
        &job.out,
        result_line(
            &job.id,
            &ResultFields {
                name: &outcome.name,
                flow: &outcome.flow,
                before: outcome.before,
                after: outcome.after,
                stages: outcome.stages.len(),
                mig_equiv: outcome.mig_equiv,
                net_equiv: outcome.net_equiv,
                degraded: outcome.degraded,
                cached: false,
                hash: key.0,
                millis: start.elapsed().as_millis(),
                verilog: &write_verilog(&outcome.optimized),
            },
        ),
    );
}

struct ResultFields<'a> {
    name: &'a str,
    flow: &'a str,
    before: PassMetrics,
    after: PassMetrics,
    stages: usize,
    mig_equiv: bool,
    net_equiv: bool,
    degraded: bool,
    cached: bool,
    hash: u64,
    millis: u128,
    verilog: &'a str,
}

fn result_line(id: &str, f: &ResultFields<'_>) -> String {
    let exit = if !f.mig_equiv || !f.net_equiv {
        exit_code::EQUIV
    } else if f.degraded {
        exit_code::DEGRADED
    } else {
        exit_code::OK
    };
    format!(
        "{{\"type\": \"result\", \"id\": {id}, \"exit_code\": {exit}, \
         \"name\": \"{}\", \"flow\": \"{}\", \
         \"before\": {{\"size\": {}, \"depth\": {}, \"activity\": {:.3}}}, \
         \"after\": {{\"size\": {}, \"depth\": {}, \"activity\": {:.3}}}, \
         \"stages\": {}, \"mig_equiv\": {}, \"net_equiv\": {}, \
         \"degraded\": {}, \"cached\": {}, \"hash\": \"{:016x}\", \
         \"millis\": {}, \"verilog\": \"{}\"}}",
        escape_str(f.name),
        escape_str(f.flow),
        f.before.size,
        f.before.depth,
        f.before.activity,
        f.after.size,
        f.after.depth,
        f.after.activity,
        f.stages,
        f.mig_equiv,
        f.net_equiv,
        f.degraded,
        f.cached,
        f.hash,
        f.millis,
        escape_str(f.verilog),
    )
}

// ---------------------------------------------------------------------------
// Signal handling (graceful shutdown on SIGTERM / ctrl-c)
// ---------------------------------------------------------------------------

static SIGNALLED: AtomicBool = AtomicBool::new(false);

/// True once a SIGTERM/SIGINT arrived after
/// [`install_signal_handlers`] ran.
pub fn signal_pending() -> bool {
    SIGNALLED.load(Ordering::SeqCst)
}

/// Installs SIGTERM and SIGINT handlers that flip an atomic flag
/// [`Server::wait`] polls, so either signal triggers the same graceful
/// drain as a `{"op": "shutdown"}` request. Raw `signal(2)` FFI —
/// the workspace links no `libc` crate, and `std` already links the
/// platform C library.
#[cfg(unix)]
pub fn install_signal_handlers() {
    extern "C" fn on_signal(_sig: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// No-op off Unix (the serve loop still honors wire-level shutdown).
#[cfg(not(unix))]
pub fn install_signal_handlers() {}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cache entry (the cache never looks inside one).
    fn entry() -> CachedResult {
        let empty = PassMetrics::of(&mig_core::Mig::new("x"));
        CachedResult {
            optimized: Network::new("x"),
            before: empty,
            after: empty,
            flow: "size".to_string(),
            stages: 0,
        }
    }

    #[test]
    fn cache_is_bounded_and_lru() {
        let mut cache = JobCache::new(2);
        let key = |n: u64| (n, "size".to_string(), 1usize);
        cache.insert(key(1), entry());
        cache.insert(key(2), entry());
        assert!(cache.get(&key(1)).is_some(), "touch 1 → 2 becomes LRU");
        cache.insert(key(3), entry());
        assert!(cache.get(&key(2)).is_none(), "2 evicted");
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(3)).is_some());
        assert_eq!(cache.entries.len(), 2);
    }

    #[test]
    fn zero_capacity_cache_never_stores() {
        let mut cache = JobCache::new(0);
        cache.insert((1, "size".to_string(), 1), entry());
        assert!(cache.entries.is_empty());
    }

    /// A `Write` that logs every call it receives.
    #[derive(Default)]
    struct Recorder {
        writes: Vec<Vec<u8>>,
        flushes: usize,
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    #[test]
    fn each_response_line_is_one_write() {
        for len in [20 << 10, 10] {
            let line = "x".repeat(len);
            let mut w = Recorder::default();
            write_line(&mut w, line.clone()).unwrap();
            assert_eq!(w.writes.len(), 1, "{len}-byte line: one write call");
            assert_eq!(w.writes[0], format!("{line}\n").into_bytes());
            assert_eq!(w.flushes, 1);
        }
    }

    #[test]
    fn wake_addr_replaces_only_unspecified_ips() {
        let wake = |a: &str| wake_addr(a.parse().unwrap()).to_string();
        assert_eq!(wake("0.0.0.0:7171"), "127.0.0.1:7171");
        assert_eq!(wake("[::]:7171"), "[::1]:7171");
        assert_eq!(wake("192.0.2.1:80"), "192.0.2.1:80");
    }

    #[test]
    fn unspecified_bind_accepts_at_once_and_shuts_down() {
        let server = Server::start(&ServeConfig {
            listen: "0.0.0.0:0".to_string(),
            ..ServeConfig::default()
        })
        .expect("start");
        let addr = wake_addr(server.addr());
        let stream = TcpStream::connect(addr).expect("connect right after start");
        (&stream).write_all(b"{\"op\": \"ping\"}\n").unwrap();
        let mut line = String::new();
        BufReader::new(&stream).read_line(&mut line).unwrap();
        assert_eq!(line, "{\"type\": \"pong\"}\n");

        server.shutdown();
        // `wait` runs on its own thread so a hang fails the test.
        let (done_tx, done_rx) = mpsc::channel();
        let waiter = thread::spawn(move || done_tx.send(server.wait()));
        let drained = done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("wait() hung after shutdown on 0.0.0.0");
        waiter.join().unwrap().unwrap();
        assert!(drained, "drain");
        let refused = TcpStream::connect(addr).map(|_| ()).unwrap_err();
        assert_eq!(refused.kind(), io::ErrorKind::ConnectionRefused);
    }

    #[test]
    fn id_rendering_round_trips() {
        let v = Json::parse(r#"{"id": 42}"#).unwrap();
        assert_eq!(render_id(&v), "42");
        let v = Json::parse(r#"{"id": "job-7"}"#).unwrap();
        assert_eq!(render_id(&v), "\"job-7\"");
        let v = Json::parse(r#"{"op": "ping"}"#).unwrap();
        assert_eq!(render_id(&v), "null");
    }
}
