//! Decorators around the public seams of the system, and the span
//! recorder they feed.
//!
//! * [`Conn`] — the client's `Transport`, around one `wire::Client`
//!   connection: times every `InsertBatch` round trip, checks batch replies
//!   for per-chunk errors, and when tracing sends each request inside a
//!   trace envelope that carries the request id to the server.
//! * [`TracedService`] — a `Handler` around `ShardedService`, forwarding
//!   `handle_frame`.
//! * [`TracedKv`] — a `KvStore` around the store under the service.
//!
//! With tracing off the decorators only forward (plus `Conn`'s always-on
//! round-trip timing, which the end-to-end latency needs). With tracing on
//! each records a [`Span`] per call; a request's client, wire, service and
//! store spans share one request id.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use timecrypt::client::{ClientFault, Transport};
use timecrypt::service::ShardedService;
use timecrypt::store::{KvPairs, KvStore, StoreError};
use timecrypt::wire::messages::{encode_trace_prefix, Request, Response};
use timecrypt::wire::transport::Handler;
use timecrypt::wire::{Client, TraceContext};
use timecrypt_obs::trace;

/// The boundary a span was recorded at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// Producer: feeding one chunk's points (seals the previous chunk and
    /// ships a batch when it is full).
    ClientPush,
    /// Consumer: one `stat_query_multi`, request to decrypted result.
    ClientQuery,
    /// Client-observed `InsertBatch` round trip.
    WireInsertBatch,
    /// Client-observed `GetStatRange` round trip.
    WireStat,
    /// Any other round trip.
    WireOther,
    /// `ShardedService::handle_frame`.
    Service,
    /// Store `get`.
    StoreGet,
    /// Store `put`.
    StorePut,
    /// Store `delete` or `scan_prefix`.
    StoreOther,
}

impl Layer {
    /// Span name in the dump.
    pub fn name(self) -> &'static str {
        match self {
            Layer::ClientPush => "client.push",
            Layer::ClientQuery => "client.query",
            Layer::WireInsertBatch => "wire.insert_batch",
            Layer::WireStat => "wire.stat",
            Layer::WireOther => "wire.other",
            Layer::Service => "service.handle_frame",
            Layer::StoreGet => "store.get",
            Layer::StorePut => "store.put",
            Layer::StoreOther => "store.other",
        }
    }

    fn is_store(self) -> bool {
        matches!(self, Layer::StoreGet | Layer::StorePut | Layer::StoreOther)
    }
}

/// One recorded interval.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Boundary.
    pub layer: Layer,
    /// Request id, shared by the spans of one client operation (0: none).
    pub req: u64,
    /// This span's id.
    pub id: u64,
    /// The span that caused it (0: root, or resolved later for store spans,
    /// whose caller is the request's service span).
    pub parent: u64,
    /// Start, ns since the recorder was created.
    pub start: u64,
    /// End, ns since the recorder was created.
    pub end: u64,
    /// Wire: request frame bytes. Store: value bytes read or written.
    pub bytes: u64,
    /// Wire: response frame bytes.
    pub bytes_out: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// One completed client operation.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Completion time, ns on the recorder's clock.
    pub end_ns: u64,
    /// Latency, ns.
    pub lat_ns: u64,
    /// Units of work it completed (chunks of a batch, or 1 query).
    pub weight: u64,
}

/// In-memory span sink shared by every decorator of a run.
pub struct Recorder {
    on: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder with tracing off.
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            on: AtomicBool::new(false),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Turns span recording on or off.
    pub fn set(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// ns since the recorder was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh span or request id.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    /// Removes and returns every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"))
    }

    /// Runs `f` as client operation `layer`: a root span whose id becomes
    /// the request id of every round trip `f` makes on this thread.
    pub fn client_op<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        if !self.on() {
            return f();
        }
        let id = self.id();
        let start = self.now();
        CLIENT_OP.with(|c| c.set(id));
        let out = f();
        CLIENT_OP.with(|c| c.set(0));
        self.push(Span {
            layer,
            req: id,
            id,
            parent: 0,
            start,
            end: self.now(),
            bytes: 0,
            bytes_out: 0,
        });
        out
    }
}

thread_local! {
    /// The client operation (root span id) running on this thread.
    static CLIENT_OP: Cell<u64> = const { Cell::new(0) };
}

/// A client connection: the `Transport` every producer and consumer uses.
pub struct Conn {
    client: Client,
    rec: Arc<Recorder>,
    /// Every `InsertBatch` round trip.
    pub batches: Vec<Sample>,
    /// `InsertBatch` calls that failed or whose reply listed rejected
    /// chunks.
    pub batch_failures: u64,
    body: Vec<u8>,
    reply: Vec<u8>,
}

impl Conn {
    /// Connects to `addr`.
    pub fn connect(addr: std::net::SocketAddr, rec: Arc<Recorder>) -> Conn {
        Conn {
            client: Client::connect(addr).expect("connect to the loopback server"),
            rec,
            batches: Vec::new(),
            batch_failures: 0,
            body: Vec::new(),
            reply: Vec::new(),
        }
    }

    /// Sends a request body assembled by `fill` in the connection's own
    /// buffer (the batch encoder path) and returns the reply.
    pub fn call_with(&mut self, fill: impl FnOnce(&mut Vec<u8>)) -> Result<Response, ClientFault> {
        self.client.send_with(fill)?;
        Ok(self.client.recv()?)
    }

    fn call_traced(&mut self, req: &Request) -> Result<Response, ClientFault> {
        let op = CLIENT_OP.with(Cell::get);
        let id = self.rec.id();
        let req_id = if op == 0 { id } else { op };
        self.body.clear();
        encode_trace_prefix(
            TraceContext {
                trace_id: u128::from(req_id),
                span_id: id,
            },
            &mut self.body,
        );
        req.encode_into(&mut self.body);
        let start = self.rec.now();
        let body = &self.body;
        self.client.send_with(|b| b.extend_from_slice(body))?;
        let resp = self.client.recv()?;
        let end = self.rec.now();
        self.reply.clear();
        resp.encode_into(&mut self.reply);
        self.rec.push(Span {
            layer: match req {
                Request::InsertBatch { .. } => Layer::WireInsertBatch,
                Request::GetStatRange { .. } => Layer::WireStat,
                _ => Layer::WireOther,
            },
            req: req_id,
            id,
            parent: op,
            start,
            end,
            // 4-byte length prefix per frame.
            bytes: self.body.len() as u64 + 4,
            bytes_out: self.reply.len() as u64 + 4,
        });
        match resp {
            Response::Error(msg) => Err(ClientFault::Transport(format!("server error: {msg}"))),
            other => Ok(other),
        }
    }
}

impl Transport for Conn {
    fn call(&mut self, req: &Request) -> Result<Response, ClientFault> {
        let chunks = match req {
            Request::InsertBatch { chunks } => Some(chunks.len() as u64),
            _ => None,
        };
        let t0 = Instant::now();
        let out = if self.rec.on() {
            self.call_traced(req)
        } else {
            self.client.call(req).map_err(ClientFault::from)
        };
        if let Some(chunks) = chunks {
            self.batches.push(Sample {
                end_ns: self.rec.now(),
                lat_ns: t0.elapsed().as_nanos() as u64,
                weight: chunks,
            });
            if !matches!(&out, Ok(Response::Batch { errors }) if errors.is_empty()) {
                self.batch_failures += 1;
            }
        }
        out
    }
}

/// The server-side `Handler`: forwards frames to the service.
pub struct TracedService {
    svc: Arc<ShardedService>,
    rec: Arc<Recorder>,
}

impl TracedService {
    /// Wraps `svc`.
    pub fn new(svc: Arc<ShardedService>, rec: Arc<Recorder>) -> TracedService {
        TracedService { svc, rec }
    }
}

impl Handler for TracedService {
    fn handle(&self, req: Request) -> Response {
        self.svc.handle(req)
    }

    fn handle_frame(&self, body: &[u8]) -> Response {
        let ctx = if self.rec.on() {
            trace::current()
        } else {
            None
        };
        let Some(ctx) = ctx else {
            return self.svc.handle_frame(body);
        };
        let start = self.rec.now();
        let resp = self.svc.handle_frame(body);
        self.rec.push(Span {
            layer: Layer::Service,
            req: ctx.trace_id as u64,
            id: self.rec.id(),
            parent: ctx.span_id,
            start,
            end: self.rec.now(),
            bytes: 0,
            bytes_out: 0,
        });
        resp
    }
}

/// The store under the service.
pub struct TracedKv {
    inner: Arc<dyn KvStore>,
    rec: Arc<Recorder>,
}

impl TracedKv {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn KvStore>, rec: Arc<Recorder>) -> TracedKv {
        TracedKv { inner, rec }
    }

    fn timed<T>(&self, layer: Layer, f: impl FnOnce() -> T, bytes: impl FnOnce(&T) -> u64) -> T {
        if !self.rec.on() {
            return f();
        }
        let start = self.rec.now();
        let out = f();
        let end = self.rec.now();
        self.rec.push(Span {
            layer,
            req: trace::current().map_or(0, |c| c.trace_id as u64),
            id: self.rec.id(),
            parent: 0,
            start,
            end,
            bytes: bytes(&out),
            bytes_out: 0,
        });
        out
    }
}

impl KvStore for TracedKv {
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, StoreError> {
        self.timed(
            Layer::StoreGet,
            || self.inner.get(key),
            |r| match r {
                Ok(Some(v)) => v.len() as u64,
                _ => 0,
            },
        )
    }

    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.timed(
            Layer::StorePut,
            || self.inner.put(key, value),
            |_| (key.len() + value.len()) as u64,
        )
    }

    fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
        self.timed(Layer::StoreOther, || self.inner.delete(key), |_| 0)
    }

    fn scan_prefix(&self, prefix: &[u8]) -> Result<KvPairs, StoreError> {
        self.timed(Layer::StoreOther, || self.inner.scan_prefix(prefix), |_| 0)
    }
}

/// Nearest-rank percentile `q` (0..=1) of `v`, sorted in place; 0 if empty.
pub fn percentile(v: &mut [u64], q: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Total length of the union of `[start, end)` intervals.
fn union_len(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Per-layer figures derived from one traced phase's spans.
#[derive(Debug)]
pub struct LayerFigures {
    /// `(name, samples in ns)` for every `_us` metric.
    pub timings: Vec<(&'static str, Vec<u64>)>,
    /// `(name, value)` for every other span-derived metric.
    pub values: Vec<(&'static str, f64)>,
}

/// Joins spans by request and derives each layer's time, self time and
/// work. `wall_ns` is the phase's wall time.
pub fn derive(spans: &[Span], wall_ns: u64) -> LayerFigures {
    // Wire time per client operation, and the service span of each wire span.
    let mut wire_in_op: HashMap<u64, u64> = HashMap::new();
    let mut service_of_wire: HashMap<u64, &Span> = HashMap::new();
    let mut store_of_req: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans {
        match s.layer {
            Layer::WireInsertBatch | Layer::WireStat | Layer::WireOther if s.parent != 0 => {
                *wire_in_op.entry(s.parent).or_default() += s.dur();
            }
            Layer::Service => {
                service_of_wire.insert(s.parent, s);
            }
            l if l.is_store() && s.req != 0 => store_of_req.entry(s.req).or_default().push(s),
            _ => {}
        }
    }
    let mut seal = Vec::new();
    let mut decrypt = Vec::new();
    let (mut wire_batch, mut wire_stat) = (Vec::new(), Vec::new());
    let (mut over_batch, mut over_stat) = (Vec::new(), Vec::new());
    let (mut svc_batch, mut svc_stat, mut svc_stat_self) = (Vec::new(), Vec::new(), Vec::new());
    let (mut get_us, mut put_us) = (Vec::new(), Vec::new());
    let mut bytes = [[0u64; 2]; 2];
    let mut ops = [0u64; 2];
    let (mut query_gets, mut query_get_bytes, mut queries) = (0u64, 0u64, 0u64);
    let mut store_busy = 0u64;
    for s in spans {
        match s.layer {
            Layer::ClientPush => {
                seal.push(
                    s.dur()
                        .saturating_sub(wire_in_op.get(&s.id).copied().unwrap_or(0)),
                );
            }
            Layer::ClientQuery => {
                decrypt.push(
                    s.dur()
                        .saturating_sub(wire_in_op.get(&s.id).copied().unwrap_or(0)),
                );
            }
            Layer::WireInsertBatch | Layer::WireStat => {
                let k = usize::from(s.layer == Layer::WireStat);
                ops[k] += 1;
                bytes[k][0] += s.bytes;
                bytes[k][1] += s.bytes_out;
                let svc = service_of_wire.get(&s.id);
                let over = s.dur().saturating_sub(svc.map_or(0, |v| v.dur()));
                if k == 0 {
                    wire_batch.push(s.dur());
                    over_batch.push(over);
                } else {
                    wire_stat.push(s.dur());
                    over_stat.push(over);
                }
                let Some(svc) = svc else { continue };
                if k == 0 {
                    svc_batch.push(svc.dur());
                    continue;
                }
                svc_stat.push(svc.dur());
                queries += 1;
                let store = store_of_req.get(&s.req).map_or(&[][..], Vec::as_slice);
                let inside: Vec<(u64, u64)> = store
                    .iter()
                    .map(|t| (t.start.max(svc.start), t.end.min(svc.end)))
                    .filter(|(a, b)| a < b)
                    .collect();
                svc_stat_self.push(svc.dur().saturating_sub(union_len(inside)));
                for t in store.iter().filter(|t| t.layer == Layer::StoreGet) {
                    query_gets += 1;
                    query_get_bytes += t.bytes;
                }
            }
            Layer::StoreGet => {
                get_us.push(s.dur());
                store_busy += s.dur();
            }
            Layer::StorePut => {
                put_us.push(s.dur());
                store_busy += s.dur();
            }
            Layer::StoreOther => store_busy += s.dur(),
            Layer::WireOther | Layer::Service => {}
        }
    }
    let per = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    LayerFigures {
        timings: vec![
            ("client.seal_us", seal),
            ("client.decrypt_us", decrypt),
            ("wire.insert_batch_us", wire_batch),
            ("wire.stat_us", wire_stat),
            ("wire.insert_batch_overhead_us", over_batch),
            ("wire.stat_overhead_us", over_stat),
            ("service.insert_batch_us", svc_batch),
            ("service.stat_us", svc_stat),
            ("service.stat_self_us", svc_stat_self),
            ("store.get_us", get_us),
            ("store.put_us", put_us),
        ],
        values: vec![
            ("wire.insert_batch_req_bytes", per(bytes[0][0], ops[0])),
            ("wire.insert_batch_resp_bytes", per(bytes[0][1], ops[0])),
            ("wire.stat_req_bytes", per(bytes[1][0], ops[1])),
            ("wire.stat_resp_bytes", per(bytes[1][1], ops[1])),
            ("store.gets_per_query", per(query_gets, queries)),
            ("store.bytes_read_per_query", per(query_get_bytes, queries)),
            ("store.busy_share", per(store_busy, wall_ns)),
        ],
    }
}

/// Writes `spans` as JSON lines (at most `limit`), store spans linked to
/// their request's service span.
pub fn dump(spans: &[Span], limit: usize, path: &std::path::Path) -> std::io::Result<usize> {
    use std::io::Write;
    let service_of_req: HashMap<u64, u64> = spans
        .iter()
        .filter(|s| s.layer == Layer::Service)
        .map(|s| (s.req, s.id))
        .collect();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let n = spans.len().min(limit);
    for s in &spans[..n] {
        let parent = if s.layer.is_store() {
            service_of_req.get(&s.req).copied().unwrap_or(0)
        } else {
            s.parent
        };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"req\":{},\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"bytes\":{},\"bytes_out\":{}}}",
            s.layer.name(),
            s.req,
            s.id,
            parent,
            s.start,
            s.end,
            s.bytes,
            s.bytes_out
        )?;
    }
    out.flush()?;
    Ok(n)
}
