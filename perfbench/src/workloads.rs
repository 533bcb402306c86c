//! The three workloads over one in-process deployment: a 2-shard
//! `ShardedService` behind the loopback TCP server, every client on its
//! own connection. Load is closed loop: each client thread sends its next
//! request only after the previous reply.

use crate::gen::{Fleet, Query, Wearable, PRODUCER_BATCH, WEARABLES};
use crate::layers::{Conn, Layer, Recorder, Sample, TracedKv, TracedService};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};
use timecrypt::chunk::DataPoint;
use timecrypt::client::{BatchingProducer, Consumer};
use timecrypt::crypto::SecureRandom;
use timecrypt::server::ServerConfig;
use timecrypt::service::{ServiceConfig, ShardedService};
use timecrypt::store::{KvStore, LatencyKv, MemKv};
use timecrypt::wire::messages::{BatchEncoder, Response, ServiceStatsWire};
use timecrypt::wire::transport::Server;

/// Engine shards of the service.
const SHARDS: usize = 2;
/// `archive`: per-operation latency of the remote store tier.
const ARCHIVE_STORE_LATENCY: Duration = Duration::from_micros(50);
/// `archive`: per-stream index cache, far below its ~90 KiB of index.
const ARCHIVE_CACHE_BYTES: usize = 1024;
/// Seeding: chunks of one stream per batch entry group (4 h of history)...
const SEED_WINDOW: usize = 240;
/// ...for this many streams per `InsertBatch`.
const SEED_STREAMS: usize = 4;
/// `ingest`: chunks per stream uploaded during warm-up.
const INGEST_WARMUP_CHUNKS: u64 = 8;
/// `ingest`: the grant window the verifier holds, in chunks.
const INGEST_GRANT_CHUNKS: i64 = 1 << 20;
/// `archive`: the live writer appends one chunk to each of the 200 streams
/// every 200 ms (1 000 chunks/s, the fleet's live feed 300× faster than
/// real time), well under what one writer thread can seal and ship, so the
/// writer adds a steady store load instead of saturating a core.
const WRITER_ROUND: Duration = Duration::from_millis(200);
/// Queries pre-generated per consumer thread (cycled).
const QUERIES_PER_CONSUMER: usize = 1 << 16;
/// Warm-up queries per consumer thread before timing.
const WARMUP_QUERIES: usize = 1_000;

/// The service, its TCP server and the store decorator, for one set-up.
pub struct Rig {
    // Declared first so it drops first: connections are severed before
    // the service goes away.
    _server: Server,
    /// The service.
    pub svc: Arc<ShardedService>,
    addr: SocketAddr,
    rec: Arc<Recorder>,
}

impl Rig {
    fn open(store: Arc<dyn KvStore>, cache_bytes: usize, rec: &Arc<Recorder>) -> Rig {
        let kv = Arc::new(TracedKv::new(store, rec.clone()));
        let svc = Arc::new(
            ShardedService::open(
                kv,
                ServiceConfig {
                    shards: SHARDS,
                    engine: ServerConfig {
                        cache_bytes,
                        ..ServerConfig::default()
                    },
                    ..ServiceConfig::default()
                },
            )
            .expect("open the service"),
        );
        let handler = Arc::new(TracedService::new(svc.clone(), rec.clone()));
        let server = Server::bind("127.0.0.1:0", handler).expect("bind the loopback server");
        let addr = server.addr();
        Rig {
            _server: server,
            svc,
            addr,
            rec: rec.clone(),
        }
    }

    fn connect(&self) -> Conn {
        Conn::connect(self.addr, self.rec.clone())
    }
}

/// What one timed phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Start, ns on the recorder's clock.
    pub start_ns: u64,
    /// Wall time of the phase, s.
    pub wall_s: f64,
    /// Primary operations that completed and were verified, weighted by
    /// the workload's unit of throughput.
    pub samples: Vec<Sample>,
    /// Primary operations attempted.
    pub attempted: u64,
    /// Primary operations that failed or returned a wrong result.
    pub failed: u64,
    /// Data points acknowledged (ingest producers, archive writer).
    pub records: u64,
    /// Client statistical queries issued.
    pub queries: u64,
    /// Chunks acknowledged.
    pub chunks: u64,
    /// How far behind schedule the `archive` writer finished.
    pub writer_late: Duration,
}

impl Phase {
    fn absorb(&mut self, o: Phase) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.samples.extend(o.samples);
        self.records += o.records;
        self.queries += o.queries;
        self.chunks += o.chunks;
    }
}

/// A benchmark workload.
pub trait Workload {
    /// Builds a fresh deployment and brings it to the first timed op.
    fn setup(&mut self, rec: &Arc<Recorder>) -> Result<(), String>;
    /// Runs the load for `dur`.
    fn phase(&mut self, rec: &Recorder, dur: Duration) -> Phase;
    /// Checks that layers this workload should leave idle stayed idle,
    /// and that the one it must exercise was, over a phase.
    fn bypass(
        &self,
        before: &ServiceStatsWire,
        after: &ServiceStatsWire,
        p: &Phase,
    ) -> Result<(), String>;
    /// End-of-run correctness checks.
    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// Data points seeded into the store during set-up.
    fn seeded_records(&self) -> u64 {
        0
    }
    /// The current deployment.
    fn rig(&self) -> &Rig;
}

/// Sums a per-shard counter.
pub fn sum_shards(
    s: &ServiceStatsWire,
    f: impl Fn(&timecrypt::wire::messages::ShardStatsWire) -> u64,
) -> u64 {
    s.shards.iter().map(f).sum()
}

/// Registers, seeds and grants the fleet on `rig`: two seeding connections
/// ship the pre-sealed history in large batches.
fn seed_fleet(rig: &Rig, fleet: &mut Fleet, consumer: &Consumer) -> Result<(), String> {
    let mut owner_conn = rig.connect();
    for st in &mut fleet.streams {
        st.owner
            .create_stream(&mut owner_conn)
            .map_err(|e| format!("create stream: {e}"))?;
    }
    let streams = &fleet.streams;
    std::thread::scope(|s| {
        let shippers: Vec<_> = (0..2)
            .map(|t| {
                s.spawn(move || -> Result<(), String> {
                    let mut conn = rig.connect();
                    let mine: Vec<_> = streams.iter().skip(t).step_by(2).collect();
                    for group in mine.chunks(SEED_STREAMS) {
                        for lo in (0..group[0].sealed.len()).step_by(SEED_WINDOW) {
                            let reply = conn
                                .call_with(|b| {
                                    let mut enc = BatchEncoder::begin(b);
                                    for st in group {
                                        let hi = (lo + SEED_WINDOW).min(st.sealed.len());
                                        for c in &st.sealed[lo..hi] {
                                            enc.append_with(c.len(), |buf| {
                                                buf.extend_from_slice(c)
                                            });
                                        }
                                    }
                                    enc.finish();
                                })
                                .map_err(|e| format!("seed batch: {e}"))?;
                            match reply {
                                Response::Batch { errors } if errors.is_empty() => {}
                                other => return Err(format!("seed batch rejected: {other:?}")),
                            }
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        shippers
            .into_iter()
            .try_for_each(|h| h.join().expect("seeding thread"))
    })?;
    let end = fleet.end_ms();
    for st in &mut fleet.streams {
        st.owner
            .grant_access(
                &mut owner_conn,
                &consumer.principal,
                consumer.public_key(),
                0,
                end,
            )
            .map_err(|e| format!("grant: {e}"))?;
    }
    Ok(())
}

/// A consumer whose keypair derives from `seed`: consumers built
/// from one seed are the same principal.
fn consumer(principal: &str, seed: u64) -> Consumer {
    Consumer::new(principal, &mut SecureRandom::from_seed_insecure(seed))
}

fn sync_all(consumer: &mut Consumer, conn: &mut Conn, fleet: &Fleet) -> Result<(), String> {
    for st in &fleet.streams {
        consumer
            .sync_grants(conn, st.cfg.id)
            .map_err(|e| format!("sync grants: {e}"))?;
    }
    Ok(())
}

/// A consumer thread's state: its consumer, connection and query sequence.
struct Reader {
    consumer: Consumer,
    conn: Conn,
    queries: Arc<Vec<Query>>,
    next: usize,
}

impl Reader {
    /// Issues the next query and checks the decrypted result.
    fn query(&mut self, rec: &Recorder, p: &mut Phase) {
        let q = &self.queries[self.next % self.queries.len()];
        self.next += 1;
        let t0 = Instant::now();
        let out = rec.client_op(Layer::ClientQuery, || {
            self.consumer
                .stat_query_multi(&mut self.conn, &q.streams, q.ts_s, q.ts_e)
        });
        let lat_ns = t0.elapsed().as_nanos() as u64;
        p.attempted += 1;
        p.queries += 1;
        match out {
            Ok(s) if q.expect.matches(&s) => p.samples.push(Sample {
                end_ns: rec.now(),
                lat_ns,
                weight: 1,
            }),
            _ => p.failed += 1,
        }
    }

    fn run_until(&mut self, rec: &Recorder, deadline: Instant) -> Phase {
        let mut p = Phase::default();
        while Instant::now() < deadline {
            self.query(rec, &mut p);
        }
        p
    }

    fn warm_up(&mut self, rec: &Recorder, n: usize) -> Result<(), String> {
        let mut p = Phase::default();
        for _ in 0..n {
            self.query(rec, &mut p);
        }
        match p.failed {
            0 => Ok(()),
            f => Err(format!("{f} warm-up queries failed or were wrong")),
        }
    }
}

/// `dashboard`: 2 consumer threads querying the seeded fleet.
pub struct Dashboard {
    fleet: Fleet,
    queries: [Arc<Vec<Query>>; 2],
    principal_seed: u64,
    state: Option<(Rig, Vec<Reader>)>,
}

impl Dashboard {
    /// Generates the inputs for `seed`.
    pub fn new(seed: u64) -> Dashboard {
        let fleet = Fleet::generate(seed, crate::gen::FLEET_CHUNKS, 2);
        let queries = [0, 1].map(|t| {
            Arc::new(fleet.queries(crate::gen::sub_seed(seed, 100 + t), QUERIES_PER_CONSUMER))
        });
        Dashboard {
            fleet,
            queries,
            principal_seed: crate::gen::sub_seed(seed, 99),
            state: None,
        }
    }
}

impl Workload for Dashboard {
    fn setup(&mut self, rec: &Arc<Recorder>) -> Result<(), String> {
        let rig = Rig::open(
            Arc::new(MemKv::new()),
            ServerConfig::default().cache_bytes,
            rec,
        );
        let principal = consumer("dashboard", self.principal_seed);
        seed_fleet(&rig, &mut self.fleet, &principal)?;
        let mut readers = Vec::new();
        for queries in &self.queries {
            let mut r = Reader {
                consumer: consumer("dashboard", self.principal_seed),
                conn: rig.connect(),
                queries: queries.clone(),
                next: 0,
            };
            sync_all(&mut r.consumer, &mut r.conn, &self.fleet)?;
            r.warm_up(rec, WARMUP_QUERIES)?;
            readers.push(r);
        }
        self.state = Some((rig, readers));
        Ok(())
    }

    fn phase(&mut self, rec: &Recorder, dur: Duration) -> Phase {
        let (_, readers) = self.state.as_mut().expect("set up");
        let start = Instant::now();
        let start_ns = rec.now();
        let deadline = start + dur;
        let mut total = Phase::default();
        std::thread::scope(|s| {
            let hs: Vec<_> = readers
                .iter_mut()
                .map(|r| s.spawn(move || r.run_until(rec, deadline)))
                .collect();
            for h in hs {
                total.absorb(h.join().expect("consumer thread"));
            }
        });
        total.start_ns = start_ns;
        total.wall_s = start.elapsed().as_secs_f64();
        total
    }

    fn bypass(
        &self,
        before: &ServiceStatsWire,
        after: &ServiceStatsWire,
        _: &Phase,
    ) -> Result<(), String> {
        let gets = after.store_gets - before.store_gets;
        if gets != 0 {
            return Err(format!(
                "dashboard: {gets} store gets in the timed phase, want 0"
            ));
        }
        Ok(())
    }

    fn seeded_records(&self) -> u64 {
        self.fleet.records()
    }

    fn rig(&self) -> &Rig {
        &self.state.as_ref().expect("set up").0
    }
}

/// `archive`: the fleet reopened over a slow store with a tiny index
/// cache; 1 consumer thread queries while 1 writer thread appends.
pub struct Archive {
    fleet: Fleet,
    queries: Arc<Vec<Query>>,
    principal_seed: u64,
    state: Option<(Rig, Reader, Writer)>,
}

/// The `archive` live writer: appends one chunk to every fleet stream per
/// round, one round every [`WRITER_ROUND`].
struct Writer {
    conn: Conn,
    /// Next live chunk index per stream.
    next: Vec<u64>,
}

impl Writer {
    /// Appends the next chunk of every stream; returns failed pushes.
    fn round(&mut self, rec: &Recorder, fleet: &mut Fleet) -> u64 {
        let mut failed = 0;
        for (st, next) in fleet.streams.iter_mut().zip(&mut self.next) {
            let pts: Vec<DataPoint> = st.live_points(*next).collect();
            let (producer, conn) = (&mut st.producer, &mut self.conn);
            rec.client_op(Layer::ClientPush, || {
                for p in pts {
                    if producer.push(conn, p).is_err() {
                        failed += 1;
                    }
                }
            });
            *next += 1;
        }
        failed
    }
}

impl Archive {
    /// Generates the inputs for `seed`.
    pub fn new(seed: u64) -> Archive {
        let fleet = Fleet::generate(seed, crate::gen::FLEET_CHUNKS, 2);
        let queries =
            Arc::new(fleet.queries(crate::gen::sub_seed(seed, 100), QUERIES_PER_CONSUMER));
        Archive {
            fleet,
            queries,
            principal_seed: crate::gen::sub_seed(seed, 99),
            state: None,
        }
    }
}

impl Workload for Archive {
    fn setup(&mut self, rec: &Arc<Recorder>) -> Result<(), String> {
        let mem = Arc::new(MemKv::new());
        let principal = consumer("archive", self.principal_seed);
        {
            let seeding = Rig::open(mem.clone(), ServerConfig::default().cache_bytes, rec);
            seed_fleet(&seeding, &mut self.fleet, &principal)?;
        }
        let slow: Arc<dyn KvStore> = Arc::new(LatencyKv::new(mem, ARCHIVE_STORE_LATENCY));
        let rig = Rig::open(slow, ARCHIVE_CACHE_BYTES, rec);
        let mut r = Reader {
            consumer: principal,
            conn: rig.connect(),
            queries: self.queries.clone(),
            next: 0,
        };
        sync_all(&mut r.consumer, &mut r.conn, &self.fleet)?;
        // Hydrate every stream, then run the query mix.
        for st in &self.fleet.streams {
            r.consumer
                .stat_query(&mut r.conn, st.cfg.id, 0, self.fleet.end_ms())
                .map_err(|e| format!("warm-up query: {e}"))?;
        }
        r.warm_up(rec, WARMUP_QUERIES / 4)?;
        // Every stream ships its first live batch before timing. Stream i
        // then holds i mod 4 sealed chunks, so batches fill in different
        // rounds and each round ships a quarter of the streams.
        let mut w = Writer {
            conn: rig.connect(),
            next: vec![self.fleet.chunks; self.fleet.streams.len()],
        };
        let batch = PRODUCER_BATCH as u64;
        for round in 0..2 * batch {
            let mut failed = 0;
            for (i, (st, next)) in self.fleet.streams.iter_mut().zip(&mut w.next).enumerate() {
                // The first point of chunk k seals chunk k - 1.
                if round < batch + 1 + i as u64 % batch {
                    for p in st.live_points(*next).collect::<Vec<_>>() {
                        failed += u64::from(st.producer.push(&mut w.conn, p).is_err());
                    }
                    *next += 1;
                }
            }
            if failed + w.conn.batch_failures > 0 {
                return Err("archive: warm-up append failed".into());
            }
        }
        self.state = Some((rig, r, w));
        Ok(())
    }

    fn phase(&mut self, rec: &Recorder, dur: Duration) -> Phase {
        let (_, reader, writer) = self.state.as_mut().expect("set up");
        let fleet = &mut self.fleet;
        let start = Instant::now();
        let start_ns = rec.now();
        let deadline = start + dur;
        let mut total = Phase::default();
        std::thread::scope(|s| {
            let q = s.spawn(|| reader.run_until(rec, deadline));
            let w = s.spawn(|| {
                let sent = |f: &Fleet| {
                    f.streams
                        .iter()
                        .map(|st| st.producer.chunks_sent())
                        .sum::<u64>()
                };
                let (sent_before, batches_before) = (sent(fleet), writer.conn.batches.len());
                let failures_before = writer.conn.batch_failures;
                let mut failed = 0;
                let mut due = start;
                while due < deadline {
                    std::thread::sleep(due.saturating_duration_since(Instant::now()));
                    failed += writer.round(rec, fleet);
                    due += WRITER_ROUND;
                }
                let late =
                    Instant::now().saturating_duration_since(deadline.max(due - WRITER_ROUND));
                (
                    sent(fleet) - sent_before,
                    failed + writer.conn.batch_failures - failures_before,
                    (writer.conn.batches.len() - batches_before) as u64,
                    late,
                )
            });
            total.absorb(q.join().expect("consumer thread"));
            let (chunks, failed, batches, late) = w.join().expect("writer thread");
            total.chunks = chunks;
            total.records = chunks * 6;
            total.failed += failed;
            total.attempted += batches;
            total.writer_late = late;
        });
        total.start_ns = start_ns;
        total.wall_s = start.elapsed().as_secs_f64();
        total
    }

    fn bypass(
        &self,
        before: &ServiceStatsWire,
        after: &ServiceStatsWire,
        p: &Phase,
    ) -> Result<(), String> {
        let gets = after.store_gets - before.store_gets;
        if p.queries == 0 || gets <= p.queries {
            return Err(format!(
                "archive: {gets} store gets for {} queries, want more than 1 per query",
                p.queries
            ));
        }
        Ok(())
    }

    fn rig(&self) -> &Rig {
        &self.state.as_ref().expect("set up").0
    }
}

/// `ingest`: 2 wearables upload concurrently, one producer thread each.
pub struct Ingest {
    wearables: Vec<Wearable>,
    verifier_seed: u64,
    state: Option<IngestState>,
}

struct IngestState {
    rig: Rig,
    /// Per wearable: its producers, connection and next chunk index.
    uploaders: Vec<(Vec<BatchingProducer>, Conn, u64)>,
    verifier: (Consumer, Conn),
}

impl Ingest {
    /// Generates the inputs for `seed`.
    pub fn new(seed: u64) -> Ingest {
        Ingest {
            wearables: (0..WEARABLES)
                .map(|d| Wearable::generate(seed, d))
                .collect(),
            verifier_seed: crate::gen::sub_seed(seed, 98),
            state: None,
        }
    }
}

/// Pushes chunk `c` of every stream of one wearable.
fn upload_round(
    rec: &Recorder,
    w: &Wearable,
    producers: &mut [BatchingProducer],
    conn: &mut Conn,
    c: u64,
) -> u64 {
    let mut failed = 0;
    for (m, producer) in producers.iter_mut().enumerate() {
        let values = w.values(m, c);
        let delta = w.cfgs[m].delta_ms as i64;
        let step = delta / values.len() as i64;
        rec.client_op(Layer::ClientPush, || {
            for (i, &v) in values.iter().enumerate() {
                let p = DataPoint::new(c as i64 * delta + i as i64 * step, v);
                if producer.push(conn, p).is_err() {
                    failed += 1;
                }
            }
        });
    }
    failed
}

impl Workload for Ingest {
    fn setup(&mut self, rec: &Arc<Recorder>) -> Result<(), String> {
        let rig = Rig::open(
            Arc::new(MemKv::new()),
            ServerConfig::default().cache_bytes,
            rec,
        );
        let mut owner_conn = rig.connect();
        let mut verifier = (consumer("verifier", self.verifier_seed), rig.connect());
        for w in &mut self.wearables {
            for o in &mut w.owners {
                o.create_stream(&mut owner_conn)
                    .map_err(|e| format!("create stream: {e}"))?;
                let end = INGEST_GRANT_CHUNKS * o.config().delta_ms as i64;
                o.grant_access(
                    &mut owner_conn,
                    &verifier.0.principal,
                    verifier.0.public_key(),
                    0,
                    end,
                )
                .map_err(|e| format!("grant: {e}"))?;
                verifier
                    .0
                    .sync_grants(&mut verifier.1, o.config().id)
                    .map_err(|e| format!("sync grants: {e}"))?;
            }
        }
        let mut uploaders = Vec::new();
        for w in &self.wearables {
            let mut producers: Vec<_> = (0..w.cfgs.len()).map(|m| w.producer(m)).collect();
            let mut conn = rig.connect();
            let mut failed = 0;
            for c in 0..INGEST_WARMUP_CHUNKS {
                failed += upload_round(rec, w, &mut producers, &mut conn, c);
            }
            if failed + conn.batch_failures > 0 {
                return Err("warm-up upload failed".into());
            }
            uploaders.push((producers, conn, INGEST_WARMUP_CHUNKS));
        }
        self.state = Some(IngestState {
            rig,
            uploaders,
            verifier,
        });
        Ok(())
    }

    fn phase(&mut self, rec: &Recorder, dur: Duration) -> Phase {
        let st = self.state.as_mut().expect("set up");
        let start = Instant::now();
        let start_ns = rec.now();
        let deadline = start + dur;
        let mut total = Phase::default();
        std::thread::scope(|s| {
            let hs: Vec<_> = st
                .uploaders
                .iter_mut()
                .zip(&self.wearables)
                .map(|((producers, conn, next), w)| {
                    s.spawn(move || {
                        let sent_before: u64 = producers.iter().map(|p| p.chunks_sent()).sum();
                        let (batches_before, failures_before) =
                            (conn.batches.len(), conn.batch_failures);
                        let mut failed = 0;
                        while Instant::now() < deadline {
                            failed += upload_round(rec, w, producers, conn, *next);
                            *next += 1;
                        }
                        for p in producers.iter_mut() {
                            if p.flush(conn).is_err() {
                                failed += 1;
                            }
                        }
                        let chunks =
                            producers.iter().map(|p| p.chunks_sent()).sum::<u64>() - sent_before;
                        // Throughput counts data points: weigh each batch by
                        // the points of its chunks.
                        let points = w.values(0, 0).len() as u64;
                        let samples: Vec<Sample> = conn.batches[batches_before..]
                            .iter()
                            .map(|b| Sample {
                                weight: b.weight * points,
                                ..*b
                            })
                            .collect();
                        Phase {
                            attempted: samples.len() as u64,
                            failed: failed + conn.batch_failures - failures_before,
                            records: chunks * points,
                            chunks,
                            samples,
                            ..Phase::default()
                        }
                    })
                })
                .collect();
            for h in hs {
                total.absorb(h.join().expect("producer thread"));
            }
        });
        total.start_ns = start_ns;
        total.wall_s = start.elapsed().as_secs_f64();
        total
    }

    fn bypass(
        &self,
        before: &ServiceStatsWire,
        after: &ServiceStatsWire,
        _: &Phase,
    ) -> Result<(), String> {
        let queries = sum_shards(after, |s| s.queries) - sum_shards(before, |s| s.queries);
        if queries != 0 {
            return Err(format!(
                "ingest: {queries} stat sub-queries in the timed phase, want 0"
            ));
        }
        Ok(())
    }

    /// Acknowledged ⊆ readable: each stream's full-range count and sum
    /// equal what its producer had acknowledged.
    fn finish(&mut self) -> Result<(), String> {
        let st = self.state.as_mut().expect("set up");
        let (consumer, conn) = &mut st.verifier;
        for ((producers, _, next), w) in st.uploaders.iter().zip(&self.wearables) {
            for (m, p) in producers.iter().enumerate() {
                let delta = w.cfgs[m].delta_ms as i64;
                let s = consumer
                    .stat_query(conn, w.cfgs[m].id, 0, *next as i64 * delta)
                    .map_err(|e| format!("read-back query: {e}"))?;
                let acked = p.chunks_sent();
                let want_count = acked * w.values(m, 0).len() as u64;
                if s.count != Some(want_count) || s.sum != Some(w.sum_of_chunks(m, acked)) {
                    return Err(format!(
                        "ingest: stream {m} of a wearable reads count {:?} sum {:?}, acknowledged {want_count} records",
                        s.count, s.sum
                    ));
                }
            }
        }
        Ok(())
    }

    fn rig(&self) -> &Rig {
        &self.state.as_ref().expect("set up").rig
    }
}
