//! Deterministic inputs. Everything a run feeds the system is made here
//! from the workload seed, before any timing starts: sealed seed chunks,
//! producer point pools, query sequences and the plaintext reference each
//! decrypted reply is checked against.

use timecrypt::chunk::{DataPoint, StatSummary, StreamConfig};
use timecrypt::client::{BatchingProducer, ClientFault, DataOwner, Transport};
use timecrypt::crypto::SecureRandom;
use timecrypt::wire::messages::{Request, Response};
use timecrypt_bench::{DevOpsWorkload, MHealthWorkload};

/// Key-derivation tree height of every stream (the client default).
pub const TREE_HEIGHT: u8 = 30;
/// Chunks per `InsertBatch` a live producer ships.
pub const PRODUCER_BATCH: usize = 4;

/// DevOps fleet shape: 20 hosts × 10 metrics, 60 s chunks over 2 days.
pub const FLEET_HOSTS: u32 = 20;
/// Metrics per host.
pub const FLEET_METRICS: u32 = 10;
/// Seeded history per stream: 2 days of 60 s chunks.
pub const FLEET_CHUNKS: u64 = 2 * 24 * 60;
/// Hosts per dashboard query (one metric each).
pub const QUERY_HOSTS: usize = 10;
/// Dashboard query windows: 1 h, 6 h, 24 h.
pub const QUERY_WINDOWS_MS: [i64; 3] = [3_600_000, 6 * 3_600_000, 24 * 3_600_000];
/// Chunks of live points pre-generated per fleet stream; the live writer
/// cycles through them.
const LIVE_POOL_CHUNKS: u64 = 64;

/// Wearables in the mhealth upload, one per producer thread.
pub const WEARABLES: u64 = 2;
/// Chunks of points pre-generated per mhealth stream; producers cycle
/// through them with advancing timestamps.
const MHEALTH_POOL_CHUNKS: u64 = 16;

/// SplitMix64 finaliser: derives independent sub-seeds from one seed.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Sub-seed `tag` of `seed`.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    mix(seed ^ mix(tag))
}

/// A stream's owner with key material derived from the seed.
fn owner(cfg: StreamConfig, seed: u64) -> DataOwner {
    let mut rng = SecureRandom::from_seed_insecure(seed);
    let root = rng.seed128();
    DataOwner::with_height(cfg, root, TREE_HEIGHT, rng)
}

/// Plaintext aggregate of a DevOps chunk range (sum, count, and the two
/// bins of the schema's 50 % histogram): what a decrypted reply must equal.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Agg {
    /// Sum of values.
    pub sum: i64,
    /// Number of points.
    pub count: u64,
    /// Points below 50 and at or above 50.
    pub hist: [u64; 2],
}

impl Agg {
    fn of(points: &[DataPoint]) -> Agg {
        let mut a = Agg::default();
        for p in points {
            a.sum += p.value;
            a.count += 1;
            a.hist[usize::from(p.value >= 50)] += 1;
        }
        a
    }

    fn plus(self, o: Agg) -> Agg {
        Agg {
            sum: self.sum + o.sum,
            count: self.count + o.count,
            hist: [self.hist[0] + o.hist[0], self.hist[1] + o.hist[1]],
        }
    }

    fn minus(self, o: Agg) -> Agg {
        Agg {
            sum: self.sum - o.sum,
            count: self.count - o.count,
            hist: [self.hist[0] - o.hist[0], self.hist[1] - o.hist[1]],
        }
    }

    /// True iff a decrypted summary equals this reference exactly.
    pub fn matches(&self, s: &StatSummary) -> bool {
        s.sum == Some(self.sum)
            && s.count == Some(self.count)
            && s.histogram.as_ref().is_some_and(|h| h.counts == self.hist)
    }
}

/// A transport that acknowledges every `InsertBatch` and keeps the sealed
/// chunks: how seed data is sealed once and replayed into every set-up.
#[derive(Default)]
struct Capture(Vec<Vec<u8>>);

impl Transport for Capture {
    fn call(&mut self, req: &Request) -> Result<Response, ClientFault> {
        match req {
            Request::InsertBatch { chunks } => {
                self.0.extend(chunks.iter().cloned());
                Ok(Response::Batch { errors: Vec::new() })
            }
            _ => Err(ClientFault::Protocol("InsertBatch")),
        }
    }
}

/// One DevOps stream.
pub struct FleetStream {
    /// Stream configuration.
    pub cfg: StreamConfig,
    /// The stream's data owner (creates the stream, issues grants).
    pub owner: DataOwner,
    /// The host agent's producer, positioned after the seeded history:
    /// the `archive` writer keeps appending with it.
    pub producer: BatchingProducer,
    /// Sealed seed chunks, in index order.
    pub sealed: Vec<Vec<u8>>,
    /// `prefix[i]` aggregates chunks `[0, i)`.
    pub prefix: Vec<Agg>,
    /// Point values of the live chunks the writer appends (cycled).
    pub live: Vec<Vec<i64>>,
}

impl FleetStream {
    fn generate(seed: u64, host: u32, metric: u32, chunks: u64) -> FleetStream {
        let tag = u64::from(host) << 32 | u64::from(metric);
        let mut points = DevOpsWorkload::paper(sub_seed(seed, tag));
        points.hosts = FLEET_HOSTS;
        points.metrics = FLEET_METRICS;
        let cfg = points.stream_config(host, metric);
        let owner = owner(cfg.clone(), sub_seed(seed, tag ^ 1 << 60));
        let mut producer = BatchingProducer::new(
            cfg.clone(),
            owner.provision_producer(),
            SecureRandom::from_seed_insecure(sub_seed(seed, tag ^ 2 << 60)),
            PRODUCER_BATCH,
        );
        let mut capture = Capture::default();
        let mut prefix = Vec::with_capacity(chunks as usize + 1);
        prefix.push(Agg::default());
        for c in 0..chunks {
            let pts = points.chunk_points(c);
            prefix.push(prefix[c as usize].plus(Agg::of(&pts)));
            for p in pts {
                producer
                    .push(&mut capture, p)
                    .expect("capture accepts every batch");
            }
        }
        producer
            .flush(&mut capture)
            .expect("capture accepts every batch");
        let live = (chunks..chunks + LIVE_POOL_CHUNKS)
            .map(|c| points.chunk_points(c).iter().map(|p| p.value).collect())
            .collect();
        FleetStream {
            cfg,
            owner,
            producer,
            sealed: capture.0,
            prefix,
            live,
        }
    }

    /// Points of live chunk `c` (at or after the seeded history).
    pub fn live_points(&self, c: u64) -> impl Iterator<Item = DataPoint> + '_ {
        let delta = self.cfg.delta_ms as i64;
        let values = &self.live[(c % LIVE_POOL_CHUNKS) as usize];
        let step = delta / values.len() as i64;
        values
            .iter()
            .enumerate()
            .map(move |(i, &v)| DataPoint::new(c as i64 * delta + i as i64 * step, v))
    }
}

/// The DevOps fleet of `dashboard` and `archive`.
pub struct Fleet {
    /// Streams, host-major (`host * FLEET_METRICS + metric`).
    pub streams: Vec<FleetStream>,
    /// Seeded chunks per stream.
    pub chunks: u64,
}

impl Fleet {
    /// Generates the fleet with `chunks` seeded chunks per stream, on
    /// `threads` threads (the result does not depend on `threads`).
    pub fn generate(seed: u64, chunks: u64, threads: usize) -> Fleet {
        let ids: Vec<(u32, u32)> = (0..FLEET_HOSTS)
            .flat_map(|h| (0..FLEET_METRICS).map(move |m| (h, m)))
            .collect();
        let per = ids.len().div_ceil(threads.max(1));
        let streams = std::thread::scope(|s| {
            let parts: Vec<_> = ids
                .chunks(per)
                .map(|part| {
                    s.spawn(move || {
                        part.iter()
                            .map(|&(h, m)| FleetStream::generate(seed, h, m, chunks))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            parts
                .into_iter()
                .flat_map(|p| p.join().expect("fleet generator thread"))
                .collect()
        });
        Fleet { streams, chunks }
    }

    /// Data points in the seeded history.
    pub fn records(&self) -> u64 {
        self.streams
            .iter()
            .map(|s| s.prefix[self.chunks as usize].count)
            .sum()
    }

    /// The seeded time range `[0, end)` in ms.
    pub fn end_ms(&self) -> i64 {
        self.chunks as i64 * self.streams[0].cfg.delta_ms as i64
    }

    /// `n` dashboard queries: one metric on 10 random hosts over a 1 h,
    /// 6 h or 24 h window at a random offset that is not chunk-aligned.
    pub fn queries(&self, seed: u64, n: usize) -> Vec<Query> {
        let mut rng = Rng(seed);
        let delta = self.streams[0].cfg.delta_ms as i64;
        (0..n)
            .map(|_| {
                // Capped for histories shorter than 2 days (tests).
                let window = QUERY_WINDOWS_MS[rng.below(3) as usize].min(self.end_ms() / 2);
                let mut ts_s = rng.below((self.end_ms() - window) as u64) as i64;
                if ts_s % delta == 0 {
                    ts_s += 1 + rng.below(delta as u64 - 1) as i64;
                }
                let ts_e = ts_s + window;
                let metric = rng.below(u64::from(FLEET_METRICS)) as u32;
                let mut hosts: Vec<u32> = (0..FLEET_HOSTS).collect();
                for i in 0..QUERY_HOSTS {
                    let j = i + rng.below((hosts.len() - i) as u64) as usize;
                    hosts.swap(i, j);
                }
                // The server aggregates the chunks fully inside the window.
                let lo = (ts_s as u64).div_ceil(delta as u64) as usize;
                let hi = (ts_e / delta) as usize;
                let mut expect = Agg::default();
                let streams = hosts[..QUERY_HOSTS]
                    .iter()
                    .map(|&h| {
                        let st = &self.streams[(h * FLEET_METRICS + metric) as usize];
                        expect = expect.plus(st.prefix[hi].minus(st.prefix[lo]));
                        st.cfg.id
                    })
                    .collect();
                Query {
                    streams,
                    ts_s,
                    ts_e,
                    expect,
                }
            })
            .collect()
    }
}

/// One multi-stream statistical query with its expected plaintext result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Query {
    /// Streams aggregated together.
    pub streams: Vec<u128>,
    /// Window start (ms).
    pub ts_s: i64,
    /// Window end (ms, exclusive).
    pub ts_e: i64,
    /// The reference result.
    pub expect: Agg,
}

/// One mhealth stream of the `ingest` upload.
pub struct Wearable {
    /// Stream configurations, one per metric.
    pub cfgs: Vec<StreamConfig>,
    /// The streams' owners.
    pub owners: Vec<DataOwner>,
    /// Per stream: point values of the pooled chunks (cycled).
    pub pool: Vec<Vec<Vec<i64>>>,
    /// Per stream: the producer's sealing randomness seed.
    pub rng_seeds: Vec<u64>,
}

impl Wearable {
    /// Generates wearable `device`: 12 metric streams at 50 Hz, Δ = 10 s.
    pub fn generate(seed: u64, device: u64) -> Wearable {
        let proto = MHealthWorkload::paper(0);
        let mut cfgs = Vec::new();
        let mut owners = Vec::new();
        let mut pool = Vec::new();
        let mut rng_seeds = Vec::new();
        for m in 0..proto.metrics {
            let tag = 1 << 62 | device << 32 | u64::from(m);
            let mut points = MHealthWorkload::paper(sub_seed(seed, tag));
            let cfg = points.stream_config(device, m);
            owners.push(owner(cfg.clone(), sub_seed(seed, tag ^ 1 << 60)));
            rng_seeds.push(sub_seed(seed, tag ^ 2 << 60));
            pool.push(
                (0..MHEALTH_POOL_CHUNKS)
                    .map(|c| points.chunk_points(c).iter().map(|p| p.value).collect())
                    .collect(),
            );
            cfgs.push(cfg);
        }
        Wearable {
            cfgs,
            owners,
            pool,
            rng_seeds,
        }
    }

    /// A producer for stream `m`, seeded for reproducible sealing.
    pub fn producer(&self, m: usize) -> BatchingProducer {
        BatchingProducer::new(
            self.cfgs[m].clone(),
            self.owners[m].provision_producer(),
            SecureRandom::from_seed_insecure(self.rng_seeds[m]),
            PRODUCER_BATCH,
        )
    }

    /// Point values of chunk `c` of stream `m`.
    pub fn values(&self, m: usize, c: u64) -> &[i64] {
        &self.pool[m][(c % MHEALTH_POOL_CHUNKS) as usize]
    }

    /// Sum of the values of chunks `[0, n)` of stream `m`.
    pub fn sum_of_chunks(&self, m: usize, n: u64) -> i64 {
        let chunk_sums: Vec<i64> = self.pool[m].iter().map(|v| v.iter().sum()).collect();
        (0..n)
            .map(|c| chunk_sums[(c % MHEALTH_POOL_CHUNKS) as usize])
            .sum()
    }
}

/// Seeded 64-bit generator (SplitMix64 stream) for query sequences.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[0, n)` (`n` ≥ 1).
    fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(n)) >> 64) as u64
    }
}
