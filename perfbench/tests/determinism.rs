//! The workload generators are a function of the seed: the same seed gives
//! byte-identical sealed chunks and the same query sequence, and different
//! seeds differ.

use timecrypt::chunk::DataPoint;
use timecrypt::client::{ClientFault, Transport};
use timecrypt::wire::messages::{Request, Response};
use timecrypt_perfbench::gen::{Fleet, Wearable};

/// Seeded chunks per stream: enough for several batches, small enough to
/// keep the test fast.
const CHUNKS: u64 = 24;

fn sealed(f: &Fleet) -> Vec<&Vec<u8>> {
    f.streams.iter().flat_map(|s| &s.sealed).collect()
}

#[test]
fn fleet_is_a_function_of_the_seed() {
    let a = Fleet::generate(7, CHUNKS, 2);
    let b = Fleet::generate(7, CHUNKS, 1);
    assert_eq!(sealed(&a).len(), 200 * CHUNKS as usize);
    assert_eq!(sealed(&a), sealed(&b), "sealed chunks differ for one seed");
    assert_eq!(a.queries(3, 500), b.queries(3, 500));
    for (x, y) in a.streams.iter().zip(&b.streams) {
        assert_eq!(x.prefix, y.prefix);
    }

    let c = Fleet::generate(8, CHUNKS, 2);
    assert_ne!(sealed(&a), sealed(&c), "sealed chunks equal across seeds");
    assert_ne!(a.queries(3, 500), a.queries(4, 500));
}

#[test]
fn queries_are_misaligned_and_inside_the_history() {
    let f = Fleet::generate(1, CHUNKS, 2);
    let delta = f.streams[0].cfg.delta_ms as i64;
    for q in f.queries(5, 1_000) {
        assert_ne!(q.ts_s % delta, 0, "window start is chunk-aligned");
        assert!(q.ts_s >= 0 && q.ts_e <= f.end_ms());
        assert_eq!(q.streams.len(), 10);
        let mut ids = q.streams.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 10, "a query names a stream twice");
    }
}

/// Keeps the chunks of every `InsertBatch`.
#[derive(Default)]
struct Capture(Vec<Vec<u8>>);

impl Transport for Capture {
    fn call(&mut self, req: &Request) -> Result<Response, ClientFault> {
        let Request::InsertBatch { chunks } = req else {
            return Err(ClientFault::Protocol("InsertBatch"));
        };
        self.0.extend(chunks.iter().cloned());
        Ok(Response::Batch { errors: Vec::new() })
    }
}

/// Seals the first `chunks` chunks of stream `m` the way the ingest
/// producers do.
fn upload(w: &Wearable, m: usize, chunks: u64) -> Vec<Vec<u8>> {
    let mut p = w.producer(m);
    let mut t = Capture::default();
    let delta = w.cfgs[m].delta_ms as i64;
    for c in 0..chunks {
        let values = w.values(m, c);
        let step = delta / values.len() as i64;
        for (i, &v) in values.iter().enumerate() {
            p.push(
                &mut t,
                DataPoint::new(c as i64 * delta + i as i64 * step, v),
            )
            .unwrap();
        }
    }
    p.flush(&mut t).unwrap();
    t.0
}

#[test]
fn wearables_are_a_function_of_the_seed() {
    let a = Wearable::generate(7, 0);
    let b = Wearable::generate(7, 0);
    let c = Wearable::generate(8, 0);
    assert_eq!(a.cfgs.len(), 12);
    for m in [0, 11] {
        let sealed = upload(&a, m, 9);
        assert_eq!(sealed.len(), 9);
        assert_eq!(
            sealed,
            upload(&b, m, 9),
            "sealed chunks differ for one seed"
        );
        assert_ne!(sealed, upload(&c, m, 9), "sealed chunks equal across seeds");
    }
    assert_ne!(a.values(0, 0), Wearable::generate(7, 1).values(0, 0));
}
