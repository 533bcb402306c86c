//! End-to-end benchmark of the TimeCrypt service as its clients see it:
//! producers sealing and uploading, consumers querying and decrypting,
//! over loopback TCP into a 2-shard `ShardedService`. See `README.md`.

pub mod gen;
pub mod layers;
pub mod workloads;
