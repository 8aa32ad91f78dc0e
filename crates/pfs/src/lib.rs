//! # dstreams-pfs — a simulated parallel file system
//!
//! The storage substrate for the pC++/streams reproduction. It models the
//! parallel file systems of the paper's platforms (Intel Paragon PFS,
//! TMC CM-5 sfs, SGI Challenge XFS) on top of `dstreams-machine`:
//!
//! * a shared **namespace of files** per machine run ([`Pfs`]);
//! * POSIX-like **independent** reads and writes per rank — the
//!   "unbuffered I/O" baseline of the paper's benchmark;
//! * **collective node-order** operations ([`FileHandle::write_ordered`],
//!   [`FileHandle::read_ordered`]) — the Paragon-style primitives that
//!   "transfer a contiguous block of data from each compute node to the
//!   file system simultaneously and write those blocks to the file in node
//!   order" (paper §4.1);
//! * a calibrated **disk cost model** ([`DiskModel`]) with the buffer-cache
//!   knees responsible for the paper's headline anomalies;
//! * two backends: in-memory (virtual-time benchmarks) and real-disk
//!   (host-timed benchmarks).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod checksum;
pub mod error;
pub mod file;
pub mod model;
pub mod nonblocking;
pub mod pfs;
pub mod retry;
pub mod storage;

pub use checksum::ChunkSum;
pub use error::PfsError;
pub use file::{FileHandle, FileObj, StatsSnapshot};
pub use model::{DiskModel, Regime};
pub use nonblocking::IoHandle;
pub use pfs::{OpenMode, Pfs};
pub use retry::RetryPolicy;
pub use storage::Backend;
