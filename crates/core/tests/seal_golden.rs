//! Golden commit seals: the checksum each record's seal stores is pinned
//! to a constant, so any change to how writers compute the record digest
//! (which bytes are hashed, in which order, with or without the file
//! prefix) shows up here even when writer and reader drift together.
//!
//! The file covers every way a seal's digest is assembled: the first
//! record, whose root block carries the file header in front of the
//! record; a second record in the same stream, written split-collective;
//! a record appended by a freshly opened stream; and a rank that holds
//! no elements and contributes an empty block.

use dstreams_collections::{Collection, DistKind, Layout};
use dstreams_core::{
    inspect_bytes, MetaMode, MetaPolicy, OStream, RecordHeader, RecordSeal, StreamOptions,
};
use dstreams_machine::{Machine, MachineConfig};
use dstreams_pfs::{OpenMode, Pfs};

const NPROCS: usize = 3;
/// Four BLOCK elements on three ranks: two, two and none.
const ELEMENTS: usize = 4;

/// splitmix64: the seeded byte generator for element contents.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Element `g` of record `rec`: 1..=700 seeded bytes, so block lengths
/// fall on and off the hash kernel's 16-byte boundaries.
fn element(g: usize, rec: u64) -> Vec<u8> {
    let seed = mix(rec << 32 | g as u64);
    let len = 1 + (seed % 700) as usize;
    (0..len as u64).map(|i| mix(seed ^ i) as u8).collect()
}

fn write_file(pfs: &Pfs, name: &'static str, mode: MetaMode) -> Vec<u8> {
    let p = pfs.clone();
    Machine::run(MachineConfig::functional(NPROCS), move |ctx| {
        let layout = Layout::dense(ELEMENTS, NPROCS, DistKind::Block).unwrap();
        assert_eq!(layout.local_count(NPROCS - 1), 0, "last rank holds nothing");
        let opts = StreamOptions {
            meta_policy: MetaPolicy::Force(mode),
            ..Default::default()
        };
        let record = |rec| Collection::new(ctx, layout.clone(), |g| element(g, rec)).unwrap();

        let mut s = OStream::create_with(ctx, &p, &layout, name, opts.clone()).unwrap();
        s.insert_collection(&record(0)).unwrap();
        s.write().unwrap();
        s.insert_collection(&record(1)).unwrap();
        let pending = s.write_begin().unwrap();
        s.write_end(pending).unwrap();
        s.close().unwrap();

        let mut s = OStream::create_with(ctx, &p, &layout, name, opts).unwrap();
        s.insert_collection(&record(2)).unwrap();
        s.write().unwrap();
        s.close().unwrap();

        let fh = p.open(false, name, OpenMode::Read).unwrap();
        let mut bytes = vec![0u8; fh.len() as usize];
        fh.read_at(ctx, 0, &mut bytes).unwrap();
        bytes
    })
    .unwrap()
    .remove(0)
}

/// Every record's seal checksum, in file order, after checking that the
/// whole file inspects as sealed records of `mode`.
fn seal_checksums(bytes: &[u8], mode: MetaMode) -> Vec<u64> {
    let summary = inspect_bytes(bytes).expect("file inspects cleanly");
    assert_eq!(summary.records.len(), 3);
    summary
        .records
        .iter()
        .map(|r| {
            assert!(r.sealed, "record {} is sealed", r.index);
            assert_eq!(r.meta_mode, mode);
            let end =
                r.offset as usize + RecordHeader::LEN + r.n_elements * 8 + r.data_len as usize;
            RecordSeal::decode(&bytes[end..end + RecordSeal::LEN])
                .expect("seal decodes")
                .checksum
        })
        .collect()
}

#[test]
fn seal_checksums_match_golden_values() {
    let pfs = Pfs::in_memory(4);
    for (name, mode, golden) in [
        (
            "gathered",
            MetaMode::Gathered,
            [
                0xd09c_cb11_9421_54a8,
                0xc7d4_12d8_f08a_68ab,
                0x9dac_5db2_e003_4e46,
            ],
        ),
        (
            "parallel",
            MetaMode::Parallel,
            [
                0xc8be_e652_81c8_b437,
                0xbff6_2e19_de31_c83a,
                0x95ce_78f3_cdaa_add5,
            ],
        ),
    ] {
        let bytes = write_file(&pfs, name, mode);
        assert_eq!(seal_checksums(&bytes, mode), golden, "{name} seals");
    }
}
