//! Known-answer pins of the trace streams.
//!
//! Every figure is a function of these streams, so a change to the
//! generator or to the samplers under it (`Pcg32`, `Geometric`, `Zipf`)
//! that alters a single value shifts every result. The hashes were taken
//! from the generator before its samplers were optimized; a "faster"
//! sampler that fails here changes the science and needs a deliberate,
//! documented baseline refresh instead.

use tdc_trace::{profiles, ParsecTraces, SyntheticWorkload, TraceSource};

/// References hashed per stream.
const REFS: usize = 100_000;

/// FNV-1a over every field of the first `n` references.
fn stream_hash(src: &mut impl TraceSource, n: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..n {
        let r = src.next_ref();
        for word in [r.vaddr.0, r.is_write as u64, r.gap_instrs as u64] {
            h = (h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn spec_streams_match_their_known_hashes() {
    for (bench, want) in [
        ("mcf", 0x91b4_edaf_d792_3ea8),
        ("sphinx3", 0x72ee_60bd_cd2a_be5e),
    ] {
        let profile = profiles::spec(bench).expect("known benchmark").clone();
        let mut w = SyntheticWorkload::new(profile, 2015, 0);
        assert_eq!(stream_hash(&mut w, REFS), want, "{bench} stream changed");
    }
}

#[test]
fn parsec_thread_streams_match_their_known_hashes() {
    let p = ParsecTraces::new("swaptions", 2015).expect("known benchmark");
    let want = [
        0x86a6_df2d_2bdc_f0da,
        0x8c0d_8932_3d70_5a54,
        0xc865_e74d_18b4_5bf7,
        0x42d8_31de_8280_edc8,
    ];
    for (t, want) in (0..p.threads()).zip(want) {
        assert_eq!(
            stream_hash(&mut p.thread(t), REFS),
            want,
            "swaptions-t{t} stream changed"
        );
    }
}
