//! Pins the initial simulated memory every workload generator writes:
//! the FNV-1a digest of the serialized [`BackingStore`] image plus its
//! materialized page count. A generator change that moves, adds or drops
//! a single simulated byte — or materializes a page the pinned build left
//! untouched — fails here, so input-generation speedups stay
//! output-identical.

use pei_mem::BackingStore;
use pei_workloads::{InputSize, Workload, WorkloadParams};

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `(digest of save() bytes, resident pages)` of `w`'s initial store.
fn image(w: Workload, size: InputSize, params: &WorkloadParams) -> (u64, usize) {
    let (store, _trace): (BackingStore, _) = w.build(size, params);
    let mut bytes = Vec::new();
    store.save(&mut bytes).expect("saving to a Vec cannot fail");
    (fnv1a(&bytes), store.resident_pages())
}

fn check(pins: &[(Workload, u64, usize)], size: InputSize, params: &WorkloadParams) {
    let mut bad = Vec::new();
    for &(w, digest, pages) in pins {
        let got = image(w, size, params);
        if got != (digest, pages) {
            bad.push(format!(
                "{w} {size}: got ({:#018x}, {}), pinned ({digest:#018x}, {pages})",
                got.0, got.1
            ));
        }
    }
    assert!(bad.is_empty(), "store images changed:\n{}", bad.join("\n"));
}

#[test]
fn small_store_images_are_pinned() {
    check(
        &[
            (Workload::Atf, 0xf897_0c99_fbad_b5a2, 0),
            (Workload::Bfs, 0x1a71_e6c7_f0b3_4be7, 2),
            (Workload::Pr, 0xbbf5_4518_c31e_fc30, 1),
            (Workload::Sp, 0x1a71_e6c7_f0b3_4be7, 2),
            (Workload::Wcc, 0x5d7d_b9f9_4ed5_106c, 2),
            (Workload::Hj, 0x6d58_93b5_8af9_e6fe, 5),
            (Workload::Hg, 0xb674_b4aa_a6ac_516d, 4),
            (Workload::Rp, 0xde66_46b7_033d_0654, 2),
            (Workload::Sc, 0xaf4c_a629_c24a_e3f7, 4),
            (Workload::Svm, 0xa22b_5f95_97db_dc4f, 4),
        ],
        InputSize::Small,
        &WorkloadParams::quick_test(2),
    );
}

/// Every generator at cold-cell scale (16 MiB inputs on the scaled
/// machine), where arrays span thousands of pages. Slow in debug builds;
/// CI runs it in release.
#[test]
#[ignore = "large inputs: run with --release -- --include-ignored"]
fn large_store_images_are_pinned() {
    check(
        &[
            (Workload::Atf, 0xd5b8_3250_3978_0dd1, 0),
            (Workload::Bfs, 0x21c7_d458_6a36_c0a3, 683),
            (Workload::Pr, 0x461a_d8d1_fc26_9259, 684),
            (Workload::Sp, 0x21c7_d458_6a36_c0a3, 683),
            (Workload::Wcc, 0x56c5_915b_7c35_6169, 683),
            (Workload::Hj, 0xcb88_707a_d247_7d2d, 4314),
            (Workload::Hg, 0x35ed_ab1a_9e2a_f5f8, 4096),
            (Workload::Rp, 0xcdb6_f0a3_fff2_160e, 2048),
            (Workload::Sc, 0x6cb4_9b6e_1b8e_e9a1, 4096),
            (Workload::Svm, 0x7bba_5893_326e_750d, 4096),
        ],
        InputSize::Large,
        &WorkloadParams::scaled(4),
    );
}
