//! Golden wire bytes and job keys: the `sub` request line, the
//! exact-hit cache key and the poison key, as recorded before the job
//! knobs moved into one table. A change to any of these values changes
//! the protocol or invalidates keys, so it must be deliberate.

use crate::dist::encode_sub_request;
use crate::json::parse;
use crate::server::spec_from_json;
use pf_core::seq::ExtractConfig;
use pf_core::{SubJob, SubKind};
use pf_kcmatrix::SearchConfig;
use pf_network::io::read_network;
use std::sync::Arc;

fn fixed_sub_job(search: SearchConfig) -> SubJob {
    let base = read_network("inputs a b c d\nnode f = a c | a d | b c | b d\noutputs f\n")
        .expect("fixed network parses");
    let f = base.find("f").expect("node f");
    SubJob {
        lease: 7,
        targets: Arc::new(vec![f]),
        base: Arc::new(base),
        extract: ExtractConfig {
            search,
            ..ExtractConfig::default()
        },
        kind: SubKind::Extract,
    }
}

#[test]
fn sub_request_bytes_are_pinned() {
    let prefix = concat!(
        r#"{"op":"sub","lease":7,"kind":"extract","#,
        r#""network":"inputs a b c d\nnode f = a c | a d | b c | b d\noutputs f\n","#,
        r#""targets":["f"],"#
    );
    for (search, knobs) in [
        (
            SearchConfig::default(),
            r#""batch_rects":16,"tile_width":4}"#,
        ),
        (
            SearchConfig::classic(),
            r#""batch_rects":1,"tile_width":4}"#,
        ),
    ] {
        let line = encode_sub_request(&fixed_sub_job(search), None).to_string();
        assert_eq!(line, format!("{prefix}{knobs}"));
    }
}

/// `cache_param_digest` per (algorithm, K, procs), recorded before the
/// knob table; the result-invariant knobs never move it.
const CACHE_KEYS: [(&str, u64, u64, &str); 16] = [
    ("seq", 1, 2, "14e36f60ee7638956f6f89bacde5c364"),
    ("seq", 1, 8, "14e36f60ee7638956f6f89bacde5c364"),
    ("seq", 16, 2, "230834824e4fd80f64fbac60a4093429"),
    ("seq", 16, 8, "230834824e4fd80f64fbac60a4093429"),
    ("replicated", 1, 2, "23a7ad55ccf3c3b255eecc4826279d73"),
    ("replicated", 1, 8, "bcb48c18fc7c9b3ef5af9e930cb4b74e"),
    ("replicated", 16, 2, "a70d885b7c147dc977976de77b608cf4"),
    ("replicated", 16, 8, "fd780a84ef876782e2a67c8be0994ef2"),
    ("independent", 1, 2, "47b8bb097d6c920588c457f106ab8690"),
    ("independent", 1, 8, "8c2adbe6cb39374dca50831cfe00795f"),
    ("independent", 16, 2, "5b03aad7a50c3f3e763027aaf1178bfb"),
    ("independent", 16, 8, "6d183e83b6fbe33c6021193beee7f6c1"),
    ("lshaped", 1, 2, "1ebb2963c425ef611605bf996adb427b"),
    ("lshaped", 1, 8, "6c6283af734259ba5f6ecaaac8b1fbe2"),
    ("lshaped", 16, 2, "4a9fcf48a88999556f289f256da6705d"),
    ("lshaped", 16, 8, "56c4935af3972e0ad488707667f825b3"),
];

/// `poison_key` per algorithm for the workload below, recorded before
/// the knob table; no knob and no `procs` moves it.
const POISON_KEYS: [(&str, &str); 4] = [
    ("seq", "e2df5d8db851f451a8abd6652ab74aca"),
    ("replicated", "ea08416e88414f4422a507452fc33279"),
    ("independent", "699a36fcec8cfcea909749c3b64d7567"),
    ("lshaped", "adf7decf7be6f5f88c12d5562b0dc1dd"),
];

#[test]
fn cache_and_poison_keys_are_pinned() {
    for &(algorithm, k, procs, cache_hex) in &CACHE_KEYS {
        for (tile_width, par_threads) in [(4, 0), (0, 2), (64, 7)] {
            let line = format!(
                r#"{{"op":"submit","algorithm":"{algorithm}","workload":"gen:dalu@0.2","procs":{procs},"batch_rects":{k},"tile_width":{tile_width},"par_threads":{par_threads}}}"#
            );
            let spec = spec_from_json(&parse(&line).expect("json")).expect("valid spec");
            let poison_hex = POISON_KEYS
                .iter()
                .find(|(a, _)| *a == algorithm)
                .expect("pinned algorithm")
                .1;
            assert_eq!(spec.cache_param_digest().to_hex(), cache_hex, "{line}");
            assert_eq!(spec.poison_key().to_hex(), poison_hex, "{line}");
        }
    }
}
