//! Adaptive policy-controller benchmark: the closed loop vs every
//! static preset, across adversarial workload mixes.
//!
//! Sweeps the four [`freepart_apps::mixes`] workloads — tiny chatty
//! calls, bulk frames, an interleaved mix, and a phase shift mid-run —
//! under each static preset (lazy, eager, shm, batched) and under
//! [`Policy::freepart_adaptive`], all through the same driver. Asserts,
//! in-binary:
//!
//! * every policy produces the byte-identical digest on every mix
//!   (knob choices are performance-only, never semantics);
//! * the controller matches or beats every static preset on every mix
//!   (no hand-tuning beats the closed loop);
//! * OMR end-to-end overhead under the adaptive policy stays ≤ 2.20%,
//!   the batched preset's hand-tuned figure.
//!
//! Results land in `BENCH_adaptive.json` at the repo root (hand-rolled
//! JSON; the suite carries no serde). Regenerate with:
//!
//! ```text
//! cargo run --release -p freepart-bench --bin adaptive
//! ```

use freepart::Policy;
use freepart_apps::mixes::{run_mix, standard_mixes, Mix, MixResult};
use freepart_apps::omr;
use freepart_baselines::{build, SchemeKind};
use freepart_bench::experiments::omr_workload;
use freepart_bench::fmt::pct;
use freepart_bench::{fast_install, workspace_root, Table};
use freepart_frameworks::registry::standard_registry;

/// One policy × mix measurement.
struct Run {
    policy: &'static str,
    time_ns: u64,
    ipc: u64,
    transfer_bytes: u64,
    decisions: usize,
}

/// A named policy-preset constructor.
type PresetFn = fn() -> Policy;

/// The static presets the controller must match or beat, plus the
/// controller itself (always last).
const POLICIES: [(&str, PresetFn); 5] = [
    ("lazy", Policy::freepart),
    ("eager", Policy::without_ldc),
    ("shm", Policy::freepart_shm),
    ("batched", Policy::freepart_batched),
    ("adaptive", Policy::freepart_adaptive),
];

fn measure(mix: &Mix, name: &'static str, policy: Policy) -> (Run, MixResult) {
    let adaptive = policy.adaptive.is_some();
    let mut rt = fast_install(policy);
    rt.kernel.reset_accounting();
    let result = run_mix(&mut rt, mix);
    assert!(result.errors.is_empty(), "{}: benign mix errored", mix.name);
    assert!(result.completed > 0, "{}: mix must actually run", mix.name);
    let decisions = if adaptive {
        let d = rt.tracer().policy_decisions();
        assert!(!d.is_empty(), "{}: no decision points reached", mix.name);
        d.len()
    } else {
        0
    };
    let m = rt.kernel.metrics();
    (
        Run {
            policy: name,
            time_ns: rt.kernel.clock().now_ns(),
            ipc: m.ipc_messages,
            transfer_bytes: m.total_transfer_bytes(),
            decisions,
        },
        result,
    )
}

/// End-to-end OMR overhead of the adaptive policy vs the monolithic
/// original — the headline number the batched preset hand-tuned to
/// 2.20%.
fn omr_overhead() -> (u64, u64, f64) {
    let reg = standard_registry();
    let mut surface = build(
        SchemeKind::Original,
        standard_registry(),
        &omr::omr_universe(&reg),
    );
    surface.kernel_mut().reset_accounting();
    let r = omr::run(surface.as_mut(), &omr_workload());
    assert!(r.completed > 0, "workload must actually run");
    let original_ns = surface.kernel().clock().now_ns();

    let mut rt = fast_install(Policy::freepart_adaptive());
    rt.kernel.reset_accounting();
    let r = omr::run(&mut rt, &omr_workload());
    assert!(r.completed > 0 && r.errors.is_empty(), "benign OMR errored");
    let adaptive_ns = rt.kernel.clock().now_ns();

    let overhead = adaptive_ns as f64 / original_ns.max(1) as f64 - 1.0;
    (original_ns, adaptive_ns, overhead)
}

fn json_digest(d: &[f64]) -> String {
    let cells: Vec<String> = d.iter().map(|v| format!("{v}")).collect();
    format!("[{}]", cells.join(", "))
}

fn main() {
    let mut table = Table::new(["Mix", "Policy", "Time (ms)", "IPC", "Bytes", "Decisions"]);
    let mut json = String::from("{\n  \"mixes\": [\n");
    let mixes = standard_mixes();
    for (mi, mix) in mixes.iter().enumerate() {
        let mut runs = Vec::new();
        let mut reference: Option<MixResult> = None;
        for (name, policy) in POLICIES {
            let (run, result) = measure(mix, name, policy());
            match &reference {
                None => reference = Some(result),
                Some(want) => assert_eq!(
                    &result, want,
                    "{}: {} digest diverged from the lazy reference",
                    mix.name, name
                ),
            }
            runs.push(run);
        }

        // The controller must match or beat every static preset.
        let adaptive = runs.last().expect("adaptive runs last");
        for r in &runs[..runs.len() - 1] {
            assert!(
                adaptive.time_ns <= r.time_ns,
                "{}: adaptive regressed vs {}: {} ns vs {} ns",
                mix.name,
                r.policy,
                adaptive.time_ns,
                r.time_ns
            );
        }

        for r in &runs {
            table.row([
                mix.name.to_owned(),
                r.policy.to_owned(),
                format!("{:.3}", r.time_ns as f64 / 1e6),
                r.ipc.to_string(),
                r.transfer_bytes.to_string(),
                r.decisions.to_string(),
            ]);
        }
        json.push_str(&format!("    {{\"mix\": \"{}\", \"runs\": [\n", mix.name));
        for (i, r) in runs.iter().enumerate() {
            json.push_str(&format!(
                "      {{\"policy\": \"{}\", \"time_ns\": {}, \"ipc\": {}, \
                 \"transfer_bytes\": {}, \"decisions\": {}}}{}\n",
                r.policy,
                r.time_ns,
                r.ipc,
                r.transfer_bytes,
                r.decisions,
                if i + 1 == runs.len() { "" } else { "," }
            ));
        }
        let digest = reference.expect("reference recorded");
        json.push_str(&format!(
            "    ], \"digest\": {}}}{}\n",
            json_digest(&digest.digest),
            if mi + 1 == mixes.len() { "" } else { "," }
        ));
    }
    table.print("Adaptive controller vs static presets (virtual time)");

    let (original_ns, adaptive_ns, overhead) = omr_overhead();
    assert!(
        overhead <= 0.022,
        "adaptive OMR overhead {overhead:.4} above the 2.20% bar"
    );
    println!(
        "\nOMR overhead check: {adaptive_ns} ns adaptive vs {original_ns} ns original \
         = {} (<= 2.20%) ✓",
        pct(overhead)
    );

    json.push_str(&format!(
        "  ],\n  \"omr\": {{\"original_ns\": {original_ns}, \"adaptive_ns\": {adaptive_ns}, \
         \"overhead\": {overhead:.6}}}\n}}\n"
    ));
    let out = workspace_root().join("BENCH_adaptive.json");
    std::fs::write(&out, &json).expect("write BENCH_adaptive.json");
    println!("wrote {}", out.display());
}
