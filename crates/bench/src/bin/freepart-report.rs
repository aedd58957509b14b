//! Observability report: **where FreePart's overhead goes**.
//!
//! Runs the OMR grader under the unprotected original and under FreePart
//! with span tracing enabled, then decomposes the end-to-end virtual-time
//! overhead into marshal / copy / mprotect / compute components from the
//! recorded spans. Also prints the per-partition telemetry breakdown and
//! a security-audit summary, runs the drone control loop traced, and
//! writes its Chrome `trace_event` export to `BENCH_trace.json` at the
//! repo root (open it in Perfetto or `about:tracing`).
//!
//! Tracing never charges virtual time, so the traced FreePart run must
//! land on exactly the same clock value as an untraced one — the report
//! asserts that, and asserts the component sum matches the end-to-end
//! overhead `hotpath` reports to within 1%.
//!
//! ```text
//! cargo run --release -p freepart-bench --bin freepart-report
//! ```

use freepart::{FlushReason, Policy, Runtime};
use freepart_apps::{drone, omr};
use freepart_baselines::{build, ApiSurface, SchemeKind};
use freepart_bench::experiments::omr_workload;
use freepart_bench::fmt::pct;
use freepart_bench::{drone_workload, fast_install, workspace_root, Table};
use freepart_frameworks::registry::standard_registry;

/// Virtual time of one full OMR run on a fresh surface.
fn omr_time(surface: &mut dyn ApiSurface) -> u64 {
    surface.kernel_mut().reset_accounting();
    let r = omr::run(surface, &omr_workload());
    assert!(r.completed > 0, "workload must actually run");
    surface.kernel().now_ns()
}

/// A FreePart runtime with tracing on and accounting zeroed.
fn traced_freepart() -> Runtime {
    let mut rt = fast_install(Policy::freepart());
    rt.enable_tracing();
    rt.kernel.reset_accounting();
    rt
}

fn kb(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / 1024.0)
}

fn us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1e3)
}

fn main() {
    let reg = standard_registry();

    // ---- baselines: original and untraced FreePart ----
    let mut original = build(
        SchemeKind::Original,
        standard_registry(),
        &omr::omr_universe(&reg),
    );
    let t_orig = omr_time(original.as_mut());
    let mut untraced = fast_install(Policy::freepart());
    let t_fp_untraced = omr_time(&mut untraced);

    // ---- traced FreePart run ----
    let mut rt = traced_freepart();
    let t_fp = omr_time(&mut rt);
    assert_eq!(
        t_fp, t_fp_untraced,
        "tracing must not perturb the virtual clock"
    );

    // ---- overhead decomposition ----
    let buckets = rt.tracer().bucket_totals();
    let overhead = t_fp as i64 - t_orig as i64;
    // Agent-side compute replaces the original's inline compute; what the
    // partitioning *adds* on the compute axis is the residual after the
    // three mechanism components are taken out of the FreePart total.
    // `other_ns` is the supervisor's share: restart and snapshot spans
    // that used to fall outside the decomposition entirely.
    let mechanisms = buckets.marshal_ns + buckets.copy_ns + buckets.mprotect_ns + buckets.other_ns;
    let compute_delta = (t_fp as i64 - mechanisms as i64) - t_orig as i64;
    let components = [
        ("marshal", buckets.marshal_ns as i64),
        ("copy", buckets.copy_ns as i64),
        ("mprotect", buckets.mprotect_ns as i64),
        ("restart/snapshot", buckets.other_ns as i64),
        ("compute delta", compute_delta),
    ];
    let sum: i64 = components.iter().map(|(_, v)| v).sum();

    println!("OMR grader, 24 samples (virtual time)");
    println!("  original     : {:>12} ns", t_orig);
    println!("  FreePart     : {:>12} ns", t_fp);
    println!(
        "  overhead     : {:>12} ns ({})",
        overhead,
        pct(t_fp as f64 / t_orig as f64 - 1.0)
    );

    let mut decomp = Table::new(["Component", "Virtual ns", "Share of overhead"]);
    for (name, v) in components {
        decomp.row([
            name.to_owned(),
            v.to_string(),
            pct(v as f64 / overhead as f64),
        ]);
    }
    decomp.print("FreePart overhead decomposition (OMR)");

    let gap = (sum - overhead).abs();
    assert!(
        gap as f64 <= 0.01 * overhead.max(1) as f64,
        "decomposition drifted: components sum to {sum} ns vs {overhead} ns overhead"
    );
    println!(
        "\ndecomposition check: components sum to {sum} ns vs {overhead} ns end-to-end (gap {gap} ns) ✓"
    );

    // ---- per-partition telemetry ----
    let labels: std::collections::BTreeMap<_, _> = rt.partition_labels().into_iter().collect();
    let mut table = Table::new([
        "Partition",
        "Calls",
        "Mean µs",
        "p95 µs",
        "Lazy KB",
        "Eager KB",
        "Journal",
        "Faults",
        "Kills",
    ]);
    for (p, s) in rt.tracer().partition_rollup() {
        let label = labels.get(&p).cloned().unwrap_or_else(|| p.to_string());
        table.row([
            label,
            s.calls.to_string(),
            us(s.latency.mean() as u64),
            us(s.latency.quantile(0.95)),
            kb(s.bytes_lazy),
            kb(s.bytes_eager),
            s.journal_hits.to_string(),
            s.faults.to_string(),
            s.filter_kills.to_string(),
        ]);
    }
    table.print("Per-partition telemetry (OMR under FreePart)");

    // ---- security audit summary ----
    let audit = rt.tracer().audit_log();
    let transitions = audit
        .iter()
        .filter(|r| matches!(r, freepart::AuditRecord::StateTransition { .. }))
        .count();
    let reprotects = audit
        .iter()
        .filter(|r| matches!(r, freepart::AuditRecord::Reprotect { .. }))
        .count();
    let audited_pages: u64 = audit.iter().map(freepart::AuditRecord::pages).sum();
    let kernel_pages = rt.kernel.metrics().protected_pages;
    assert_eq!(
        audited_pages, kernel_pages,
        "audit log must account for every mprotect page transition"
    );
    let snapshots_skipped = rt.kernel.metrics().snapshot_objects_skipped;
    println!(
        "\naudit: {transitions} state transitions, {reprotects} reprotects, \
         {audited_pages} mprotect page transitions (= kernel counter) ✓"
    );
    println!(
        "snapshots: {snapshots_skipped} clean objects skipped by the \
         write-epoch incremental snapshotter"
    );

    // ---- batched submission: where the flushes come from ----
    let mut rt = fast_install(Policy::freepart_batched());
    rt.enable_tracing();
    rt.kernel.reset_accounting();
    let r = omr::run(&mut rt, &omr_workload());
    assert!(r.completed > 0, "workload must actually run");
    let flushes = rt.tracer().batch_flushes();
    assert!(!flushes.is_empty(), "batched run must flush batches");
    let mut table = Table::new(["Flush reason", "Batches", "Calls", "Mean calls/frame"]);
    let mut batched_calls = 0u64;
    for reason in [
        FlushReason::PartitionSwitch,
        FlushReason::Hazard,
        FlushReason::Transition,
        FlushReason::WindowFull,
    ] {
        let of_reason: Vec<_> = flushes.iter().filter(|(_, _, r, _)| *r == reason).collect();
        let calls: u64 = of_reason.iter().map(|(_, _, _, n)| *n as u64).sum();
        batched_calls += calls;
        table.row([
            reason.to_string(),
            of_reason.len().to_string(),
            calls.to_string(),
            if of_reason.is_empty() {
                "-".to_owned()
            } else {
                format!("{:.1}", calls as f64 / of_reason.len() as f64)
            },
        ]);
    }
    table.print("Batch flushes by reason (OMR under FreePart, batched)");
    let kernel_batched = rt.kernel.metrics().calls_batched;
    assert_eq!(
        batched_calls, kernel_batched,
        "flush telemetry must account for every batched call"
    );
    println!(
        "batch check: {} calls in {} frames (= kernel counter) ✓",
        batched_calls,
        flushes.len()
    );

    // ---- adaptive controller: decisions and their input estimates ----
    // The phase-shifting mix forces a mid-run re-decision, so the
    // tables below show the controller actually moving knobs.
    let mix = freepart_apps::mixes::standard_mixes()
        .into_iter()
        .find(|m| m.name == "phase-shift")
        .expect("phase-shift mix exists");
    let mut rt = fast_install(Policy::freepart_adaptive());
    rt.kernel.reset_accounting();
    let r = freepart_apps::mixes::run_mix(&mut rt, &mix);
    assert!(
        r.completed > 0 && r.errors.is_empty(),
        "benign mix must run clean"
    );
    let labels: std::collections::BTreeMap<_, _> = rt.partition_labels().into_iter().collect();
    let label_of =
        |p: &freepart::PartitionId| labels.get(p).cloned().unwrap_or_else(|| p.to_string());

    let flows = rt.adaptive_flows();
    assert!(!flows.is_empty(), "retired calls must leave flow estimates");
    let mut table = Table::new(["Partition", "API", "EWMA B/call", "Samples"]);
    for (p, api, ewma, samples) in &flows {
        table.row([
            label_of(p),
            rt.registry().spec(*api).name.to_string(),
            ewma.to_string(),
            samples.to_string(),
        ]);
    }
    table.print("Adaptive flow estimates by (partition, API) — phase-shift mix");

    let decisions = rt.tracer().policy_decisions();
    assert!(!decisions.is_empty(), "decision points must be reached");
    assert!(
        decisions.iter().any(|d| d.changed),
        "the phase shift must move at least one knob"
    );
    let parts: std::collections::BTreeSet<_> = decisions.iter().map(|d| d.partition).collect();
    let mut table = Table::new([
        "Partition",
        "Decisions",
        "Changed",
        "Shm",
        "Batch",
        "Pipeline",
    ]);
    for p in parts {
        let of_p: Vec<_> = decisions.iter().filter(|d| d.partition == p).collect();
        let knobs = rt.adaptive_knobs(p).expect("controller is on");
        table.row([
            label_of(&p),
            of_p.len().to_string(),
            of_p.iter().filter(|d| d.changed).count().to_string(),
            if knobs.shm_promoted { "on" } else { "off" }.to_owned(),
            knobs
                .batch_window
                .map_or_else(|| "off".to_owned(), |w| w.to_string()),
            knobs.pipeline_window.to_string(),
        ]);
    }
    table.print("Adaptive policy decisions by partition (final knobs)");

    // ---- traced batched drone run → Chrome trace export ----
    // Batched so the exported timeline shows `batch` spans enclosing
    // their member `call` spans and the flush-reason instants.
    let mut rt = fast_install(Policy::freepart_batched());
    rt.enable_tracing();
    rt.kernel.reset_accounting();
    let r = drone::run(&mut rt, &drone_workload());
    assert!(r.frames_processed > 0, "workload must actually run");
    let trace = rt.export_chrome_trace();
    let out = workspace_root().join("BENCH_trace.json");
    std::fs::write(&out, &trace).expect("write BENCH_trace.json");
    println!(
        "\nwrote {} ({} span events, {} partitions + host; load it in Perfetto)",
        out.display(),
        rt.tracer().events().len(),
        rt.partition_labels().len()
    );
}
