//! Flight-recorder **record → replay → audit** bench.
//!
//! Records the two drone attack scenarios (DoS frame, speed-corruption
//! frame) under `Policy::freepart_recorded()`, replays each commit log
//! against a fresh kernel asserting digest-identical state at every
//! step, runs the kernel- and runtime-level invariant auditors, walks
//! the forensic chain back from every crash, and re-derives the attack
//! verdicts from the replayed kernel alone — proving the verdicts are
//! reproducible from the log, not just observable live.
//!
//! Results land in `BENCH_replay.json` at the repo root (hand-rolled
//! JSON; the suite carries no serde) and as a table on stdout.
//! Regenerate with:
//!
//! ```text
//! cargo run --release -p freepart-bench --bin freepart-replay
//! ```

use freepart::{
    crash_forensics, journal_exactly_once, transition_windows, w_grant_discipline, Policy, Runtime,
};
use freepart_apps::drone::{self, DroneConfig};
use freepart_attacks::payloads;
use freepart_bench::{workspace_root, Table};
use freepart_frameworks::registry::standard_registry;
use freepart_simos::core::step_ref;
use freepart_simos::replay::{audit, replay};
use freepart_simos::{CommitLog, CommitOp, Effects, FaultKind, KernelState};

/// One recorded-and-replayed attack scenario.
struct Scenario {
    name: &'static str,
    /// Commit records in the log.
    commits: u64,
    /// Replay steps that diverged from the recorded digests.
    divergences: usize,
    /// Kernel-level invariant violations (`freepart_simos::replay::audit`).
    kernel_violations: usize,
    /// Runtime-level discipline violations (grant sweep, journal).
    runtime_violations: usize,
    /// Involuntary deaths found in the log.
    crashes: usize,
    /// Provenance-chain length of the attack's crash.
    forensic_chain_len: usize,
    /// Did the live run survive the attack (control loop alive)?
    verdict_live: bool,
    /// Does the replayed kernel agree (host running, attack fault
    /// present in the log with the expected kind)?
    verdict_replay: bool,
}

/// Timed passes per throughput figure; each figure is their median.
const PASSES: usize = 7;
/// Folds of the log per timed pass.
const FOLDS_PER_PASS: u32 = 40;

/// A rate measured over [`PASSES`] passes: the median and the spread.
#[derive(Clone, Copy)]
struct Rate {
    median: f64,
    min: f64,
    max: f64,
}

impl Rate {
    /// Times `PASSES` passes of `FOLDS_PER_PASS` calls to `fold`, each
    /// handling `units` units of work, and reports units per second.
    fn measure(units: u64, mut fold: impl FnMut()) -> Rate {
        let mut rates: Vec<f64> = (0..PASSES)
            .map(|_| {
                let start = std::time::Instant::now();
                for _ in 0..FOLDS_PER_PASS {
                    fold();
                }
                let secs = start.elapsed().as_secs_f64().max(1e-9);
                (units * u64::from(FOLDS_PER_PASS)) as f64 / secs
            })
            .collect();
        rates.sort_by(f64::total_cmp);
        Rate {
            median: rates[PASSES / 2],
            min: rates[0],
            max: rates[PASSES - 1],
        }
    }

    /// The same passes' rate for a different unit count per fold.
    fn scaled(self, factor: f64) -> Rate {
        Rate {
            median: self.median * factor,
            min: self.min * factor,
            max: self.max * factor,
        }
    }

    fn json(&self, key: &str) -> String {
        format!(
            "\"{key}\": {:.1}, \"{key}_min\": {:.1}, \"{key}_max\": {:.1}",
            self.median, self.min, self.max
        )
    }
}

/// Throughput of one recorded log, both ways it is folded.
struct Throughput {
    log: &'static str,
    /// Records in the log.
    steps: u64,
    /// Pages the log's successful protect records changed.
    protect_pages: u64,
    /// The pure `step` fold alone, one digest per fold.
    step: Rate,
    /// Full [`replay`]: a step, a digest and both comparisons per
    /// record — what every replay-based tool pays per step.
    replay: Rate,
}

impl Throughput {
    fn measure(log_name: &'static str, log: &CommitLog) -> Throughput {
        let steps = log.len();
        let protect_pages = log
            .records()
            .iter()
            .filter(|r| r.outcome.is_ok())
            .filter(|r| {
                matches!(
                    r.op,
                    CommitOp::Protect { .. } | CommitOp::ShmProtectAll { .. }
                )
            })
            .map(|r| r.outcome.raw())
            .sum();
        let mut fx = Effects::new();
        let step = Rate::measure(steps, || {
            let mut state = KernelState::with_cost_model(log.genesis().clone());
            for rec in log.records() {
                fx.clear();
                let _ = step_ref(&mut state, &rec.op, &mut fx);
            }
            std::hint::black_box(state.digest());
        });
        let replay = Rate::measure(steps, || {
            std::hint::black_box(replay(log));
        });
        Throughput {
            log: log_name,
            steps,
            protect_pages,
            step,
            replay,
        }
    }

    /// Protect pages changed per second of full replay.
    fn pages(&self) -> Rate {
        self.replay
            .scaled(self.protect_pages as f64 / self.steps.max(1) as f64)
    }
}

/// Records one drone mission, replays it, audits it, and reports the
/// scenario alongside its detached commit log.
fn record_and_replay(
    name: &'static str,
    cfg: &DroneConfig,
    expect_fault: FaultKind,
) -> (Scenario, CommitLog) {
    let mut rt = Runtime::install(standard_registry(), Policy::freepart_recorded());
    rt.enable_tracing();
    let result = drone::run(&mut rt, cfg);
    let host = rt.host_pid();
    let live_digest = rt.kernel.state_digest();
    let log = rt.kernel.take_commit_log().expect("recording was on");

    // Digest-identical replay from the log alone.
    let (rebuilt, report) = replay(&log);
    assert_eq!(report.steps, log.len(), "{name}: replay must cover the log");
    assert!(
        report.is_clean(),
        "{name}: replay diverged: {:?}",
        report.divergences
    );
    assert_eq!(
        rebuilt.state_digest(),
        live_digest,
        "{name}: rebuilt kernel must match the live final state"
    );

    // Kernel-level whole-trace invariants.
    let kernel_violations = audit(&log);
    assert!(
        kernel_violations.is_empty(),
        "{name}: honest log flagged: {kernel_violations:?}"
    );

    // Runtime-level disciplines, joined through the tracer's windows.
    let windows = transition_windows(rt.tracer());
    let mut runtime_violations = w_grant_discipline(&log, &windows, host);
    runtime_violations.extend(journal_exactly_once(rt.tracer()));
    assert!(
        runtime_violations.is_empty(),
        "{name}: discipline violated: {runtime_violations:?}"
    );

    // Forensics: the attack's crash and its provenance chain.
    let crashes = crash_forensics(&log);
    let attack_crash = crashes
        .iter()
        .find(|c| c.kind == expect_fault)
        .unwrap_or_else(|| panic!("{name}: expected a {expect_fault:?} crash in the log"));

    // The verdict, re-derived from the replayed kernel alone: the host
    // (control loop) survived, and the attack died inside an agent.
    let verdict_replay = rebuilt.is_running(host) && attack_crash.pid != host;

    let scenario = Scenario {
        name,
        commits: log.len(),
        divergences: report.divergences.len(),
        kernel_violations: kernel_violations.len(),
        runtime_violations: runtime_violations.len(),
        crashes: crashes.len(),
        forensic_chain_len: attack_crash.chain.len(),
        verdict_live: result.control_loop_alive,
        verdict_replay,
    };
    (scenario, log)
}

fn to_json(rows: &[Scenario], throughput: &[Throughput]) -> String {
    let mut out = String::from("{\n  \"scenarios\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"commits\": {}, \"divergences\": {}, \
             \"kernel_violations\": {}, \"runtime_violations\": {}, \
             \"crashes\": {}, \"forensic_chain_len\": {}, \
             \"verdict_live\": {}, \"verdict_replay\": {}, \
             \"verdict_reproduced\": {}}}{}\n",
            r.name,
            r.commits,
            r.divergences,
            r.kernel_violations,
            r.runtime_violations,
            r.crashes,
            r.forensic_chain_len,
            r.verdict_live,
            r.verdict_replay,
            r.verdict_live == r.verdict_replay,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    let min =
        |rate: fn(&Throughput) -> f64| throughput.iter().map(rate).fold(f64::INFINITY, f64::min);
    out.push_str(&format!(
        "  ],\n  \"step_throughput\": {{\"passes\": {PASSES}, \
         \"folds_per_pass\": {FOLDS_PER_PASS}, \"logs\": [\n"
    ));
    for (i, t) in throughput.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"log\": \"{}\", \"steps\": {}, \"protect_pages\": {}, {}, {}, {}}}{}\n",
            t.log,
            t.steps,
            t.protect_pages,
            t.step.json("steps_per_sec"),
            t.replay.json("replay_steps_per_sec"),
            t.pages().json("pages_per_sec"),
            if i + 1 < throughput.len() { "," } else { "" }
        ));
    }
    out.push_str(&format!(
        "  ], \"min_steps_per_sec\": {:.1}, \"min_replay_steps_per_sec\": {:.1}}}\n}}\n",
        min(|t| t.step.median),
        min(|t| t.replay.median)
    ));
    out
}

fn main() {
    // Scenario 1 — DoS: a poisoned frame crashes the loading agent; the
    // supervisor restarts it and the mission keeps flying.
    let (dos, dos_log) = record_and_replay(
        "drone_dos",
        &DroneConfig {
            frames: 5,
            evil_frame: Some((2, payloads::dos("CVE-2017-14136"))),
        },
        FaultKind::Abort,
    );

    // Scenario 2 — speed corruption: the exploit's write lands on a
    // temporally-protected page and faults instead of flipping the
    // steering sign. The target address comes from an identical probe
    // mission (deterministic layout).
    let addr = {
        let mut probe = Runtime::install(standard_registry(), Policy::freepart_recorded());
        let r = drone::run(
            &mut probe,
            &DroneConfig {
                frames: 0,
                evil_frame: None,
            },
        );
        probe.objects.meta(r.speed).unwrap().buffer.unwrap().0
    };
    let evil_speed = (-0.3f64).to_le_bytes().to_vec();
    let (corrupt, corrupt_log) = record_and_replay(
        "drone_corruption",
        &DroneConfig {
            frames: 4,
            evil_frame: Some((1, payloads::corrupt("CVE-2017-12606", addr.0, evil_speed))),
        },
        FaultKind::Protection,
    );

    let rows = [dos, corrupt];
    let mut table = Table::new([
        "scenario",
        "commits",
        "diverg.",
        "kernel viol.",
        "runtime viol.",
        "crashes",
        "chain len",
        "verdict",
    ]);
    for r in &rows {
        table.row([
            r.name.to_string(),
            r.commits.to_string(),
            r.divergences.to_string(),
            r.kernel_violations.to_string(),
            r.runtime_violations.to_string(),
            r.crashes.to_string(),
            r.forensic_chain_len.to_string(),
            if r.verdict_live && r.verdict_replay {
                "survived (reproduced)".into()
            } else {
                "MISMATCH".into()
            },
        ]);
    }
    table.print("flight recorder: record → replay → audit");

    for r in &rows {
        assert_eq!(r.divergences, 0, "{}: replay diverged", r.name);
        assert_eq!(r.kernel_violations + r.runtime_violations, 0);
        assert!(
            r.verdict_live && r.verdict_replay,
            "{}: verdict not reproduced from the log",
            r.name
        );
        assert!(r.forensic_chain_len >= 2, "{}: thin chain", r.name);
    }

    // Throughput over BOTH recorded logs, two ways: the pure step fold
    // (no shell, no commit log, no per-step digest) and full replay (a
    // digest and both comparisons per step). Folding only one log would
    // let a regression on the other scenario's op mix slip by, so the
    // JSON carries each log's rates plus the min across logs. One
    // protect record can carry hundreds of pages, so pages per second
    // rides along with steps per second.
    let mut throughput = Vec::new();
    for (log_name, log) in [("drone_dos", &dos_log), ("drone_corruption", &corrupt_log)] {
        let t = Throughput::measure(log_name, log);
        println!(
            "\n{log_name}: {} steps, {} protect pages; median of {PASSES} passes: \
             {:.0} pure steps/sec, {:.0} replay steps/sec, {:.0} pages/sec",
            t.steps,
            t.protect_pages,
            t.step.median,
            t.replay.median,
            t.pages().median
        );
        throughput.push(t);
    }

    let json = to_json(&rows, &throughput);
    let out = workspace_root().join("BENCH_replay.json");
    std::fs::write(&out, &json).expect("write BENCH_replay.json");
    println!("wrote {} ({} scenarios)", out.display(), rows.len());
}
