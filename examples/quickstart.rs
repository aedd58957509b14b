//! Quickstart: install FreePart, run a hooked image pipeline, and watch
//! an exploit get contained.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use freepart_suite::core::{Policy, Runtime};
use freepart_suite::frameworks::registry::standard_registry;
use freepart_suite::frameworks::{fileio, image::Image, ExploitAction, ExploitPayload, Value};

fn main() {
    // 1. Install FreePart over the standard framework catalog: this runs
    //    the hybrid API categorization and spawns the host + four agent
    //    processes (data loading / processing / visualizing / storing).
    let mut rt = Runtime::install(standard_registry(), Policy::freepart());
    println!(
        "installed: {} processes, state = {}",
        rt.kernel.process_count(),
        rt.current_state()
    );

    // 2. Annotate critical application data — it lives in the host
    //    process and is protected by temporal memory permissions.
    let secret = rt.host_data("answer-key", b"the grades must not change");

    // 3. Run a normal pipeline. Every call is hooked into an RPC and
    //    executes in the agent process of its API type.
    let img = Image::new(32, 32, 3);
    rt.kernel
        .fs_put("/input.simg", fileio::encode_image(&img, None));
    let loaded = rt
        .call("cv2.imread", &[Value::from("/input.simg")])
        .unwrap();
    let gray = rt.call("cv2.cvtColor", &[loaded]).unwrap();
    let edges = rt.call("cv2.Canny", &[gray]).unwrap();
    rt.call("cv2.imshow", &[Value::from("preview"), edges.clone()])
        .unwrap();
    rt.call("cv2.imwrite", &[Value::from("/edges.simg"), edges])
        .unwrap();
    println!(
        "pipeline done: state = {}, stats = {:?}",
        rt.current_state(),
        rt.stats()
    );

    // 4. Feed a crafted image that exploits CVE-2017-12597 in imread and
    //    tries to overwrite the answer key at its exact address.
    let addr = rt.objects.meta(secret).unwrap().buffer.unwrap().0;
    let payload = ExploitPayload {
        cve: "CVE-2017-12597".into(),
        actions: vec![ExploitAction::WriteMem {
            addr: addr.0,
            bytes: vec![0x41; 8],
        }],
    };
    rt.kernel
        .fs_put("/evil.simg", fileio::encode_image(&img, Some(&payload)));
    let result = rt.call("cv2.imread", &[Value::from("/evil.simg")]);
    println!("malicious imread -> {result:?}");

    // 5. The write landed in the loading agent's address space, where
    //    that address is unmapped: the exploit faulted, the agent was
    //    restarted, and the key is intact.
    let key = rt.fetch_bytes(secret).unwrap();
    assert_eq!(key, b"the grades must not change");
    println!("answer key intact: {:?}", String::from_utf8_lossy(&key));
    println!(
        "exploit outcomes: {:?}",
        rt.exploit_log
            .iter()
            .map(|r| &r.outcome)
            .collect::<Vec<_>>()
    );
    println!("agent restarts: {}", rt.stats().restarts);
}
