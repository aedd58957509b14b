//! The paper's §6 multi-threading model two ways: a server handling
//! requests on several worker threads —
//!
//! * **per-thread** (the paper's deployment): each worker owns four
//!   agent processes; a crash triggered by one client's malicious
//!   upload cannot even perturb another thread's pipeline, at 4 extra
//!   processes per worker.
//! * **pooled** (`Policy::freepart_pooled()`): all workers share the
//!   four `part0..part3` pools behind a deficit-round-robin scheduler;
//!   the blast radius of the same exploit is one supervised restart of
//!   one shared agent, at 1 extra process per worker.
//!
//! ```text
//! cargo run --example multithreaded_server
//! ```

use freepart_suite::attacks::payloads;
use freepart_suite::core::{Policy, Runtime, TenantId, ThreadId};
use freepart_suite::frameworks::registry::standard_registry;
use freepart_suite::frameworks::{fileio, image::Image, Value};

fn upload(rt: &mut Runtime, thread: ThreadId, name: &str, evil: bool) -> bool {
    let path = format!("/uploads/{thread}/{name}");
    let img = Image::new(24, 24, 3);
    let payload = evil.then(|| payloads::dos("CVE-2017-14136"));
    rt.kernel
        .fs_put(&path, fileio::encode_image(&img, payload.as_ref()));
    let ok = (|| {
        let loaded = rt.call_on(thread, "cv2.imread", &[Value::Str(path)])?;
        let gray = rt.call_on(thread, "cv2.cvtColor", &[loaded])?;
        let thumb = rt.call_on(thread, "cv2.resize", &[gray, Value::I64(8), Value::I64(8)])?;
        rt.call_on(
            thread,
            "cv2.imwrite",
            &[Value::Str(format!("/thumbs/{thread}/{name}")), thumb],
        )?;
        Ok::<(), freepart_suite::core::CallError>(())
    })();
    ok.is_ok()
}

fn upload_pooled(rt: &mut Runtime, tenant: TenantId, name: &str, evil: bool) -> bool {
    let path = format!("/uploads/{tenant}/{name}");
    let img = Image::new(24, 24, 3);
    let payload = evil.then(|| payloads::dos("CVE-2017-14136"));
    rt.kernel
        .fs_put(&path, fileio::encode_image(&img, payload.as_ref()));
    let ok = (|| {
        let loaded = rt.call_tenant(tenant, "cv2.imread", &[Value::Str(path)])?;
        let gray = rt.call_tenant(tenant, "cv2.cvtColor", &[loaded])?;
        let thumb = rt.call_tenant(tenant, "cv2.resize", &[gray, Value::I64(8), Value::I64(8)])?;
        rt.call_tenant(
            tenant,
            "cv2.imwrite",
            &[Value::Str(format!("/thumbs/{tenant}/{name}")), thumb],
        )?;
        Ok::<(), freepart_suite::core::CallError>(())
    })();
    ok.is_ok()
}

fn main() {
    // Security-over-availability config so the blast radius is visible.
    let mut rt = Runtime::install(standard_registry(), Policy::no_restart());
    let workers: Vec<ThreadId> = (0..3).map(|_| rt.spawn_thread()).collect();
    println!(
        "server up: {} processes (host + 4 main agents + 3 workers x 4 agents)",
        rt.kernel.process_count()
    );

    // Worker 1's client uploads a crafted image mid-stream.
    let mut served = vec![0u32; workers.len()];
    for round in 0..4 {
        for (w, &thread) in workers.iter().enumerate() {
            let evil = w == 1 && round == 1;
            if upload(&mut rt, thread, &format!("img{round}.simg"), evil) {
                served[w] += 1;
            } else {
                println!("worker {w}: request {round} contained (exploit in its loading agent)");
            }
        }
    }
    for (w, &thread) in workers.iter().enumerate() {
        println!(
            "worker {w} ({thread}): served {}/4 requests, state = {}",
            served[w],
            rt.state_of(thread)
        );
    }
    println!("host alive: {}", rt.kernel.is_running(rt.host_pid()));
    assert_eq!(served[0], 4, "worker 0 untouched");
    assert_eq!(served[2], 4, "worker 2 untouched");
    assert!(served[1] < 4, "worker 1 lost its poisoned stream only");
    let per_thread_procs = rt.kernel.process_count();

    // -- The same server, pooled: four shared agents for every worker,
    //    supervised restarts absorbing the exploit.
    let mut rt = Runtime::install(standard_registry(), Policy::freepart_pooled());
    let tenants: Vec<TenantId> = (0..3).map(|_| rt.spawn_tenant()).collect();
    let (agents, contexts) = rt.pooled_process_count();
    println!(
        "\npooled server up: {} processes (host + {agents} shared agents + {contexts} tenants) \
         vs {per_thread_procs} per-thread",
        rt.kernel.process_count()
    );

    let mut served = vec![0u32; tenants.len()];
    for round in 0..4 {
        for (w, &tenant) in tenants.iter().enumerate() {
            let evil = w == 1 && round == 1;
            if upload_pooled(&mut rt, tenant, &format!("img{round}.simg"), evil) {
                served[w] += 1;
            } else {
                println!(
                    "tenant {w}: request {round} contained (shared loading agent \
                     restarted by the supervisor)"
                );
            }
        }
    }
    for (w, &tenant) in tenants.iter().enumerate() {
        println!("tenant {w} ({tenant}): served {}/4 requests", served[w]);
    }
    println!(
        "host alive: {}, shared-agent restarts: {}",
        rt.kernel.is_running(rt.host_pid()),
        rt.stats().restarts
    );
    // Blast radius of the shared-agent crash: exactly the poisoned
    // request. Every other request of every tenant — including the
    // attacker tenant's later ones — was served through the restarted
    // pool.
    assert_eq!(served[0], 4, "tenant 0 untouched");
    assert_eq!(served[2], 4, "tenant 2 untouched");
    assert_eq!(served[1], 3, "tenant 1 lost only the poisoned request");
    // The supervisor restarts the crashed pool, retries the request
    // once (which re-trips the exploit), restarts again, and fails the
    // request — every restart confined to the poisoned call.
    assert!(rt.stats().restarts >= 1, "supervised restart happened");
    println!(
        "process cost per extra worker: 4 (per-thread) vs 1 (pooled); \
         blast radius: one stream vs one request"
    );
}
