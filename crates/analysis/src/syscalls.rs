//! Syscall profiling (paper §4.4.1, Fig. 12, Table 7).
//!
//! Combines the static pass's visible syscalls with dynamic traces into
//! per-API required sets, then unions them per API type to produce the
//! allowlist each agent process gets.

use crate::dynamic::TestCorpus;
use crate::hybrid::{categorize, HybridReport};
use freepart_frameworks::api::{ApiId, ApiRegistry, ApiType};
use freepart_simos::SyscallNo;
use std::collections::{BTreeMap, BTreeSet};

/// Per-API required-syscall profile from the hybrid analysis.
#[derive(Debug, Clone, Default)]
pub struct SyscallProfile {
    per_api: BTreeMap<ApiId, BTreeSet<SyscallNo>>,
}

impl SyscallProfile {
    /// Builds profiles for every API: the union of the registry's
    /// declared profile (the implementation's requirements), static IR
    /// evidence, and dynamic trace evidence.
    pub fn build(reg: &ApiRegistry, corpus: &TestCorpus) -> SyscallProfile {
        SyscallProfile::from_report(reg, &categorize(reg, corpus))
    }

    /// [`SyscallProfile::build`] from the static and dynamic evidence a
    /// hybrid report over `reg` already holds, so a caller that needs
    /// both runs the dynamic analysis once.
    pub fn from_report(reg: &ApiRegistry, report: &HybridReport) -> SyscallProfile {
        let mut per_api = BTreeMap::new();
        for spec in reg.iter() {
            let mut set: BTreeSet<SyscallNo> = spec.syscall_profile.iter().copied().collect();
            if let Some(cat) = report.per_api.get(&spec.id) {
                set.extend(cat.static_result.syscalls.iter().copied());
                if let Some(d) = &cat.dynamic_result {
                    set.extend(d.syscalls.iter().copied());
                }
            }
            per_api.insert(spec.id, set);
        }
        SyscallProfile { per_api }
    }

    /// Required syscalls of one API.
    ///
    /// # Panics
    ///
    /// Panics on an unprofiled id.
    pub fn of(&self, id: ApiId) -> &BTreeSet<SyscallNo> {
        &self.per_api[&id]
    }

    /// Union of required syscalls over a set of APIs (one agent
    /// process's allowlist, before runtime base calls).
    pub fn union_of<I: IntoIterator<Item = ApiId>>(&self, apis: I) -> BTreeSet<SyscallNo> {
        let mut out = BTreeSet::new();
        for id in apis {
            if let Some(set) = self.per_api.get(&id) {
                out.extend(set.iter().copied());
            }
        }
        out
    }

    /// Per-type unions given a type assignment (Table 7's rows).
    pub fn per_type(
        &self,
        assignment: &BTreeMap<ApiId, ApiType>,
    ) -> BTreeMap<ApiType, BTreeSet<SyscallNo>> {
        let mut out: BTreeMap<ApiType, BTreeSet<SyscallNo>> = BTreeMap::new();
        for (id, t) in assignment {
            if let Some(set) = self.per_api.get(id) {
                out.entry(*t).or_default().extend(set.iter().copied());
            }
        }
        out
    }

    /// Mean number of syscalls required per API (the paper reports ~6).
    pub fn mean_per_api(&self) -> f64 {
        if self.per_api.is_empty() {
            return 0.0;
        }
        self.per_api.values().map(BTreeSet::len).sum::<usize>() as f64 / self.per_api.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use freepart_frameworks::registry::standard_registry;

    #[test]
    fn imread_profile_matches_fig12() {
        let reg = standard_registry();
        let profile = SyscallProfile::build(&reg, &TestCorpus::full(&reg));
        let set = profile.of(reg.id_of("cv2.imread").unwrap());
        for sc in [
            SyscallNo::Openat,
            SyscallNo::Close,
            SyscallNo::Brk,
            SyscallNo::Fstat,
            SyscallNo::Read,
        ] {
            assert!(set.contains(&sc), "imread missing {sc:?}");
        }
        assert!(!set.contains(&SyscallNo::Connect));
        assert!(!set.contains(&SyscallNo::Fork));
    }

    #[test]
    fn per_type_union_shapes_match_table7() {
        let reg = standard_registry();
        let corpus = TestCorpus::full(&reg);
        let profile = SyscallProfile::build(&reg, &corpus);
        let assignment: BTreeMap<_, _> = reg.iter().map(|s| (s.id, s.declared_type)).collect();
        let per_type = profile.per_type(&assignment);
        let loading = &per_type[&ApiType::DataLoading];
        let processing = &per_type[&ApiType::DataProcessing];
        let viz = &per_type[&ApiType::Visualizing];
        let storing = &per_type[&ApiType::Storing];
        // Loading reads files/devices but never connects to the GUI.
        assert!(loading.contains(&SyscallNo::Openat));
        assert!(loading.contains(&SyscallNo::Ioctl));
        assert!(!viz.is_empty() && viz.contains(&SyscallNo::Connect));
        assert!(!processing.contains(&SyscallNo::Send));
        assert!(!processing.contains(&SyscallNo::Connect));
        assert!(storing.contains(&SyscallNo::Write));
        assert!(!storing.contains(&SyscallNo::Send));
        // Nobody needs fork or kill — the fork-bomb mitigation.
        for set in per_type.values() {
            assert!(!set.contains(&SyscallNo::Fork));
            assert!(!set.contains(&SyscallNo::Kill));
        }
    }

    #[test]
    fn mean_per_api_is_single_digit() {
        let reg = standard_registry();
        let profile = SyscallProfile::build(&reg, &TestCorpus::full(&reg));
        let mean = profile.mean_per_api();
        assert!((2.0..=10.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn union_of_merges_sets() {
        let reg = standard_registry();
        let profile = SyscallProfile::build(&reg, &TestCorpus::full(&reg));
        let a = reg.id_of("cv2.imread").unwrap();
        let b = reg.id_of("cv2.VideoCapture").unwrap();
        let union = profile.union_of([a, b]);
        assert!(union.len() >= profile.of(a).len());
        assert!(union.contains(&SyscallNo::Ioctl));
    }
}
