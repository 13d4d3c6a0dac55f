//! The caf-check oracle at the task executor's scale: a checked
//! RandomAccess at P=256 images on both substrates. Its own binary, so
//! the seconds a 256-image job takes do not sit in the `check_clean`
//! suite.

use caf::{CafConfig, ExecConfig, GasnetConfig, SubstrateKind};
use caf_bench::checked::checked_run;
use caf_bench::fast;

/// The oracle at the executor's scale: the paper's RandomAccess at
/// P=256 images run as caf-sched tasks, recorded and replayed on both
/// substrates. Few updates and a 64 KiB GASNet segment per image keep it
/// to seconds and under 100 MiB; the replay must see every event (no ring
/// wrapped) and flag nothing.
#[test]
fn randomaccess_at_p256_under_the_task_executor_is_clean() {
    const P: usize = 256;
    for kind in [SubstrateKind::Mpi, SubstrateKind::Gasnet] {
        let gasnet = GasnetConfig { segment_size: 64 << 10, ..GasnetConfig::default() };
        let cfg = CafConfig { exec: ExecConfig::tasks(), gasnet, ..fast(kind) };
        let report = checked_run(P, cfg, |img| {
            caf_hpcc::ra::run(img, &img.team_world(), 6, 64);
        });
        assert_eq!(report.dropped, 0, "{kind:?}: {}", report.render());
        assert!(report.is_clean(), "{kind:?}: {}", report.render());
        assert!(!report.edges.is_empty(), "{kind:?}: the replay saw no edges");
    }
}

