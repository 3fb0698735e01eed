//! The evaluation image profiles: the micro-library set and the
//! compartmentalization models of the paper's §4.
//!
//! Library inventory (Unikraft naming): the application, `libc`
//! (newlib-role; semaphores live here — the root of Figure 5's
//! surprise), `lwip` (network stack), `uksched` (plain or verified
//! scheduler), `ukalloc` (memory manager), `uknetdev` (driver).
//!
//! Compartment models from §4 "Redis: Isolation Strategies":
//! `{NW stack, rest}` (NW only), `{NW, sched, rest}` (NW/sched/rest),
//! `{NW + sched, rest}` (NW and sched/rest), plus the no-isolation
//! baseline; and §4 "Safe iperf"'s two-compartment MPK/VM images.

use flexos::build::{BackendChoice, ImageConfig, LibRole, LibraryConfig};
use flexos::spec::{
    parse_with_name, Analysis, ApiFunc, CallBehavior, Grant, GrantKind, LibSpec, MemBehavior,
    Region, Requires, ShMechanism, ShSet,
};

/// Which scheduler implementation an image runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedKind {
    /// The plain C-style cooperative scheduler (76.6 ns switches).
    Coop,
    /// The contract-checked verified scheduler (218.6 ns switches).
    Verified,
}

/// The GCC hardening set the paper's SH experiments enable
/// (KASAN + stack protector + UBSAN, §3).
pub fn gcc_sh() -> ShSet {
    ShSet::of([
        ShMechanism::Asan,
        ShMechanism::StackProtector,
        ShMechanism::Ubsan,
    ])
}

/// The application library (`iperf` or `redis`): unsafe C, calls the
/// socket API through libc.
pub fn lib_app(name: &str) -> LibraryConfig {
    let spec = parse_with_name(
        "[Memory access] Read(*); Write(*)\n\
         [Call] libc::recv, libc::send, libc::malloc, libc::free, libc::memcpy\n\
         [API] main()",
        name,
    )
    .expect("static spec parses");
    LibraryConfig::new(spec, LibRole::App).with_analysis(Analysis::well_behaved())
}

/// The standard C library: unsafe C; exposes memcpy/malloc/semaphores.
pub fn lib_libc() -> LibraryConfig {
    let spec = parse_with_name(
        "[Memory access] Read(*); Write(*)\n\
         [Call] lwip::lwip_recv, lwip::lwip_send, ukalloc::palloc, uksched::yield\n\
         [API] recv(); send(); memcpy(); malloc(); free(); sem_down(); sem_up()",
        "libc",
    )
    .expect("static spec parses");
    LibraryConfig::new(spec, LibRole::LibC).with_analysis(Analysis::well_behaved())
}

/// The network stack (lwIP role): the canonical *untrusted* component of
/// the paper's iperf experiment.
pub fn lib_netstack() -> LibraryConfig {
    let spec = parse_with_name(
        "[Memory access] Read(*); Write(*)\n\
         [Call] uknetdev::xmit, uknetdev::recv, libc::sem_up, libc::sem_down, ukalloc::palloc\n\
         [API] lwip_listen(); lwip_accept(); lwip_recv(); lwip_send(); lwip_close()",
        "lwip",
    )
    .expect("static spec parses");
    LibraryConfig::new(spec, LibRole::NetStack).with_analysis(Analysis::well_behaved())
}

/// The scheduler micro-library. The verified flavour carries the paper's
/// grant-listed spec; the plain C flavour is adversarial like any
/// unverified C component.
pub fn lib_sched(kind: SchedKind) -> LibraryConfig {
    let spec = match kind {
        SchedKind::Verified => LibSpec::verified_scheduler(),
        SchedKind::Coop => LibSpec {
            name: "uksched".into(),
            mem: MemBehavior::adversarial(),
            call: CallBehavior::funcs([("ukalloc", "palloc"), ("ukalloc", "pfree")]),
            api: vec![
                ApiFunc::named("thread_add"),
                ApiFunc::named("thread_rm"),
                ApiFunc::named("yield"),
            ],
            requires: Requires::unconstrained(),
        },
    };
    LibraryConfig::new(spec, LibRole::Scheduler).with_analysis(Analysis::well_behaved())
}

/// The memory manager (`ukalloc`): trusted under MPK (owns the page
/// tables), so modelled as well-behaved with a grant-listed spec.
pub fn lib_alloc() -> LibraryConfig {
    let spec = LibSpec {
        name: "ukalloc".into(),
        mem: MemBehavior::well_behaved(),
        call: CallBehavior::none(),
        api: vec![ApiFunc::named("palloc"), ApiFunc::named("pfree")],
        requires: Requires::granting(vec![
            Grant::any(GrantKind::Read(Region::Own)),
            Grant::any(GrantKind::Read(Region::Shared)),
            Grant::any(GrantKind::Write(Region::Shared)),
            Grant::any(GrantKind::Call("palloc".into())),
            Grant::any(GrantKind::Call("pfree".into())),
        ]),
    };
    LibraryConfig::new(spec, LibRole::MemoryManager).with_analysis(Analysis::well_behaved())
}

/// The network driver (`uknetdev`, virtio-net role).
pub fn lib_driver() -> LibraryConfig {
    let spec = parse_with_name(
        "[Memory access] Read(*); Write(*)\n\
         [Call] ukalloc::palloc\n\
         [API] xmit(); recv(); configure()",
        "uknetdev",
    )
    .expect("static spec parses");
    LibraryConfig::new(spec, LibRole::Driver).with_analysis(Analysis::well_behaved())
}

/// A compartmentalization model from the paper's §4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompartmentModel {
    /// No isolation (baseline): everything in one domain.
    Baseline,
    /// `{NW stack} | {rest of the system}` — "NW only".
    NwOnly,
    /// `{NW} | {sched} | {rest}` — "NW/sched/rest".
    NwSchedRest,
    /// `{NW + sched} | {rest}` — "NW and sched/rest".
    NwAndSchedRest,
}

impl CompartmentModel {
    /// All models, in the order Figure 5 plots them.
    pub const ALL: [CompartmentModel; 4] = [
        CompartmentModel::Baseline,
        CompartmentModel::NwOnly,
        CompartmentModel::NwSchedRest,
        CompartmentModel::NwAndSchedRest,
    ];

    /// The label used in the figures.
    pub fn label(self) -> &'static str {
        match self {
            CompartmentModel::Baseline => "No Isol.",
            CompartmentModel::NwOnly => "NW-only",
            CompartmentModel::NwSchedRest => "NW/Sched/Rest",
            CompartmentModel::NwAndSchedRest => "NW+Sched/Rest",
        }
    }
}

/// [`BackendChoice::tag`] of the backend an image was built with — the
/// `backend` key of the request-latency rows. The baseline model always
/// compiles to direct calls regardless of the requested backend
/// (mirroring [`evaluation_image`]'s override).
pub fn backend_tag(model: CompartmentModel, backend: BackendChoice) -> &'static str {
    if model == CompartmentModel::Baseline {
        return BackendChoice::None.tag();
    }
    backend.tag()
}

/// Builds the six-library evaluation image for `app` under a
/// compartment model and backend.
///
/// Compartment numbering: 0 = rest of the system (app, libc, alloc,
/// driver), then the model's extra compartments.
pub fn evaluation_image(
    app: &str,
    model: CompartmentModel,
    backend: BackendChoice,
    sched: SchedKind,
) -> ImageConfig {
    let backend = if model == CompartmentModel::Baseline {
        BackendChoice::None
    } else {
        backend
    };
    let (net_c, sched_c) = match model {
        CompartmentModel::Baseline => (0, 0),
        CompartmentModel::NwOnly => (1, 0),
        CompartmentModel::NwSchedRest => (1, 2),
        CompartmentModel::NwAndSchedRest => (1, 1),
    };
    ImageConfig::new(format!("{app}-{}", model.label()), backend)
        .with_library(lib_app(app).in_compartment(0))
        .with_library(lib_libc().in_compartment(0))
        .with_library(lib_alloc().in_compartment(0))
        .with_library(lib_driver().in_compartment(0))
        .with_library(lib_netstack().in_compartment(net_c))
        .with_library(lib_sched(sched).in_compartment(sched_c))
}

/// Applies the GCC SH set to the library called `name` (Table 1 / Fig. 4
/// toggles), leaving placement untouched.
pub fn harden(mut cfg: ImageConfig, name: &str) -> ImageConfig {
    for lib in &mut cfg.libraries {
        if lib.spec.name == name {
            lib.sh = gcc_sh();
        }
    }
    cfg
}

/// Applies the GCC SH set to every library ("SH for the entire system",
/// Table 1's last row).
pub fn harden_all(mut cfg: ImageConfig) -> ImageConfig {
    for lib in &mut cfg.libraries {
        lib.sh = gcc_sh();
    }
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexos::build::plan;

    #[test]
    fn baseline_collapses_to_one_compartment() {
        let cfg = evaluation_image(
            "iperf",
            CompartmentModel::Baseline,
            BackendChoice::MpkShared,
            SchedKind::Coop,
        );
        let p = plan(cfg).unwrap();
        assert_eq!(p.num_compartments, 1);
        assert_eq!(p.config.backend, BackendChoice::None);
    }

    #[test]
    fn nw_only_isolates_the_stack() {
        let cfg = evaluation_image(
            "iperf",
            CompartmentModel::NwOnly,
            BackendChoice::MpkShared,
            SchedKind::Coop,
        );
        let p = plan(cfg).unwrap();
        assert_eq!(p.num_compartments, 2);
        let net = p.compartment_of_role(LibRole::NetStack).unwrap();
        let app = p.compartment_of_role(LibRole::App).unwrap();
        let sched = p.compartment_of_role(LibRole::Scheduler).unwrap();
        assert_ne!(net, app);
        assert_eq!(sched, app);
    }

    #[test]
    fn nw_sched_rest_uses_three_compartments() {
        let cfg = evaluation_image(
            "redis",
            CompartmentModel::NwSchedRest,
            BackendChoice::MpkSwitched,
            SchedKind::Coop,
        );
        let p = plan(cfg).unwrap();
        assert_eq!(p.num_compartments, 3);
        let net = p.compartment_of_role(LibRole::NetStack).unwrap();
        let sched = p.compartment_of_role(LibRole::Scheduler).unwrap();
        assert_ne!(net, sched);
    }

    #[test]
    fn nw_and_sched_share_a_compartment() {
        let cfg = evaluation_image(
            "redis",
            CompartmentModel::NwAndSchedRest,
            BackendChoice::MpkShared,
            SchedKind::Coop,
        );
        let p = plan(cfg).unwrap();
        assert_eq!(p.num_compartments, 2);
        let net = p.compartment_of_role(LibRole::NetStack).unwrap();
        let sched = p.compartment_of_role(LibRole::Scheduler).unwrap();
        assert_eq!(net, sched);
        // LibC stays in "rest" — the semaphores are elsewhere.
        let libc_idx = p
            .config
            .libraries
            .iter()
            .position(|l| l.spec.name == "libc")
            .unwrap();
        assert_ne!(p.compartment_of[libc_idx], net);
    }

    #[test]
    fn harden_targets_one_library() {
        let cfg = harden(
            evaluation_image(
                "iperf",
                CompartmentModel::Baseline,
                BackendChoice::None,
                SchedKind::Coop,
            ),
            "lwip",
        );
        let p = plan(cfg).unwrap();
        // The lwip library carries SH; others do not.
        for lib in &p.config.libraries {
            assert_eq!(!lib.sh.is_empty(), lib.spec.name == "lwip");
        }
        assert!(p.compartment_sh[0].has(ShMechanism::Asan));
    }

    #[test]
    fn harden_all_covers_every_library() {
        let cfg = harden_all(evaluation_image(
            "iperf",
            CompartmentModel::Baseline,
            BackendChoice::None,
            SchedKind::Coop,
        ));
        assert!(cfg.libraries.iter().all(|l| !l.sh.is_empty()));
    }

    #[test]
    fn verified_scheduler_spec_conflicts_with_unsafe_neighbours() {
        // Under an isolating backend with *automatic* placement, the
        // verified scheduler would demand separation; the manual models
        // pin it, and audit would flag the baseline (warnings).
        let cfg = evaluation_image(
            "iperf",
            CompartmentModel::Baseline,
            BackendChoice::None,
            SchedKind::Verified,
        );
        let p = plan(cfg).unwrap();
        assert!(!p.report.warnings.is_empty());
    }
}
