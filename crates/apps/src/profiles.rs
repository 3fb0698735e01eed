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

use flexos::build::{BackendChoice, ImageConfig, ImagePlan, LibRole, LibraryConfig};
use flexos::spec::{
    Analysis, ApiFunc, CallBehavior, Grant, GrantKind, LibSpec, MemBehavior, Region, Requires,
    ShMechanism, ShSet,
};
use std::cell::RefCell;
use std::rc::Rc;

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

/// The library of `role` called `name`, well-behaved under analysis,
/// with the spec `build` makes: built on this thread's first ask for
/// `(role, name)` and shared by every image the thread configures after
/// (DESIGN.md §6.27).
fn held(role: LibRole, name: &str, build: impl FnOnce() -> LibSpec) -> LibraryConfig {
    thread_local! {
        static HELD: RefCell<Vec<(LibRole, Rc<LibSpec>)>> = const { RefCell::new(Vec::new()) };
    }
    let spec = HELD.with_borrow_mut(|held| {
        let at = held.iter().position(|(r, s)| *r == role && s.name == name);
        let at = at.unwrap_or_else(|| {
            held.push((role, Rc::new(build())));
            held.len() - 1
        });
        Rc::clone(&held[at].1)
    });
    LibraryConfig::new(spec, role).with_analysis(Analysis::well_behaved())
}

/// The application library (`iperf` or `redis`): unsafe C, calls the
/// socket API through libc.
pub fn lib_app(name: &str) -> LibraryConfig {
    held(LibRole::App, name, || LibSpec {
        name: name.into(),
        mem: MemBehavior::adversarial(),
        call: CallBehavior::funcs(
            ["recv", "send", "malloc", "free", "memcpy"].map(|f| ("libc", f)),
        ),
        api: vec![ApiFunc::named("main")],
        requires: Requires::unconstrained(),
    })
}

/// The standard C library: unsafe C; exposes memcpy/malloc/semaphores.
pub fn lib_libc() -> LibraryConfig {
    held(LibRole::LibC, "libc", || LibSpec {
        name: "libc".into(),
        mem: MemBehavior::adversarial(),
        call: CallBehavior::funcs([
            ("lwip", "lwip_recv"),
            ("lwip", "lwip_send"),
            ("ukalloc", "palloc"),
            ("uksched", "yield"),
        ]),
        api: [
            "recv", "send", "memcpy", "malloc", "free", "sem_down", "sem_up",
        ]
        .map(ApiFunc::named)
        .into(),
        requires: Requires::unconstrained(),
    })
}

/// The network stack (lwIP role): the canonical *untrusted* component of
/// the paper's iperf experiment.
pub fn lib_netstack() -> LibraryConfig {
    held(LibRole::NetStack, "lwip", || LibSpec {
        name: "lwip".into(),
        mem: MemBehavior::adversarial(),
        call: CallBehavior::funcs([
            ("uknetdev", "xmit"),
            ("uknetdev", "recv"),
            ("libc", "sem_up"),
            ("libc", "sem_down"),
            ("ukalloc", "palloc"),
        ]),
        api: [
            "lwip_listen",
            "lwip_accept",
            "lwip_recv",
            "lwip_send",
            "lwip_close",
        ]
        .map(ApiFunc::named)
        .into(),
        requires: Requires::unconstrained(),
    })
}

/// The scheduler micro-library. The verified flavour carries the paper's
/// grant-listed spec; the plain C flavour is adversarial like any
/// unverified C component.
pub fn lib_sched(kind: SchedKind) -> LibraryConfig {
    match kind {
        SchedKind::Verified => held(
            LibRole::Scheduler,
            LibSpec::VERIFIED_SCHEDULER,
            LibSpec::verified_scheduler,
        ),
        SchedKind::Coop => held(LibRole::Scheduler, "uksched", || LibSpec {
            name: "uksched".into(),
            mem: MemBehavior::adversarial(),
            call: CallBehavior::funcs([("ukalloc", "palloc"), ("ukalloc", "pfree")]),
            api: vec![
                ApiFunc::named("thread_add"),
                ApiFunc::named("thread_rm"),
                ApiFunc::named("yield"),
            ],
            requires: Requires::unconstrained(),
        }),
    }
}

impl SchedKind {
    /// The scheduler `plan` runs: [`SchedKind::Verified`] exactly when its
    /// scheduler library is the one [`lib_sched`] picks for it.
    pub fn of(plan: &ImagePlan) -> SchedKind {
        let is_verified = |l: &LibraryConfig| {
            l.role == LibRole::Scheduler && l.spec.name == LibSpec::VERIFIED_SCHEDULER
        };
        if plan.config.libraries.iter().any(is_verified) {
            SchedKind::Verified
        } else {
            SchedKind::Coop
        }
    }
}

/// The memory manager (`ukalloc`): trusted under MPK (owns the page
/// tables), so modelled as well-behaved with a grant-listed spec.
pub fn lib_alloc() -> LibraryConfig {
    held(LibRole::MemoryManager, "ukalloc", || LibSpec {
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
    })
}

/// The network driver (`uknetdev`, virtio-net role).
pub fn lib_driver() -> LibraryConfig {
    held(LibRole::Driver, "uknetdev", || LibSpec {
        name: "uknetdev".into(),
        mem: MemBehavior::adversarial(),
        call: CallBehavior::funcs([("ukalloc", "palloc")]),
        api: ["xmit", "recv", "configure"].map(ApiFunc::named).into(),
        requires: Requires::unconstrained(),
    })
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
    use flexos::spec::parse_with_name;
    use flexos_trace::Label;

    /// The texts the four constant specs were parsed from until they were
    /// built as values; each value must stay equal to its parse.
    const APP: &str = "[Memory access] Read(*); Write(*)\n\
         [Call] libc::recv, libc::send, libc::malloc, libc::free, libc::memcpy\n\
         [API] main()";
    const LIBC: &str = "[Memory access] Read(*); Write(*)\n\
         [Call] lwip::lwip_recv, lwip::lwip_send, ukalloc::palloc, uksched::yield\n\
         [API] recv(); send(); memcpy(); malloc(); free(); sem_down(); sem_up()";
    const NETSTACK: &str = "[Memory access] Read(*); Write(*)\n\
         [Call] uknetdev::xmit, uknetdev::recv, libc::sem_up, libc::sem_down, ukalloc::palloc\n\
         [API] lwip_listen(); lwip_accept(); lwip_recv(); lwip_send(); lwip_close()";
    const NETDEV: &str = "[Memory access] Read(*); Write(*)\n\
         [Call] ukalloc::palloc\n\
         [API] xmit(); recv(); configure()";

    fn parsed(text: &str, name: &str) -> LibSpec {
        parse_with_name(text, name).expect("the spec text parses")
    }

    /// Each value equals its parse, and a second call hands back the
    /// value the first built for this thread, not a copy.
    #[test]
    fn each_constant_spec_equals_the_parse_of_its_text() {
        let held = |make: &dyn Fn() -> LibraryConfig| {
            let (first, second) = (make(), make());
            assert!(Rc::ptr_eq(&first.spec, &second.spec), "{}", first.spec.name);
            first.spec
        };
        assert_eq!(*held(&lib_libc), parsed(LIBC, "libc"));
        assert_eq!(*held(&lib_netstack), parsed(NETSTACK, "lwip"));
        assert_eq!(*held(&lib_driver), parsed(NETDEV, "uknetdev"));
        // Every name an image gives its application library: the two
        // benchmarks, the serving tier's proxy and each of its shards.
        let shards = Label::SHARDS.map(Label::as_str);
        for name in ["redis", "iperf", "proxy"].into_iter().chain(shards) {
            assert_eq!(*held(&|| lib_app(name)), parsed(APP, name), "{name}");
        }
        // The held specs with no text of their own.
        let verified = held(&|| lib_sched(SchedKind::Verified));
        assert_eq!(*verified, LibSpec::verified_scheduler());
        assert_eq!(held(&|| lib_sched(SchedKind::Coop)).name, "uksched");
        assert_eq!(held(&lib_alloc).name, "ukalloc");
    }

    /// Two plans of one evaluation image hold the same six specs: neither
    /// the configuration nor the plan copied one.
    #[test]
    fn two_plans_of_one_image_share_every_spec() {
        let image = || {
            evaluation_image(
                "redis",
                CompartmentModel::NwSchedRest,
                BackendChoice::VmRpc,
                SchedKind::Coop,
            )
        };
        let (a, b) = (plan(image()).unwrap(), plan(image()).unwrap());
        assert_eq!(a.config.libraries.len(), 6);
        for (x, y) in a.config.libraries.iter().zip(&b.config.libraries) {
            assert!(Rc::ptr_eq(&x.spec, &y.spec), "{}", x.spec.name);
        }
    }

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
