//! Data model of the FlexOS library-metadata language.
//!
//! The paper (§2) attaches to every micro-library a description of:
//!
//! 1. its **memory-access behaviour** — which memory it reads/writes, in
//!    normal *and adversarial* operation (`[Memory access]`),
//! 2. which **functions it calls** (`[Call]`),
//! 3. which functions it **exposes as API** (`[API]`),
//! 4. what it **requires** from libraries co-located in the same
//!    compartment for its own safety properties to hold (`[Requires]`).
//!
//! The paper's verified-scheduler example:
//!
//! ```text
//! [Memory access] Read(Own,Shared); Write(Own,Shared)
//! [Call] alloc::malloc, alloc::free
//! [API] thread_add(...); thread_rm(...); yield(...)
//! [Requires] *(Read,Own), *(Write,Shared), *(Call, thread_add), *...
//! ```
//!
//! and the unsafe-C example:
//!
//! ```text
//! [Memory access] Read(*); Write(*)
//! [Call] *
//! ```
//!
//! Semantics captured here:
//!
//! * Regions are **relative to the declaring library**: `Own` is its
//!   private data, `Shared` the cross-library shared segment. `*` means
//!   the library may touch *anything reachable in its compartment* —
//!   including other libraries' `Own` memory (e.g. when hijacked).
//! * `[Requires]` is a **grant list**: it whitelists what co-located
//!   libraries may do *to this library* (read/write its regions, call its
//!   entry points). Absence of a `[Requires]` section grants everything —
//!   "this means other libraries should not be prevented from writing to
//!   memory owned by this library" (paper §2).

use std::collections::BTreeSet;
use std::fmt;

/// A memory region, relative to the library declaring the spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Region {
    /// The library's private data (static memory, its heap objects).
    Own,
    /// The cross-library shared segment.
    Shared,
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Region::Own => write!(f, "Own"),
            Region::Shared => write!(f, "Shared"),
        }
    }
}

/// A set of regions a library may access — either an explicit subset of
/// `{Own, Shared}` or the wildcard `*` ("anything reachable in the
/// compartment", the adversarial case).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RegionSet {
    /// `*`: may touch any memory reachable in the compartment.
    Star,
    /// An explicit set of self-relative regions.
    Set(BTreeSet<Region>),
}

impl RegionSet {
    /// The empty set (the library never performs this kind of access).
    pub fn none() -> Self {
        RegionSet::Set(BTreeSet::new())
    }

    /// `{Own}`.
    pub fn own() -> Self {
        RegionSet::Set([Region::Own].into())
    }

    /// `{Shared}`.
    pub fn shared() -> Self {
        RegionSet::Set([Region::Shared].into())
    }

    /// `{Own, Shared}` — the well-behaved maximum.
    pub fn own_and_shared() -> Self {
        RegionSet::Set([Region::Own, Region::Shared].into())
    }

    /// Whether the set is the wildcard.
    pub fn is_star(&self) -> bool {
        matches!(self, RegionSet::Star)
    }

    /// Whether the set contains `r` (wildcard contains everything).
    pub fn contains(&self, r: Region) -> bool {
        match self {
            RegionSet::Star => true,
            RegionSet::Set(s) => s.contains(&r),
        }
    }

    /// Whether `self` is a subset of `other`.
    pub fn subset_of(&self, other: &RegionSet) -> bool {
        match (self, other) {
            (_, RegionSet::Star) => true,
            (RegionSet::Star, RegionSet::Set(_)) => false,
            (RegionSet::Set(a), RegionSet::Set(b)) => a.is_subset(b),
        }
    }
}

/// Declared memory-access behaviour (`[Memory access]` section).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MemBehavior {
    /// Regions the library may read.
    pub read: RegionSet,
    /// Regions the library may write.
    pub write: RegionSet,
}

impl MemBehavior {
    /// Well-behaved: reads and writes confined to own + shared memory.
    pub fn well_behaved() -> Self {
        Self {
            read: RegionSet::own_and_shared(),
            write: RegionSet::own_and_shared(),
        }
    }

    /// Adversarial: `Read(*); Write(*)` — may be hijacked into touching
    /// anything reachable.
    pub fn adversarial() -> Self {
        Self {
            read: RegionSet::Star,
            write: RegionSet::Star,
        }
    }
}

/// A reference to a function in a (possibly other) library, `lib::func`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncRef {
    /// The library exposing the function.
    pub lib: String,
    /// The function name.
    pub func: String,
}

impl FuncRef {
    /// Builds a `lib::func` reference.
    pub fn new(lib: impl Into<String>, func: impl Into<String>) -> Self {
        Self {
            lib: lib.into(),
            func: func.into(),
        }
    }
}

impl fmt::Display for FuncRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}::{}", self.lib, self.func)
    }
}

/// Declared call behaviour (`[Call]` section).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CallBehavior {
    /// `*`: may execute arbitrary code / call anything (hijackable).
    Star,
    /// Calls only the listed functions.
    Funcs(BTreeSet<FuncRef>),
}

impl CallBehavior {
    /// The empty call set (leaf library).
    pub fn none() -> Self {
        CallBehavior::Funcs(BTreeSet::new())
    }

    /// Builds a call set from `lib::func` pairs.
    pub fn funcs<I, L, F>(items: I) -> Self
    where
        I: IntoIterator<Item = (L, F)>,
        L: Into<String>,
        F: Into<String>,
    {
        CallBehavior::Funcs(items.into_iter().map(|(l, f)| FuncRef::new(l, f)).collect())
    }

    /// Whether the behaviour is the wildcard.
    pub fn is_star(&self) -> bool {
        matches!(self, CallBehavior::Star)
    }
}

/// A function exposed by the library (`[API]` section).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ApiFunc {
    /// Function name.
    pub name: String,
    /// Parameter names (informational; used by gate marshalling docs).
    pub params: Vec<String>,
    /// Human-readable preconditions (paper §2 "Handling pre and post
    /// conditions": e.g. `thread_add` must not add an already-added
    /// thread). The build system decides whether to insert runtime checks
    /// for these at gate boundaries.
    pub preconditions: Vec<String>,
}

impl ApiFunc {
    /// An API function with no declared parameters or preconditions.
    pub fn named(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            params: Vec::new(),
            preconditions: Vec::new(),
        }
    }
}

/// What kinds of access a `[Requires]` grant permits on the declaring
/// library.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GrantKind {
    /// `(Read, R)`: others may read region `R` of this library.
    Read(Region),
    /// `(Write, R)`: others may write region `R` of this library.
    Write(Region),
    /// `(Call, f)`: others may call entry point `f` of this library.
    Call(String),
    /// `(Call, *)`: others may call any entry point.
    CallAny,
}

/// Who a grant applies to.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GrantSubject {
    /// `*`: any co-located library.
    Any,
    /// A specific library by name.
    Lib(String),
}

/// One entry of the `[Requires]` section: `subject(kind)`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Grant {
    /// Which co-located libraries the grant applies to.
    pub subject: GrantSubject,
    /// What is being permitted.
    pub kind: GrantKind,
}

impl Grant {
    /// `*(kind)` — grant to any co-located library.
    pub fn any(kind: GrantKind) -> Self {
        Self {
            subject: GrantSubject::Any,
            kind,
        }
    }

    /// Whether this grant applies to the library named `lib`.
    pub fn applies_to(&self, lib: &str) -> bool {
        match &self.subject {
            GrantSubject::Any => true,
            GrantSubject::Lib(l) => l == lib,
        }
    }
}

/// The `[Requires]` section: `None` means the section is absent, which
/// per the paper grants everything ("other libraries should not be
/// prevented from writing to memory owned by this library").
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Requires {
    /// The grant whitelist; `None` = unconstrained (grants everything).
    pub grants: Option<Vec<Grant>>,
}

impl Requires {
    /// An absent `[Requires]` section (grants everything).
    pub fn unconstrained() -> Self {
        Self { grants: None }
    }

    /// A grant whitelist.
    pub fn granting(grants: Vec<Grant>) -> Self {
        Self {
            grants: Some(grants),
        }
    }

    /// Whether this library constrains its co-residents at all.
    pub fn is_constrained(&self) -> bool {
        self.grants.is_some()
    }

    /// Whether `lib` is granted `kind` by this requires-section.
    pub fn permits(&self, lib: &str, kind: &GrantKind) -> bool {
        match &self.grants {
            None => true,
            Some(grants) => grants.iter().any(|g| {
                g.applies_to(lib)
                    && (g.kind == *kind
                        || matches!((&g.kind, kind), (GrantKind::CallAny, GrantKind::Call(_))))
            }),
        }
    }
}

/// A complete library specification.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LibSpec {
    /// The library's name (Unikraft micro-library granularity, e.g.
    /// `uknetdev`, `uksched`, `libc`).
    pub name: String,
    /// `[Memory access]`.
    pub mem: MemBehavior,
    /// `[Call]`.
    pub call: CallBehavior,
    /// `[API]`.
    pub api: Vec<ApiFunc>,
    /// `[Requires]`.
    pub requires: Requires,
}

impl LibSpec {
    /// A conservative spec for a library written in an unsafe language
    /// with no analysis available: it may do anything and demands nothing.
    pub fn unsafe_c(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            mem: MemBehavior::adversarial(),
            call: CallBehavior::Star,
            api: Vec::new(),
            requires: Requires::unconstrained(),
        }
    }

    /// The name [`LibSpec::verified_scheduler`] gives its library.
    pub const VERIFIED_SCHEDULER: &'static str = "uksched_verified";

    /// The paper's verified-scheduler spec.
    pub fn verified_scheduler() -> Self {
        Self {
            name: Self::VERIFIED_SCHEDULER.into(),
            mem: MemBehavior::well_behaved(),
            call: CallBehavior::funcs([("alloc", "malloc"), ("alloc", "free")]),
            api: vec![
                ApiFunc {
                    name: "thread_add".into(),
                    params: vec!["thread".into()],
                    preconditions: vec!["thread not already added".into()],
                },
                ApiFunc::named("thread_rm"),
                ApiFunc::named("yield"),
            ],
            requires: Requires::granting(vec![
                Grant::any(GrantKind::Read(Region::Own)),
                Grant::any(GrantKind::Write(Region::Shared)),
                Grant::any(GrantKind::Read(Region::Shared)),
                Grant::any(GrantKind::Call("thread_add".into())),
                Grant::any(GrantKind::Call("thread_rm".into())),
                Grant::any(GrantKind::Call("yield".into())),
            ]),
        }
    }

    /// Whether `func` is one of this library's exposed API entry points.
    pub fn exposes(&self, func: &str) -> bool {
        self.api.iter().any(|a| a.name == func)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_set_subset_lattice() {
        assert!(RegionSet::none().subset_of(&RegionSet::own()));
        assert!(RegionSet::own().subset_of(&RegionSet::own_and_shared()));
        assert!(RegionSet::own_and_shared().subset_of(&RegionSet::Star));
        assert!(!RegionSet::Star.subset_of(&RegionSet::own_and_shared()));
        assert!(!RegionSet::shared().subset_of(&RegionSet::own()));
    }

    #[test]
    fn star_contains_everything() {
        assert!(RegionSet::Star.contains(Region::Own));
        assert!(RegionSet::Star.contains(Region::Shared));
        assert!(!RegionSet::none().contains(Region::Own));
    }

    #[test]
    fn unconstrained_requires_permits_all() {
        let r = Requires::unconstrained();
        assert!(r.permits("anything", &GrantKind::Write(Region::Own)));
        assert!(r.permits("x", &GrantKind::Call("foo".into())));
    }

    #[test]
    fn grant_whitelist_is_exact() {
        let r = Requires::granting(vec![Grant::any(GrantKind::Read(Region::Own))]);
        assert!(r.permits("x", &GrantKind::Read(Region::Own)));
        assert!(!r.permits("x", &GrantKind::Write(Region::Own)));
        assert!(!r.permits("x", &GrantKind::Read(Region::Shared)));
    }

    #[test]
    fn call_any_grant_covers_specific_calls() {
        let r = Requires::granting(vec![Grant::any(GrantKind::CallAny)]);
        assert!(r.permits("x", &GrantKind::Call("thread_add".into())));
    }

    #[test]
    fn lib_scoped_grants_only_apply_to_that_lib() {
        let r = Requires::granting(vec![Grant {
            subject: GrantSubject::Lib("libc".into()),
            kind: GrantKind::Write(Region::Own),
        }]);
        assert!(r.permits("libc", &GrantKind::Write(Region::Own)));
        assert!(!r.permits("netstack", &GrantKind::Write(Region::Own)));
    }

    #[test]
    fn paper_specs_have_expected_shape() {
        let sched = LibSpec::verified_scheduler();
        assert!(sched.requires.is_constrained());
        assert!(sched.exposes("thread_add"));
        assert!(!sched.exposes("malloc"));

        let c = LibSpec::unsafe_c("rawlib");
        assert!(c.mem.read.is_star());
        assert!(c.call.is_star());
        assert!(!c.requires.is_constrained());
    }
}
