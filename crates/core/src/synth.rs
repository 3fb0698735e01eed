//! Synthetic large-image generation for benchmarks and stress tests.
//!
//! The paper's running example has a handful of micro-libraries; real
//! unikernel images (and the exploration benchmarks) need bigger design
//! spaces. [`synthetic_image`] builds a deterministic image of `n_libs`
//! micro-libraries — a verified scheduler, more verified libraries, and
//! `toggleable` unsafe C libraries (the ones with a non-empty SH
//! suggestion, i.e. the ones that double the candidate space each) —
//! plus a matching [`CallProfile`] with pseudo-random per-request call
//! counts and base work.
//!
//! Generation is seeded (the machine's [`SplitMix64`]) and uses no
//! global state: the same `(n_libs, toggleable, seed)` always produces
//! the same image, so benchmark runs and determinism tests are
//! reproducible.

use crate::build::{BackendChoice, ImageConfig, LibRole, LibraryConfig};
use crate::explore::CallProfile;
use crate::spec::model::LibSpec;
use crate::spec::transform::Analysis;
use flexos_machine::SplitMix64;

/// A draw in `[lo, hi)`.
fn range(rng: &mut SplitMix64, lo: u64, hi: u64) -> u64 {
    lo + rng.below(hi - lo)
}

/// A generated image plus the workload profile to cost it under.
#[derive(Debug, Clone)]
pub struct SyntheticImage {
    /// The image configuration (backend [`BackendChoice::None`]; the
    /// exploration engine substitutes backends per candidate).
    pub config: ImageConfig,
    /// A per-request call/work profile over the image's libraries.
    pub profile: CallProfile,
}

/// Builds a synthetic image of `n_libs` micro-libraries, `toggleable` of
/// which are unsafe C libraries carrying an SH suggestion (so the
/// explored candidate space has `2^toggleable` hardening masks per
/// backend). Library 0 is always the verified scheduler; the remaining
/// verified libraries get unique names. The profile gives every library
/// base work, calls into the scheduler, and a call ring between
/// neighbours.
///
/// # Panics
///
/// Panics if `toggleable > 12` (the exploration bound) or
/// `toggleable >= n_libs` (library 0 is always the verified scheduler).
pub fn synthetic_image(n_libs: usize, toggleable: usize, seed: u64) -> SyntheticImage {
    assert!(toggleable <= 12, "SH toggle space too large to explore");
    assert!(toggleable < n_libs, "need room for the verified scheduler");
    let mut rng = SplitMix64::new(seed);

    let mut config = ImageConfig::new(
        format!("synthetic-{n_libs}libs-{toggleable}sh"),
        BackendChoice::None,
    );
    // Spread the unsafe libraries evenly through positions 1..n_libs
    // instead of clustering them at one end.
    let unsafe_slots: std::collections::BTreeSet<usize> = (0..toggleable)
        .map(|k| 1 + k * (n_libs - 1) / toggleable.max(1))
        .collect();
    assert_eq!(
        unsafe_slots.len(),
        toggleable,
        "even spacing yields distinct slots"
    );

    let mut names = Vec::with_capacity(n_libs);
    for i in 0..n_libs {
        let unsafe_slot = unsafe_slots.contains(&i);
        let lib = if i == 0 {
            LibraryConfig::new(LibSpec::verified_scheduler(), LibRole::Scheduler)
        } else if unsafe_slot {
            LibraryConfig::new(LibSpec::unsafe_c(format!("unsafelib{i}")), LibRole::Other)
                .with_analysis(Analysis::well_behaved())
        } else {
            let mut spec = LibSpec::verified_scheduler();
            spec.name = format!("ukverified{i}");
            LibraryConfig::new(spec, LibRole::Other)
        };
        names.push(lib.spec.name.clone());
        config = config.with_library(lib);
    }
    let actual = config
        .libraries
        .iter()
        .filter(|l| !crate::spec::transform::suggest_sh(&l.spec).is_empty())
        .count();
    assert_eq!(
        actual, toggleable,
        "slot spreading must place every unsafe library"
    );

    let mut profile = CallProfile {
        arg_bytes: range(&mut rng, 16, 256),
        ..CallProfile::default()
    };
    for (i, name) in names.iter().enumerate() {
        profile = profile.with_work(name, range(&mut rng, 500, 2500));
        if i > 0 {
            profile = profile.with_calls(name, &names[0], range(&mut rng, 1, 8));
            profile = profile.with_calls(name, &names[i - 1], range(&mut rng, 0, 3));
        }
    }
    SyntheticImage { config, profile }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::transform::suggest_sh;

    #[test]
    fn generation_is_deterministic() {
        let a = synthetic_image(16, 6, 42);
        let b = synthetic_image(16, 6, 42);
        assert_eq!(a.config.name, b.config.name);
        let names = |img: &SyntheticImage| {
            img.config
                .libraries
                .iter()
                .map(|l| l.spec.name.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(names(&a), names(&b));
        assert_eq!(a.profile.calls, b.profile.calls);
        assert_eq!(a.profile.base_cycles, b.profile.base_cycles);
        assert_eq!(a.profile.arg_bytes, b.profile.arg_bytes);
    }

    #[test]
    fn seeds_change_the_profile() {
        let a = synthetic_image(16, 6, 1);
        let b = synthetic_image(16, 6, 2);
        assert_ne!(a.profile.base_cycles, b.profile.base_cycles);
    }

    #[test]
    fn toggleable_count_is_exact() {
        for (n, t) in [(16, 6), (20, 8), (24, 12), (24, 1), (17, 0)] {
            let img = synthetic_image(n, t, 7);
            assert_eq!(img.config.libraries.len(), n);
            let sh = img
                .config
                .libraries
                .iter()
                .filter(|l| !suggest_sh(&l.spec).is_empty())
                .count();
            assert_eq!(sh, t, "n={n} t={t}");
        }
    }

    #[test]
    fn library_names_are_unique() {
        let img = synthetic_image(24, 10, 3);
        let mut names: Vec<_> = img
            .config
            .libraries
            .iter()
            .map(|l| l.spec.name.clone())
            .collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 24);
    }

    #[test]
    fn synthetic_images_plan_under_isolating_backends() {
        let img = synthetic_image(16, 6, 42);
        let mut cfg = img.config.clone();
        cfg.backend = crate::build::BackendChoice::MpkShared;
        let p = crate::build::plan(cfg).unwrap();
        // Verified libs co-locate, unsafe libs co-locate: two compartments.
        assert_eq!(p.num_compartments, 2);
    }
}
