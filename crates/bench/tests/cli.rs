//! `reproduce`'s command line, driven as a process: what it does not
//! know it refuses (exit 2, usage on stderr) instead of running the
//! default report, and a known experiment still runs.

use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("reproduce spawns")
}

#[test]
fn unknown_input_is_refused_with_usage() {
    for args in [
        &["--bench", "--quick", "--json"][..], // the host-time mode that was removed
        &["--vcpus=2"],                        // the run-queue width that was removed
        &["--quick=1"],
        &["--trace-out"],
        &["--json="],                         // an empty path is not a bare `--json`
        &["--serve", "--quick", "--conns=0"], // zero connections would serve one
        &["--seed=x"],
        &["bench"],
        &["fig3", "fig4"],
    ] {
        let out = reproduce(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage: reproduce"), "{args:?}: {err}");
    }
}

#[test]
fn a_known_experiment_runs_and_flags_add_reports() {
    let out = reproduce(&["explore"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Pareto frontier"), "{text}");
    assert!(!text.contains("Figure 3"), "explore alone ran more: {text}");

    // A positional and a report flag select both, in table order.
    let out = reproduce(&["coloring", "--migrate", "--quick"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    let (coloring, migrate) = (
        text.find("Enumerated deployments").expect("coloring ran"),
        text.find("Live migration").expect("migrate ran"),
    );
    assert!(coloring < migrate);
}
