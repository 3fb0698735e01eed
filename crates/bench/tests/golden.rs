//! Every artefact `reproduce` writes, pinned byte for byte.
//!
//! The set is `ci/artefacts.sh`'s: seven runs of `reproduce` (the
//! paper's figures and tables, `--stats`, `--serve`, `--chaos`,
//! `--migrate`, the span trace and a serve run that migrates mid-traffic),
//! stdout and JSON document each, 13 files. They are simulated state
//! only, so a change that claims to preserve behaviour leaves every byte
//! where `tests/golden/` has it, and a change that moves one re-pins the
//! files with `ci/regen-baseline.sh` and says why.
//!
//! A red file is named with its first differing line and that line's
//! number. Under `--features trace-off` the files folded from span
//! records cannot match the default build's; they are skipped by name,
//! with the reason, and the rest are held.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// The runs of `ci/artefacts.sh`, in its order: arguments, stdout file.
const RUNS: [(&[&str], &str); 7] = [
    (&["all"], "all.out"),
    (&["--stats", "--quick", "--json=stats.json"], "stats.out"),
    (&["--serve", "--quick", "--json=serve.json"], "serve.out"),
    (
        &["--chaos", "--quick", "--seed=42", "--json=chaos.json"],
        "chaos.out",
    ),
    (
        &["--migrate", "--quick", "--json=migrate.json"],
        "migrate.out",
    ),
    (
        &["--stats", "--quick", "--trace-out=trace.json"],
        "trace.out",
    ),
    (
        &[
            "--serve",
            "--quick",
            "--migrate-at=200:vmrpc",
            "--json=serve-mig.json",
        ],
        "serve-mig.out",
    ),
];

/// Every file the runs write, sorted: the golden directory holds
/// exactly these.
const FILES: [&str; 13] = [
    "all.out",
    "chaos.json",
    "chaos.out",
    "migrate.json",
    "migrate.out",
    "serve-mig.json",
    "serve-mig.out",
    "serve.json",
    "serve.out",
    "stats.json",
    "stats.out",
    "trace.json",
    "trace.out",
];

/// What a `trace-off` build empties: the tables folded from span
/// records or histogram samples, which it compiles away (every count
/// stays).
const TABLES: &str = "its mechanism, batch-size, latency, ring and event tables are empty";

/// The files a `trace-off` build cannot reproduce, and why.
const TRACE_OFF_SKIPS: [(&str, &str); 7] = [
    (
        "all.out",
        "its mechanism, batch-size and latency tables are empty",
    ),
    ("serve.json", TABLES),
    ("serve-mig.json", TABLES),
    ("stats.json", TABLES),
    ("stats.out", TABLES),
    ("trace.json", "it holds no span record"),
    ("trace.out", TABLES),
];

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Runs every entry of [`RUNS`] in `dir`, all at once.
fn emit(dir: &Path) {
    let spawn = |(args, out): (&[&str], &str)| -> Child {
        let stdout = std::fs::File::create(dir.join(out)).expect("stdout file");
        Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .args(args)
            .current_dir(dir)
            .stdout(stdout)
            .stderr(Stdio::inherit())
            .spawn()
            .expect("reproduce spawns")
    };
    let children: Vec<(Child, &[&str])> = RUNS.into_iter().map(|r| (spawn(r), r.0)).collect();
    for (mut child, args) in children {
        let status = child.wait().expect("reproduce runs");
        assert!(status.success(), "reproduce {args:?}: {status}");
    }
}

/// Where `got` first differs from `want`: the 1-based line number and
/// both lines (`None` past the end of a file).
fn first_difference<'a>(
    want: &'a str,
    got: &'a str,
) -> Option<(usize, Option<&'a str>, Option<&'a str>)> {
    let (mut w, mut g) = (want.lines(), got.lines());
    for n in 1.. {
        match (w.next(), g.next()) {
            (None, None) => return None,
            (a, b) if a != b => return Some((n, a, b)),
            _ => {}
        }
    }
    unreachable!()
}

#[test]
fn every_artefact_is_its_golden_byte_for_byte() {
    let dir = std::env::temp_dir().join(format!("flexos-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    emit(&dir);

    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .expect("scratch dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    written.sort();
    assert_eq!(written, FILES, "the runs write exactly the pinned files");

    let skips: &[(&str, &str)] = if cfg!(feature = "trace-off") {
        &TRACE_OFF_SKIPS
    } else {
        &[]
    };
    let mut red = Vec::new();
    for file in FILES {
        if let Some((_, why)) = skips.iter().find(|(f, _)| *f == file) {
            eprintln!("{file}: skipped under trace-off: {why}");
            continue;
        }
        let want = std::fs::read(golden_dir().join(file)).expect("golden file");
        let got = std::fs::read(dir.join(file)).expect("written file");
        if want == got {
            continue;
        }
        let (want, got) = (
            String::from_utf8_lossy(&want),
            String::from_utf8_lossy(&got),
        );
        match first_difference(&want, &got) {
            Some((n, w, g)) => eprintln!(
                "{file}: first difference at line {n}\n  golden: {}\n  actual: {}",
                w.unwrap_or("<end of file>"),
                g.unwrap_or("<end of file>")
            ),
            None => eprintln!("{file}: differs only in its line endings or final newline"),
        }
        red.push(file);
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        red.is_empty(),
        "{red:?} differ from crates/bench/tests/golden/ (a deliberate change re-pins them \
         with ci/regen-baseline.sh)"
    );
}
