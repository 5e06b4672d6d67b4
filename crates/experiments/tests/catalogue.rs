//! Holds `results/` and the three documents that index the experiments
//! to the one table they are rows of.

use std::collections::BTreeSet;
use std::path::PathBuf;

use sw_experiments::catalogue::CATALOGUE;

fn repo_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn ids_and_names_are_unique() {
    let ids: BTreeSet<_> = CATALOGUE.iter().map(|e| e.id).collect();
    let names: BTreeSet<_> = CATALOGUE.iter().map(|e| e.name).collect();
    assert_eq!(ids.len(), CATALOGUE.len(), "duplicate experiment id");
    assert_eq!(names.len(), CATALOGUE.len(), "duplicate experiment name");
}

/// Every row has its committed artifact and its replicate summary, and
/// `results/` holds nothing else (`trace_*` is `trace_run`'s
/// git-ignored output).
#[test]
fn results_dir_is_exactly_the_catalogue() {
    let on_disk: BTreeSet<String> = std::fs::read_dir(repo_root().join("results"))
        .expect("results/ is committed")
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| !name.starts_with("trace_"))
        .collect();
    let catalogued: BTreeSet<String> = CATALOGUE
        .iter()
        .flat_map(|e| [e.file_name(), e.ci_file_name()])
        .collect();
    assert_eq!(on_disk, catalogued);
}

/// Every committed replicate summary parses, covers the
/// `REPLICATES` seeds from 0, and agrees with its artifact on every
/// leaf no seed moves.
#[test]
fn replicate_summaries_hold_their_artifacts() {
    use sw_experiments::replicate::{Leaf, Summary, REPLICATES};
    for e in CATALOGUE {
        let read = |file: String| std::fs::read_to_string(repo_root().join("results").join(file));
        let summary = Summary::parse(&read(e.ci_file_name()).unwrap())
            .unwrap_or_else(|err| panic!("{}: {err}", e.ci_file_name()));
        assert_eq!((summary.first, summary.count), (0, REPLICATES), "{}", e.name);
        let artifact = Summary::of(0, &[read(e.file_name()).unwrap()]);
        for (path, leaf) in &summary.leaves {
            if let Leaf::Exact(v) = leaf {
                assert_eq!(
                    artifact.leaves.get(path),
                    Some(&Leaf::Exact(v.clone())),
                    "{}{path}",
                    e.name
                );
            }
        }
    }
}

/// Every row runs at the quick settings and returns JSON. A
/// `needs_faults` row runs in the `--features faults` legs only.
#[test]
fn every_runnable_row_returns_json_at_quick_settings() {
    for e in CATALOGUE.iter().filter(|e| e.runnable()) {
        let text = (e.run)(true, 0);
        serde_json::from_str::<serde_json::Value>(&text)
            .unwrap_or_else(|err| panic!("{} returned unparseable JSON: {err:?}", e.name));
    }
}

#[test]
fn the_docs_mention_every_row() {
    let read = |file: &str| std::fs::read_to_string(repo_root().join(file)).unwrap();
    let design = read("DESIGN.md");
    let index_start = design.find("## 3. Experiment index").expect("DESIGN.md §3");
    let index_end = design.find("## 4. Substitutions").expect("DESIGN.md §4");
    let index = &design[index_start..index_end];
    let docs = [
        ("README.md", read("README.md")),
        ("EXPERIMENTS.md", read("EXPERIMENTS.md")),
        ("DESIGN.md §3", index.to_string()),
    ];
    for (doc, text) in &docs {
        let words: BTreeSet<&str> = text
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .collect();
        for e in CATALOGUE {
            assert!(words.contains(e.name), "{doc} does not mention {}", e.name);
        }
    }
    // DESIGN.md §3 is the index: it also carries every id.
    for id in CATALOGUE.iter().flat_map(|e| e.id.split('/')) {
        assert!(
            index.contains(&format!("| {id} |")),
            "DESIGN.md §3 has no row {id}"
        );
    }
}

/// The `name = "…"` values of a manifest, in file order.
fn manifest_names(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .filter_map(|line| line.strip_prefix("name = \""))
        .filter_map(|rest| rest.split('"').next())
        .map(str::to_string)
        .collect()
}

/// Every `--bin <name>`, `-p <crate>` and `--manifest-path <path>` the
/// docs put in a command names something the tree has: a binary target
/// of this package, a workspace member, an existing manifest.
#[test]
fn the_docs_name_only_targets_that_exist() {
    let root = repo_root();
    let read = |path: PathBuf| std::fs::read_to_string(path).unwrap();
    let subdirs = |dir: &str| {
        std::fs::read_dir(root.join(dir))
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .collect::<Vec<_>>()
    };

    // Bin targets: the `[[bin]]` tables (the package's own name comes
    // first), plus every src/bin file no table claims by path.
    let manifest = read(root.join("crates/experiments/Cargo.toml"));
    let mut bins: BTreeSet<String> = manifest_names(&manifest).into_iter().skip(1).collect();
    for file in subdirs("crates/experiments/src/bin") {
        let stem = file.file_stem().unwrap().to_str().unwrap();
        if !manifest.contains(&format!("path = \"src/bin/{stem}.rs\"")) {
            bins.insert(stem.to_string());
        }
    }
    // Workspace members: the root package and `crates/*`, `vendor/*`.
    let members: BTreeSet<String> = [root.join("Cargo.toml")]
        .into_iter()
        .chain(
            ["crates", "vendor"]
                .iter()
                .flat_map(|dir| subdirs(dir))
                .map(|d| d.join("Cargo.toml")),
        )
        .filter_map(|manifest| manifest_names(&read(manifest)).into_iter().next())
        .collect();

    // A value is its word's run of name characters, without the quoting
    // or the full stop that may surround it.
    let named = |c: char| c.is_ascii_alphanumeric() || "_-./".contains(c);
    for doc in [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        ".claude/skills/verify/SKILL.md",
    ] {
        let text = read(root.join(doc));
        let words: Vec<&str> = text.split_whitespace().collect();
        for pair in words.windows(2) {
            let value = pair[1].trim_start_matches(|c| !named(c));
            let value = value
                .split(|c| !named(c))
                .next()
                .unwrap_or("")
                .trim_end_matches('.');
            match pair[0].trim_start_matches('`') {
                "--bin" => assert!(bins.contains(value), "{doc}: no binary `{value}`"),
                "-p" => assert!(
                    members.contains(value),
                    "{doc}: no workspace member `{value}`"
                ),
                "--manifest-path" => {
                    assert!(root.join(value).is_file(), "{doc}: no manifest `{value}`")
                }
                _ => {}
            }
        }
    }
}

/// The crate maps in README's Architecture section and DESIGN §5 name
/// exactly the directories under `crates/`: a crate added, folded or
/// renamed must be redrawn in both maps.
#[test]
fn the_crate_maps_name_exactly_the_crates() {
    let root = repo_root();
    let on_disk: BTreeSet<String> = std::fs::read_dir(root.join("crates"))
        .unwrap()
        .map(|entry| entry.unwrap())
        .filter(|entry| entry.path().join("Cargo.toml").is_file())
        .map(|entry| entry.file_name().into_string().unwrap())
        .collect();
    for doc in ["README.md", "DESIGN.md"] {
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        // A map is the fenced block opened by a bare `crates/` line; its
        // entries are the two-space-indented `name/` lines up to the
        // first line that is not indented.
        let mut maps = text.split("```\ncrates/\n").skip(1);
        let map = maps.next().unwrap_or_else(|| panic!("{doc}: no crate map"));
        assert!(maps.next().is_none(), "{doc}: more than one crate map");
        let drawn: BTreeSet<String> = map
            .lines()
            .take_while(|line| line.starts_with(' '))
            .filter_map(|line| line.strip_prefix("  "))
            .filter(|line| !line.starts_with(' '))
            .map(|line| line.split('/').next().unwrap().to_string())
            .collect();
        assert_eq!(drawn, on_disk, "{doc}: the crate map is not crates/");
    }
}
