//! Result artifacts under `results/`, consumed by EXPERIMENTS.md.

use std::path::{Path, PathBuf};

use serde::Serialize;

/// Where artifacts live: `<workspace root>/results` when invoked via
/// cargo, else `./results`. `sw-exp run`/`all` write here and
/// `sw-exp check` reads the committed files back from here.
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR points at crates/experiments; hop to the root.
    if let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") {
        let p = Path::new(&manifest);
        if let Some(root) = p.parent().and_then(Path::parent) {
            return root.join("results");
        }
    }
    PathBuf::from("results")
}

/// The text of a JSON artifact: `value`, pretty-printed, exactly as it
/// is committed under `results/`.
pub fn to_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("serializable result")
}

/// Writes an artifact (JSON, NDJSON trace, CSV series, summary table)
/// to `dir/<name>` and returns that path; `name` carries its own
/// extension.
pub fn write_text_in(dir: &Path, name: &str, body: &str) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    std::fs::write(&path, body)?;
    Ok(path)
}

/// [`write_text_in`] the [`results_dir`].
pub fn write_text(name: &str, body: &str) -> std::io::Result<PathBuf> {
    write_text_in(&results_dir(), name, body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_and_is_readable() {
        let dir = std::env::temp_dir().join(format!("sw-results-{}", std::process::id()));
        let json = to_json(&serde_json::json!({"answer": 42}));
        let path = write_text_in(&dir, "test_artifact.json", &json).unwrap();
        assert_eq!(std::fs::read_to_string(path).unwrap(), json);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
