//! Machine-readable experiment records.
//!
//! Every `table*` binary writes its reproduced rows as JSON to
//! `target/experiments/<id>.json`, so `EXPERIMENTS.md` and downstream
//! tooling never parse console output.

use serde::Serialize;
use std::fs;
use std::path::{Path, PathBuf};

/// One experiment's machine-readable output.
#[derive(Clone, Debug, Serialize)]
pub struct ExperimentRecord {
    /// Experiment id, e.g. `"table5"`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Reproduced data rows.
    pub rows: Vec<serde_json::Value>,
}

impl serde_json::ToJson for ExperimentRecord {
    fn to_json(&self) -> serde_json::Value {
        let mut m = serde_json::Map::new();
        m.insert("id".into(), self.id.clone().into());
        m.insert("title".into(), self.title.clone().into());
        m.insert("rows".into(), serde_json::Value::Array(self.rows.clone()));
        serde_json::Value::Object(m)
    }
}

impl ExperimentRecord {
    /// Creates an empty record.
    pub fn new(id: &str, title: &str) -> ExperimentRecord {
        ExperimentRecord {
            id: id.to_string(),
            title: title.to_string(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    pub fn push(&mut self, row: serde_json::Value) {
        self.rows.push(row);
    }

    /// The default output directory (`target/experiments` under the
    /// workspace, or `NETPU_EXPERIMENT_DIR` when set).
    pub fn default_dir() -> PathBuf {
        if let Ok(dir) = std::env::var("NETPU_EXPERIMENT_DIR") {
            return PathBuf::from(dir);
        }
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments")
    }

    /// Writes the record as pretty JSON into the
    /// [default directory](ExperimentRecord::default_dir), returning
    /// the path.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        self.write_in(&ExperimentRecord::default_dir())
    }

    /// Writes the record as pretty JSON into `dir`, returning the path.
    pub fn write_in(&self, dir: &Path) -> std::io::Result<PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id));
        fs::write(&path, serde_json::to_string_pretty(self)?)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_roundtrips_through_disk() {
        let dir = std::env::temp_dir().join("netpu-record-test");
        let mut r = ExperimentRecord::new("test_rec", "A test");
        r.push(serde_json::json!({"k": 1}));
        let path = r.write_in(&dir).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        let v: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(v["id"], "test_rec");
        assert_eq!(v["rows"][0]["k"], 1);
    }
}
